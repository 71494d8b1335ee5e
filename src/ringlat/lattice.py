"""Ring extensions, intermediate-subalgebra lattices and minimal-extension
classification."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .config import lattice_limit
from .errors import InternalCheckError, NotApplicableError, PreconditionError, SizeLimitError
from .ideals import Ideal, all_ideals, conductor, contains, ideal_product, spectrum
from .rings import (
    FiniteRing,
    RingHom,
    _close_rows,
    _is_prime,
    cosets,
    enumerate_closed_subsets,
    enumerate_submodules,
    extend_closure_mask,
    is_field,
    is_local,
    mask_elements,
    pair_homs,
    product,
    quotient,
    span_of_products,
    subgroup_sum_mask,
    subset_ring,
)


@dataclass(frozen=True, eq=False)
class Extension:
    """An injective unital embedding of one finite ring into another; the
    base and top are the embedding's source and target."""

    embed: RingHom

    def __post_init__(self):
        if not self.embed.is_injective:
            raise PreconditionError("invalid extension: embedding is not injective")

    @property
    def base(self) -> FiniteRing:
        return self.embed.source

    @property
    def top(self) -> FiniteRing:
        return self.embed.target

    @cached_property
    def image(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.sort(self.embed.map))

    @cached_property
    def image_mask(self) -> np.ndarray:
        m = np.zeros(self.top.order, dtype=bool)
        m[list(self.image)] = True
        return m

    def __repr__(self):
        return f"Extension({self.base.label} in {self.top.label})"


def power_extension(ring: FiniteRing, n: int) -> Extension:
    """The diagonal embedding of R into R^n."""
    if n < 1:
        raise PreconditionError("power extension needs n >= 1")
    pr = product([ring] * n)
    return Extension(pair_homs(ring, pr, [np.arange(ring.order)] * n))


def product_extension(parts: Sequence[Extension]) -> Extension:
    """Componentwise product of extensions."""
    if not parts:
        raise PreconditionError("product of no extensions")
    base_pr = product([e.base for e in parts])
    top_pr = product([e.top for e in parts])
    maps = [e.embed.map[c] for e, c in zip(parts, base_pr.components)]
    return Extension(pair_homs(base_pr.ring, top_pr, maps))


@dataclass(frozen=True, eq=False)
class Subalgebra:
    """An intermediate subalgebra, as a sorted tuple of top-ring indices."""

    extension: Extension
    elements: tuple[int, ...]

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.extension.top.order, dtype=bool)
        m[list(self.elements)] = True
        return m

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_base(self) -> bool:
        return self.elements == self.extension.image

    @property
    def is_top(self) -> bool:
        return self.order == self.extension.top.order

    def __contains__(self, index: int) -> bool:
        return bool(self.mask[index])

    def __repr__(self):
        return f"Subalgebra(order={self.order} of {self.extension!r})"


@dataclass(frozen=True)
class SubalgebraRealization:
    """A node re-indexed as a ring, with maps from the base and into the top."""

    ring: FiniteRing
    include: RingHom
    from_base: RingHom


def realize(sub: Subalgebra) -> SubalgebraRealization:
    ext = sub.extension
    top = ext.top
    elems = np.asarray(sub.elements, dtype=np.intp)
    ring, lookup = subset_ring(top, elems, top.one, f"{top.label}|{len(elems)}")
    include = RingHom(ring, top, elems.astype(np.int32))
    from_base = RingHom(ext.base, ring, lookup[ext.embed.map])
    return SubalgebraRealization(ring, include, from_base)


def lower_extension(sub: Subalgebra) -> Extension:
    """The extension base -> T for a node T."""
    return Extension(realize(sub).from_base)


def upper_extension(sub: Subalgebra) -> Extension:
    """The extension T -> top for a node T."""
    return Extension(realize(sub).include)


@dataclass(frozen=True, eq=False)
class Poset:
    """Distinct subsets ordered by inclusion, listed by size, then elements:
    node 0 is the bottom and the last node the top."""

    nodes: tuple
    hasse_edges: tuple[tuple[int, int], ...]
    chain_lengths: dict[int, int]  # maximal-chain length -> how many chains have it
    maximal_chain: tuple[int, ...]  # a longest bottom-to-top chain

    @property
    def count(self) -> int:
        return len(self.nodes)

    @property
    def length(self) -> int:
        return max(self.chain_lengths)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """upper_covers[i]: the nodes covering node i, in edge order."""
        return _group_covers(self.count, self.hasse_edges)

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """lower_covers[i]: the nodes node i covers, in edge order."""
        return _group_covers(self.count, [(b, a) for a, b in self.hasse_edges])


def _group_covers(count: int, edges) -> tuple[tuple[int, ...], ...]:
    """The heads of the edges (tail, head), grouped by tail."""
    out: list[list[int]] = [[] for _ in range(count)]
    for a, b in edges:
        out[a].append(b)
    return tuple(map(tuple, out))


@dataclass(frozen=True, eq=False)
class LatticeReport(Poset):
    """The full intermediate-subalgebra lattice of an extension; the nodes
    are Subalgebras."""

    extension: Extension

    @cached_property
    def _index_of(self) -> dict[tuple[int, ...], int]:
        return {n.elements: i for i, n in enumerate(self.nodes)}

    def node_index(self, elements) -> Optional[int]:
        return self._index_of.get(tuple(int(e) for e in elements))

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "lattice",
            "base": self.extension.base.label,
            "top": self.extension.top.label,
            "base_order": self.extension.base.order,
            "top_order": self.extension.top.order,
            "count": self.count,
            "length": self.length,
            "nodes": [list(n.elements) for n in self.nodes],
            "hasse_edges": [list(e) for e in self.hasse_edges],
            "maximal_chain": list(self.maximal_chain),
            "bottom": 0,
            "top_node": self.count - 1,
        }

    def to_dot(self) -> str:
        lines = ["digraph lattice {", "  rankdir=BT;"]
        for i, n in enumerate(self.nodes):
            shape = "box" if i in (0, self.count - 1) else "ellipse"
            lines.append(f'  n{i} [label="n{i} (order {n.order})", shape={shape}];')
        for a, b in self.hasse_edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def intermediate_algebras(ext: Extension, max_order: Optional[int] = None) -> LatticeReport:
    """All subalgebras between the image of the base and the top ring.

    Computed as the join closure of the atoms, the subalgebras generated by
    the image and one more element (see enumerate_closed_subsets).  The nodes
    are sorted by size, then elements, so the image is node 0 and the top is
    the last node.  max_order replaces the lattice bound for this call only."""
    top = ext.top
    if top.order > (lattice_limit() if max_order is None else max_order):
        raise SizeLimitError(f"lattice enumeration bound exceeded for order {top.order}")
    masks = enumerate_closed_subsets(top.order, list(ext.image), internal=(top.add, top.mul))
    nodes = tuple(Subalgebra(ext, mask_elements(m)) for m in masks)
    return LatticeReport(nodes, *poset_structure(masks), ext)


def poset_structure(
    masks: Sequence[np.ndarray],
) -> tuple[tuple[tuple[int, int], ...], dict[int, int], tuple[int, ...]]:
    """Hasse edges in row-major order, how many maximal chains have each
    length, and a longest chain, for distinct subsets listed by size and
    ordered by inclusion, with the least subset first and the greatest last.

    The edges are the transitive reduction of the inclusion order (Aho,
    Garey, Ullman 1972): walking the strict supersets of a node in index
    order, a superset is a cover unless it contains a cover found before
    it.  The chains are counted in the same pass: the lower covers of a node
    have smaller indices, so its counts are complete before its own row
    starts.  The longest chain steps down from each node to its lowest-index
    lower cover of greatest distance."""
    packed = np.packbits(np.stack(masks), axis=1)
    outside = ~packed
    # inc[i, j]: subset i lies inside subset j
    inc = np.stack([~(row & outside).any(axis=1) for row in packed])
    n = len(packed)
    counts: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n - 1)]
    pred, depth_of_pred = [0] * n, [-1] * n
    edges = []
    for i in range(n):
        below = counts[i]
        depth = max(below)
        cand = inc[i].copy()
        cand[: i + 1] = False
        j = int(cand.argmax())
        while cand[j]:
            edges.append((i, j))
            above = counts[j]
            for k, c in below.items():
                above[k + 1] = above.get(k + 1, 0) + c
            if depth > depth_of_pred[j]:
                pred[j], depth_of_pred[j] = i, depth
            cand &= ~inc[j]
            j = int(cand.argmax())
    chain = [n - 1]
    while chain[-1]:
        chain.append(pred[chain[-1]])
    return tuple(edges), counts[-1], tuple(reversed(chain))


# ---------------------------------------------------------------------------
# extension predicates

def _prime_pullbacks(ext: Extension) -> list[tuple[Ideal, np.ndarray]]:
    """Each prime of the top with the mask of its contraction to the base."""
    return [(q, q.mask[ext.embed.map]) for q in spectrum(ext.top).primes]


def _residues_trivial(ext: Extension, pulls) -> bool:
    return all(ext.top.order // q.order == ext.base.order // int(pull.sum()) for q, pull in pulls)


def is_infra_integral(ext: Extension) -> bool:
    """Residue field extensions are trivial at every prime of the top."""
    return _residues_trivial(ext, _prime_pullbacks(ext))


def is_subintegral(ext: Extension) -> bool:
    """Infra-integral with a bijective spectral map."""
    pulls = _prime_pullbacks(ext)
    if not _residues_trivial(ext, pulls):
        return False
    base_primes = {p.elements for p in spectrum(ext.base).primes}
    seen = {mask_elements(pull) for _, pull in pulls}
    return len(seen) == len(pulls) and seen == base_primes


def seminormal_candidates(top: FiniteRing, mask: np.ndarray) -> np.ndarray:
    """The b outside the subring T (given by its mask) with b^2 and b^3 in T."""
    sq = top.mul.diagonal()
    cube = top.mul[sq, np.arange(top.order)]
    return np.flatnonzero(mask[sq] & mask[cube] & ~mask)


def tclosed_candidates(top: FiniteRing, mask: np.ndarray) -> np.ndarray:
    """The b outside the subring T (given by its mask) admitting r in T with
    b^2 - rb and b^3 - rb^2 in T, tested on all pairs (r, b) at once."""
    inside = np.flatnonzero(mask)
    outside = np.flatnonzero(~mask)
    sq = top.mul.diagonal()[outside]
    cube = top.mul[sq, outside]
    c1 = mask[top.add[sq, top.neg[top.mul[np.ix_(inside, outside)]]]]
    c2 = mask[top.add[cube, top.neg[top.mul[np.ix_(inside, sq)]]]]
    return outside[(c1 & c2).any(axis=0)]


def is_seminormal(ext: Extension) -> bool:
    """The seminormalization step adjoins nothing to R."""
    return not seminormal_candidates(ext.top, ext.image_mask).size


def is_tclosed(ext: Extension) -> bool:
    """The t-closure step adjoins nothing to R."""
    return not tclosed_candidates(ext.top, ext.image_mask).size


def _span(top: FiniteRing, img: np.ndarray, coeffs: np.ndarray, t: int) -> np.ndarray:
    """The elements of R + Jt, for R and J given by their top indices img and
    coeffs."""
    return np.unique(top.add[np.ix_(img, np.unique(top.mul[coeffs, t]))])


def is_quadratic(ext: Extension) -> bool:
    """Every module span R + Rt is multiplicatively closed."""
    top = ext.top
    img = np.asarray(ext.image, dtype=np.intp)
    for t in range(top.order):
        span = _span(top, img, img, t)
        smask = np.zeros(top.order, dtype=bool)
        smask[span] = True
        if not smask[top.mul[np.ix_(span, span)]].all():
            return False
    return True


def is_delta(report: LatticeReport) -> bool:
    """The node set is closed under pairwise module sums."""
    top = report.extension.top
    keys = {n.elements for n in report.nodes}
    for i in range(report.count):
        for j in range(i + 1, report.count):
            s = subgroup_sum_mask(top, report.nodes[i].mask, report.nodes[j].mask)
            if mask_elements(s) not in keys:
                return False
    return True


def is_delta0(ext: Extension) -> bool:
    """Every base-submodule of S containing R is multiplicatively closed.

    Each span R + Rt is such a submodule, so Delta0 implies quadratic and a
    failed is_quadratic answers False exactly."""
    return is_quadratic(ext) and _submodules_over_base_closed(ext)


def _submodules_over_base_closed(ext: Extension) -> bool:
    """Delta0 for a quadratic extension: the submodules containing R, which
    correspond to the submodules of the quotient module S/R, are enumerated,
    pulled back and tested."""
    top = ext.top
    coset_of, reps = cosets(top.add, np.asarray(ext.image, dtype=np.intp))
    add = coset_of[top.add[np.ix_(reps, reps)]]
    action = coset_of[top.mul[np.ix_(ext.embed.map, reps)]]
    subs = enumerate_submodules(add, action, coset_of[top.zero])
    for sm in subs:
        pull = sm[coset_of]
        idx = np.flatnonzero(pull)
        if not pull[top.mul[np.ix_(idx, idx)]].all():
            return False
    return True


# ---------------------------------------------------------------------------
# minimal extensions

@dataclass(frozen=True)
class MinimalClassification:
    """Trichotomy result for a minimal extension."""

    kind: str  # inert | decomposed | ramified | not_minimal
    crucial: Optional[Ideal]
    witness: tuple[Ideal, ...]
    residue_degree: Optional[int] = None


def classify_minimal(report: LatticeReport) -> MinimalClassification:
    """Classify a minimal extension as inert, decomposed or ramified.

    The crucial ideal is the conductor M = (R:S), a maximal ideal of R; the
    three cases are distinguished by the maximal ideals of S over M.  An
    inconsistent case match raises InternalCheckError."""
    if report.count != 2:
        return MinimalClassification("not_minimal", None, ())
    ext = report.extension
    base, top = ext.base, ext.top
    m = conductor(ext)
    if not is_field(quotient(base, m).ring):
        raise InternalCheckError("classification failure: conductor of a minimal extension is not maximal")
    q_r = base.order // m.order
    m_top_elems = tuple(sorted(int(i) for i in ext.embed.map[np.asarray(m.elements, dtype=np.intp)]))
    m_top = Ideal.from_indices(top, m_top_elems, validate=False)
    spect = spectrum(top)
    over = [q for q in spect.maximals if contains(q, m_top)]

    matches: list[tuple[str, tuple[Ideal, ...], Optional[int]]] = []

    def lies_over_m(q: Ideal) -> bool:
        """q contracts to M and |S/q| = |R/M|."""
        kernel = mask_elements(q.mask[ext.embed.map])
        return kernel == m.elements and top.order // q.order == q_r

    # inert: M stays maximal and R/M -> S/M is a minimal field extension
    for q in over:
        if q.elements == m_top_elems:
            q_s = top.order // q.order
            d = 0
            val = 1
            while val < q_s:
                val *= q_r
                d += 1
            if val == q_s and d >= 2 and _is_prime(d):
                matches.append(("inert", (q,), d))

    # decomposed: two maximals with intersection M and trivial residue moves
    for i in range(len(over)):
        for j in range(i + 1, len(over)):
            m1, m2 = over[i], over[j]
            inter = mask_elements(m1.mask & m2.mask)
            if inter == m_top_elems and lies_over_m(m1) and lies_over_m(m2):
                matches.append(("decomposed", (m1, m2), None))

    # ramified: one maximal M' with M'^2 inside M, residue isomorphism, and
    # S/M of dimension two over R/M
    for q in over:
        if q.elements == m_top_elems:
            continue
        sq = ideal_product(q, q)
        if not contains(m_top, sq):
            continue
        if not lies_over_m(q):
            continue
        if top.order // len(m_top_elems) != q_r * q_r:
            continue
        matches.append(("ramified", (q,), None))

    if len(matches) != 1:
        raise InternalCheckError(
            f"classification failure: {len(matches)} cases match for {ext!r}"
        )
    kind, witness, degree = matches[0]
    return MinimalClassification(kind, m, witness, degree)


# ---------------------------------------------------------------------------
# further structure

@dataclass(frozen=True)
class GilbertReport:
    """Order-isomorphism J -> R + Jt between the ideals of R containing the
    conductor and the lattice nodes, for S = R + Rt."""

    t: int
    pairs: tuple[tuple[Ideal, int], ...]


def gilbert_bijection(report: LatticeReport) -> GilbertReport:
    ext = report.extension
    top = ext.top
    img = np.asarray(ext.image, dtype=np.intp)
    t_found = next((t for t in range(top.order) if len(_span(top, img, img, t)) == top.order), None)
    if t_found is None:
        raise NotApplicableError("extension is not of the form R + Rt")
    cond = conductor(ext)
    pairs = []
    seen = set()
    for j in all_ideals(ext.base):
        if not contains(j, cond):
            continue
        j_top = ext.embed.map[np.asarray(j.elements, dtype=np.intp)]
        idx = report.node_index(_span(top, img, j_top, t_found))
        if idx is None:
            raise InternalCheckError("R + Jt is not a lattice node")
        if idx in seen:
            raise InternalCheckError("ideal correspondence is not injective")
        seen.add(idx)
        pairs.append((j, idx))
    if len(pairs) != report.count:
        raise InternalCheckError("ideal correspondence is not onto the lattice")
    return GilbertReport(t_found, tuple(pairs))


@dataclass(frozen=True)
class IrreducibleDecomposition:
    node: int
    meet_factors: tuple[int, ...]
    join_factors: tuple[int, ...]


def meet_irreducible_nodes(report: LatticeReport) -> set[int]:
    return {i for i, up in enumerate(report.upper_covers) if i == report.count - 1 or len(up) == 1}


def join_irreducible_nodes(report: LatticeReport) -> set[int]:
    return {i for i, down in enumerate(report.lower_covers) if i == 0 or len(down) == 1}


def irreducible_decomposition(report: LatticeReport, node: int) -> IrreducibleDecomposition:
    """Express a node as a meet of meet-irreducibles and a join of
    join-irreducibles, verified by recomputation."""
    ext = report.extension
    top = ext.top
    target = report.nodes[node].mask
    meet_cands = sorted(
        (i for i in meet_irreducible_nodes(report) if bool((target & ~report.nodes[i].mask).sum() == 0)),
        key=lambda i: report.nodes[i].order,
    )
    cur = np.ones(top.order, dtype=bool)
    meet_used = []
    for i in meet_cands:
        if np.array_equal(cur, target):
            break
        nxt = cur & report.nodes[i].mask
        if not np.array_equal(nxt, cur):
            cur = nxt
            meet_used.append(i)
    if not np.array_equal(cur, target):
        raise InternalCheckError("meet of irreducibles above the node is not the node")
    join_cands = sorted(
        (i for i in join_irreducible_nodes(report) if bool((report.nodes[i].mask & ~target).sum() == 0)),
        key=lambda i: -report.nodes[i].order,
    )
    cur_mask = report.nodes[0].mask.copy()
    join_used = []
    for i in join_cands:
        if np.array_equal(cur_mask, target):
            break
        if report.nodes[i].mask[~cur_mask].any():
            cur_mask = extend_closure_mask(
                top.order, cur_mask, np.flatnonzero(report.nodes[i].mask), internal=(top.add, top.mul)
            )
            join_used.append(i)
    if not np.array_equal(cur_mask, target):
        raise InternalCheckError("join of irreducibles below the node is not the node")
    return IrreducibleDecomposition(node, tuple(meet_used), tuple(join_used))


def is_special_minimal_ramified(report: LatticeReport) -> bool:
    """Minimal ramified with M^2 = MN = 0 and N^2 = M, products taken in S."""
    ext = report.extension
    base, top = ext.base, ext.top
    m = is_local(base)
    n = is_local(top)
    if m is None or n is None:
        raise PreconditionError("special minimal ramified test needs local rings")
    if classify_minimal(report).kind != "ramified":
        return False
    m_top = ext.embed.map[np.asarray(m.elements, dtype=np.intp)]
    n_idx = np.asarray(n.elements, dtype=np.intp)

    def span(a, b) -> tuple[int, ...]:
        return mask_elements(span_of_products(top.add, top.mul, top.zero, a, b))

    zero_only = (top.zero,)
    if span(m_top, m_top) != zero_only:
        return False
    if span(m_top, n_idx) != zero_only:
        return False
    return span(n_idx, n_idx) == tuple(sorted(int(i) for i in m_top))


def is_pointwise_minimal(report: LatticeReport) -> bool:
    """R[t] covers R for every t outside the image."""
    top = report.extension.top
    base_mask = report.nodes[0].mask
    covers = {report.nodes[b].mask.tobytes() for b in report.upper_covers[0]}
    # R[t + r] = R[t] for r in R, so one t per coset of R, all in one batch
    _, reps = cosets(top.add, np.flatnonzero(base_mask))
    reps = reps[~base_mask[reps]]
    adjoined = np.repeat(base_mask[None], len(reps), axis=0)
    hit = np.zeros_like(adjoined)
    hit[np.arange(len(reps)), reps] = True
    _close_rows(adjoined, hit, (top.add, top.mul), ())
    return all(row.tobytes() in covers for row in adjoined)


def predicate_battery(report: LatticeReport) -> dict:
    """All boolean extension predicates at once (CLI support)."""
    ext = report.extension
    quadratic = is_quadratic(ext)
    return {
        # every element of a finite ring has a repeating power sequence,
        # and x^i = x^j is a monic relation
        "integral": True,
        "infra_integral": is_infra_integral(ext),
        "subintegral": is_subintegral(ext),
        "seminormal": is_seminormal(ext),
        "t_closed": is_tclosed(ext),
        "quadratic": quadratic,
        "delta": is_delta(report),
        "delta0": quadratic and _submodules_over_base_closed(ext),
        "pointwise_minimal": is_pointwise_minimal(report),
    }
