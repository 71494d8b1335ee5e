"""Ring extensions, intermediate-subalgebra lattices and minimal-extension
classification."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .config import CHAIN_CAP, lattice_limit
from .errors import InternalCheckError, NotApplicableError, PreconditionError, SizeLimitError
from .ideals import Ideal, all_ideals, conductor, contains, ideal_product, spectrum
from .rings import (
    FiniteRing,
    RingHom,
    closure_mask,
    cosets,
    enumerate_closed_subsets,
    extend_closure_mask,
    is_field,
    is_local,
    mask_elements,
    pair_homs,
    product,
    quotient,
    subgroup_sum_mask,
    subset_ring,
)


@dataclass(frozen=True, eq=False)
class Extension:
    """An injective unital embedding of one finite ring into another."""

    base: FiniteRing
    top: FiniteRing
    embed: RingHom

    def __post_init__(self):
        if self.embed.source is not self.base or self.embed.target is not self.top:
            raise PreconditionError("invalid extension: embedding endpoints do not match")
        if not self.embed.is_injective:
            raise PreconditionError("invalid extension: embedding is not injective")

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


def power_extension(ring: FiniteRing, n: int, max_order: Optional[int] = None) -> Extension:
    """The diagonal embedding of R into R^n."""
    if n < 1:
        raise PreconditionError("power extension needs n >= 1")
    pr = product([ring] * n, max_order=max_order)
    return Extension(ring, pr.ring, pr.diagonal)


def product_extension(parts: Sequence[Extension], max_order: Optional[int] = None) -> Extension:
    """Componentwise product of extensions."""
    if not parts:
        raise PreconditionError("product of no extensions")
    base_pr = product([e.base for e in parts], max_order=max_order)
    top_pr = product([e.top for e in parts], max_order=max_order)
    maps = [e.embed.map[c] for e, c in zip(parts, base_pr.components)]
    return Extension(base_pr.ring, top_pr.ring, pair_homs(base_pr.ring, top_pr, maps))


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
    real = realize(sub)
    return Extension(sub.extension.base, real.ring, real.from_base)


def upper_extension(sub: Subalgebra) -> Extension:
    """The extension T -> top for a node T."""
    real = realize(sub)
    return Extension(real.ring, sub.extension.top, real.include)


@dataclass(frozen=True, eq=False)
class LatticeReport:
    """The full intermediate-subalgebra lattice of an extension."""

    extension: Extension
    nodes: tuple[Subalgebra, ...]
    hasse_edges: tuple[tuple[int, int], ...]
    count: int
    length: int
    maximal_chain: tuple[int, ...]
    bottom_index: int
    top_index: int

    @cached_property
    def _index_of(self) -> dict[tuple[int, ...], int]:
        return {n.elements: i for i, n in enumerate(self.nodes)}

    def node_index(self, elements) -> Optional[int]:
        if isinstance(elements, np.ndarray) and elements.dtype == bool:
            elements = mask_elements(elements)
        return self._index_of.get(tuple(int(e) for e in elements))

    def upper_covers(self, i: int) -> list[int]:
        return [b for a, b in self.hasse_edges if a == i]

    def lower_covers(self, i: int) -> list[int]:
        return [a for a, b in self.hasse_edges if b == i]

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
            "bottom": self.bottom_index,
            "top_node": self.top_index,
        }

    def to_dot(self) -> str:
        lines = ["digraph lattice {", "  rankdir=BT;"]
        for i, n in enumerate(self.nodes):
            shape = "box" if i in (self.bottom_index, self.top_index) else "ellipse"
            lines.append(f'  n{i} [label="n{i} (order {n.order})", shape={shape}];')
        for a, b in self.hasse_edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def intermediate_algebras(
    ext: Extension,
    max_order: Optional[int] = None,
    element_order: Optional[Sequence[int]] = None,
) -> LatticeReport:
    """All subalgebras between the image of the base and the top ring.

    Computed as the join closure of the atoms, the subalgebras generated by
    the image and one more element (see enumerate_closed_subsets); the node
    set and order do not depend on element_order."""
    top = ext.top
    if top.order > lattice_limit(max_order):
        raise SizeLimitError(f"lattice enumeration bound exceeded for order {top.order}")
    masks = enumerate_closed_subsets(
        top.order,
        list(ext.image),
        internal=(top.add, top.mul),
        element_order=element_order,
    )
    nodes = tuple(Subalgebra(ext, mask_elements(m)) for m in masks)
    bottom = next(i for i, node in enumerate(nodes) if node.is_base)
    top_i = next(i for i, node in enumerate(nodes) if node.is_top)
    edges, length, chain = poset_structure([node.mask for node in nodes], bottom, top_i)
    return LatticeReport(ext, nodes, edges, len(nodes), length, chain, bottom, top_i)


def poset_structure(
    masks: Sequence[np.ndarray], bottom: int, top: int
) -> tuple[tuple[tuple[int, int], ...], int, tuple[int, ...]]:
    """Hasse edges, longest-chain length and a witness chain for a family of
    subsets ordered by inclusion."""
    n = len(masks)
    mat = np.stack(masks).astype(np.int32)
    # missing[i, j]: how many elements of subset i lie outside subset j
    missing = mat @ (1 - mat.T)
    proper = (missing == 0) & (np.arange(n)[:, None] != np.arange(n)[None, :])
    between = (proper.astype(np.int32) @ proper.astype(np.int32)) > 0
    edge_mask = proper & ~between
    edges = tuple((int(a), int(b)) for a, b in np.argwhere(edge_mask))
    sizes = mat.sum(axis=1)
    dist = np.full(n, -1, dtype=int)
    pred = np.full(n, -1, dtype=int)
    below: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        below[b].append(a)
    dist[bottom] = 0
    for j in sorted(range(n), key=lambda i: int(sizes[i])):
        for a in below[j]:
            if dist[a] >= 0 and dist[a] + 1 > dist[j]:
                dist[j] = dist[a] + 1
                pred[j] = a
    length = int(dist[top])
    chain = [top]
    while chain[-1] != bottom:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return edges, length, tuple(chain)


@dataclass(frozen=True)
class ChainReport:
    """Maximal chains of a lattice, with a gradedness flag."""

    length: int
    witness: tuple[int, ...]
    chain_count: int
    truncated: bool
    graded: bool
    lengths: dict[int, int]


def maximal_chain_lengths(
    edges: Sequence[tuple[int, int]], bottom: int, top: int, cap: int = CHAIN_CAP
) -> tuple[dict[int, int], int, bool]:
    """Multiset of maximal-chain lengths bottom-to-top: (lengths -> how many,
    total count, truncated-at-cap flag)."""
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    lengths: dict[int, int] = {}
    count = 0
    truncated = False
    if bottom == top:
        return {0: 1}, 1, False
    path_stack = [(bottom, 0)]
    while path_stack:
        node, depth = path_stack.pop()
        if node == top:
            count += 1
            lengths[depth] = lengths.get(depth, 0) + 1
            if count >= cap:
                truncated = True
                break
            continue
        for nxt in succ.get(node, []):
            path_stack.append((nxt, depth + 1))
    return lengths, count, truncated


def length_and_chains(report: LatticeReport, cap: int = CHAIN_CAP) -> ChainReport:
    """Enumerate maximal chains bottom-to-top; flags any whose length differs
    from the lattice length."""
    lengths, count, truncated = maximal_chain_lengths(
        report.hasse_edges, report.bottom_index, report.top_index, cap
    )
    graded = set(lengths) == {report.length}
    return ChainReport(report.length, report.maximal_chain, count, truncated, graded, lengths)


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
    seen = {tuple(int(i) for i in np.flatnonzero(pull)) for _, pull in pulls}
    return len(seen) == len(pulls) and seen == base_primes


def is_seminormal(ext: Extension) -> bool:
    """No b outside R has both b^2 and b^3 in R."""
    top = ext.top
    idx = np.arange(top.order)
    sq = top.mul.diagonal()
    cube = top.mul[sq, idx]
    bad = ext.image_mask[sq] & ext.image_mask[cube] & ~ext.image_mask
    return not bool(bad.any())


def is_tclosed(ext: Extension) -> bool:
    """No b outside R admits r in R with b^2 - rb and b^3 - rb^2 in R."""
    top = ext.top
    outside = np.flatnonzero(~ext.image_mask)
    if outside.size == 0:
        return True
    img = np.asarray(ext.image, dtype=np.intp)
    sq = top.mul.diagonal()[outside]
    cube = top.mul[sq, outside]
    rb = top.mul[np.ix_(img, outside)]
    rb2 = top.mul[np.ix_(img, sq)]
    c1 = ext.image_mask[top.add[sq[None, :], top.neg[rb]]]
    c2 = ext.image_mask[top.add[cube[None, :], top.neg[rb2]]]
    return not bool((c1 & c2).any())


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


def is_delta(ext: Extension, report: Optional[LatticeReport] = None) -> bool:
    """The node set is closed under pairwise module sums."""
    report = report or intermediate_algebras(ext)
    keys = {n.elements for n in report.nodes}
    for i in range(report.count):
        for j in range(i + 1, report.count):
            s = subgroup_sum_mask(ext.top, report.nodes[i].mask, report.nodes[j].mask)
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
    subs = enumerate_closed_subsets(len(reps), [coset_of[top.zero]], internal=(add,),
                                    absorbing=(action,))
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


def is_minimal(ext: Extension, report: Optional[LatticeReport] = None, max_order: Optional[int] = None) -> bool:
    report = report or intermediate_algebras(ext, max_order=max_order)
    return report.count == 2


def classify_minimal(
    ext: Extension,
    report: Optional[LatticeReport] = None,
    max_order: Optional[int] = None,
) -> MinimalClassification:
    """Classify a minimal extension as inert, decomposed or ramified.

    The crucial ideal is the conductor M = (R:S), a maximal ideal of R; the
    three cases are distinguished by the maximal ideals of S over M.  An
    inconsistent case match raises InternalCheckError."""
    report = report or intermediate_algebras(ext, max_order=max_order)
    if report.count != 2:
        return MinimalClassification("not_minimal", None, ())
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

    # inert: M stays maximal and R/M -> S/M is a minimal field extension
    for q in over:
        if q.elements == m_top_elems:
            q_s = top.order // q.order
            d = 0
            val = 1
            while val < q_s:
                val *= q_r
                d += 1
            if val == q_s and d >= 2 and _is_prime_int(d):
                matches.append(("inert", (q,), d))

    # decomposed: two maximals with intersection M and trivial residue moves
    for i in range(len(over)):
        for j in range(i + 1, len(over)):
            m1, m2 = over[i], over[j]
            inter = tuple(int(x) for x in np.flatnonzero(m1.mask & m2.mask))
            if inter != m_top_elems:
                continue
            ok = True
            for q in (m1, m2):
                kernel = tuple(int(i2) for i2 in np.flatnonzero(q.mask[ext.embed.map]))
                if kernel != m.elements or top.order // q.order != q_r:
                    ok = False
            if ok:
                matches.append(("decomposed", (m1, m2), None))

    # ramified: one maximal M' with M'^2 inside M, residue isomorphism, and
    # S/M of dimension two over R/M
    for q in over:
        if q.elements == m_top_elems:
            continue
        sq = ideal_product(q, q)
        if not contains(m_top, sq):
            continue
        kernel = tuple(int(i2) for i2 in np.flatnonzero(q.mask[ext.embed.map]))
        if kernel != m.elements or top.order // q.order != q_r:
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


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


# ---------------------------------------------------------------------------
# further structure

@dataclass(frozen=True)
class GilbertReport:
    """Order-isomorphism J -> R + Jt between the ideals of R containing the
    conductor and the lattice nodes, for S = R + Rt."""

    t: int
    pairs: tuple[tuple[Ideal, int], ...]


def gilbert_bijection(ext: Extension, report: Optional[LatticeReport] = None) -> GilbertReport:
    report = report or intermediate_algebras(ext)
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
    return {i for i in range(report.count) if i == report.top_index or len(report.upper_covers(i)) == 1}


def join_irreducible_nodes(report: LatticeReport) -> set[int]:
    return {i for i in range(report.count) if i == report.bottom_index or len(report.lower_covers(i)) == 1}


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
    cur_mask = report.nodes[report.bottom_index].mask.copy()
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


def is_special_minimal_ramified(ext: Extension, report: Optional[LatticeReport] = None) -> bool:
    """Minimal ramified with M^2 = MN = 0 and N^2 = M, products taken in S."""
    base, top = ext.base, ext.top
    m = is_local(base)
    n = is_local(top)
    if m is None or n is None:
        raise PreconditionError("special minimal ramified test needs local rings")
    report = report or intermediate_algebras(ext)
    if report.count != 2:
        return False
    if classify_minimal(ext, report).kind != "ramified":
        return False
    m_top = ext.embed.map[np.asarray(m.elements, dtype=np.intp)]
    n_idx = np.asarray(n.elements, dtype=np.intp)

    def span_of_products(a, b) -> tuple[int, ...]:
        prods = np.unique(top.mul[np.ix_(a, b)])
        return mask_elements(closure_mask(top.order, list(prods) + [top.zero], internal=(top.add,)))

    zero_only = (top.zero,)
    if span_of_products(m_top, m_top) != zero_only:
        return False
    if span_of_products(m_top, n_idx) != zero_only:
        return False
    return span_of_products(n_idx, n_idx) == tuple(sorted(int(i) for i in m_top))


def is_pointwise_minimal(ext: Extension, report: Optional[LatticeReport] = None) -> bool:
    """R[t] covers R for every t outside the image."""
    report = report or intermediate_algebras(ext)
    top = ext.top
    base_mask = report.nodes[report.bottom_index].mask
    covers = {report.nodes[b].elements for a, b in report.hasse_edges if a == report.bottom_index}
    for t in range(top.order):
        if base_mask[t]:
            continue
        adjoined = extend_closure_mask(top.order, base_mask, [t], internal=(top.add, top.mul))
        if mask_elements(adjoined) not in covers:
            return False
    return True


def predicate_battery(ext: Extension, report: Optional[LatticeReport] = None) -> dict:
    """All boolean extension predicates at once (CLI support)."""
    report = report or intermediate_algebras(ext)
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
        "delta": is_delta(ext, report),
        "delta0": quadratic and _submodules_over_base_closed(ext),
        "pointwise_minimal": is_pointwise_minimal(ext, report),
    }
