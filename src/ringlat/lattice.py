"""Ring extensions, intermediate-subalgebra lattices and minimal-extension
classification."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .config import lattice_limit
from .errors import InternalCheckError, NotApplicableError, PreconditionError, SizeLimitError
from .ideals import Ideal, all_ideals, conductor, contains, ideal_product, spectrum
from .rings import (
    FiniteRing,
    RingHom,
    _GATHER_ENTRIES,
    _LEVEL_ENTRIES,
    _add_cosets_rows,
    _is_prime,
    adjoin_all,
    cosets,
    enumerate_closed_subsets,
    is_local,
    mask_elements,
    pair_homs,
    product,
    span_of_products,
    subset_ring,
)


@dataclass(frozen=True, eq=False, repr=False)
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


@dataclass(frozen=True, eq=False, repr=False)
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

    def __contains__(self, index: int) -> bool:
        return bool(self.mask[index])

    def __repr__(self):
        return f"Subalgebra(order={self.order} of {self.extension!r})"


class SubalgebraRealization(NamedTuple):
    """A node re-indexed as a ring, with maps from the base and into the top."""

    ring: FiniteRing
    include: RingHom
    from_base: RingHom


def realize(sub: Subalgebra) -> SubalgebraRealization:
    ext = sub.extension
    top = ext.top
    elems = np.asarray(sub.elements, dtype=np.intp)
    ring, lookup = subset_ring(top, elems, top.one, f"{top.label}|{len(elems)}")
    include = RingHom(ring, top, elems)
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
    node 0 is the bottom and the last node the top.  hasse_edges are the
    covers (i, j), node i inside node j, in row-major order."""

    nodes: tuple
    hasse_edges: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.nodes)

    @property
    def length(self) -> int:
        return max(self.chain_lengths)

    @property
    def chain_lengths(self) -> dict[int, int]:
        """Maximal-chain length -> how many maximal chains have it."""
        return self._chains[0]

    @property
    def maximal_chain(self) -> tuple[int, ...]:
        """A longest bottom-to-top chain."""
        return self._chains[1]

    @cached_property
    def _chains(self) -> tuple[dict[int, int], tuple[int, ...]]:
        """One pass over the edges in row-major order: the lower covers of a
        node have smaller indices, so its chain counts are complete before
        its own row starts, and the longest chain steps down from each node
        to its lowest-index lower cover of greatest depth."""
        n = self.count
        counts: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n - 1)]
        pred, depth_of_pred = [0] * n, [-1] * n
        row = -1
        for i, j in self.hasse_edges:
            if i != row:
                row, below = i, counts[i]
                depth = max(below)
            above = counts[j]
            for k, c in below.items():
                above[k + 1] = above.get(k + 1, 0) + c
            if depth > depth_of_pred[j]:
                pred[j], depth_of_pred[j] = i, depth
        chain = [n - 1]
        while chain[-1]:
            chain.append(pred[chain[-1]])
        return counts[-1], tuple(reversed(chain))

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """upper_covers[i]: the nodes covering node i, in edge order."""
        return _group_covers(self.count, self.hasse_edges)

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """lower_covers[i]: the nodes node i covers, in edge order."""
        return _group_covers(self.count, [(b, a) for a, b in self.hasse_edges])

    @cached_property
    def _heights(self) -> tuple[int, ...]:
        """_heights[i]: the length of a longest cover path from node i to the
        top.  Covers point to higher indices, so one pass from the top down
        finds every node's height after those of its covers."""
        heights = [0] * self.count
        for i in range(self.count - 2, -1, -1):
            heights[i] = 1 + max(heights[j] for j in self.upper_covers[i])
        return tuple(heights)

    def above(self, i: int) -> UpSet:
        """The interval [node i, top] read off this poset: the up-set of node
        i, by one walk over upper_covers, and the longest cover path from
        node i to the top, which is the length of the interval."""
        seen = [False] * self.count
        seen[i] = True
        stack = [i]
        while stack:
            for j in self.upper_covers[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return UpSet(tuple(j for j in range(i, self.count) if seen[j]), self._heights[i])


class UpSet(NamedTuple):
    """The nodes above a node, itself included, in index order, and the
    length of a longest cover path from it to the top."""

    nodes: tuple[int, ...]
    length: int

    @property
    def count(self) -> int:
        return len(self.nodes)


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


def check_lattice_order(order: int, bound: Optional[int] = None) -> None:
    """Refuse the lattice of a top of this order when the order exceeds the
    bound, lattice_limit() unless one is given."""
    if order > (lattice_limit() if bound is None else bound):
        raise SizeLimitError(f"lattice enumeration bound exceeded for order {order}")


def intermediate_algebras(ext: Extension, max_order: Optional[int] = None) -> LatticeReport:
    """All subalgebras between the image of the base and the top ring.

    Computed as the join closure of the atoms, the adjunctions R[s] of one
    more element to the image (see enumerate_closed_subsets).  The nodes
    are sorted by size, then elements, so the image is node 0 and the top is
    the last node.  max_order replaces the lattice bound for this call only."""
    top = ext.top
    check_lattice_order(top.order, max_order)
    closed = enumerate_closed_subsets(top, ext.image)
    nodes = tuple(Subalgebra(ext, mask_elements(m)) for m in closed)
    return LatticeReport(nodes, closed.hasse_edges, ext)


def poset_structure(masks: Sequence[np.ndarray]) -> tuple[tuple[int, int], ...]:
    """The Hasse edges in row-major order of distinct subsets listed by size
    and ordered by inclusion: the oracle of ClosedSets.hasse_edges,
    independent of how the subsets were found.

    The edges are the transitive reduction of the inclusion order (Aho,
    Garey, Ullman 1972): walking the strict supersets of a node in index
    order, a superset is a cover unless it contains a cover found before
    it."""
    packed = np.packbits(np.stack(masks), axis=1)
    outside = ~packed
    # inc[i, j]: subset i lies inside subset j
    inc = np.stack([~(row & outside).any(axis=1) for row in packed])
    edges = []
    for i in range(len(packed)):
        cand = inc[i].copy()
        cand[: i + 1] = False
        j = int(cand.argmax())
        while cand[j]:
            edges.append((i, j))
            cand &= ~inc[j]
            j = int(cand.argmax())
    return tuple(edges)


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
    return (mask[sq] & mask[cube] & ~mask).nonzero()[0]


def tclosed_candidates(top: FiniteRing, mask: np.ndarray) -> np.ndarray:
    """The b outside the subring T (given by its mask) admitting r in T with
    b^2 - rb and b^3 - rb^2 in T, in increasing order.  As r runs over T so
    does -r, so the test is u = b^2 + rb in T and then bu = b^3 + rb^2 in T.
    The pairs (r, b) are tested in blocks of about _GATHER_ENTRIES entries,
    a run of r in T against every b not yet admitted, and a b leaves the test
    at the first block holding an r that works for it."""
    inside = mask.nonzero()[0]
    b = (~mask).nonzero()[0]
    sq = top.mul.diagonal()[b]
    admitted = np.zeros(top.order, dtype=bool)
    lo = 0
    while lo < inside.size and b.size:
        r = inside[lo:lo + max(1, _GATHER_ENTRIES // b.size)]
        lo += r.size
        u = top.add[sq, top.mul[r[:, None], b]]
        row, col = np.nonzero(mask[u])
        hit = np.zeros(b.size, dtype=bool)
        hit[col[mask[top.mul[u[row, col], b[col]]]]] = True
        admitted[b[hit]] = True
        b, sq = b[~hit], sq[~hit]
    return admitted.nonzero()[0]


def is_seminormal(ext: Extension) -> bool:
    """The seminormalization step adjoins nothing to R."""
    return not seminormal_candidates(ext.top, ext.image_mask).size


def is_tclosed(ext: Extension) -> bool:
    """The t-closure step adjoins nothing to R."""
    return not tclosed_candidates(ext.top, ext.image_mask).size


def _span_stack(ext: Extension) -> tuple[np.ndarray, np.ndarray]:
    """One row per coset t + R, at its least element t: the representatives
    t, increasing, and the mask stack of the spans R + Rt, by one
    sumset-kernel call.  R + R(t + r) = R + Rt for r in R."""
    top = ext.top
    img = np.asarray(ext.image, dtype=np.intp)
    _, reps = cosets(top.add, img)
    multiples = np.zeros((reps.size, top.order), dtype=bool)
    multiples[np.arange(reps.size)[:, None], top.mul[reps[:, None], img]] = True
    spans = _add_cosets_rows(top.add, np.broadcast_to(ext.image_mask, multiples.shape), multiples)
    return reps, spans


def is_quadratic(ext: Extension) -> bool:
    """Every module span R + Rt is multiplicatively closed: t^2 lies in
    R + Rt, as (a + bt)(c + dt) = ac + (ad + bc)t + bd t^2."""
    reps, spans = _span_stack(ext)
    return bool(spans[np.arange(reps.size), ext.top.mul[reps, reps]].all())


def _sums_with_later(add: np.ndarray, stack: np.ndarray,
                     skip: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Each row i of the mask stack of additive subgroups (group law add)
    summed with the rows from i + skip on, in batched calls of the sumset
    kernel of at most _LEVEL_ENTRIES mask entries: (i, lo, the sums with
    rows lo, lo + 1, ...) per call."""
    step = max(1, _LEVEL_ENTRIES // stack.shape[1])
    for i, row in enumerate(stack):
        for lo in range(i + skip, len(stack), step):
            later = stack[lo:lo + step]
            yield i, lo, _add_cosets_rows(add, np.broadcast_to(row, later.shape), later)


def is_delta(report: LatticeReport) -> bool:
    """The node set is closed under pairwise module sums: each node summed
    with all later nodes, up to the first sum that is not a node."""
    masks = np.array([n.mask for n in report.nodes])
    keys = {m.tobytes() for m in masks}
    sums = _sums_with_later(report.extension.top.add, masks, 1)
    return all(m.tobytes() in keys for _, _, block in sums for m in block)


def is_delta0(ext: Extension) -> bool:
    """Every base-submodule of S containing R is multiplicatively closed:
    tu lies in R + Rt + Ru, the least one holding t and u, for all t, u.
    That depends only on the cosets of t and u, so they run over the rows of
    the span stack, row t summed with the rows u from t on (t = u is the
    quadratic test), up to the first tu missing."""
    top = ext.top
    reps, spans = _span_stack(ext)
    return all(sums[np.arange(len(sums)), top.mul[reps[i], reps[lo:lo + len(sums)]]].all()
               for i, lo, sums in _sums_with_later(top.add, spans, 0))


# ---------------------------------------------------------------------------
# minimal extensions

class MinimalClassification(NamedTuple):
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
    if m not in spectrum(base).primes:
        raise InternalCheckError("classification failure: conductor of a minimal extension is not maximal")
    q_r = base.order // m.order
    m_top_elems = tuple(sorted(int(i) for i in ext.embed.map[np.asarray(m.elements, dtype=np.intp)]))
    m_top = Ideal(top, m_top_elems)
    # every prime of a finite ring is maximal
    over = [q for q in spectrum(top).primes if contains(q, m_top)]

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

class GilbertReport(NamedTuple):
    """Order-isomorphism J -> R + Jt between the ideals of R containing the
    conductor and the lattice nodes, for S = R + Rt."""

    t: int
    pairs: tuple[tuple[Ideal, int], ...]


def gilbert_bijection(report: LatticeReport) -> GilbertReport:
    """S = R + Rt for t the least such element, the representative of the
    first full row of the span stack; each ideal J of R holding the conductor
    goes to the node R + Jt (one sumset-kernel call for all J)."""
    ext = report.extension
    top = ext.top
    reps, spans = _span_stack(ext)
    full = spans.all(axis=1).nonzero()[0]
    if not full.size:
        raise NotApplicableError("extension is not of the form R + Rt")
    t = int(reps[full[0]])
    cond = conductor(ext)
    ideals = [j for j in all_ideals(ext.base) if contains(j, cond)]
    multiples = np.zeros((len(ideals), top.order), dtype=bool)
    for row, j in zip(multiples, ideals):
        row[top.mul[ext.embed.map[list(j.elements)], t]] = True
    spans_of = _add_cosets_rows(top.add, np.broadcast_to(ext.image_mask, multiples.shape), multiples)
    pairs = []
    seen = set()
    for j, span in zip(ideals, spans_of):
        idx = report.node_index(mask_elements(span))
        if idx is None:
            raise InternalCheckError("R + Jt is not a lattice node")
        if idx in seen:
            raise InternalCheckError("ideal correspondence is not injective")
        seen.add(idx)
        pairs.append((j, idx))
    if len(pairs) != report.count:
        raise InternalCheckError("ideal correspondence is not onto the lattice")
    return GilbertReport(t, tuple(pairs))


class IrreducibleDecomposition(NamedTuple):
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
        if (cur == target).all():
            break
        nxt = cur & report.nodes[i].mask
        if not (nxt == cur).all():
            cur = nxt
            meet_used.append(i)
    if not (cur == target).all():
        raise InternalCheckError("meet of irreducibles above the node is not the node")
    join_cands = sorted(
        (i for i in join_irreducible_nodes(report) if bool((report.nodes[i].mask & ~target).sum() == 0)),
        key=lambda i: -report.nodes[i].order,
    )
    cur_mask = report.nodes[0].mask.copy()
    join_used = []
    for i in join_cands:
        if (cur_mask == target).all():
            break
        if report.nodes[i].mask[~cur_mask].any():
            cur_mask = adjoin_all(top, cur_mask, report.nodes[i].mask.nonzero()[0])
            join_used.append(i)
    if not (cur_mask == target).all():
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
    """R[t] covers R for every t outside the image.  t lies in an upper
    cover C of R exactly when R[t] = C (R < R[t] <= C, and C covers R), so
    this holds when node 0 and its upper covers together hold every
    element."""
    held = report.nodes[0].mask.copy()
    for b in report.upper_covers[0]:
        held |= report.nodes[b].mask
    return bool(held.all())


def predicate_battery(report: LatticeReport) -> dict:
    """All boolean extension predicates at once (CLI support).  Delta0 is
    read as quadratic and Delta: each R + Rt and each sum T + U of rings
    over R is an R-submodule holding R, so Delta0 gives both; conversely
    every such submodule M is the sum of the rings R + Rt, t in M, and under
    Delta each partial sum is a ring."""
    ext = report.extension
    quadratic, delta = is_quadratic(ext), is_delta(report)
    return {
        # every element of a finite ring has a repeating power sequence,
        # and x^i = x^j is a monic relation
        "integral": True,
        "infra_integral": is_infra_integral(ext),
        "subintegral": is_subintegral(ext),
        "seminormal": is_seminormal(ext),
        "t_closed": is_tclosed(ext),
        "quadratic": quadratic,
        "delta": delta,
        "delta0": quadratic and delta,
        "pointwise_minimal": is_pointwise_minimal(report),
    }
