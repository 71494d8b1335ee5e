"""Finite modules, submodule lattices, idealization rings R(+)M and the
lattice/length/count identities relating them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .config import arith_limit, lattice_limit
from .errors import InternalCheckError, NotApplicableError, PreconditionError, SizeLimitError
from .ideals import all_ideals, annihilator, zero_ideal
from .lattice import (
    Extension,
    LatticeReport,
    Subalgebra,
    intermediate_algebras,
    maximal_chain_lengths,
    poset_structure,
    upper_extension,
)
from .rings import (
    FiniteRing,
    Ideal,
    RingHom,
    closure_mask,
    cosets,
    enumerate_closed_subsets,
    is_local,
    mask_elements,
    pair_homs,
    product,
    product_components,
    product_index,
    quotient,
)

IdealLike = Union[Ideal, Sequence[int]]


@dataclass(frozen=True, eq=False)
class FiniteModule:
    """A finite module over a finite ring, as dense tables."""

    ring: FiniteRing
    order: int
    add: np.ndarray  # order x order
    zero: int
    action: np.ndarray  # ring.order x order
    label: str = "M"

    def __repr__(self):
        return f"FiniteModule({self.label}, order={self.order} over {self.ring.label})"


def check_module(m: FiniteModule) -> None:
    """Abelian-group and bilinearity axioms; raises on violation."""
    r, n = m.ring, m.order
    idx = np.arange(n)
    if not (m.add == m.add.T).all():
        raise InternalCheckError("module addition is not commutative")
    if not (m.add[m.zero] == idx).all():
        raise InternalCheckError("module zero is not neutral")
    if not (m.add == m.zero).any(axis=1).all():
        raise InternalCheckError("module element without negative")
    for a in range(n):
        if not (m.add[m.add[a]] == m.add[a][m.add]).all():
            raise InternalCheckError("module addition is not associative")
    if not (m.action[r.one] == idx).all():
        raise InternalCheckError("identity does not act as identity")
    for s in range(r.order):
        if not (m.action[s][m.add] == m.add[np.ix_(m.action[s], m.action[s])]).all():
            raise InternalCheckError("action does not distribute over module addition")
        if not (m.action[r.add[s]] == m.add[m.action[s][None, :], m.action]).all():
            raise InternalCheckError("action does not distribute over ring addition")
        if not (m.action[r.mul[s]] == m.action[s][m.action]).all():
            raise InternalCheckError("action is not associative over ring multiplication")


def module_from_ring(ring: FiniteRing) -> FiniteModule:
    """R as a module over itself."""
    return FiniteModule(ring, ring.order, ring.add, ring.zero, ring.mul, ring.label)


def module_from_cyclics(ring: FiniteRing, ideals: Sequence[IdealLike],
                        max_order: Optional[int] = None) -> FiniteModule:
    """Direct sum of cyclic modules R/I_j with componentwise action."""
    from .ideals import ideal_generated

    if not ideals:
        return FiniteModule(ring, 1, np.zeros((1, 1), dtype=np.int32), 0,
                            np.zeros((ring.order, 1), dtype=np.int32), "0")
    ids = []
    for s in ideals:
        if isinstance(s, Ideal):
            if s.ring is not ring:
                raise PreconditionError("cyclic component over a different ring")
            ids.append(s)
        else:
            ids.append(ideal_generated(ring, s))
    # the zero summands R/R drop out
    live = [quotient(ring, i, max_order=max_order) for i in ids if not i.is_whole]
    if not live:
        return module_from_cyclics(ring, [], max_order=max_order)
    pr = product([q.ring for q in live], max_order=max_order)
    pair = pair_homs(ring, pr, [q.projection.map for q in live])
    label = "(+)".join(q.ring.label for q in live)
    return FiniteModule(ring, pr.ring.order, pr.ring.add, pr.ring.zero, pr.ring.mul[pair.map],
                        label)


@dataclass(frozen=True)
class QuotientModuleResult:
    module: FiniteModule
    projection: np.ndarray  # old index -> new index


def quotient_module(m: FiniteModule, sub: Sequence[int]) -> QuotientModuleResult:
    """M/N with least-index coset representatives."""
    sub_idx = np.asarray(sorted(int(x) for x in sub), dtype=np.intp)
    if m.zero not in set(int(x) for x in sub_idx):
        raise PreconditionError("submodule must contain zero")
    coset_of, reps = cosets(m.add, sub_idx)
    add = coset_of[m.add[np.ix_(reps, reps)]]
    action = coset_of[m.action[:, reps]]
    mod = FiniteModule(m.ring, len(reps), add, int(coset_of[m.zero]), action, f"{m.label}/{len(sub_idx)}")
    return QuotientModuleResult(mod, coset_of)


def submodule_closure(m: FiniteModule, seed: Sequence[int]) -> tuple[int, ...]:
    """Smallest submodule containing the seed."""
    return mask_elements(
        closure_mask(m.order, list(seed) + [m.zero], internal=(m.add,), absorbing=(m.action,))
    )


@dataclass(frozen=True, eq=False)
class SubmoduleLattice:
    """All submodules of a finite module, ordered by inclusion."""

    module: FiniteModule
    nodes: tuple[tuple[int, ...], ...]
    hasse_edges: tuple[tuple[int, int], ...]
    count: int
    length: int
    bottom_index: int
    top_index: int

    @cached_property
    def _index_of(self) -> dict[tuple[int, ...], int]:
        return {n: i for i, n in enumerate(self.nodes)}

    def node_index(self, elements) -> Optional[int]:
        return self._index_of.get(tuple(sorted(int(x) for x in elements)))

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "submodule_lattice",
            "module": self.module.label,
            "module_order": self.module.order,
            "count": self.count,
            "length": self.length,
            "nodes": [list(n) for n in self.nodes],
            "hasse_edges": [list(e) for e in self.hasse_edges],
        }


def submodules(m: FiniteModule, max_order: Optional[int] = None,
               element_order: Optional[Sequence[int]] = None) -> SubmoduleLattice:
    """All submodules, as the join closure of the cyclic submodules."""
    if m.order > lattice_limit(max_order):
        raise SizeLimitError(f"submodule enumeration bound exceeded for order {m.order}")
    masks = enumerate_closed_subsets(
        m.order, [m.zero], internal=(m.add,), absorbing=(m.action,), element_order=element_order
    )
    nodes = tuple(mask_elements(mk) for mk in masks)
    bottom = nodes.index((m.zero,))
    top = next(i for i, n in enumerate(nodes) if len(n) == m.order)
    edges, length, _ = poset_structure(list(masks), bottom, top)
    return SubmoduleLattice(m, nodes, edges, len(nodes), length, bottom, top)


def jordan_holder_check(lat: SubmoduleLattice, cap: int = 10000) -> bool:
    """All maximal chains share the lattice length."""
    lengths, _, truncated = maximal_chain_lengths(
        lat.hasse_edges, lat.bottom_index, lat.top_index, cap
    )
    return not truncated and set(lengths) == {lat.length}


def module_length(m: FiniteModule) -> int:
    """Composition-series length: repeatedly quotient by a minimal nonzero
    cyclic submodule."""
    cur = m
    length = 0
    while cur.order > 1:
        best: Optional[tuple[int, ...]] = None
        for x in range(cur.order):
            if x == cur.zero:
                continue
            sub = submodule_closure(cur, [x])
            if best is None or len(sub) < len(best):
                best = sub
                if len(sub) == 2:
                    break
        assert best is not None
        cur = quotient_module(cur, best).module
        length += 1
    return length


def is_cyclic(m: FiniteModule) -> Optional[int]:
    """A generator index, if M = Rx for some x.  The orbit Rx is already a
    submodule, so no closure pass is needed."""
    for x in range(m.order):
        if len(np.unique(m.action[:, x])) == m.order:
            return x
    return None


def is_uniserial(m: FiniteModule, lat: Optional[SubmoduleLattice] = None) -> bool:
    """Submodule lattice linearly ordered."""
    lat = lat or submodules(m)
    sets = [set(n) for n in sorted(lat.nodes, key=len)]
    return all(sets[i] <= sets[i + 1] for i in range(len(sets) - 1))


def is_faithful(m: FiniteModule) -> bool:
    ann = annihilator(m.ring, m)
    return ann.is_zero


# ---------------------------------------------------------------------------
# idealization

@dataclass(frozen=True)
class IdealizationResult:
    """The ring R(+)M on pairs (r, m) with (r,m)(s,n) = (rs, rn+sm)."""

    ring: FiniteRing
    embed: RingHom
    module: FiniteModule

    def pair_index(self, r: int, x: int) -> int:
        return int(product_index((self.module.ring.order, self.module.order), (r, x)))

    def split_index(self, i: int) -> tuple[int, int]:
        r, x = product_components((self.module.ring.order, self.module.order), i)
        return int(r), int(x)


def idealize(ring: FiniteRing, m: FiniteModule, max_order: Optional[int] = None) -> IdealizationResult:
    if m.ring is not ring:
        raise PreconditionError("module is over a different ring")
    n = ring.order * m.order
    if n > arith_limit(max_order):
        raise SizeLimitError(f"idealization order {n} exceeds bound")
    # the underlying set is R x M, laid out as a product
    orders = (ring.order, m.order)
    r, x = product_components(orders, np.arange(n))
    add = product_index(orders, (ring.add[r[:, None], r[None, :]], m.add[x[:, None], x[None, :]]))
    mixed = m.add[m.action[r[:, None], x[None, :]], m.action[r[None, :], x[:, None]]]
    mul = product_index(orders, (ring.mul[r[:, None], r[None, :]], mixed))
    zero = product_index(orders, (ring.zero, m.zero))
    one = product_index(orders, (ring.one, m.zero))
    out = FiniteRing(n, add, mul, int(zero), int(one), f"{ring.label}(+){m.label}")
    emb = product_index(orders, (np.arange(ring.order), m.zero))
    return IdealizationResult(out, RingHom(ring, out, emb), m)


def idealization_extension(ring: FiniteRing, m: FiniteModule,
                           max_order: Optional[int] = None) -> tuple[Extension, IdealizationResult]:
    idl = idealize(ring, m, max_order=max_order)
    return Extension(ring, idl.ring, idl.embed), idl


def _idealization_members(ring: FiniteRing, m: FiniteModule, sub: Sequence[int]) -> np.ndarray:
    """The indices of R(+)N in R(+)M for a submodule N."""
    orders = (ring.order, m.order)
    return product_index(orders, (np.arange(ring.order)[:, None], np.asarray(sub)[None, :])).ravel()


@dataclass(frozen=True)
class BijectionReport:
    """N -> R(+)N matching submodules of M with the nodes of [R, R(+)M]."""

    nu: int
    lattice_count: int
    pairs: tuple[tuple[int, int], ...]  # (submodule index, lattice node index)
    ok: bool


def idealization_lattice_bijection(ring: FiniteRing, m: FiniteModule,
                                   max_order: Optional[int] = None) -> BijectionReport:
    ext, idl = idealization_extension(ring, m, max_order=max_order)
    report = intermediate_algebras(ext, max_order=max_order)
    lat = submodules(m, max_order=max_order)
    pairs = []
    seen = set()
    for si, sub in enumerate(lat.nodes):
        members = _idealization_members(ring, m, sub)
        ni = report.node_index(sorted(int(v) for v in members))
        if ni is None or ni in seen:
            return BijectionReport(lat.count, report.count, tuple(pairs), False)
        seen.add(ni)
        pairs.append((si, ni))
    ok = len(pairs) == report.count == lat.count
    return BijectionReport(lat.count, report.count, tuple(pairs), ok)


@dataclass(frozen=True)
class IntervalReport:
    """[R(+)N, R(+)M] against the statistics of M/N."""

    interval_length: int
    interval_count: int
    quotient_length: int
    quotient_count: int

    @property
    def ok(self) -> bool:
        return (self.interval_length == self.quotient_length
                and self.interval_count == self.quotient_count)


def interval_length(ring: FiniteRing, m: FiniteModule, sub: Sequence[int],
                    max_order: Optional[int] = None) -> IntervalReport:
    """Compare the interval above R(+)N in [R, R(+)M] with L(M/N), nu(M/N)."""
    ext, idl = idealization_extension(ring, m, max_order=max_order)
    sub_sorted = tuple(sorted(int(x) for x in sub))
    members = _idealization_members(ring, m, sub_sorted)
    node = Subalgebra(ext, tuple(int(v) for v in np.sort(members)))
    upper = intermediate_algebras(upper_extension(node), max_order=max_order)
    q = quotient_module(m, sub_sorted).module
    q_lat = submodules(q, max_order=max_order)
    return IntervalReport(upper.length, upper.count, module_length(q), q_lat.count)


@dataclass(frozen=True)
class UniserialReport:
    """Chain structure {P^j e} of a cyclic module over a local ring."""

    passed: bool
    chain: tuple[tuple[int, ...], ...]
    nu: int
    nu_of_quotient: int
    generator: int
    order_ideal: Ideal


def uniserial_structure_check(ring: FiniteRing, m: FiniteModule,
                              max_order: Optional[int] = None) -> UniserialReport:
    p = is_local(ring)
    if p is None:
        raise PreconditionError("uniserial structure needs a local ring")
    e = is_cyclic(m)
    if e is None:
        raise NotApplicableError("module is not cyclic")
    c_elems = [r for r in range(ring.order) if m.action[r, e] == m.zero]
    c = Ideal.from_indices(ring, c_elems, validate=True)
    if c.is_whole:
        nu_rc = 1
    else:
        nu_rc = len(all_ideals(quotient(ring, c).ring, max_order=max_order))
    p_idx = np.asarray(p.elements, dtype=np.intp)
    chain = []
    cur = tuple(range(m.order))
    while True:
        chain.append(tuple(sorted(cur)))
        if cur == (m.zero,) or len(cur) == 1:
            break
        prods = np.unique(m.action[np.ix_(p_idx, np.asarray(cur, dtype=np.intp))])
        nxt = mask_elements(
            closure_mask(m.order, list(prods) + [m.zero], internal=(m.add,))
        )
        if nxt == tuple(sorted(cur)):
            raise InternalCheckError("powers of the maximal ideal fail to shrink a cyclic module")
        cur = nxt
    lat = submodules(m, max_order=max_order)
    passed = set(lat.nodes) == set(chain) and lat.count == nu_rc
    return UniserialReport(passed, tuple(chain), lat.count, nu_rc, e, c)


@dataclass(frozen=True)
class CensusResult:
    """nu of the componentwise module k^n over the ring k^n, against 2^n."""

    nu: int
    expected: int
    lattice_checked: bool
    lattice_count: Optional[int]

    @property
    def ok(self) -> bool:
        if self.nu != self.expected:
            return False
        return not self.lattice_checked or self.lattice_count == self.nu


def componentwise_census(field: FiniteRing, n: int, max_order: Optional[int] = None) -> CensusResult:
    pr = product([field] * n, max_order=max_order)
    m = module_from_ring(pr.ring)
    lat = submodules(m, max_order=max_order)
    expected = 2 ** n
    if pr.ring.order * m.order <= lattice_limit(max_order):
        bij = idealization_lattice_bijection(pr.ring, m, max_order=max_order)
        return CensusResult(lat.count, expected, True, bij.lattice_count)
    return CensusResult(lat.count, expected, False, None)
