"""Finite modules, submodule lattices, idealization rings R(+)M and the
lattice/length/count identities relating them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import arith_limit, lattice_limit
from .errors import InternalCheckError, NotApplicableError, PreconditionError, SizeLimitError
from .ideals import IdealLike, all_ideals, annihilator, coerce_ideal
from .lattice import (
    Extension,
    Subalgebra,
    Poset,
    intermediate_algebras,
    poset_structure,
    upper_extension,
)
from .rings import (
    FiniteRing,
    Ideal,
    RingHom,
    closure_mask,
    cosets,
    enumerate_submodules,
    is_local,
    mask_elements,
    pair_homs,
    product,
    product_components,
    product_index,
    quotient,
    span_of_products,
)

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


def module_from_cyclics(ring: FiniteRing, ideals: Sequence[IdealLike]) -> FiniteModule:
    """Direct sum of cyclic modules R/I_j with componentwise action."""
    if not ideals:
        return FiniteModule(ring, 1, np.zeros((1, 1), dtype=np.int32), 0,
                            np.zeros((ring.order, 1), dtype=np.int32), "0")
    ids = [coerce_ideal(ring, s) for s in ideals]
    # the zero summands R/R drop out
    live = [quotient(ring, i) for i in ids if not i.is_whole]
    if not live:
        return module_from_cyclics(ring, [])
    pr = product([q.ring for q in live])
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
class SubmoduleLattice(Poset):
    """All submodules of a finite module, ordered by inclusion; the nodes are
    sorted element tuples."""

    module: FiniteModule

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


def submodules(m: FiniteModule) -> SubmoduleLattice:
    """All submodules, as the sumset join closure of the cyclic submodules,
    sorted by size, then elements: the zero submodule is node 0 and M is
    the last node."""
    if m.order > lattice_limit():
        raise SizeLimitError(f"submodule enumeration bound exceeded for order {m.order}")
    masks = enumerate_submodules(m.add, m.action, m.zero)
    return SubmoduleLattice(tuple(mask_elements(mk) for mk in masks), *poset_structure(masks), m)


def jordan_holder_check(lat: SubmoduleLattice) -> bool:
    """All maximal chains share one length."""
    return len(lat.chain_lengths) == 1


def module_length(m: FiniteModule) -> int:
    """Composition-series length: repeatedly quotient by a minimal nonzero
    cyclic submodule."""
    cur = m
    length = 0
    while cur.order > 1:
        # the cyclic submodules are the orbits Rx; the first smallest nonzero one
        best = min((np.unique(cur.action[:, x]) for x in range(cur.order) if x != cur.zero), key=len)
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


def is_uniserial(lat: SubmoduleLattice) -> bool:
    """Submodule lattice linearly ordered: a longest chain holds every node
    exactly when the order is total."""
    return lat.count == lat.length + 1


def is_faithful(m: FiniteModule) -> bool:
    ann = annihilator(m)
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


def idealize(m: FiniteModule) -> IdealizationResult:
    ring = m.ring
    n = ring.order * m.order
    if n > arith_limit():
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


def idealization_extension(m: FiniteModule) -> tuple[Extension, IdealizationResult]:
    idl = idealize(m)
    return Extension(idl.embed), idl


def _idealization_members(m: FiniteModule, sub: Sequence[int]) -> np.ndarray:
    """The indices of R(+)N in R(+)M for a submodule N."""
    orders = (m.ring.order, m.order)
    return product_index(orders, (np.arange(orders[0])[:, None], np.asarray(sub)[None, :])).ravel()


@dataclass(frozen=True)
class BijectionReport:
    """N -> R(+)N matching submodules of M with the nodes of [R, R(+)M]."""

    nu: int
    lattice_count: int
    pairs: tuple[tuple[int, int], ...]  # (submodule index, lattice node index)
    ok: bool


def idealization_lattice_bijection(lat: SubmoduleLattice) -> BijectionReport:
    report = intermediate_algebras(idealization_extension(lat.module)[0])
    pairs = []
    seen = set()
    for si, sub in enumerate(lat.nodes):
        members = _idealization_members(lat.module, sub)
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


def interval_length(m: FiniteModule, sub: Sequence[int]) -> IntervalReport:
    """Compare the interval above R(+)N in [R, R(+)M] with L(M/N), nu(M/N)."""
    ext, _ = idealization_extension(m)
    sub_sorted = tuple(sorted(int(x) for x in sub))
    members = _idealization_members(m, sub_sorted)
    node = Subalgebra(ext, tuple(int(v) for v in np.sort(members)))
    upper = intermediate_algebras(upper_extension(node))
    q = quotient_module(m, sub_sorted).module
    q_lat = submodules(q)
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


def uniserial_structure_check(m: FiniteModule) -> UniserialReport:
    ring = m.ring
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
        nu_rc = len(all_ideals(quotient(ring, c).ring))
    p_idx = np.asarray(p.elements, dtype=np.intp)
    chain = []
    cur = tuple(range(m.order))
    while True:
        chain.append(tuple(sorted(cur)))
        if cur == (m.zero,) or len(cur) == 1:
            break
        nxt = mask_elements(span_of_products(m.add, m.action, m.zero, p_idx, cur))
        if nxt == tuple(sorted(cur)):
            raise InternalCheckError("powers of the maximal ideal fail to shrink a cyclic module")
        cur = nxt
    lat = submodules(m)
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


def componentwise_census(field: FiniteRing, n: int) -> CensusResult:
    pr = product([field] * n)
    m = module_from_ring(pr.ring)
    lat = submodules(m)
    expected = 2 ** n
    if pr.ring.order * m.order <= lattice_limit():
        bij = idealization_lattice_bijection(lat)
        return CensusResult(lat.count, expected, True, bij.lattice_count)
    return CensusResult(lat.count, expected, False, None)
