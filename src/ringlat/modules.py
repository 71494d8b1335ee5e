"""Finite modules, submodule lattices, idealization rings R(+)M and the
lattice/length/count identities relating them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import arith_limit, lattice_limit
from .errors import InternalCheckError, NotApplicableError, PreconditionError, SizeLimitError
from .ideals import IdealLike, annihilator, coerce_ideal, quotient_ideal_count
from .lattice import (
    Extension,
    LatticeReport,
    Poset,
    intermediate_algebras,
)
from .rings import (
    ClosedSets,
    ELEMENT,
    FiniteRing,
    Ideal,
    RingHom,
    cosets,
    distinct,
    enumerate_submodules,
    is_local,
    is_submodule,
    mask_elements,
    pair_homs,
    product,
    product_components,
    product_index,
    quotient,
    span_of_products,
    _as_table,
    _kronecker,
    _table_by_rows,
)

@dataclass(frozen=True, eq=False, repr=False)
class FiniteModule:
    """A finite module over a finite ring, as dense tables, read-only
    ELEMENT arrays like a ring's (rings._as_table)."""

    ring: FiniteRing
    order: int
    add: np.ndarray  # order x order
    zero: int
    action: np.ndarray  # ring.order x order
    label: str = "M"

    def __post_init__(self):
        object.__setattr__(self, "add", _as_table(self.add))
        object.__setattr__(self, "action", _as_table(self.action))

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
        if not (m.action[s][m.add] == m.add[m.action[s][:, None], m.action[s]]).all():
            raise InternalCheckError("action does not distribute over module addition")
        if not (m.action[r.add[s]] == m.add[m.action[s][None, :], m.action]).all():
            raise InternalCheckError("action does not distribute over ring addition")
        if not (m.action[r.mul[s]] == m.action[s][m.action]).all():
            raise InternalCheckError("action is not associative over ring multiplication")


def module_from_ring(ring: FiniteRing) -> FiniteModule:
    """R as a module over itself."""
    return FiniteModule(ring, ring.order, ring.add, ring.zero, ring.mul, ring.label)


def module_from_cyclics(ring: FiniteRing, ideals: Sequence[IdealLike]) -> FiniteModule:
    """Direct sum of cyclic modules R/I_j with componentwise action; each
    distinct quotient is built once."""
    if not ideals:
        return FiniteModule(ring, 1, np.zeros((1, 1), dtype=ELEMENT), 0,
                            np.zeros((ring.order, 1), dtype=ELEMENT), "0")
    # the zero summands R/R drop out
    ids = [i for i in (coerce_ideal(ring, s) for s in ideals) if not i.is_whole]
    distinct_quotients = {i: quotient(ring, i) for i in dict.fromkeys(ids)}
    live = [distinct_quotients[i] for i in ids]
    if not live:
        return module_from_cyclics(ring, [])
    pr = product([q.ring for q in live])
    pair = pair_homs(ring, pr, [q.projection.map for q in live])
    label = "(+)".join(q.ring.label for q in live)
    return FiniteModule(ring, pr.ring.order, pr.ring.add, pr.ring.zero, pr.ring.mul[pair.map],
                        label)


class QuotientModuleResult(NamedTuple):
    module: FiniteModule
    projection: np.ndarray  # old index -> new index


def quotient_module(m: FiniteModule, sub: Sequence[int]) -> QuotientModuleResult:
    """M/N with least-index coset representatives; PreconditionError unless
    N is a submodule of M (rings.is_submodule)."""
    if not is_submodule(m.ring, m.add, m.action, m.zero, sub):
        raise PreconditionError("subset is not a submodule")
    return _divide(m, sub)


def _divide(m: FiniteModule, sub: Sequence[int]) -> QuotientModuleResult:
    """M/N for the indices sub of a submodule N, unchecked: quotient_module's
    division, for an N that is one by construction (an orbit Rx, a node)."""
    coset_of, reps = cosets(m.add, sub)
    add = coset_of[m.add[reps[:, None], reps]]
    action = coset_of[m.action[:, reps]]
    mod = FiniteModule(m.ring, len(reps), add, int(coset_of[m.zero]), action, f"{m.label}/{len(sub)}")
    return QuotientModuleResult(mod, coset_of)


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


def _closed_submodules(m: FiniteModule) -> ClosedSets:
    """The submodule masks of m, after the lattice bound is checked."""
    if m.order > lattice_limit():
        raise SizeLimitError(f"submodule enumeration bound exceeded for order {m.order}")
    return enumerate_submodules(m.add, m.action, m.zero)


def submodules(m: FiniteModule) -> SubmoduleLattice:
    """All submodules, as the sumset join closure of the cyclic submodules,
    sorted by size, then elements: the zero submodule is node 0 and M is
    the last node."""
    closed = _closed_submodules(m)
    return SubmoduleLattice(tuple(mask_elements(mk) for mk in closed), closed.hasse_edges, m)


def jordan_holder_check(lat: SubmoduleLattice) -> bool:
    """All maximal chains share one length."""
    return len(lat.chain_lengths) == 1


def _orbit_sizes(m: FiniteModule) -> np.ndarray:
    """|Rx| for every element x, in one pass over the action table: column x
    is the orbit Rx, sorted along the ring axis and its distinct entries
    counted."""
    cols = np.sort(m.action, axis=0)
    return 1 + np.count_nonzero(cols[1:] != cols[:-1], axis=0)


def module_length(m: FiniteModule) -> int:
    """Composition-series length: repeatedly quotient by a minimal nonzero
    cyclic submodule."""
    cur = m
    length = 0
    while cur.order > 1:
        # the cyclic submodules are the orbits Rx; the first smallest nonzero
        # one (the orbit of zero is {zero}; every other holds zero and x)
        sizes = _orbit_sizes(cur)
        sizes[cur.zero] = cur.order + 1
        x = int(np.argmin(sizes))
        cur = _divide(cur, distinct(cur.action[:, x], cur.order)).module
        length += 1
    return length


def is_cyclic(m: FiniteModule) -> Optional[int]:
    """The first generator index, if M = Rx for some x.  The orbit Rx is
    already a submodule, so no closure pass is needed."""
    full = (_orbit_sizes(m) == m.order).nonzero()[0]
    return int(full[0]) if full.size else None


class LengthAndCount(NamedTuple):
    """L(M) and nu(M), the number of submodules of M."""

    length: int
    nu: int


def length_and_count(m: FiniteModule) -> LengthAndCount:
    """L(M) by module_length and nu(M) as the number of closed sets the
    submodule enumeration finds, with no poset built over them.  The
    lattice bound is checked first."""
    nu = len(_closed_submodules(m))
    return LengthAndCount(module_length(m), nu)


def is_uniserial(lat: SubmoduleLattice) -> bool:
    """Submodule lattice linearly ordered: a longest chain holds every node
    exactly when the order is total."""
    return lat.count == lat.length + 1


def is_faithful(m: FiniteModule) -> bool:
    ann = annihilator(m)
    return ann.is_zero


# ---------------------------------------------------------------------------
# idealization

def idealize(m: FiniteModule) -> Extension:
    """R in R(+)M, the ring on pairs (r, m) with (r,m)(s,n) = (rs, rn+sm),
    laid out as the product R x M: add is the Kronecker sum of the tables of
    R and M (rings._kronecker), and mul is built in row blocks, each entry
    rs |M| + (rn + sm) below n, exact in ELEMENT."""
    ring = m.ring
    n = ring.order * m.order
    if n > arith_limit():
        raise SizeLimitError(f"idealization order {n} exceeds bound")
    orders = (ring.order, m.order)
    r, x = product_components(orders, np.arange(n))
    add = _kronecker(ring.add, m.add)

    def mul_rows(a):
        ra, xa = r[a, None], x[a, None]
        return ring.mul[ra, r] * m.order + m.add[m.action[ra, x], m.action[r, xa]]

    mul = _table_by_rows(n, mul_rows)
    zero = product_index(orders, (ring.zero, m.zero))
    one = product_index(orders, (ring.one, m.zero))
    out = FiniteRing(n, add, mul, int(zero), int(one), f"{ring.label}(+){m.label}")
    emb = product_index(orders, (np.arange(ring.order), m.zero))
    return Extension(RingHom(ring, out, emb))


class BijectionReport(NamedTuple):
    """N -> R(+)N matching the submodules of M with the nodes of [R, R(+)M]."""

    lattice: SubmoduleLattice
    report: LatticeReport  # the lattice of R in R(+)M
    pairs: tuple[tuple[int, int], ...]  # (submodule index, lattice node index)

    @property
    def nu(self) -> int:
        return self.lattice.count

    @property
    def lattice_count(self) -> int:
        return self.report.count

    @property
    def ok(self) -> bool:
        return len(self.pairs) == self.report.count == self.lattice.count


def idealization_lattice_bijection(lat: SubmoduleLattice) -> BijectionReport:
    """The lattice of R in R(+)M, its nodes matched with the submodules in
    lat.  The pairs stop at the first submodule whose R(+)N is not a node, or
    is the node of an earlier submodule, and ok is then False."""
    m = lat.module
    report = intermediate_algebras(idealize(m))
    orders = (m.ring.order, m.order)
    pairs = []
    seen = set()
    for si, sub in enumerate(lat.nodes):
        # R(+)N is the product of R and N in the layout of R(+)M
        members = product_index(orders, (np.arange(orders[0])[:, None], np.asarray(sub)[None, :]))
        ni = report.node_index(np.sort(members.ravel()))
        if ni is None or ni in seen:
            break
        seen.add(ni)
        pairs.append((si, ni))
    return BijectionReport(lat, report, tuple(pairs))


class IntervalReport(NamedTuple):
    """[R(+)N, R(+)M] against the statistics of M/N."""

    interval_length: int
    interval_count: int
    quotient_length: int
    quotient_count: int

    @property
    def ok(self) -> bool:
        return (self.interval_length == self.quotient_length
                and self.interval_count == self.quotient_count)


def interval_length(bij: BijectionReport, i: int) -> IntervalReport:
    """Compare the interval [R(+)N, R(+)M], for the submodule N of index i,
    with L(M/N) and nu(M/N).  The interval is read off bij.report, the
    lattice [R, R(+)M] already built, at the node of R(+)N (Poset.above);
    L(M/N) and nu(M/N) come from length_and_count on the tables of M/N."""
    if not 0 <= i < len(bij.pairs):
        raise PreconditionError(f"no lattice node is matched with submodule {i}")
    upper = bij.report.above(bij.pairs[i][1])
    q = _divide(bij.lattice.module, bij.lattice.nodes[i]).module
    return IntervalReport(upper.length, upper.count, *length_and_count(q))


class UniserialReport(NamedTuple):
    """Chain structure {P^j e} of a cyclic module over a local ring."""

    passed: bool
    chain: tuple[tuple[int, ...], ...]
    nu: int
    nu_of_quotient: int
    generator: int
    order_ideal: Ideal


def uniserial_structure_check(m: FiniteModule) -> UniserialReport:
    p = is_local(m.ring)
    if p is None:
        raise PreconditionError("uniserial structure needs a local ring")
    e = is_cyclic(m)
    if e is None:
        raise NotApplicableError("module is not cyclic")
    # m is cyclic, so (0 : m) is (0 : e)
    c = annihilator(m)
    nu_rc = quotient_ideal_count(c)
    p_idx = np.asarray(p.elements, dtype=np.intp)
    chain = [tuple(range(m.order))]
    while len(chain[-1]) > 1:
        nxt = mask_elements(span_of_products(m.add, m.action, m.zero, p_idx, chain[-1]))
        if nxt == chain[-1]:
            raise InternalCheckError("powers of the maximal ideal fail to shrink a cyclic module")
        chain.append(nxt)
    lat = submodules(m)
    passed = set(lat.nodes) == set(chain) and lat.count == nu_rc
    return UniserialReport(passed, tuple(chain), lat.count, nu_rc, e, c)


class CensusResult(NamedTuple):
    """nu of the componentwise module k^n over the ring k^n, against 2^n;
    lattice_count is the node count of [k^n, k^n(+)k^n], when that lattice
    is small enough to check."""

    nu: int
    expected: int
    lattice_count: Optional[int]

    @property
    def ok(self) -> bool:
        return self.nu == self.expected and self.lattice_count in (None, self.nu)


def componentwise_census(field: FiniteRing, n: int) -> CensusResult:
    pr = product([field] * n)
    m = module_from_ring(pr.ring)
    lat = submodules(m)
    checked = pr.ring.order * m.order <= lattice_limit()
    count = idealization_lattice_bijection(lat).lattice_count if checked else None
    return CensusResult(lat.count, 2 ** n, count)
