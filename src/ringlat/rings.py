"""Finite commutative unital rings as dense index tables.

Elements of a ring of order n are the indices 0..n-1; all arithmetic is
table lookup.  Constructors build Z/n, finite fields, products, polynomial
quotients and plain quotients, and every constructed hom is validated on
all pairs at construction time.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .config import arith_limit
from .errors import InternalCheckError, PreconditionError, SizeLimitError

Table = np.ndarray


def _as_table(a) -> Table:
    t = np.ascontiguousarray(np.asarray(a, dtype=np.int32))
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A finite commutative unital ring given by total add/mul tables."""

    order: int
    add: Table
    mul: Table
    zero: int
    one: int
    label: str

    def __post_init__(self):
        object.__setattr__(self, "add", _as_table(self.add))
        object.__setattr__(self, "mul", _as_table(self.mul))

    @cached_property
    def neg(self) -> np.ndarray:
        """neg[x] is the additive inverse of x."""
        i, j = np.nonzero(self.add == self.zero)
        out = np.empty(self.order, dtype=np.int32)
        out[i] = j
        return out

    @cached_property
    def units(self) -> np.ndarray:
        """Boolean mask of invertible elements."""
        return (self.mul == self.one).any(axis=1)

    @cached_property
    def nilpotents(self) -> np.ndarray:
        """Boolean mask of nilpotent elements."""
        y = np.arange(self.order)
        for _ in range(self.order.bit_length() + 1):
            y = self.mul[y, y]
        return y == self.zero

    @cached_property
    def multiples_of_one(self) -> np.ndarray:
        """k * 1 at position k, for k below the additive order of one."""
        out = [self.zero]
        while (nxt := int(self.add[out[-1], self.one])) != self.zero:
            out.append(nxt)
        return np.array(out, dtype=np.int32)

    def plus(self, a: int, b: int) -> int:
        return int(self.add[a, b])

    def times(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def minus(self, a: int, b: int) -> int:
        return int(self.add[a, self.neg[b]])

    def power(self, a: int, k: int) -> int:
        """a^k by square-and-multiply; a^0 is one."""
        out = self.one
        while k > 0:
            if k & 1:
                out = int(self.mul[out, a])
            a = int(self.mul[a, a])
            k >>= 1
        return out

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"FiniteRing({self.label}, order={self.order})"


@dataclass(frozen=True, eq=False)
class RingHom:
    """A unital ring homomorphism given by its full index table.

    Validated on all pairs at construction; raises PreconditionError if the
    table is not additive, multiplicative, or unital.
    """

    source: FiniteRing
    target: FiniteRing
    map: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.map, dtype=np.int32))
        m.setflags(write=False)
        object.__setattr__(self, "map", m)
        if m.shape != (self.source.order,):
            raise PreconditionError("hom table has wrong length")
        if m.min(initial=0) < 0 or m.max(initial=0) >= self.target.order:
            raise PreconditionError("hom table maps outside the target")
        if int(m[self.source.zero]) != self.target.zero:
            raise PreconditionError("hom does not preserve zero")
        if int(m[self.source.one]) != self.target.one:
            raise PreconditionError("hom does not preserve one")
        n = self.source.order
        chunk = max(1, (1 << 21) // max(n, 1))
        for lo in range(0, n, chunk):
            rows = np.arange(lo, min(lo + chunk, n))
            img = m[rows]
            if not np.array_equal(self.target.add[np.ix_(img, m)], m[self.source.add[rows]]):
                raise PreconditionError("hom is not additive")
            if not np.array_equal(self.target.mul[np.ix_(img, m)], m[self.source.mul[rows]]):
                raise PreconditionError("hom is not multiplicative")

    @cached_property
    def is_injective(self) -> bool:
        return len(np.unique(self.map)) == self.source.order

    def apply(self, index: int) -> int:
        return int(self.map[index])

    def __repr__(self):
        return f"RingHom({self.source.label} -> {self.target.label})"


def identity_hom(ring: FiniteRing) -> RingHom:
    return RingHom(ring, ring, np.arange(ring.order))


def compose(first: RingHom, then: RingHom) -> RingHom:
    """The composite hom x -> then(first(x))."""
    if first.target is not then.source and not same_tables(first.target, then.source):
        raise PreconditionError("homs do not compose")
    return RingHom(first.source, then.target, then.map[first.map])


@dataclass(frozen=True, eq=False)
class Ideal:
    """A canonical subset closed under addition and absorbing multiplication."""

    ring: FiniteRing
    elements: tuple[int, ...]

    @staticmethod
    def from_indices(ring: FiniteRing, indices: Iterable[int], validate: bool = True) -> "Ideal":
        elems = tuple(sorted(set(int(i) for i in indices)))
        ideal = Ideal(ring, elems)
        if validate and not ideal._is_valid():
            raise PreconditionError("subset is not an ideal")
        return ideal

    def _is_valid(self) -> bool:
        if not self.elements or self.ring.zero not in self.elements:
            return False
        idx = np.asarray(self.elements, dtype=np.intp)
        if idx.min() < 0 or idx.max() >= self.ring.order:
            return False
        m = self.mask
        return bool(m[self.ring.add[np.ix_(idx, idx)]].all() and m[self.ring.mul[:, idx]].all())

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.ring.order, dtype=bool)
        m[list(self.elements)] = True
        return m

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_whole(self) -> bool:
        return len(self.elements) == self.ring.order

    @property
    def is_zero(self) -> bool:
        return self.elements == (self.ring.zero,)

    def __contains__(self, index: int) -> bool:
        return bool(self.mask[index])

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring is other.ring and self.elements == other.elements

    def __hash__(self):
        return hash((id(self.ring), self.elements))

    def __repr__(self):
        return f"Ideal({self.label} in {self.ring.label})"

    @property
    def label(self) -> str:
        if self.is_zero:
            return "(0)"
        return "{" + ",".join(str(e) for e in self.elements[:6]) + (",..." if self.order > 6 else "") + "}"


@dataclass(frozen=True)
class SpirWitness:
    """Least-index generator t of the maximal ideal and its nilpotency index."""

    generator: int
    index: int


# ---------------------------------------------------------------------------
# closure engine

# Table entries gathered at once by the closure kernel: 64 KiB of int32,
# below glibc's default mmap threshold (128 KiB), so each round's temporaries
# reuse heap memory instead of mapping and faulting in fresh pages.
_GATHER_ENTRIES = 1 << 14


def _close_rows(mask: np.ndarray, hit: np.ndarray, internal: Sequence[Table],
                absorbing: Sequence[Table]) -> None:
    """Close every row of the C-contiguous B x order boolean array mask, in
    place, after adding the True cells of hit (same shape, used as scratch).

    Each row is closed on its own: internal tables are applied to pairs of
    the row's members (the operations must be commutative), absorbing tables
    to (anything, member) pairs.  A round takes the new cells of all rows as
    one frontier (one flatnonzero over the batch), gathers the table rows
    t[frontier], keeps a product only where the frontier cell's own row holds
    the other member, and scatters it into hit at the flat int32 index
    row * order + product; the hits outside the mask are the next frontier.
    The frontier is taken in blocks, so every temporary of a round stays
    within _GATHER_ENTRIES entries.
    """
    order = mask.shape[1]
    flat_mask = mask.reshape(-1)
    flat_hit = hit.reshape(-1)
    while True:
        frontier = np.flatnonzero(flat_hit & ~flat_mask)
        flat_mask[frontier] = True
        if not frontier.size or not (internal or absorbing):
            return
        rows, cols = np.divmod(frontier, order)
        base = (frontier - cols).astype(np.int32)
        flat_hit[:] = False
        for t in internal:
            step = max(1, _GATHER_ENTRIES // order)
            for i in range(0, frontier.size, step):
                block = slice(i, i + step)
                prods = t[cols[block]]
                prods += base[block, None]
                flat_hit[prods[mask[rows[block]]]] = True
        for t in absorbing:
            step = max(1, _GATHER_ENTRIES // len(t))
            for i in range(0, frontier.size, step):
                block = slice(i, i + step)
                flat_hit[base[None, block] + t[:, cols[block]]] = True


def extend_closure_mask(
    order: int,
    base_mask: Optional[np.ndarray],
    new_indices: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
) -> np.ndarray:
    """Close base_mask (already closed, or None) plus new_indices under the
    given operations: the one-row call of _close_rows.

    In a finite additive group closure under + alone yields the generated
    subgroup, so no explicit negation table is needed.
    """
    mask = np.zeros((1, order), dtype=bool)
    if base_mask is not None:
        mask[0] = base_mask
    hit = np.zeros((1, order), dtype=bool)
    hit[0, new_indices if isinstance(new_indices, np.ndarray)
        else np.fromiter(new_indices, dtype=np.intp)] = True
    _close_rows(mask, hit, internal, absorbing)
    return mask[0]


def closure_mask(
    order: int,
    seed: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
) -> np.ndarray:
    """Smallest subset containing seed, closed under the given operations."""
    return extend_closure_mask(order, None, seed, internal, absorbing)


def _join_closure(first: np.ndarray, add: Table, atoms: Iterable[tuple[int, np.ndarray]],
                  join: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list[np.ndarray]:
    """The join closure over first of the distinct atoms, each given with an
    element s that generates it over first; sorted by (size, elements).

    Every node is an additive subgroup (add is the group law) that contains
    first, so its join with the atom of s is the closed set generated by the
    node and s, which depends only on the coset of s.  A FIFO worklist joins
    each node at once with one atom per coset among the atoms not inside it:
    join(node, extra) gets a B x order array whose rows are those atoms'
    elements outside the node, and returns the B joins as rows.
    """
    gens, distinct = [], {}
    for s, atom in atoms:
        key = atom.tobytes()
        if key not in distinct:
            distinct[key] = atom
            gens.append(s)
    gens = np.array(gens, dtype=np.intp)
    stacked = np.array(list(distinct.values()), dtype=bool).reshape(-1, len(first))
    nodes: dict[bytes, np.ndarray] = {first.tobytes(): first}
    queue = deque([first])
    while queue:
        cur = queue.popleft()
        outside = np.flatnonzero(~cur[gens])
        if not outside.size:
            continue
        # the least element of each generator's coset of cur
        least = add[gens[outside, None], np.flatnonzero(cur)].min(axis=1)
        _, pick = np.unique(least, return_index=True)
        for new in join(cur, stacked[outside[pick]] & ~cur):
            key = new.tobytes()
            if key not in nodes:
                nodes[key] = new
                queue.append(new)
    return sorted(nodes.values(), key=lambda m: (int(m.sum()), mask_elements(m)))


def enumerate_closed_subsets(
    order: int,
    seed: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
) -> list[np.ndarray]:
    """All closed subsets that contain seed, sorted by (size, elements).

    Contract: seed is not empty and internal[0] is the additive group law,
    so every closed subset is an additive subgroup.  Every such subset is
    the join of the atoms closure(seed + {s}) of its elements, so the subsets
    are the join closure (_join_closure) of the atoms over first =
    closure(seed), and each node's joins are one _close_rows call on copies
    of the node.  As first is a subgroup, closure(first + {s}) =
    closure(first + {s + r}) for r in first, so one atom is computed per
    coset of first, at its least element.
    """
    first = closure_mask(order, seed, internal, absorbing)
    _, reps = cosets(internal[0], np.flatnonzero(first))
    atoms = ((s, extend_closure_mask(order, first, [s], internal, absorbing))
             for s in reps if not first[s])

    def join(cur: np.ndarray, extra: np.ndarray) -> np.ndarray:
        out = np.repeat(cur[None], len(extra), axis=0)
        _close_rows(out, extra, internal, absorbing)
        return out

    return _join_closure(first, internal[0], atoms, join)


def enumerate_submodules(add: Table, action: Table, zero: int) -> list[np.ndarray]:
    """All submodules of the module with tables add and action (ring x
    module), sorted by (size, elements): the sumset join closure of the
    orbits Rx = action[:, x], which are already submodules."""
    order = len(add)
    orbits = np.zeros((order, order), dtype=bool)
    orbits[np.arange(order)[:, None], action.T] = True
    step = max(1, _GATHER_ENTRIES // order)

    def join(cur: np.ndarray, extra: np.ndarray) -> np.ndarray:
        # cur is a subgroup, so cur + Rx is cur and its sums with Rx outside cur
        out = np.repeat(cur[None], len(extra), axis=0)
        rows, cols = np.nonzero(extra)
        cur_idx = np.flatnonzero(cur)
        for i in range(0, cols.size, step):
            block = slice(i, i + step)
            out[rows[block, None], add[cols[block]][:, cur_idx]] = True
        return out

    # the orbit of zero is {zero}
    return _join_closure(orbits[zero], add, enumerate(orbits), join)


def subgroup_sum_mask(ring: FiniteRing, a_mask: np.ndarray, b_mask: np.ndarray) -> np.ndarray:
    """Elementwise sumset of two additive subgroups (already a subgroup)."""
    ai = np.flatnonzero(a_mask)
    bi = np.flatnonzero(b_mask)
    out = np.zeros(ring.order, dtype=bool)
    out[np.unique(ring.add[np.ix_(ai, bi)])] = True
    return out


def span_of_products(add: Table, mul: Table, zero: int, a, b) -> np.ndarray:
    """Mask of the additive subgroup (group law add) generated by the products
    mul[x, y], x in a, y in b; mul is a ring's multiplication or a module's
    action (ring x module)."""
    prods = np.unique(mul[np.ix_(a, b)])
    return closure_mask(len(add), np.append(prods, zero), internal=(add,))


def mask_elements(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.flatnonzero(mask))


# ---------------------------------------------------------------------------
# constructors

def make_zmod(n: int) -> FiniteRing:
    """The ring Z/n."""
    if n < 2:
        raise PreconditionError(f"invalid order {n} for Z/n")
    if n > arith_limit():
        raise SizeLimitError(f"order {n} exceeds the arithmetic bound")
    idx = np.arange(n)
    return FiniteRing(n, np.add.outer(idx, idx) % n, np.multiply.outer(idx, idx) % n, 0, 1, f"Z/{n}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den over Z/p; coefficient lists little-endian."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] % p
        if c:
            f = (c * inv_lead) % p
            for i in range(dd + 1):
                num[k - dd + i] = (num[k - dd + i] - f * den[i]) % p
    return [c % p for c in num[:dd]]


def _is_irreducible(f: list[int], p: int) -> bool:
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for m in range(p**d):
            g = product_components([p] * d, m)[::-1] + [1]
            if not any(_poly_mod(f, g, p)):
                return False
    return True


def find_irreducible(p: int, k: int) -> list[int]:
    """Lexicographically first monic irreducible of degree k over Z/p.

    Candidates are ordered by the coefficient vector (c_{k-1},...,c_0).
    """
    for m in range(p**k):
        # the base-p digits of m, most significant first, are (c_{k-1},...,c_0)
        f = product_components([p] * k, m)[::-1] + [1]
        if _is_irreducible(f, p):
            return f
    raise InternalCheckError(f"no irreducible polynomial of degree {k} over Z/{p}")


def make_gf(p: int, k: int = 1) -> FiniteRing:
    """The field with p^k elements, built as Z/p[x]/(f) for the first monic
    irreducible f found by exhaustive search, on the layout of poly_quotient:
    the element sum c_i x^i has index sum c_i p^i.

    add is the layout's, the sum of k copies of Z/p.  mul is read off the
    logarithms to the least-index primitive element g: mul[a, b] =
    exp[(log a + log b) mod (q - 1)] for nonzero a and b, and zero otherwise.
    The powers exp[i] = g^i come from the layout's map a -> a * g, doubled:
    exp[m:2m] = g^m * exp[:m]."""
    limit = arith_limit()
    # bound p and k before the primality test and before forming p**k
    if p > limit:
        raise SizeLimitError(f"characteristic {p} exceeds the arithmetic bound")
    if not _is_prime(p):
        raise PreconditionError(f"invalid characteristic {p}")
    if k < 1:
        raise PreconditionError(f"invalid extension degree {k}")
    if k > limit.bit_length():
        raise SizeLimitError(f"order {p}^{k} exceeds the arithmetic bound")
    q = p**k
    if q > limit:
        raise SizeLimitError(f"order {q} exceeds the arithmetic bound")
    zp = make_zmod(p)
    if k == 1:
        return FiniteRing(p, zp.add, zp.mul, 0, 1, f"GF({p})")
    layout = _poly_layout(zp, find_irreducible(p, k))
    for g in range(2, q):
        exp, step = np.array([layout.one], dtype=np.int32), layout.times(g)
        while len(exp) < q - 1:
            exp = np.concatenate((exp, step[exp]))
            step = step[step]
        exp = exp[:q - 1]
        if np.count_nonzero(exp == layout.one) == 1:
            break
    else:
        raise InternalCheckError(f"no primitive element in GF({q})")
    log = np.zeros(q, dtype=np.int32)
    log[exp] = np.arange(q - 1, dtype=np.int32)
    exponents = np.add.outer(log, log)
    exponents %= q - 1
    mul = exp[exponents]
    mul[0, :] = mul[:, 0] = 0
    return FiniteRing(q, layout.add, mul, 0, 1, f"GF({q})")


def product_components(orders: Sequence[int], x):
    """Components of the element x (an index or an index array) of a product
    of rings with the given orders: the index is a mixed-radix number whose
    most significant digit is the first component."""
    out = []
    for o in reversed(orders):
        x, d = divmod(x, o)
        out.append(d)
    return out[::-1]


def product_index(orders: Sequence[int], parts):
    """The element with the given components (indices or broadcastable index
    arrays); inverse of product_components."""
    x = np.int64(0)
    for o, c in zip(orders, parts):
        x = x * o + c
    return x


@dataclass(frozen=True, eq=False)
class ProductResult:
    """A finite product ring; components[i][x] is the i-th component of the
    element x."""

    ring: FiniteRing
    factors: tuple[FiniteRing, ...]
    components: tuple[np.ndarray, ...]

    @property
    def orders(self) -> list[int]:
        return [f.order for f in self.factors]


def _kronecker(prev: Table, t: Table) -> Table:
    """The table of the product of two rings from the tables prev (order m,
    the more significant digit) and t (order k): prev[a, c] * k + t[b, d] at
    row a*k + b and column c*k + d."""
    n = len(prev) * len(t)
    return (prev[:, None, :, None] * len(t) + t[None, :, None, :]).reshape(n, n)


def product(factors: Sequence[FiniteRing]) -> ProductResult:
    """Direct product with componentwise operations, laid out as in
    product_components.  That is the Kronecker layout of _kronecker, so one
    broadcast per factor writes each table, with no gathers."""
    if not factors:
        raise PreconditionError("product of no rings")
    orders = [r.order for r in factors]
    total = math.prod(orders)
    if total > arith_limit():
        raise SizeLimitError(f"product order {total} exceeds the arithmetic bound")
    comps = tuple(_as_table(c) for c in product_components(orders, np.arange(total)))
    # every entry is below total <= arith_limit, so int32 is exact
    add = mul = np.zeros((1, 1), dtype=np.int32)
    for r in factors:
        add = _kronecker(add, r.add)
        mul = _kronecker(mul, r.mul)
    zero = int(product_index(orders, [r.zero for r in factors]))
    one = int(product_index(orders, [r.one for r in factors]))
    label = " x ".join(f"({r.label})" if " x " in r.label else r.label for r in factors)
    return ProductResult(FiniteRing(total, add, mul, zero, one, label), tuple(factors), comps)


def pair_homs(source: FiniteRing, pr: ProductResult, maps: Sequence[np.ndarray]) -> RingHom:
    """The hom source -> pr.ring whose i-th component is maps[i], a hom table
    source -> pr.factors[i] (the universal property of the product)."""
    maps = [np.asarray(m) for m in maps]
    if len(maps) != len(pr.factors) or any(
            m.min(initial=0) < 0 or m.max(initial=0) >= f.order for m, f in zip(maps, pr.factors)):
        raise PreconditionError("component maps do not match the product factors")
    return RingHom(source, pr.ring, product_index(pr.orders, maps))


@dataclass(frozen=True)
class QuotientResult:
    ring: FiniteRing
    projection: RingHom


def _ideal_indices(ring: FiniteRing, ideal) -> np.ndarray:
    if isinstance(ideal, Ideal):
        if ideal.ring is not ring and not same_tables(ideal.ring, ring):
            raise PreconditionError("ideal belongs to a different ring")
        if not ideal._is_valid():
            raise PreconditionError("subset is not an ideal")
        return np.asarray(ideal.elements, dtype=np.intp)
    checked = Ideal.from_indices(ring, ideal)
    return np.asarray(checked.elements, dtype=np.intp)


def cosets(add: Table, sub) -> tuple[np.ndarray, np.ndarray]:
    """Cosets x + N of the additive subgroup N (its element indices) of the
    group with table add: the coset number of every element, and the least
    element of each coset in increasing order."""
    least = add[:, sub].min(axis=1)
    reps = np.unique(least)
    return np.searchsorted(reps, least).astype(np.int32), reps


def quotient(ring: FiniteRing, ideal) -> QuotientResult:
    """R/I with cosets represented by their least element index."""
    idx = _ideal_indices(ring, ideal)
    if len(idx) == ring.order:
        raise PreconditionError("trivial quotient by the whole ring")
    proj, reps = cosets(ring.add, idx)
    add = proj[ring.add[np.ix_(reps, reps)]]
    mul = proj[ring.mul[np.ix_(reps, reps)]]
    zero = int(proj[ring.zero])
    one = int(proj[ring.one])
    gens = "{" + ",".join(str(int(i)) for i in idx[:4]) + (",..." if len(idx) > 4 else "") + "}"
    q = FiniteRing(len(reps), add, mul, zero, one, f"{ring.label}/{gens}")
    return QuotientResult(q, RingHom(ring, q, proj))


@dataclass(frozen=True)
class PolyQuotientResult:
    """R[x]/(monic, relations); to_quotient need not be injective."""

    ring: FiniteRing
    to_quotient: RingHom
    var_index: int


@dataclass(frozen=True)
class _PolyLayout:
    """R[x]/(f), deg f = d, as the free R-module on 1, x, ..., x^(d-1): the
    product of d copies of R (product_components) whose least significant
    component is the constant term, so sum c_i x^i has index sum c_i n^i.

    add is the d-fold _kronecker of the add table of R, scale[c, a] = c * a
    for c in R, and times_x[a] = x * a."""

    degree: int
    add: Table
    scale: Table
    times_x: np.ndarray
    zero: int
    one: int

    def horner(self, coeffs):
        """sum_i coeffs[i] x^i (coeffs little-endian), by Horner with times_x;
        each coefficient is an element or an array of elements."""
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add[self.times_x[acc], c]
        return acc

    def times(self, b: int) -> np.ndarray:
        """The map a -> a * b = sum_i (b_i a) x^i."""
        return self.horner(self.scale[product_components([len(self.scale)] * self.degree, b)[::-1]])

    def mul(self) -> Table:
        """The mul table: a * b = sum_i b_i (x^i a), one coefficient of b at a
        time.  After step i, out[a, c] = a * c for every c of degree <= i, the
        coefficient of x^i its most significant digit."""
        q = len(self.add)
        out = np.full((q, 1), self.zero, dtype=np.int32)
        xa = np.arange(q)
        for _ in range(self.degree):
            # scale.T[xa][a, c] = c * (x^i a)
            out = self.add[self.scale.T[xa][:, :, None], out[:, None, :]].reshape(q, -1)
            xa = self.times_x[xa]
        return out


def _poly_layout(ring: FiniteRing, monic: Sequence[int]) -> _PolyLayout:
    """The layout of R[x]/(monic), monic of degree d >= 1 with leading
    coefficient one; its tables have n^d entries per row."""
    n, d = ring.order, len(monic) - 1
    add = np.zeros((1, 1), dtype=np.int32)
    scale = np.zeros((n, 1), dtype=np.int32)
    for _ in range(d):
        add = _kronecker(add, ring.add)
        scale = (scale[:, :, None] * n + ring.mul[:, None, :]).reshape(n, -1)
    q = len(add)
    # x * a: shift the coefficients of a up, then fold x^d = -(f_0 + ... + f_{d-1} x^(d-1)) back in
    top, rest = product_components((n, q // n), np.arange(q))
    minus_f = product_index([n] * d, ring.neg[list(monic[d - 1::-1])])
    times_x = add[product_index((q // n, n), (rest, ring.zero)), scale[top, minus_f]]
    zero = int(product_index([n] * d, [ring.zero] * d))
    one = int(product_index([n] * d, [ring.zero] * (d - 1) + [ring.one]))
    return _PolyLayout(d, add, scale, times_x, zero, one)


def poly_quotient(
    ring: FiniteRing,
    monic: Sequence[int],
    relations: Sequence[Sequence[int]] = (),
    var: str = "x",
) -> PolyQuotientResult:
    """Quotient of R[x] by a monic polynomial and further relations.

    Polynomials are little-endian element-index lists; monic must have
    degree d >= 1 and leading coefficient one.  R[x]/(monic) is built on
    _poly_layout: the element sum c_i x^i of the free R-module on 1, x, ...,
    x^(d-1) has index sum c_i n^i, R embeds as the constants c * 1 and x is
    x * 1.  Relations are evaluated by Horner with the map a -> x * a, and
    the ideal they generate is divided out by quotient.
    """
    monic = [int(c) for c in monic]
    if len(monic) < 2:
        raise PreconditionError("monic polynomial must have degree >= 1")
    if any(c < 0 or c >= ring.order for c in monic):
        raise PreconditionError("polynomial coefficient out of range")
    if monic[-1] != ring.one:
        raise PreconditionError("not monic: leading coefficient is not one")
    q = ring.order**(len(monic) - 1)
    if q > arith_limit():
        raise SizeLimitError(f"order {q} exceeds the arithmetic bound")

    layout = _poly_layout(ring, monic)
    mstr = _poly_label(ring, monic, var)
    label = f"{ring.label}[{var}]/({mstr}" + ("" if not relations else ",...") + ")"
    free = FiniteRing(q, layout.add, layout.mul(), layout.zero, layout.one, label)
    embed = RingHom(ring, free, layout.scale[:, layout.one])
    x_index = int(layout.times_x[layout.one])

    rel_elems = []
    for rel in relations:
        rel = [int(c) for c in rel]
        if any(c < 0 or c >= ring.order for c in rel):
            raise PreconditionError("polynomial coefficient out of range")
        rel_elems.append(int(layout.horner(embed.map[rel])))
    if not rel_elems or all(e == free.zero for e in rel_elems):
        return PolyQuotientResult(free, embed, x_index)
    imask = closure_mask(q, rel_elems + [free.zero], internal=(free.add,), absorbing=(free.mul,))
    if imask.all():
        raise PreconditionError("trivial quotient: relations generate the unit ideal")
    qr = quotient(free, mask_elements(imask))
    return PolyQuotientResult(qr.ring, compose(embed, qr.projection), qr.projection.apply(x_index))


def _poly_label(ring: FiniteRing, coeffs: Sequence[int], var: str) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == ring.zero:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == ring.one else f"{c}*"
            terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# structure queries

def same_tables(a: FiniteRing, b: FiniteRing) -> bool:
    return (
        a.order == b.order
        and a.zero == b.zero
        and a.one == b.one
        and np.array_equal(a.add, b.add)
        and np.array_equal(a.mul, b.mul)
    )


def idempotents(ring: FiniteRing) -> list[int]:
    """The indices e with e*e = e, in index order."""
    return list(mask_elements(ring.mul.diagonal() == np.arange(ring.order)))


def primitive_idempotents(ring: FiniteRing) -> list[int]:
    """The nonzero idempotents e with e*f != f for every other nonzero
    idempotent f, in index order; one per local factor eR."""
    idem = np.array([e for e in idempotents(ring) if e != ring.zero], dtype=np.intp)
    # below[i, j]: idempotent j lies under idempotent i (e_i * e_j == e_j)
    below = ring.mul[np.ix_(idem, idem)] == idem[None, :]
    return [int(e) for e in idem[below.sum(axis=1) == 1]]


def is_connected(ring: FiniteRing) -> bool:
    """True when 0 and 1 are the only idempotents."""
    return len(idempotents(ring)) == 2


def is_field(ring: FiniteRing) -> bool:
    return int(ring.units.sum()) == ring.order - 1


def is_local(ring: FiniteRing) -> Optional[Ideal]:
    """The maximal ideal when the non-units form one, else None."""
    nu = np.flatnonzero(~ring.units)
    closed = ring.units[ring.add[np.ix_(nu, nu)]]
    if closed.any():
        return None
    return Ideal.from_indices(ring, nu, validate=False)


def nilpotency_index(ring: FiniteRing) -> int:
    """Least n with M^n = 0 for the maximal ideal M of a local ring."""
    m = is_local(ring)
    if m is None:
        raise PreconditionError("nilpotency index requires a local ring")
    cur = m.mask
    n = 1
    while cur.sum() > 1 or not cur[ring.zero]:
        cur = span_of_products(ring.add, ring.mul, ring.zero, np.flatnonzero(cur), m.elements)
        n += 1
        if n > ring.order + 1:
            raise InternalCheckError("maximal ideal is not nilpotent")
    return n


def is_spir(ring: FiniteRing) -> Optional[SpirWitness]:
    """Witness that R is a special principal ideal ring: local, not a field,
    maximal ideal M = Rt with t^p = 0 for minimal p.  Fields are excluded."""
    m = is_local(ring)
    if m is None or is_field(ring):
        return None
    for t in m.elements:
        col = np.zeros(ring.order, dtype=bool)
        col[ring.mul[:, t]] = True
        if np.array_equal(col, m.mask):
            p = 1
            x = t
            while x != ring.zero:
                x = int(ring.mul[x, t])
                p += 1
                if p > ring.order + 1:
                    return None
            return SpirWitness(t, p)
    return None


def subset_ring(ring: FiniteRing, elems: np.ndarray, one: int,
                label: str) -> tuple[FiniteRing, np.ndarray]:
    """The sorted subset elems, closed under + and *, as a ring with unit one,
    and the lookup array from ring indices to its indices (-1 off the subset).
    The whole ring keeps its indices, so it shares the ring's tables."""
    if len(elems) == ring.order:
        return (FiniteRing(ring.order, ring.add, ring.mul, ring.zero, int(one), label),
                np.arange(ring.order, dtype=np.int32))
    lookup = np.full(ring.order, -1, dtype=np.int32)
    lookup[elems] = np.arange(len(elems))
    add = lookup[ring.add[np.ix_(elems, elems)]]
    mul = lookup[ring.mul[np.ix_(elems, elems)]]
    return FiniteRing(len(elems), add, mul, int(lookup[ring.zero]), int(lookup[one]), label), lookup


def prime_hom(source: FiniteRing, target: FiniteRing) -> RingHom:
    """The map k*1 -> k*1 out of a ring whose additive group is generated by 1
    (Z/n, GF(p)); PreconditionError when 1 does not generate it or the map is
    not a ring hom."""
    src, tgt = source.multiples_of_one, target.multiples_of_one
    if len(src) != source.order:
        raise PreconditionError("the base is not generated by 1")
    emb = np.empty(source.order, dtype=np.int32)
    emb[src] = tgt[np.arange(len(src)) % len(tgt)]
    return RingHom(source, target, emb)


@dataclass(frozen=True)
class LocalDecomposition:
    """Local factors eR for the primitive idempotents e, with projections and
    an isomorphism witness onto their product."""

    factors: tuple[tuple[FiniteRing, RingHom], ...]
    product: FiniteRing
    iso: RingHom


def local_decomposition(ring: FiniteRing) -> LocalDecomposition:
    atoms = primitive_idempotents(ring)
    for a, b in itertools.combinations(atoms, 2):
        if ring.mul[a, b] != ring.zero:
            raise InternalCheckError("primitive idempotents are not orthogonal")
    s = ring.zero
    for a in atoms:
        s = int(ring.add[s, a])
    if s != ring.one:
        raise InternalCheckError("primitive idempotents do not sum to one")
    factors = []
    for e in atoms:
        fring, lookup = subset_ring(ring, np.unique(ring.mul[e]), e, f"{ring.label}.e{e}")
        factors.append((fring, RingHom(ring, fring, lookup[ring.mul[e]])))
    prod = product([f for f, _ in factors])
    iso = pair_homs(ring, prod, [proj.map for _, proj in factors])
    if not iso.is_injective or prod.ring.order != ring.order:
        raise InternalCheckError("local decomposition is not an isomorphism")
    return LocalDecomposition(tuple(factors), prod.ring, iso)


# ---------------------------------------------------------------------------
# verification helpers

def check_ring_axioms(ring: FiniteRing) -> None:
    """Full axiom check over all element triples; raises on any failure."""
    n = ring.order
    add, mul = ring.add, ring.mul
    if ring.zero == ring.one:
        raise InternalCheckError("one equals zero")
    if not np.array_equal(add, add.T) or not np.array_equal(mul, mul.T):
        raise InternalCheckError("operation is not commutative")
    if not np.array_equal(add[ring.zero], np.arange(n)):
        raise InternalCheckError("zero is not an additive identity")
    if not np.array_equal(mul[ring.one], np.arange(n)):
        raise InternalCheckError("one is not a multiplicative identity")
    if not (add == ring.zero).any(axis=1).all():
        raise InternalCheckError("an element has no additive inverse")
    chunk = max(1, (1 << 22) // max(n * n, 1))
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(lo + chunk, n))
        for tab in (add, mul):
            lhs = tab[tab[rows]]
            rhs = tab[rows][:, tab]
            if not np.array_equal(lhs, rhs):
                raise InternalCheckError("operation is not associative")
        x = mul[rows]
        lhs = mul[rows][:, add]
        rhs = add[x[:, :, None], x[:, None, :]]
        if not np.array_equal(lhs, rhs):
            raise InternalCheckError("multiplication does not distribute")


def _element_signature(ring: FiniteRing) -> list[tuple]:
    sig = []
    for x in range(ring.order):
        k, y = 1, x
        while y != ring.zero:
            y = int(ring.add[y, x])
            k += 1
        powers = []
        seen = {}
        z = x
        while z not in seen:
            seen[z] = len(seen)
            z = int(ring.mul[z, x])
            if len(seen) > ring.order:
                break
        sig.append((k, int(ring.mul[x, x] == x), bool(ring.nilpotents[x]), len(seen), bool(ring.units[x])))
    return sig


def _generating_log(ring: FiniteRing):
    elems: list[int] = []
    pos: dict[int, int] = {}
    log: list[tuple] = []
    gens: list[int] = []

    def absorb(x: int, entry: tuple):
        if x not in pos:
            pos[x] = len(elems)
            elems.append(x)
            log.append(entry)

    absorb(ring.zero, ("zero",))
    absorb(ring.one, ("one",))
    while len(elems) < ring.order:
        grew = True
        while grew:
            grew = False
            size = len(elems)
            for i in range(size):
                for j in range(i, len(elems)):
                    a, b = elems[i], elems[j]
                    before = len(elems)
                    absorb(int(ring.add[a, b]), ("add", i, j))
                    absorb(int(ring.mul[a, b]), ("mul", i, j))
                    if len(elems) != before:
                        grew = True
        if len(elems) < ring.order:
            g = min(x for x in range(ring.order) if x not in pos)
            gens.append(g)
            absorb(g, ("gen", len(gens) - 1))
    return elems, log, gens


def is_isomorphic(a: FiniteRing, b: FiniteRing) -> Optional[np.ndarray]:
    """Search for a ring isomorphism a -> b; returns the index map or None.

    Test oracle: backtracking over images of a small generating set, with
    element-invariant pruning.  Not intended to be fast on large rings.
    """
    if a.order != b.order:
        return None
    sig_a, sig_b = _element_signature(a), _element_signature(b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    elems, log, gens = _generating_log(a)
    candidates = [[y for y in range(b.order) if sig_b[y] == sig_a[g]] for g in gens]

    def replay(images: list[int]) -> Optional[np.ndarray]:
        bvals: list[int] = []
        for entry in log:
            kind = entry[0]
            if kind == "zero":
                bvals.append(b.zero)
            elif kind == "one":
                bvals.append(b.one)
            elif kind == "gen":
                bvals.append(images[entry[1]])
            elif kind == "add":
                bvals.append(int(b.add[bvals[entry[1]], bvals[entry[2]]]))
            else:
                bvals.append(int(b.mul[bvals[entry[1]], bvals[entry[2]]]))
        if len(set(bvals)) != b.order:
            return None
        out = np.empty(a.order, dtype=np.int32)
        out[elems] = bvals
        img = out
        if not np.array_equal(b.add[np.ix_(img, img)], img[a.add]):
            return None
        if not np.array_equal(b.mul[np.ix_(img, img)], img[a.mul]):
            return None
        return out

    for images in itertools.product(*candidates):
        if len(set(images)) != len(images):
            continue
        out = replay(list(images))
        if out is not None:
            return out
    return None
