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
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class RingElem:
    """An element of a specific ring, by index."""

    ring: FiniteRing
    index: int

    def __repr__(self):
        return f"<{self.index} in {self.ring.label}>"


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

    generator: RingElem
    index: int


# ---------------------------------------------------------------------------
# closure engine

def extend_closure_mask(
    order: int,
    base_mask: Optional[np.ndarray],
    new_indices: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
) -> np.ndarray:
    """Close base_mask (already closed, or None) plus new_indices under the
    given operations.

    internal tables are applied to pairs of members (the operations must be
    commutative); absorbing tables are applied to (anything, member) pairs.
    In a finite additive group closure under + alone yields the generated
    subgroup, so no explicit negation table is needed.  Each round scatters
    the products of the frontier into a boolean hit array; the hits outside
    the mask are the next frontier.
    """
    mask = np.zeros(order, dtype=bool) if base_mask is None else base_mask.copy()
    hit = np.zeros(order, dtype=bool)
    hit[new_indices if isinstance(new_indices, np.ndarray)
        else np.fromiter(new_indices, dtype=np.intp)] = True
    while True:
        frontier = np.flatnonzero(hit & ~mask)
        mask[frontier] = True
        if not frontier.size or not (internal or absorbing):
            return mask
        members = np.flatnonzero(mask)
        hit[:] = False
        for t in internal:
            hit[t[frontier][:, members]] = True
        for t in absorbing:
            hit[t[:, frontier]] = True


def closure_mask(
    order: int,
    seed: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
) -> np.ndarray:
    """Smallest subset containing seed, closed under the given operations."""
    return extend_closure_mask(order, None, seed, internal, absorbing)


def enumerate_closed_subsets(
    order: int,
    seed: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
    element_order: Optional[Sequence[int]] = None,
) -> list[np.ndarray]:
    """All closed subsets that contain seed, sorted by (size, elements).

    Every such subset is the join of the atoms closure(seed + {s}) of its
    elements, so the subsets are the join closure of the atoms: a FIFO
    worklist from the bottom closure(seed) joins each node with every atom
    not already inside it.  The result does not depend on element_order.
    """
    first = closure_mask(order, seed, internal, absorbing)
    elems: Sequence[int] = element_order if element_order is not None else range(order)
    atoms: dict[bytes, np.ndarray] = {}
    for s in elems:
        if not first[s]:
            atom = extend_closure_mask(order, first, [s], internal, absorbing)
            atoms.setdefault(atom.tobytes(), atom)
    nodes: dict[bytes, np.ndarray] = {first.tobytes(): first}
    queue = deque([first])
    while queue:
        cur = queue.popleft()
        for atom in atoms.values():
            extra = np.flatnonzero(atom & ~cur)
            if not extra.size:
                continue
            new = extend_closure_mask(order, cur, extra, internal, absorbing)
            key = new.tobytes()
            if key not in nodes:
                nodes[key] = new
                queue.append(new)
    return sorted(nodes.values(), key=lambda m: (int(m.sum()), mask_elements(m)))


def additive_closure_mask(ring: FiniteRing, seed: Iterable[int]) -> np.ndarray:
    return closure_mask(ring.order, list(seed) + [ring.zero], internal=(ring.add,))


def subgroup_sum_mask(ring: FiniteRing, a_mask: np.ndarray, b_mask: np.ndarray) -> np.ndarray:
    """Elementwise sumset of two additive subgroups (already a subgroup)."""
    ai = np.flatnonzero(a_mask)
    bi = np.flatnonzero(b_mask)
    out = np.zeros(ring.order, dtype=bool)
    out[np.unique(ring.add[np.ix_(ai, bi)])] = True
    return out


def mask_elements(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.flatnonzero(mask))


# ---------------------------------------------------------------------------
# constructors

def make_zmod(n: int, max_order: Optional[int] = None) -> FiniteRing:
    """The ring Z/n."""
    if n < 2:
        raise PreconditionError(f"invalid order {n} for Z/n")
    if n > arith_limit(max_order):
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
            g = [(m // p**i) % p for i in range(d)] + [1]
            if not any(_poly_mod(f, g, p)):
                return False
    return True


def find_irreducible(p: int, k: int) -> list[int]:
    """Lexicographically first monic irreducible of degree k over Z/p.

    Candidates are ordered by the coefficient vector (c_{k-1},...,c_0).
    """
    for m in range(p**k):
        # base-p digits of m, read most significant first, are (c_{k-1},...,c_0)
        f = [(m // p**i) % p for i in range(k)] + [1]
        if _is_irreducible(f, p):
            return f
    raise InternalCheckError(f"no irreducible polynomial of degree {k} over Z/{p}")


def make_gf(p: int, k: int = 1, max_order: Optional[int] = None) -> FiniteRing:
    """The field with p^k elements, built as Z/p[x]/(f) for the first monic
    irreducible f found by exhaustive search."""
    limit = arith_limit(max_order)
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
    if k == 1:
        r = make_zmod(p, max_order)
        return FiniteRing(p, r.add, r.mul, 0, 1, f"GF({p})")
    f = find_irreducible(p, k)
    dig = np.empty((q, k), dtype=np.int64)
    idx = np.arange(q)
    for i in range(k):
        dig[:, i] = (idx // p**i) % p
    powers = p ** np.arange(k)
    add = ((dig[:, None, :] + dig[None, :, :]) % p) @ powers
    # reduction vectors: x^m = sum red[m][t] x^t for m in 0..2k-2
    red = [[1 if t == m else 0 for t in range(k)] for m in range(k)]
    for m in range(k, 2 * k - 1):
        vec = [0] * k
        for i in range(k):
            c = (-f[i]) % p
            if c:
                prev = red[m - k + i]
                for t in range(k):
                    vec[t] = (vec[t] + c * prev[t]) % p
        red.append(vec)
    res = [np.zeros((q, q), dtype=np.int64) for _ in range(k)]
    for i in range(k):
        for j in range(k):
            pij = np.multiply.outer(dig[:, i], dig[:, j])
            for t in range(k):
                c = red[i + j][t]
                if c:
                    res[t] += c * pij
    mul = sum((res[t] % p) * int(powers[t]) for t in range(k))
    return FiniteRing(q, add, mul, 0, 1, f"GF({q})")


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
    element x.  The projections and, when every factor has identical tables,
    the diagonal embedding are built on first read."""

    ring: FiniteRing
    factors: tuple[FiniteRing, ...]
    components: tuple[np.ndarray, ...]

    @property
    def orders(self) -> list[int]:
        return [f.order for f in self.factors]

    @cached_property
    def projections(self) -> tuple[RingHom, ...]:
        return tuple(RingHom(self.ring, f, c) for f, c in zip(self.factors, self.components))

    @cached_property
    def diagonal(self) -> Optional[RingHom]:
        first = self.factors[0]
        if not all(same_tables(r, first) for r in self.factors[1:]):
            return None
        return pair_homs(first, self, [np.arange(first.order)] * len(self.factors))


def product(factors: Sequence[FiniteRing], max_order: Optional[int] = None) -> ProductResult:
    """Direct product with componentwise operations, laid out as in
    product_components."""
    if not factors:
        raise PreconditionError("product of no rings")
    orders = [r.order for r in factors]
    total = math.prod(orders)
    if total > arith_limit(max_order):
        raise SizeLimitError(f"product order {total} exceeds the arithmetic bound")
    comps = tuple(_as_table(c) for c in product_components(orders, np.arange(total)))
    # every entry is below total <= arith_limit, so int32 is exact
    add = np.zeros((total, total), dtype=np.int32)
    mul = np.zeros((total, total), dtype=np.int32)
    for r, c in zip(factors, comps):
        for out, t in ((add, r.add), (mul, r.mul)):
            out *= r.order
            out += t[np.ix_(c, c)]
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


def quotient(ring: FiniteRing, ideal, max_order: Optional[int] = None) -> QuotientResult:
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


def poly_quotient(
    ring: FiniteRing,
    monic: Sequence[int],
    relations: Sequence[Sequence[int]] = (),
    var: str = "x",
    max_order: Optional[int] = None,
) -> PolyQuotientResult:
    """Quotient of R[x] by a monic polynomial and further relations.

    Polynomials are little-endian element-index lists; monic must have
    degree >= 1 and leading coefficient one.
    """
    monic = [int(c) for c in monic]
    if len(monic) < 2:
        raise PreconditionError("monic polynomial must have degree >= 1")
    if any(c < 0 or c >= ring.order for c in monic):
        raise PreconditionError("polynomial coefficient out of range")
    if monic[-1] != ring.one:
        raise PreconditionError("not monic: leading coefficient is not one")
    d = len(monic) - 1
    q = ring.order**d
    if q > arith_limit(max_order):
        raise SizeLimitError(f"order {q} exceeds the arithmetic bound")

    n = ring.order
    idx = np.arange(q)
    dig = np.empty((q, d), dtype=np.intp)
    for i in range(d):
        dig[:, i] = (idx // n**i) % n
    powers = n ** np.arange(d, dtype=np.int64)

    add = np.zeros((q, q), dtype=np.int64)
    for i in range(d):
        add += powers[i] * ring.add[np.ix_(dig[:, i], dig[:, i])].astype(np.int64)

    # x^m as a vector of ring elements over the basis 1..x^{d-1}
    red: list[list[int]] = [[ring.one if t == m else ring.zero for t in range(d)] for m in range(d)]
    for m in range(d, 2 * d - 1):
        vec = [ring.zero] * d
        for i in range(d):
            c = int(ring.neg[monic[i]])
            if c != ring.zero:
                prev = red[m - d + i]
                for t in range(d):
                    vec[t] = int(ring.add[vec[t], ring.mul[c, prev[t]]])
        red.append(vec)

    res = [np.full((q, q), ring.zero, dtype=np.int32) for _ in range(d)]
    for i in range(d):
        for j in range(d):
            pij = ring.mul[np.ix_(dig[:, i], dig[:, j])]
            for t in range(d):
                c = red[i + j][t]
                if c == ring.zero:
                    continue
                term = pij if c == ring.one else ring.mul[c][pij]
                res[t] = ring.add[res[t], term]
    mul = np.zeros((q, q), dtype=np.int64)
    for t in range(d):
        mul += powers[t] * res[t].astype(np.int64)

    def pack(vec: Sequence[int]) -> int:
        return int(sum(int(vec[i]) * int(powers[i]) for i in range(d)))

    zero = pack([ring.zero] * d)
    one = pack([ring.one] + [ring.zero] * (d - 1))
    mstr = _poly_label(ring, monic, var)
    label = f"{ring.label}[{var}]/({mstr}" + ("" if not relations else ",...") + ")"
    free = FiniteRing(q, add, mul, zero, one, label)
    embed = RingHom(ring, free, np.array([pack([r] + [ring.zero] * (d - 1)) for r in range(n)]))
    x_index = pack([ring.zero, ring.one] + [ring.zero] * (d - 2)) if d >= 2 else pack([ring.neg[monic[0]]])

    rel_elems = []
    for rel in relations:
        rel = [int(c) for c in rel]
        if any(c < 0 or c >= ring.order for c in rel):
            raise PreconditionError("polynomial coefficient out of range")
        acc = free.zero
        xp = free.one
        for c in rel:
            acc = int(free.add[acc, free.mul[embed.map[c], xp]])
            xp = int(free.mul[xp, x_index])
        rel_elems.append(acc)
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


def idempotents(ring: FiniteRing) -> list[RingElem]:
    mask = ring.mul.diagonal() == np.arange(ring.order)
    return [RingElem(ring, int(i)) for i in np.flatnonzero(mask)]


def primitive_idempotents(ring: FiniteRing) -> list[int]:
    """The nonzero idempotents e with e*f != f for every other nonzero
    idempotent f, in index order; one per local factor eR."""
    idem = np.flatnonzero(ring.mul.diagonal() == np.arange(ring.order))
    idem = idem[idem != ring.zero]
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
        a = np.flatnonzero(cur)
        b = np.asarray(m.elements, dtype=np.intp)
        prods = np.unique(ring.mul[np.ix_(a, b)])
        cur = closure_mask(ring.order, list(prods) + [ring.zero], internal=(ring.add,))
        n += 1
        if n > ring.order + 1:
            raise InternalCheckError("maximal ideal is not nilpotent")
    return n if m.order > 1 else 1


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
            return SpirWitness(RingElem(ring, int(t)), p)
    return None


def subset_ring(ring: FiniteRing, elems: np.ndarray, one: int,
                label: str) -> tuple[FiniteRing, np.ndarray]:
    """The sorted subset elems, closed under + and *, as a ring with unit one,
    and the lookup array from ring indices to its indices (-1 off the subset)."""
    lookup = np.full(ring.order, -1, dtype=np.int32)
    lookup[elems] = np.arange(len(elems))
    add = lookup[ring.add[np.ix_(elems, elems)]]
    mul = lookup[ring.mul[np.ix_(elems, elems)]]
    return FiniteRing(len(elems), add, mul, int(lookup[ring.zero]), int(lookup[one]), label), lookup


def prime_hom(source: FiniteRing, target: FiniteRing) -> RingHom:
    """The map k*1 -> k*1 out of a ring whose additive group is generated by 1
    (Z/n, GF(p)); PreconditionError when 1 does not generate it or the map is
    not a ring hom."""
    emb = np.full(source.order, -1, dtype=np.int64)
    r, s = source.zero, target.zero
    while emb[r] < 0:
        emb[r] = s
        r, s = int(source.add[r, source.one]), int(target.add[s, target.one])
    if (emb < 0).any():
        raise PreconditionError("the base is not generated by 1")
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
