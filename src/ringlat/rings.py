"""Finite commutative unital rings as dense index tables.

Elements of a ring of order n are the indices 0..n-1; all arithmetic is
table lookup.  Constructors build Z/n, finite fields, products, polynomial
quotients and plain quotients, and every constructed hom is validated at
construction time on the additive generators of its source, which for
tables that satisfy the ring axioms is the all-pairs check (RingHom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .config import arith_limit
from .errors import InternalCheckError, PreconditionError, SizeLimitError

Table = np.ndarray

# The one dtype of element indices: every table, hom map, lookup and
# projection holds indices below the order, and config.arith_limit never
# exceeds config.ORDER_CEILING = 2^15, so every index fits.  Arithmetic on
# entries that could pass 2^15 - 1 is done wider (product_index, make_zmod,
# make_gf).
ELEMENT = np.int16
_ELEMENT_MIN, _ELEMENT_MAX = int(np.iinfo(ELEMENT).min), int(np.iinfo(ELEMENT).max)

# Entries computed at once when a table is built through wider arithmetic
# (_table_by_rows) or when a product's rows are read off its factors
# (product_table_rows): an int64 block of 8 MiB, an eighth of an order-4096
# table pair.
_BUILD_ENTRIES = 1 << 20


def _as_table(a) -> Table:
    """a as a read-only, C-contiguous ELEMENT array.  Every constructor
    builds its tables in ELEMENT, so they pass through uncopied; any other
    array is checked to fit first, as a narrowing cast would wrap."""
    t = np.asarray(a)
    if t.dtype != ELEMENT:
        if t.size and (t.min() < _ELEMENT_MIN or t.max() > _ELEMENT_MAX):
            raise SizeLimitError(f"table entries exceed the element ceiling {_ELEMENT_MAX + 1}")
        t = t.astype(ELEMENT)
    t = np.ascontiguousarray(t)
    t.setflags(write=False)
    return t


def _table_by_rows(n: int, rows_of: Callable[[np.ndarray], np.ndarray]) -> Table:
    """The n x n ELEMENT table whose rows a are rows_of(a), for blocks of
    consecutive row indices a of about _BUILD_ENTRIES entries, so that
    arithmetic wider than ELEMENT never spans the whole table."""
    out = np.empty((n, n), dtype=ELEMENT)
    step = max(1, _BUILD_ENTRIES // n)
    for lo in range(0, n, step):
        out[lo:lo + step] = rows_of(np.arange(lo, min(lo + step, n)))
    return out


@dataclass(frozen=True, eq=False, repr=False)
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
        """neg[x] is the additive inverse of x: -x = (-1) x, so neg is the
        row of mul at -1, the one element m with 1 + m = 0 (2n reads)."""
        return self.mul[int((self.add[self.one] == self.zero).argmax())]

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
    def idempotent_indices(self) -> np.ndarray:
        """The indices e with e*e = e, in index order: one scan of the mul
        table's diagonal per ring."""
        return (self.mul.diagonal() == np.arange(self.order)).nonzero()[0]

    @cached_property
    def primitive_idempotents(self) -> tuple[int, ...]:
        """The nonzero idempotents e with e*f != f for every other nonzero
        idempotent f, in index order; one per local factor eR."""
        return _primitive_idempotents(self, np.ones(self.order, dtype=bool))

    @cached_property
    def prime_elements(self) -> tuple[tuple[int, ...], ...]:
        """The primes, sorted by (order, elements): subring_primes of the
        whole ring.  Tuples, as a cached Ideal would hold its ring."""
        return subring_primes(self, np.ones(self.order, dtype=bool))

    @cached_property
    def additive_generators(self) -> np.ndarray:
        """Generators of the additive group, each the least element outside
        the span of the earlier ones, so at most log2(order) of them.

        The span S grows by g as S + {0, c} for c = g, 2g, 4g, ..., which
        after j steps is S + {0, g, ..., (2^j - 1) g}, until the first c
        already inside: then the span plus g lies inside it, so it is the
        whole S + <g>."""
        span = np.zeros(self.order, dtype=bool)
        span[self.zero] = True
        gens = []
        while not span.all():
            c = int(span.argmin())
            gens.append(c)
            while not span[c]:
                span[self.add[span.nonzero()[0], c]] = True
                c = int(self.add[c, c])
        return np.array(gens, dtype=np.intp)

    @cached_property
    def multiples_of_one(self) -> np.ndarray:
        """k * 1 at position k, for k below the additive order of one."""
        out = [self.zero]
        while (nxt := int(self.add[out[-1], self.one])) != self.zero:
            out.append(nxt)
        return np.array(out, dtype=ELEMENT)

    def power(self, a: int, k: int) -> int:
        """a^k by square-and-multiply; a^0 is one."""
        out = self.one
        while k > 0:
            if k & 1:
                out = int(self.mul[out, a])
            a = int(self.mul[a, a])
            k >>= 1
        return out

    def __repr__(self):
        return f"FiniteRing({self.label}, order={self.order})"


@dataclass(frozen=True, eq=False, repr=False)
class RingHom:
    """A unital ring homomorphism given by its full index table.

    Validated at construction: m(a + g) = m(a) + m(g) for every a and every
    additive generator g of the source, then m(a g) = m(a) m(g) on the same
    pairs; raises PreconditionError if the table is not additive,
    multiplicative, or unital.  Source and target must satisfy the ring
    axioms (check_ring_axioms): then the elements b with m(a + b) = m(a) +
    m(b) for all a are closed under +, so passing on the generators means
    additive, and given that, the b with m(a b) = m(a) m(b) for all a are
    closed under + too, by distributivity.  Each check reads n |G| entries
    of each table, against n^2 for all pairs.
    """

    source: FiniteRing
    target: FiniteRing
    map: np.ndarray

    def __post_init__(self):
        source, target = self.source, self.target
        m = np.asarray(self.map)
        if m.shape != (source.order,):
            raise PreconditionError("hom table has wrong length")
        if m.dtype == ELEMENT:
            # a negative entry reads as 2^15 or more, at least any order
            outside = m.view(np.uint16).max(initial=0) >= target.order
        else:
            # checked before the narrowing to ELEMENT, which would wrap
            outside = m.min(initial=0) < 0 or m.max(initial=0) >= target.order
            m = m.astype(ELEMENT)
        if outside:
            raise PreconditionError("hom table maps outside the target")
        m = _as_table(m)
        object.__setattr__(self, "map", m)
        if m.item(source.zero) != target.zero:
            raise PreconditionError("hom does not preserve zero")
        if m.item(source.one) != target.one:
            raise PreconditionError("hom does not preserve one")
        # row g of each commutative table holds g + a (g a) for every a
        gens = source.additive_generators
        img = m[gens, None]
        if not (target.add[img, m] == m[source.add[gens]]).all():
            raise PreconditionError("hom is not additive")
        if not (target.mul[img, m] == m[source.mul[gens]]).all():
            raise PreconditionError("hom is not multiplicative")

    @cached_property
    def is_injective(self) -> bool:
        return len(distinct(self.map, self.target.order)) == self.source.order

    def __repr__(self):
        return f"RingHom({self.source.label} -> {self.target.label})"


def identity_hom(ring: FiniteRing) -> RingHom:
    return RingHom(ring, ring, np.arange(ring.order))


def compose(first: RingHom, then: RingHom) -> RingHom:
    """The composite hom x -> then(first(x))."""
    if first.target is not then.source and not same_tables(first.target, then.source):
        raise PreconditionError("homs do not compose")
    return RingHom(first.source, then.target, then.map[first.map])


@dataclass(frozen=True, eq=False, repr=False)
class Ideal:
    """A canonical subset closed under addition and absorbing multiplication."""

    ring: FiniteRing
    elements: tuple[int, ...]

    @staticmethod
    def from_indices(ring: FiniteRing, indices: Iterable[int]) -> "Ideal":
        elems = tuple(sorted(set(int(i) for i in indices)))
        ideal = Ideal(ring, elems)
        if not ideal._is_valid():
            raise PreconditionError("subset is not an ideal")
        return ideal

    def _is_valid(self) -> bool:
        if not self.elements or self.ring.zero not in self.elements:
            return False
        idx = np.asarray(self.elements, dtype=np.intp)
        # a negative index reads as 2^63 or more
        if idx.view(np.uintp).max() >= self.ring.order:
            return False
        m, ring = self.mask, self.ring
        # once the elements are closed under +, so are the r with r*I inside
        # I, by distributivity: absorption holds when it holds for the
        # additive generators of the ring
        gens = ring.additive_generators
        return bool(m[ring.add[idx[:, None], idx]].all() and m[ring.mul[gens[:, None], idx]].all())

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


class SpirWitness(NamedTuple):
    """Least-index generator t of the maximal ideal and its nilpotency index."""

    generator: int
    index: int


# ---------------------------------------------------------------------------
# closure engine: every ideal, submodule, span and subring closure is a sum
# of additive subgroups, built coset by coset by one sumset kernel
# (_add_cosets_rows), whose rows are the joins of a lattice level or, one row
# alone, a single closure; the pair closure (extend_closure_mask) is kept
# only as the oracle that checks it.  The sumset kernel and the coset
# labeller (_coset_labels) run one round loop (_coset_rounds) and differ
# only in what they write per block

# Table entries gathered in one round of the coset kernels (_coset_rounds:
# each row's least pending elements, as many whole cosets as its share
# allows), at once by the pair closure and in one block of
# lattice.tclosed_candidates.  Each gather of those rounds (_gather: the
# cosets of the kernels, the products of adjoin_rows) takes a quarter of it
# (one row at least): 16 KiB of ELEMENT entries beside 64 KiB of intp
# indices, below glibc's default mmap threshold (128 KiB), so each round's
# temporaries reuse heap memory instead of mapping and faulting in fresh
# pages.
_GATHER_ENTRIES = 1 << 15

# Mask entries (rows x order) of one batched kernel call: a chunk of a
# join-closure level (the coset leaders of that many node entries, then the
# joins of that many (node, leader) row entries), of the sums of one node
# with later ones (lattice.is_delta) or of one span R + Rt with later Ru
# (lattice.is_delta0), or of one block of the cover test (ClosedSets.hasse_edges:
# a join and the leader marks of its node per row).  It bounds the stacks and
# index arrays held at once, however many joins or sums there are.
_LEVEL_ENTRIES = 1 << 17


def extend_closure_mask(
    order: int,
    base_mask: Optional[np.ndarray],
    new_indices: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
) -> np.ndarray:
    """Close base_mask (already closed, or None) plus new_indices under the
    given operations, by the pair closure: the oracle of the sumset kernel.

    Each round applies the internal tables to the pairs (new member, member)
    (the operations must be commutative) and the absorbing tables to the
    pairs (anything, new member), until a round adds nothing.  In a finite
    additive group closure under + alone yields the generated subgroup, so
    no explicit negation table is needed.
    """
    mask = np.zeros(order, dtype=bool) if base_mask is None else base_mask.copy()
    new = new_indices if isinstance(new_indices, np.ndarray) else np.fromiter(new_indices, dtype=np.intp)
    hit = np.zeros(order, dtype=bool)
    hit[new] = True
    while (frontier := (hit & ~mask).nonzero()[0]).size:
        mask[frontier] = True
        hit[:] = False
        members = mask.nonzero()[0]
        for t in internal:
            step = max(1, _GATHER_ENTRIES // members.size)
            for i in range(0, frontier.size, step):
                hit[t[frontier[i:i + step, None], members]] = True
        for t in absorbing:
            step = max(1, _GATHER_ENTRIES // len(t))
            for i in range(0, frontier.size, step):
                hit[t[:, frontier[i:i + step]]] = True
    return mask


def closure_mask(
    order: int,
    seed: Iterable[int],
    internal: Sequence[Table] = (),
    absorbing: Sequence[Table] = (),
) -> np.ndarray:
    """Smallest subset containing seed, closed under the given operations."""
    return extend_closure_mask(order, None, seed, internal, absorbing)


def _cells(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """stack.nonzero() of a 2-D mask, by one scan of the flat mask, which
    numpy does several times faster."""
    return np.divmod(stack.ravel().nonzero()[0], stack.shape[1])


def _row_members(stack: np.ndarray) -> np.ndarray:
    """The members of each row of a mask stack (none empty) in increasing
    order, one row each, padded to the widest row with the row's least
    member, which adds nothing to a sumset, a set of products or a
    minimum."""
    if len(stack) == 1:
        return stack.ravel().nonzero()[0][None]
    rows, members = _cells(stack)
    counts = np.bincount(rows, minlength=len(stack))
    width = counts.max(initial=0)
    if members.size == width * len(stack):  # rows of one width need no padding
        return members.reshape(len(stack), width)
    starts = counts.cumsum() - counts
    padded = np.repeat(members[starts], width).reshape(len(stack), width)
    padded[rows, np.arange(rows.size) - starts[rows]] = members
    return padded


def _gather(table: Table, xs: np.ndarray, rows: np.ndarray, members: np.ndarray):
    """The entries table[xs[i], members[rows[i]]] for every i, in blocks of a
    quarter of _GATHER_ENTRIES entries (one i at least), as each entry also
    takes a few 8-byte indices: (the slice of i, its entries) per block.
    Members of one row are broadcast, not copied per i."""
    step = max(1, _GATHER_ENTRIES // 4 // members.shape[1])
    for lo in range(0, len(xs), step):
        block = slice(lo, lo + step)
        cols = members if len(members) == 1 else members[rows[block]]
        yield block, table[xs[block, None], cols]


def _coset_rounds(add: Table, a: np.ndarray, x: np.ndarray,
                  covered: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  members: Optional[np.ndarray] = None):
    """The rounds of both coset kernels over the cells (r, y) of the mask
    stack x, for the additive subgroups A_r (rows of the mask stack a, group
    law add; members holds them as _row_members(a) does, read only when a
    cell is pending).  Each round picks, for each row, its least pending
    cells, as many whole cosets as the row's share of _GATHER_ENTRIES allows
    (one at least; all of them, the round then being the last, when they
    fit one round), and gathers their cosets y + A_r for all rows together
    (_gather), each as wide as the widest A_r: (the rows, the picks y, their
    cosets, whether the round is the last) per block.  After a round that
    is not the last, a cell stays pending unless covered(rows, ys), called
    once the caller has written the round's blocks, holds for it."""
    xr, xc = _cells(x)
    if xr.size and members is None:
        members = _row_members(a)
    while xr.size:
        width = members.shape[1]
        last = xr.size * width <= _GATHER_ENTRIES
        rows, xs = xr, xc
        if not last:
            # xr is sorted, so a cell's rank in its row is its distance from
            # the row's first pending cell
            pending = np.bincount(xr, minlength=len(a))
            rank = np.arange(xr.size) - np.repeat(pending.cumsum() - pending, pending)
            pick = rank < max(1, _GATHER_ENTRIES // np.count_nonzero(pending) // width)
            rows, xs = xr[pick], xc[pick]
        for block, cosets in _gather(add, xs, rows, members):
            yield rows[block], xs[block], cosets, last
        if last:
            return
        pending = ~covered(xr, xc)
        xr, xc = xr[pending], xc[pending]


def _coset_labels(add: Table, a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coset labeller: row by row, for the additive subgroup A_r (row r
    of the mask stack a, group law add), the leader of each coset y + A_r
    that meets X_r (row r of the mask stack x), its least element.  Returns
    the mask stack of the leaders, and the stack of labels: the leader of
    the coset of each element of X_r, and -1 elsewhere.

    Each round of _coset_rounds labels its picks, the least elements of X_r
    outside the cosets labelled so far, with their cosets' minima; picks
    that share a coset label it alike.  A round that leaves elements
    pending labels the whole cosets, so that later rounds skip them: each
    coset is gathered through few of its elements, not through every
    element of X_r in it."""
    labels = np.full(a.shape, -1, dtype=ELEMENT)
    leaders = np.zeros(a.shape, dtype=bool)
    whole = False  # whether a round labelled whole cosets
    for r, xs, sums, last in _coset_rounds(add, a, x, lambda rows, ys: labels[rows, ys] >= 0):
        least = sums.min(axis=1)
        if not last:
            labels[r[:, None], sums] = least[:, None]
            whole = True
        labels[r, xs] = least
        leaders[r, least] = True
    if whole:
        labels[~x] = -1
    return leaders, labels


def _join_closure(first: np.ndarray, add: Table, gens: np.ndarray, atoms: np.ndarray,
                  join: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> ClosedSets:
    """The join closure over first of the atoms (rows of a mask stack, each
    holding first), each given with the element of gens that generates it
    over first; sorted by (size, elements).

    Every node is an additive subgroup (add is the group law) that contains
    first, so its join with the atom of s is the closed set generated by the
    node and s, which depends only on the coset of s; the least element of
    the coset generates it too, and the coset labeller finds it for each
    coset that holds a generator outside the node (_coset_labels).  The
    closure grows one BFS level at a time from the distinct atoms, and
    join(stack, s) returns, row by row, the joins of the nodes stack[r] with
    the atoms of s[r]: one call joins every node of the level with every
    such coset leader, in chunks of _LEVEL_ENTRIES mask entries.  Each join
    is kept as (node id, coset leader, join id), the ids counting the nodes
    in the order found from 0 for first, and the atoms as the joins of
    first, one per distinct atom: ClosedSets reads the Hasse covers off
    them."""
    step = max(1, _LEVEL_ENTRIES // len(first))
    nodes: dict[bytes, int] = {}
    _node_ids(nodes, first[None])
    ids, rows, level = _node_ids(nodes, atoms)
    gens = gens[rows]
    outside = np.zeros(len(first), dtype=bool)
    outside[gens] = True
    joins = [(np.zeros(rows.size, dtype=np.intp), gens, ids[rows])]
    found = [first[None], level]
    start = 1  # the id of the level's first node
    while len(level):
        fresh = [level[:0]]
        for lo in range(0, len(level), step):
            chunk = level[lo:lo + step]
            node, s = _cells(_coset_labels(add, chunk, outside & ~chunk)[0])
            for i in range(0, node.size, step):
                ids, _, new = _node_ids(nodes, join(chunk[node[i:i + step]], s[i:i + step]))
                joins.append((start + lo + node[i:i + step], s[i:i + step], ids))
                fresh.append(new)
        start += len(level)
        level = np.concatenate(fresh)
        found.append(level)
    # sets of one size compare by their least differing element, which lies
    # in the lesser one: ascending size (the popcount of the key), then
    # descending keys (_node_ids)
    keys = list(nodes)
    sizes = [int.from_bytes(k, "big").bit_count() for k in keys]
    order = sorted(range(len(keys)), key=lambda i: (-sizes[i], keys[i]), reverse=True)
    return ClosedSets(np.concatenate(found), order, joins)


def _node_ids(nodes: dict[bytes, int], stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The id of each row of the mask stack in nodes (key -> id), where each
    mask not yet a node is added with the next id: (the ids, the first row
    of each new mask in id order, a copy of those rows).

    A key is the row packed a bit per element, first element first
    (np.packbits), an eighth of the mask bytes to hash, read as a numpy
    bytes item, which drops trailing zero bytes: keys of rows of one width
    stay distinct, hold the same bits, and compare as their rows do."""
    packed = np.packbits(stack, axis=1)
    before = len(nodes)
    ids, rows = [], []
    for r, key in enumerate(packed.view(f"S{packed.shape[1]}").ravel().tolist()):
        i = nodes.setdefault(key, len(nodes))
        if i == before + len(rows):
            rows.append(r)
        ids.append(i)
    return np.array(ids, dtype=np.intp), np.array(rows, dtype=np.intp), stack[rows]


class ClosedSets(list):
    """The nodes of a join closure, as masks sorted by (size, elements), and
    the Hasse edges between them, read off the joins that found them."""

    def __init__(self, masks: np.ndarray, order: list[int], joins: list[tuple[np.ndarray, ...]]):
        """masks: row i is the mask of node id i; order: the node ids in
        sorted order; joins: the (node ids, coset leaders, join ids) of
        _join_closure."""
        self._masks = masks[order]
        super().__init__(self._masks)
        self._order, self._joins = order, joins

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """The covers (i, j), node i inside node j with no node between, in
        row-major order.

        Each join y = x v s of a node x with a coset leader s lies above x,
        and x v s' lies inside y exactly when s' does.  So y covers x iff
        the leader of no other join of x lies in y.  Every cover y of x is
        such a join: y holds some atom outside x, whose generator's coset
        leader s gives x < x v s <= y, so x v s = y.  The joins of a node
        are tested against one another once all of them exist: one leader
        per distinct (node, join) pair is marked in a mask per node, and
        each pair counts the marks of its node inside its join, its own
        included, in blocks of _LEVEL_ENTRIES mask entries."""
        n, order = self._masks.shape
        rank = np.empty(n, dtype=np.intp)
        rank[self._order] = np.arange(n)
        x, s, y = (np.concatenate(part) for part in zip(*self._joins))
        # the distinct (node, join) pairs in sorted node indices, row-major
        pair, at = np.unique(rank[x] * n + rank[y], return_index=True)
        x, y = np.divmod(pair, n)
        leaders = np.zeros_like(self._masks)
        leaders[x, s[at]] = True
        hits = np.empty(pair.size, dtype=np.intp)
        step = max(1, _LEVEL_ENTRIES // order)
        for lo in range(0, pair.size, step):
            block = slice(lo, lo + step)
            hits[block] = (self._masks[y[block]] & leaders[x[block]]).sum(axis=1)
        cover = hits == 1
        return tuple(zip(x[cover].tolist(), y[cover].tolist()))


def adjoin_rows(ring: FiniteRing, bases: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row by row, the masks of B_r[s_r], the least subring containing the
    subring B_r (row r of the mask stack bases) and the element s_r of s.

    B[s] = B + Bs + Bs^2 + ..., and each Bs^i, the image of B under
    x -> x s^i, is an additive subgroup.  So a = B grows by one sumset
    a + Bp per power p = s^i, until the first power already in a.  Then a
    is a B-module that holds s^(i+1) and every lower power, so it is closed
    under multiplication by s: it is B[s].  a grows strictly at each step,
    as it gains p, so the loop ends.  When s is in B, B[s] is B itself.  All
    rows grow together, one call of the sumset kernel (_add_cosets_rows) per
    power over the rows whose power is not yet inside; one row is a single
    adjunction."""
    members = _row_members(bases)
    out = bases.copy()
    p = np.array(s, dtype=np.intp)
    live = (~out[np.arange(len(out)), p]).nonzero()[0]
    grown = members  # the members of out, until the first sumset grows it
    while live.size:
        # the subgroups B_r p_r, gathered from the commutative mul table
        prods = np.zeros((live.size, ring.order), dtype=bool)
        for block, xs in _gather(ring.mul, p[live], live, members):
            prods[np.arange(live.size)[block, None], xs] = True
        out[live] = _add_cosets_rows(ring.add, out[live], prods, None if grown is None else grown[live])
        grown = None
        p[live] = power = ring.mul[p[live], s[live]]
        live = live[~out[live, power]]
    return out


def adjoin_all(ring: FiniteRing, base_mask: np.ndarray, elements: Iterable[int]) -> np.ndarray:
    """The mask of the least subring containing the subring B (given by its
    mask) and elements: B[x][y]..., adjoining one element at a time (a
    one-row adjoin_rows) and skipping those already in."""
    for x in elements:
        if not base_mask[x]:
            base_mask = adjoin_rows(ring, base_mask[None], np.array([x]))[0]
    return base_mask


def enumerate_closed_subsets(ring: FiniteRing, seed: Iterable[int]) -> ClosedSets:
    """All subrings of ring that contain seed, sorted by (size, elements),
    with their Hasse edges.

    The least one, first, is the prime subring (the multiples of one) with
    the elements of seed adjoined one at a time.  Every subring above first
    is the join of the atoms first[s] of its elements, so the subrings are
    the join closure (_join_closure) of the atoms, and the join of a node
    with the atom of s is node[s] (adjoin_rows).  As first[s] = first[s + r]
    for r in first, one atom is computed per coset of first, at its least
    element, all in one batched adjunction.
    """
    first = np.zeros(ring.order, dtype=bool)
    first[ring.multiples_of_one] = True
    first = adjoin_all(ring, first, seed)
    _, reps = cosets(ring.add, first.nonzero()[0])
    reps = reps[~first[reps]]
    atoms = adjoin_rows(ring, np.broadcast_to(first, (reps.size, ring.order)), reps)
    return _join_closure(first, ring.add, reps, atoms,
                         lambda stack, s: adjoin_rows(ring, stack, s))


def enumerate_submodules(add: Table, action: Table, zero: int,
                         bottom: Optional[np.ndarray] = None) -> ClosedSets:
    """All submodules of the module with tables add and action (ring x
    module), sorted by (size, elements), with their Hasse edges: the sumset
    join closure of the orbits Rx = action[:, x], which are already
    submodules.  Given the mask of a submodule bottom, only those that
    contain it."""
    order = len(add)
    orbits = np.zeros((order, order), dtype=bool)
    orbits[np.arange(order)[:, None], action.T] = True
    # the orbit of zero is {zero}, inside every orbit
    first, gens, atoms = orbits[zero], np.arange(order), orbits
    if bottom is not None:
        # the atoms over bottom are its sums with the distinct orbits
        _, gens, distinct_orbits = _node_ids({}, orbits)
        first = bottom
        atoms = _add_cosets_rows(add, np.broadcast_to(bottom, distinct_orbits.shape), distinct_orbits)
    return _join_closure(first, add, gens, atoms, lambda stack, s: _add_cosets_rows(add, stack, orbits[s]))


def _add_cosets_rows(add: Table, a: np.ndarray, x: np.ndarray,
                     members: Optional[np.ndarray] = None) -> np.ndarray:
    """The sumset kernel: row by row, the union of the additive subgroup A_r
    (row r of the mask stack a, group law add) and its cosets y + A_r for
    the elements y of X_r (row r of the mask stack x), as a new mask stack.

    Each round of _coset_rounds marks the cosets of its picks, the least
    elements of X_r outside what the row covers so far; later rounds skip
    the elements that earlier ones covered, as y + A_r = z + A_r for y in
    z + A_r.  A call with nothing pending returns before it reads the
    members of A_r; a caller that holds them (_row_members(a)) passes them."""
    out = a.copy()
    for r, _, sums, _ in _coset_rounds(add, a, x & ~a, lambda rows, ys: out[rows, ys], members):
        out[r[:, None], sums] = True
    return out


def subgroup_sum_mask(ring: FiniteRing, a_mask: np.ndarray, b_mask: np.ndarray) -> np.ndarray:
    """Elementwise sumset of two additive subgroups (already a subgroup), by
    a one-row call of the sumset kernel."""
    return _add_cosets_rows(ring.add, a_mask[None], b_mask[None])[0]


def sum_of_orbits(add: Table, action: Table, zero: int, gens: Iterable[int]) -> np.ndarray:
    """Mask of the sum of the additive subgroups action[:, g], g in gens
    (group law add), folded one orbit at a time by one-row calls of the
    sumset kernel; {zero} when gens is empty.  With a ring's multiplication
    or a module's action (ring x module) the columns are the orbits Rg, and
    the sum is the ideal or submodule that gens generate."""
    out = np.zeros((1, len(add)), dtype=bool)
    out[0, zero] = True
    for g in gens:
        orbit = np.zeros_like(out)
        orbit[0, action[:, g]] = True
        out = _add_cosets_rows(add, out, orbit)
    return out[0]


def span_of_products(add: Table, mul: Table, zero: int, a, b) -> np.ndarray:
    """Mask of the additive subgroup (group law add) generated by the products
    mul[x, y], x in a, y in b; mul is a ring's multiplication or a module's
    action (ring x module).  a must be an additive subgroup of the ring: then
    each a*y is a subgroup, and the span is their sum."""
    prods = mul[np.asarray(a, dtype=np.intp)[:, None], b]
    return sum_of_orbits(add, prods, zero, range(prods.shape[1]))


def distinct(values, size: int) -> np.ndarray:
    """The distinct entries of the index array values, each below size, in
    increasing order.  A mask, not np.unique, whose first plain call imports
    numpy.ma (about 14 ms) into every CLI process."""
    mask = np.zeros(size, dtype=bool)
    mask[values] = True
    return mask.nonzero()[0]


def mask_elements(mask: np.ndarray) -> tuple[int, ...]:
    """The members of a 1-D mask, as a sorted tuple of Python ints."""
    return tuple(mask.nonzero()[0].tolist())


# ---------------------------------------------------------------------------
# constructors

def zmod_order(n: int) -> int:
    """The order n of Z/n, after the checks make_zmod makes before it builds
    anything."""
    if n < 2:
        raise PreconditionError(f"invalid order {n} for Z/n")
    if n > arith_limit():
        raise SizeLimitError(f"order {n} exceeds the arithmetic bound")
    return n


def make_zmod(n: int) -> FiniteRing:
    """The ring Z/n.  Row a of add is 0, ..., n - 1 rotated left by a, a
    window of that sequence written twice, so add is copied, not computed;
    mul is (a b) mod n in int64 row blocks (_table_by_rows), as a b reaches
    (n - 1)^2."""
    zmod_order(n)
    twice = np.concatenate((np.arange(n, dtype=ELEMENT),) * 2)
    # the view whose row a is twice[a:a + n]
    add = np.ndarray((n, n), ELEMENT, twice, strides=(twice.itemsize,) * 2).copy()
    wide = np.arange(n, dtype=np.int64)
    mul = _table_by_rows(n, lambda a: np.multiply.outer(a, wide) % n)
    return FiniteRing(n, add, mul, 0, 1, f"Z/{n}")


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


def gf_order(p: int, k: int) -> int:
    """The order p^k of GF(p^k), after the checks make_gf makes before it
    builds anything."""
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
    return q


def make_gf(p: int, k: int = 1) -> FiniteRing:
    """The field with p^k elements, built as Z/p[x]/(f) for the first monic
    irreducible f found by exhaustive search, on the layout of poly_quotient:
    the element sum c_i x^i has index sum c_i p^i.

    add is the layout's, the sum of k copies of Z/p.  mul is read off the
    logarithms to the least-index primitive element g: mul[a, b] =
    exp[(log a + log b) mod (q - 1)] for nonzero a and b, and zero otherwise.
    The powers exp[i] = g^i come from the layout's map a -> a * g, doubled:
    exp[m:2m] = g^m * exp[:m].  mul is gathered in row blocks from exp
    written twice, at log a + log b < 2 (q - 1), an intp index that needs no
    reduction."""
    q = gf_order(p, k)
    zp = make_zmod(p)
    if k == 1:
        return FiniteRing(p, zp.add, zp.mul, 0, 1, f"GF({p})")
    layout = _poly_layout(zp, find_irreducible(p, k))
    for g in range(2, q):
        exp, step = np.array([layout.one], dtype=ELEMENT), layout.times(g)
        while len(exp) < q - 1:
            exp = np.concatenate((exp, step[exp]))
            step = step[step]
        exp = exp[:q - 1]
        if np.count_nonzero(exp == layout.one) == 1:
            break
    else:
        raise InternalCheckError(f"no primitive element in GF({q})")
    log = np.zeros(q, dtype=np.intp)
    log[exp] = np.arange(q - 1)
    twice = np.concatenate((exp, exp))
    mul = _table_by_rows(q, lambda a: twice[log[a, None] + log])
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
    arrays); inverse of product_components.  Accumulated in int64, so exact
    whatever the dtype of the parts."""
    x = np.int64(0)
    for o, c in zip(orders, parts):
        x = x * o + c
    return x


@dataclass(frozen=True, eq=False)
class ProductResult:
    """A finite product ring and its factors."""

    ring: FiniteRing
    factors: tuple[FiniteRing, ...]

    @property
    def orders(self) -> list[int]:
        return [f.order for f in self.factors]

    @cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        """components[i][x] is the i-th component of the element x, built on
        the first read."""
        return tuple(_as_table(c.astype(ELEMENT)) for c in product_components(self.orders, np.arange(self.ring.order)))


def _kronecker(prev: Table, t: Table) -> Table:
    """The table of the product of two rings from the tables prev (order m,
    the more significant digit) and t (order k): prev[a, c] * k + t[b, d] at
    row a*k + b and column c*k + d.

    Written as m slabs of k whole rows, so that every numpy loop runs along
    rows of n = m*k entries, whatever k is: slab 0 is t tiled m times along
    the columns, slab a is slab 0 plus row a of prev*k with each entry
    repeated k times, and slab 0 gains its own row last.  The repeated rows
    are built a block of about _GATHER_ENTRIES entries at a time, so the
    table is the only large allocation.  prev * k is at most n - k, below
    n, the product's order, so it is exact in ELEMENT."""
    m, k = len(prev), len(t)
    n = m * k
    out = np.empty((m, k, n), dtype=ELEMENT)
    out[0].reshape(k, m, k)[...] = t[:, None, :]
    step = max(1, _GATHER_ENTRIES // n)
    for lo in range(1, m, step):
        np.add(out[0], np.repeat(prev[lo:lo + step] * k, k, axis=1)[:, None, :], out=out[lo:lo + step])
    out[0] += np.repeat(prev[0] * k, k)
    return out.reshape(n, n)


def product_order(orders: Sequence[int]) -> int:
    """The order of a product of rings with the given orders; SizeLimitError
    past the arithmetic bound, before anything of the product is built."""
    total = math.prod(orders)
    if total > arith_limit():
        raise SizeLimitError(f"product order {total} exceeds the arithmetic bound")
    return total


def product_table_rows(tables: Sequence[Table], rows: Sequence[np.ndarray],
                       cols: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Rows of the table of a product at the given columns, read off its
    factors' tables: entry (i, c) is the product_index of the components
    tables[j][rows[j][i], cols[j][c]].  Yielded in ELEMENT, which holds every
    index below the product's order, in blocks of consecutive rows of about
    _BUILD_ENTRIES entries, so that the int64 index never spans the whole
    strip."""
    orders = [len(t) for t in tables]
    step = max(1, _BUILD_ENTRIES // max(len(cols[0]), 1))
    for lo in range(0, len(rows[0]), step):
        block = slice(lo, lo + step)
        yield product_index(orders, [t[r[block, None], c] for t, r, c in zip(tables, rows, cols)]).astype(ELEMENT)


def product(factors: Sequence[FiniteRing]) -> ProductResult:
    """Direct product with componentwise operations, laid out as in
    product_components.  That is the Kronecker layout of _kronecker, so each
    table is the first factor's, widened by one _kronecker per further
    factor, with no gathers."""
    if not factors:
        raise PreconditionError("product of no rings")
    orders = [r.order for r in factors]
    total = product_order(orders)
    add, mul = factors[0].add, factors[0].mul
    for r in factors[1:]:
        add = _kronecker(add, r.add)
        mul = _kronecker(mul, r.mul)
    zero = int(product_index(orders, [r.zero for r in factors]))
    one = int(product_index(orders, [r.one for r in factors]))
    label = " x ".join(f"({r.label})" if " x " in r.label else r.label for r in factors)
    return ProductResult(FiniteRing(total, add, mul, zero, one, label), tuple(factors))


def pair_homs(source: FiniteRing, pr: ProductResult, maps: Sequence[np.ndarray]) -> RingHom:
    """The hom source -> pr.ring whose i-th component is maps[i], a hom table
    source -> pr.factors[i] (the universal property of the product)."""
    maps = [np.asarray(m) for m in maps]
    if len(maps) != len(pr.factors) or any(
            m.min(initial=0) < 0 or m.max(initial=0) >= f.order for m, f in zip(maps, pr.factors)):
        raise PreconditionError("component maps do not match the product factors")
    return RingHom(source, pr.ring, product_index(pr.orders, maps))


class QuotientResult(NamedTuple):
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
    element of each coset in increasing order, by a one-row call of the
    coset labeller with every element pending."""
    mask = np.zeros((1, len(add)), dtype=bool)
    mask[0, sub] = True
    leaders, labels = _coset_labels(add, mask, np.ones_like(mask))
    reps = leaders.ravel().nonzero()[0]
    return np.searchsorted(reps, labels[0]).astype(ELEMENT), reps


def quotient(ring: FiniteRing, ideal) -> QuotientResult:
    """R/I with cosets represented by their least element index."""
    idx = _ideal_indices(ring, ideal)
    if len(idx) == ring.order:
        raise PreconditionError("trivial quotient by the whole ring")
    proj, reps = cosets(ring.add, idx)
    add = proj[ring.add[reps[:, None], reps]]
    mul = proj[ring.mul[reps[:, None], reps]]
    zero = int(proj[ring.zero])
    one = int(proj[ring.one])
    q = FiniteRing(len(reps), add, mul, zero, one, _quotient_label(ring.label, idx))
    return QuotientResult(q, RingHom(ring, q, proj))


def _quotient_label(label: str, idx: np.ndarray) -> str:
    """label/{i,j,...}, naming the ideal of sorted indices idx by its first four."""
    return f"{label}/{{" + ",".join(str(int(i)) for i in idx[:4]) + (",..." if len(idx) > 4 else "") + "}"


class PolyQuotientResult(NamedTuple):
    """R[x]/(monic, relations); to_quotient need not be injective."""

    ring: FiniteRing
    to_quotient: RingHom
    var_index: int


class _PolyLayout(NamedTuple):
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

    def mul(self, rows: np.ndarray) -> np.ndarray:
        """The rows of the mul table at the elements rows: a * b = sum_i b_i
        (x^i a), one coefficient of b at a time.  After step i, out[r, c] =
        rows[r] * c for every c of degree <= i, the coefficient of x^i its
        most significant digit."""
        out = np.full((len(rows), 1), self.zero, dtype=ELEMENT)
        xa = rows
        for _ in range(self.degree):
            # scale.T[xa][r, c] = c * (x^i rows[r])
            out = self.add[self.scale.T[xa][:, :, None], out[:, None, :]].reshape(len(rows), -1)
            xa = self.times_x[xa]
        return out


def _poly_layout(ring: FiniteRing, monic: Sequence[int]) -> _PolyLayout:
    """The layout of R[x]/(monic), monic of degree d >= 1 with leading
    coefficient one; its tables have n^d entries per row."""
    n, d = ring.order, len(monic) - 1
    add, scale = ring.add, ring.mul
    for _ in range(d - 1):
        add = _kronecker(add, ring.add)
        # scale * n + mul is below n^(i+1) <= q, exact in ELEMENT
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
    x * 1.  Relations are evaluated by Horner with the map a -> x * a.

    The ideal I the relations r generate is the R-span of the shifts x^i r,
    i < d: that span lies in I, and it is closed under x, as x * x^(d-1) r
    = -sum_i f_i x^i r, so it is an ideal.  The quotient is divided on the
    layout: its elements are the least elements of the cosets of I, and
    only their rows of the mul table are computed.
    """
    monic = [int(c) for c in monic]
    if len(monic) < 2:
        raise PreconditionError("monic polynomial must have degree >= 1")
    if any(c < 0 or c >= ring.order for c in monic):
        raise PreconditionError("polynomial coefficient out of range")
    if monic[-1] != ring.one:
        raise PreconditionError("not monic: leading coefficient is not one")
    d = len(monic) - 1
    # bound d before forming |R|^d, as gf_order bounds k
    if d > arith_limit().bit_length():
        raise SizeLimitError(f"order {ring.order}^{d} exceeds the arithmetic bound")
    q = ring.order**d
    if q > arith_limit():
        raise SizeLimitError(f"order {q} exceeds the arithmetic bound")

    layout = _poly_layout(ring, monic)
    mstr = _poly_label(ring, monic, var)
    label = f"{ring.label}[{var}]/({mstr}" + ("" if not relations else ",...") + ")"
    constants = layout.scale[:, layout.one]
    x_index = int(layout.times_x[layout.one])

    shifts = []
    for rel in relations:
        rel = [int(c) for c in rel]
        if any(c < 0 or c >= ring.order for c in rel):
            raise PreconditionError("polynomial coefficient out of range")
        r = layout.horner(constants[rel])
        for _ in range(layout.degree):
            shifts.append(int(r))
            r = layout.times_x[r]
    if all(s == layout.zero for s in shifts):
        free = FiniteRing(q, layout.add, _table_by_rows(q, layout.mul), layout.zero, layout.one, label)
        return PolyQuotientResult(free, RingHom(ring, free, constants), x_index)
    imask = sum_of_orbits(layout.add, layout.scale, layout.zero, shifts)
    if not imask[layout.times_x[imask]].all():
        raise InternalCheckError("the span of the relation shifts is not closed under x")
    if imask.all():
        raise PreconditionError("trivial quotient: relations generate the unit ideal")
    idx = imask.nonzero()[0]
    proj, reps = cosets(layout.add, idx)
    add = proj[layout.add[reps[:, None], reps]]
    mul = _table_by_rows(len(reps), lambda a: proj[layout.mul(reps[a])[:, reps]])
    quo = FiniteRing(len(reps), add, mul, int(proj[layout.zero]), int(proj[layout.one]),
                     _quotient_label(label, idx))
    return PolyQuotientResult(quo, RingHom(ring, quo, proj[constants]), int(proj[x_index]))


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
    return a is b or (
        a.order == b.order
        and a.zero == b.zero
        and a.one == b.one
        and (a.add == b.add).all()
        and (a.mul == b.mul).all()
    )


def idempotents(ring: FiniteRing) -> list[int]:
    """The indices e with e*e = e, in index order."""
    return ring.idempotent_indices.tolist()


def _primitive_idempotents(ring: FiniteRing, mask: np.ndarray) -> tuple[int, ...]:
    """The primitive idempotents of the subring T of ring given by its mask:
    the idempotents of ring in T with no other nonzero one f under (e*f == f)."""
    idem = ring.idempotent_indices
    idem = idem[mask[idem] & (idem != ring.zero)]
    below = ring.mul[idem[:, None], idem] == idem[None, :]
    return tuple(int(e) for e in idem[below.sum(axis=1) == 1])


def subring_primes(ring: FiniteRing, mask: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The primes of the subring T of ring given by its mask, sorted by
    (order, elements), off ring's tables: T is the product of its local
    factors eT (Atiyah-Macdonald, Thm 8.7), so the prime over a primitive
    idempotent e of T is {x in T : e*x nilpotent}."""
    nil = ring.nilpotents
    primes = (mask_elements(nil[ring.mul[e]] & mask) for e in _primitive_idempotents(ring, mask))
    return tuple(sorted(primes, key=lambda p: (len(p), p)))


def is_field(ring: FiniteRing) -> bool:
    return int(ring.units.sum()) == ring.order - 1


def is_local(ring: FiniteRing) -> Optional[Ideal]:
    """The maximal ideal when R has one prime, else None."""
    primes = ring.prime_elements
    return Ideal(ring, primes[0]) if len(primes) == 1 else None


def nilpotency_index(ring: FiniteRing) -> int:
    """Least n with M^n = 0 for the maximal ideal M of a local ring."""
    m = is_local(ring)
    if m is None:
        raise PreconditionError("nilpotency index requires a local ring")
    cur = m.mask
    n = 1
    while cur.sum() > 1 or not cur[ring.zero]:
        cur = span_of_products(ring.add, ring.mul, ring.zero, cur.nonzero()[0], m.elements)
        n += 1
        if n > ring.order + 1:
            raise InternalCheckError("maximal ideal is not nilpotent")
    return n


def is_spir(ring: FiniteRing) -> Optional[SpirWitness]:
    """Witness that R is a special principal ideal ring: local, not a field,
    maximal ideal M = Rt (Rt lies in M, so it is M when as large) with t^p = 0
    for minimal p, the nilpotency index of M, as M^p = Rt^p."""
    m = is_local(ring)
    if m is None or m.is_zero:
        return None
    for t in m.elements:
        if len(distinct(ring.mul[:, t], ring.order)) == m.order:
            return SpirWitness(t, nilpotency_index(ring))
    return None


def subset_ring(ring: FiniteRing, elems: np.ndarray, one: int,
                label: str) -> tuple[FiniteRing, np.ndarray]:
    """The sorted subset elems, closed under + and *, as a ring with unit one,
    and the lookup array from ring indices to its indices (-1 off the subset).
    The whole ring keeps its indices, so it shares the ring's tables."""
    if len(elems) == ring.order:
        return (FiniteRing(ring.order, ring.add, ring.mul, ring.zero, int(one), label),
                np.arange(ring.order, dtype=ELEMENT))
    lookup = np.full(ring.order, -1, dtype=ELEMENT)
    lookup[elems] = np.arange(len(elems))
    add = lookup[ring.add[elems[:, None], elems]]
    mul = lookup[ring.mul[elems[:, None], elems]]
    return FiniteRing(len(elems), add, mul, int(lookup[ring.zero]), int(lookup[one]), label), lookup


def prime_hom(source: FiniteRing, target: FiniteRing) -> RingHom:
    """The map k*1 -> k*1 out of a ring whose additive group is generated by 1
    (Z/n, GF(p)); PreconditionError when 1 does not generate it or the map is
    not a ring hom."""
    src, tgt = source.multiples_of_one, target.multiples_of_one
    if len(src) != source.order:
        raise PreconditionError("the base is not generated by 1")
    emb = np.empty(source.order, dtype=ELEMENT)
    emb[src] = tgt[np.arange(len(src)) % len(tgt)]
    return RingHom(source, target, emb)


# ---------------------------------------------------------------------------
# verification helpers

def check_ring_axioms(ring: FiniteRing) -> None:
    """Full axiom check over all element triples; raises on any failure."""
    n = ring.order
    add, mul = ring.add, ring.mul
    if ring.zero == ring.one:
        raise InternalCheckError("one equals zero")
    if not ((add == add.T).all() and (mul == mul.T).all()):
        raise InternalCheckError("operation is not commutative")
    if not (add[ring.zero] == np.arange(n)).all():
        raise InternalCheckError("zero is not an additive identity")
    if not (mul[ring.one] == np.arange(n)).all():
        raise InternalCheckError("one is not a multiplicative identity")
    if not (add == ring.zero).any(axis=1).all():
        raise InternalCheckError("an element has no additive inverse")
    chunk = max(1, (1 << 22) // max(n * n, 1))
    for lo in range(0, n, chunk):
        rows = np.arange(lo, min(lo + chunk, n))
        for tab in (add, mul):
            lhs = tab[tab[rows]]
            rhs = tab[rows][:, tab]
            if not (lhs == rhs).all():
                raise InternalCheckError("operation is not associative")
        x = mul[rows]
        lhs = mul[rows][:, add]
        rhs = add[x[:, :, None], x[:, None, :]]
        if not (lhs == rhs).all():
            raise InternalCheckError("multiplication does not distribute")
