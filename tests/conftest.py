import itertools
from collections import Counter
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import pytest

from ringlat import crt as cr
from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg
from ringlat.errors import InternalCheckError, PreconditionError


@pytest.fixture(scope="session")
def f2():
    return rg.make_gf(2)


@pytest.fixture(scope="session")
def f3():
    return rg.make_gf(3)


@pytest.fixture(scope="session")
def f4():
    return rg.make_gf(2, 2)


@pytest.fixture(scope="session")
def z4():
    return rg.make_zmod(4)


@pytest.fixture(scope="session")
def z8():
    return rg.make_zmod(8)


@pytest.fixture(scope="session")
def z12():
    return rg.make_zmod(12)


@pytest.fixture(scope="session")
def f2_eps(f2):
    # F2[t]/(t^2), the smallest non-reduced ring
    return rg.poly_quotient(f2, [0, 0, 1], var="t").ring


@pytest.fixture(scope="session")
def brute_force_cosets():
    """Oracle for least-representative quotients: the distinct sets x + N
    (N given by its element indices) of the group with table add, ordered
    by least element."""
    def cosets(add, sub):
        classes = {frozenset(int(add[x, s]) for s in sub) for x in range(len(add))}
        return sorted(classes, key=min)
    return cosets


def _full_gather_cosets(add, sub):
    least = add[:, sub].min(axis=1)
    reps = np.unique(least)
    return np.searchsorted(reps, least).astype(rg.ELEMENT), reps


@pytest.fixture(scope="session")
def full_gather_cosets():
    """Oracle for rings.cosets: the cosets x + N of the additive subgroup N
    (its element indices), by gathering the whole block add[:, N] and taking
    each row's minimum.  Gives the coset number of every element and the
    least element of each coset, in increasing order."""
    return _full_gather_cosets


def _full_gather_coset_leaders(add, stack, gens):
    pairs = set()
    for r, row in enumerate(stack):
        outside = [int(g) for g in gens if not row[g]]
        if outside:
            least = add[np.ix_(outside, np.flatnonzero(row))].min(axis=1)
            pairs.update((r, int(v)) for v in least)
    rows, leaders = zip(*sorted(pairs)) if pairs else ((), ())
    return np.array(rows, dtype=np.intp), np.array(leaders, dtype=np.intp)


@pytest.fixture(scope="session")
def full_gather_coset_leaders():
    """Oracle for the coset leaders of a join-closure level: for each row of
    the mask stack (an additive subgroup A, group law add), the least
    element of each coset g + A with g an element of gens outside A, by
    gathering the whole coset of every such g and taking its minimum.
    Gives the (row, leader) pairs in increasing order."""
    return _full_gather_coset_leaders


def _scanned_orbit_sizes(m):
    return [len(rg.distinct(m.action[:, x], m.order)) for x in range(m.order)]


@pytest.fixture(scope="session")
def scanned_orbit_sizes():
    """Oracle for modules._orbit_sizes: |Rx| for every element x of the
    module m, one distinct scan of the action column per element."""
    return _scanned_orbit_sizes


def _scanned_module_length(m):
    cur, length = m, 0
    while cur.order > 1:
        best = min((rg.distinct(cur.action[:, x], cur.order) for x in range(cur.order) if x != cur.zero),
                   key=len)
        cur = md.quotient_module(cur, best).module
        length += 1
    return length


@pytest.fixture(scope="session")
def scanned_module_length():
    """Reference for modules.module_length: the composition steps quotient by
    the first smallest nonzero orbit Rx, the orbits found by one distinct
    scan per element at every step."""
    return _scanned_module_length


@pytest.fixture(scope="session")
def brute_force_hasse():
    """Oracle for Hasse diagrams: the pairs (i, j), in row-major order, with
    subset i strictly inside subset j and no subset strictly between them,
    from dense inclusion counts.  The counts are products of 0/1 matrices in
    float64 (a BLAS call), exact as every count is far below 2^53."""
    def hasse(masks):
        n = len(masks)
        mat = np.stack(masks).astype(np.float64)
        # missing[i, j]: how many elements of subset i lie outside subset j
        missing = mat @ (1 - mat.T)
        proper = (missing == 0) & ~np.eye(n, dtype=bool)
        between = (proper.astype(np.float64) @ proper.astype(np.float64)) > 0
        return [(int(a), int(b)) for a, b in np.argwhere(proper & ~between)]
    return hasse


@pytest.fixture(scope="session")
def brute_force_chains():
    """Oracle for maximal chains: every bottom-to-top path of a Hasse
    diagram, walked one by one.  Gives how many paths have each length and
    the longest path that, read from the top down, always steps to the
    lowest-index lower cover it can."""
    def chains(edges, bottom, top):
        up = {}
        for a, b in edges:
            up.setdefault(a, []).append(b)
        paths, stack = [], [(bottom,)]
        while stack:
            path = stack.pop()
            if path[-1] == top:
                paths.append(path)
            stack.extend(path + (b,) for b in up.get(path[-1], []))
        longest = max(len(p) for p in paths)
        witness = min((p for p in paths if len(p) == longest), key=lambda p: p[::-1])
        return dict(Counter(len(p) - 1 for p in paths)), witness
    return chains


@pytest.fixture(scope="session")
def brute_force_product_tables():
    """Oracle for product tables: the add and mul tables of the product of
    the factors, accumulated digit by digit with the first factor most
    significant, by one gather of each factor's table at the components of
    every pair of elements."""
    def tables(factors):
        orders = [r.order for r in factors]
        comps = np.unravel_index(np.arange(int(np.prod(orders))), orders)
        add = np.zeros((len(comps[0]), len(comps[0])), dtype=np.int64)
        mul = np.zeros_like(add)
        for r, c in zip(factors, comps):
            for out, t in ((add, r.add), (mul, r.mul)):
                out *= r.order
                out += t[np.ix_(c, c)]
        return add, mul
    return tables


def _ideal_by_full_scan(ring, elements):
    m = np.zeros(ring.order, dtype=bool)
    m[list(elements)] = True
    idx = np.asarray(elements, dtype=np.intp)
    return bool(m[ring.add[idx[:, None], idx]].all() and m[ring.mul[:, idx]].all())


@pytest.fixture(scope="session")
def ideal_by_full_scan():
    """Oracle for the Ideal constructor's check on the sorted elements of a
    subset of the ring that holds zero: closed under every sum of two of its
    elements, and absorbing every product of one of its elements with any
    element of the ring, a full scan of the mul table's columns at it."""
    return _ideal_by_full_scan


def _submodule_by_full_scan(m, elements):
    mask = np.zeros(m.order, dtype=bool)
    mask[list(elements)] = True
    idx = mask.nonzero()[0]
    return bool(mask[m.zero] and mask[m.add[idx[:, None], idx]].all() and mask[m.action[:, idx]].all())


@pytest.fixture(scope="session")
def submodule_by_full_scan():
    """Oracle for modules.quotient_module's check: the elements of the module
    m hold zero, every sum of two of them and every product of one of them
    with any element of the ring, a full scan of the action table's columns
    at them."""
    return _submodule_by_full_scan


def _colon_by_full_scan(a, b):
    ring = a.ring
    good = a.mask[ring.mul[:, np.asarray(b.elements, dtype=np.intp)]].all(axis=1)
    return rg.Ideal(ring, rg.mask_elements(good))


def _annihilator_by_full_scan(m):
    return rg.Ideal(m.ring, rg.mask_elements((m.action == m.zero).all(axis=1)))


@pytest.fixture(scope="session")
def colon_by_full_scan():
    """Oracle for ideals.colon: the r with r*y in a for every element y of b,
    read off the mul table's columns at all of b."""
    return _colon_by_full_scan


@pytest.fixture(scope="session")
def annihilator_by_full_scan():
    """Oracle for ideals.annihilator: the r whose row of the whole action
    table is zero."""
    return _annihilator_by_full_scan


@pytest.fixture
def idempotent_scans(monkeypatch):
    """The rings whose idempotents are scanned off the mul table's diagonal,
    one entry per scan: FiniteRing.idempotent_indices, counted."""
    scans = []
    scan = rg.FiniteRing.idempotent_indices.func

    def counted(ring):
        scans.append(ring)
        return scan(ring)

    prop = cached_property(counted)
    prop.__set_name__(rg.FiniteRing, "idempotent_indices")
    monkeypatch.setattr(rg.FiniteRing, "idempotent_indices", prop)
    return scans


def _poly_oracle(ring, monic):
    n, d = ring.order, len(monic) - 1
    idx = np.arange(n**d)
    # little-endian coefficient arrays of every element
    dig = [(idx // n**i) % n for i in range(d)]

    def index(coeffs):
        return sum(np.asarray(c, dtype=np.int64) * n**i for i, c in enumerate(coeffs))

    def reduce(coeffs):
        # long division by monic from the top degree down: c x^m = -c (f_0 + ... + f_{d-1} x^(d-1)) x^(m-d)
        coeffs = list(coeffs) + [ring.zero] * (d - len(coeffs))
        for m in range(len(coeffs) - 1, d - 1, -1):
            for i in range(d):
                coeffs[m - d + i] = ring.add[coeffs[m - d + i], ring.mul[ring.neg[monic[i]], coeffs[m]]]
        return coeffs[:d]

    a = [c[:, None] for c in dig]
    b = [c[None, :] for c in dig]
    add = index([ring.add[x, y] for x, y in zip(a, b)])
    prod = [ring.zero] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            prod[i + j] = ring.add[prod[i + j], ring.mul[a[i], b[j]]]
    mul = index(reduce(prod))
    embed = np.array([index(reduce([r])) for r in range(n)])
    return (add, mul, int(index(reduce([ring.zero]))), int(index(reduce([ring.one]))), embed,
            int(index(reduce([ring.zero, ring.one]))))


@pytest.fixture(scope="session")
def brute_force_poly_quotient_tables():
    """Oracle for R[x]/(monic), monic of degree d over the ring R (any
    tables): the element sum c_i x^i at index sum c_i n^i.  Gives add, mul,
    zero, one, the embedding of R as constants and the index of x.  add is
    digitwise; mul is the schoolbook product of the coefficient lists, of
    degree up to 2d - 2, reduced by long division by monic; every
    coefficient operation is a lookup in R's tables."""
    return _poly_oracle


@pytest.fixture(scope="session")
def brute_force_gf_tables():
    """Oracle for finite-field tables: the add and mul tables of
    Z/p[x]/(f), f = rg.find_irreducible(p, k), from the polynomial-quotient
    oracle."""
    return lambda p, k: _poly_oracle(rg.make_zmod(p), rg.find_irreducible(p, k))[:2]


def _is_connected(ring):
    return len(rg.idempotents(ring)) == 2


@pytest.fixture(scope="session")
def is_connected():
    """Oracle for connectedness: True when 0 and 1 are the only idempotents."""
    return _is_connected


class LocalDecomposition(NamedTuple):
    """Local factors eR for the primitive idempotents e, with projections and
    an isomorphism witness onto their product."""

    factors: tuple[tuple[rg.FiniteRing, rg.RingHom], ...]
    product: rg.FiniteRing
    iso: rg.RingHom


def _local_decomposition(ring):
    atoms = ring.primitive_idempotents
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
        fring, lookup = rg.subset_ring(ring, rg.distinct(ring.mul[e], ring.order), e, f"{ring.label}.e{e}")
        factors.append((fring, rg.RingHom(ring, fring, lookup[ring.mul[e]])))
    prod = rg.product([f for f, _ in factors])
    iso = rg.pair_homs(ring, prod, [proj.map for _, proj in factors])
    if not iso.is_injective or prod.ring.order != ring.order:
        raise InternalCheckError("local decomposition is not an isomorphism")
    return LocalDecomposition(tuple(factors), prod.ring, iso)


@pytest.fixture(scope="session")
def local_decomposition():
    """Oracle for the local structure: the ring as the product of its local
    factors eR, one per primitive idempotent e, with the projections and a
    validated isomorphism onto the product (a LocalDecomposition)."""
    return _local_decomposition


def _segment(lower, upper):
    """The extension L in U of two realized nodes L <= U of one lattice: an
    inclusion lists its node's elements in increasing order, so an element
    of L embeds at its rank in U."""
    emb = np.searchsorted(upper.include.map, lower.include.map)
    return lt.Extension(rg.RingHom(lower.ring, upper.ring, emb))


@pytest.fixture(scope="session")
def realized_interval():
    """Oracle for the interval predicates: the interval between two nodes
    L <= U of one lattice as an Extension of freshly realized rings."""
    return lambda lower, upper: _segment(lt.realize(lower), lt.realize(upper))


def _chain_segments(dec):
    nodes = (dec.base, dec.seminormalization, dec.tclosure, dec.top)
    distinct = {n.elements: n for n in nodes}
    real = {elems: lt.realize(n) for elems, n in distinct.items()}
    base, plus, tcl, top = (real[n.elements] for n in nodes)
    return {"R<+R": _segment(base, plus), "+R<tR": _segment(plus, tcl),
            "+R<S": _segment(plus, top), "tR<S": _segment(tcl, top)}


@pytest.fixture(scope="session")
def chain_segments():
    """Oracle for the chain checks of closures.canonical_decomposition: the
    extensions R in +R, +R in tR, +R in S and tR in S of a decomposition,
    on one realization per distinct node (tR = S is common)."""
    return _chain_segments


def _element_signature(ring):
    sig = []
    for x in range(ring.order):
        k, y = 1, x
        while y != ring.zero:
            y = int(ring.add[y, x])
            k += 1
        seen = {}
        z = x
        while z not in seen:
            seen[z] = len(seen)
            z = int(ring.mul[z, x])
            if len(seen) > ring.order:
                break
        sig.append((k, int(ring.mul[x, x] == x), bool(ring.nilpotents[x]), len(seen), bool(ring.units[x])))
    return sig


def _generating_log(ring):
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


def _is_isomorphic(a, b) -> Optional[np.ndarray]:
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
        out = np.empty(a.order, dtype=rg.ELEMENT)
        out[elems] = bvals
        try:
            rg.RingHom(a, b, out)
        except PreconditionError:
            return None
        return out

    for images in itertools.product(*candidates):
        if len(set(images)) != len(images):
            continue
        out = replay(list(images))
        if out is not None:
            return out
    return None


@pytest.fixture(scope="session")
def is_isomorphic():
    """Oracle for isomorphism: search for a ring isomorphism a -> b and
    return its index map, or None.  Backtracking over images of a small
    generating set, with element-invariant pruning; a bijective candidate
    is a RingHom or is refused by its validation.  Not intended to be fast
    on large rings."""
    return _is_isomorphic


def _over_quotient(ring, relation):
    pq = rg.poly_quotient(ring, relation, var="u")
    return lt.Extension(pq.to_quotient)


def _over_f2(top):
    f2 = rg.make_gf(2)
    return lt.Extension(rg.prime_hom(f2, top))


def _idealization(ring, summands):
    return md.idealize(md.module_from_cyclics(ring, summands))


_EXTENSIONS = {
    "F2-in-F2^4": lambda: lt.power_extension(rg.make_gf(2), 4),
    # F2 in F2[u]/(u^2), F2 in F2^2 and F2 in F4 side by side: R < +R < tR < S
    "mixed-product": lambda: lt.product_extension([
        _over_quotient(rg.make_gf(2), [0, 0, 1]), lt.power_extension(rg.make_gf(2), 2),
        _over_f2(rg.make_gf(2, 2))]),
    "Z4[u]/(u^2)": lambda: _over_quotient(rg.make_zmod(4), [0, 0, 1]),
    "F2-in-F16": lambda: _over_f2(rg.make_gf(2, 4)),
    "idealization": lambda: _idealization(rg.make_zmod(4), [[2], [2]]),
    "crt-Z12": lambda: cr.make_crt(rg.make_zmod(12), [[4], [3], [6]]).extension,
}


@pytest.fixture(scope="session")
def extension_zoo():
    """Extensions by name, built afresh on each call."""
    return lambda name: _EXTENSIONS[name]()
