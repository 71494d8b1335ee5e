from collections import Counter

import numpy as np
import pytest

from ringlat import crt as cr
from ringlat import lattice as lt
from ringlat import modules as md
from ringlat import rings as rg


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


@pytest.fixture(scope="session")
def brute_force_hasse():
    """Oracle for Hasse diagrams: the pairs (i, j), in row-major order, with
    subset i strictly inside subset j and no subset strictly between them,
    from dense inclusion counts."""
    def hasse(masks):
        n = len(masks)
        mat = np.stack(masks).astype(np.int64)
        # missing[i, j]: how many elements of subset i lie outside subset j
        missing = mat @ (1 - mat.T)
        proper = (missing == 0) & ~np.eye(n, dtype=bool)
        between = (proper.astype(np.int64) @ proper.astype(np.int64)) > 0
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


def _over_quotient(ring, relation):
    pq = rg.poly_quotient(ring, relation, var="u")
    return lt.Extension(pq.to_quotient)


def _over_f2(top):
    f2 = rg.make_gf(2)
    return lt.Extension(rg.prime_hom(f2, top))


def _idealization(ring, summands):
    return md.idealization_extension(md.module_from_cyclics(ring, summands))[0]


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
