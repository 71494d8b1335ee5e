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


@pytest.fixture(scope="session")
def brute_force_gf_tables():
    """Oracle for finite-field tables: the add and mul tables of
    Z/p[x]/(f), f = rg.find_irreducible(p, k), with the element sum c_i x^i
    at index sum c_i p^i, by digitwise addition and by schoolbook products
    of the digits reduced with the powers x^m, m <= 2k - 2."""
    def tables(p, k):
        f = rg.find_irreducible(p, k)
        q = p**k
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
        return add, mul
    return tables


def _over_quotient(ring, relation):
    pq = rg.poly_quotient(ring, relation, var="u")
    return lt.Extension(ring, pq.ring, pq.to_quotient)


def _over_f2(top):
    f2 = rg.make_gf(2)
    return lt.Extension(f2, top, rg.prime_hom(f2, top))


def _idealization(ring, summands):
    return md.idealization_extension(ring, md.module_from_cyclics(ring, summands))[0]


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
