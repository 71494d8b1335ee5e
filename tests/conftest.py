import pytest

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
