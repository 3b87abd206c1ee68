"""Splitting and integer-lattice tests: unimodularity, round trips, orders."""

import random

from gvir import groups
from gvir.groups import (
    Group,
    SplitError,
    colex_key,
    element_gcd,
    gadd,
    gneg,
    gscale,
    gsub,
    hermite_basis,
    int_det,
    is_primitive,
    is_zero,
    reduce_modulo,
    split,
    unimodular_completion,
)


def _matmul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [
        tuple(sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    ]


def _identity(n):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def test_element_arithmetic():
    x, y = (1, -2, 3), (0, 5, -1)
    assert gadd(x, y) == (1, 3, 2)
    assert gsub(x, y) == (1, -7, 4)
    assert gneg(x) == (-1, 2, -3)
    assert gscale(3, x) == (3, -6, 9)
    assert element_gcd((4, -6, 10)) == 2
    assert is_primitive((2, 3)) and not is_primitive((2, 4))


def test_int_det_small():
    assert int_det([[2, 1], [1, 1]]) == 1
    assert int_det([[2, 4], [1, 2]]) == 0
    assert int_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_unimodular_completion_properties():
    rng = random.Random(20240305)
    for _ in range(300):
        n = rng.randint(1, 4)
        while True:
            b = tuple(rng.randint(-6, 6) for _ in range(n))
            if any(b) and is_primitive(b):
                break
        U, V = unimodular_completion(b)
        # U @ b = e1
        img = tuple(sum(a * v for a, v in zip(row, b)) for row in U)
        assert img == (1,) + (0,) * (n - 1)
        # V is the two-sided inverse and both are unimodular
        assert _matmul(U, V) == _identity(n)
        assert _matmul(V, U) == _identity(n)
        assert int_det(U) in (1, -1)
        # first column of V is b itself
        assert tuple(V[r][0] for r in range(n)) == b


def test_unimodular_completion_rejects_bad_b():
    import pytest

    with pytest.raises(SplitError):
        unimodular_completion((0, 0))
    with pytest.raises(SplitError):
        unimodular_completion((2, 4))


def test_split_round_trip():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 4)
        G = Group.of_rank(n)
        while True:
            b = tuple(rng.randint(-5, 5) for _ in range(n))
            if any(b) and is_primitive(b):
                break
        sp = split(G, b)
        assert sp.g0_rank() == n - 1
        # decomposition and reassembly agree on arbitrary x
        x = tuple(rng.randint(-9, 9) for _ in range(n))
        k, u = sp.level(x), sp.g0_coords(x)
        assert sp.compose(k, u) == x
        # coordinates are additive
        y = tuple(rng.randint(-9, 9) for _ in range(n))
        assert sp.level(gadd(x, y)) == sp.level(x) + sp.level(y)
        assert sp.g0_coords(gadd(x, y)) == tuple(
            a + c for a, c in zip(sp.g0_coords(x), sp.g0_coords(y))
        )
        # b sits at level 1 with no G0 part; G0 basis sits at level 0
        assert sp.level(b) == 1 and not any(sp.g0_coords(b))
        for g in sp.g0_basis:
            assert sp.level(g) == 0
        # basis (b, g0...) really spans: det +-1
        cols = [b] + list(sp.g0_basis)
        mat = [[cols[j][i] for j in range(n)] for i in range(n)]
        assert int_det(mat) in (1, -1)


def test_split_rejects_a_completion_that_is_not_unimodular(monkeypatch):
    # a completion whose first column is b but whose determinant is 2 spans
    # a sublattice of index 2; split must refuse it
    import pytest

    monkeypatch.setattr(groups, "unimodular_completion", lambda b: ([[1, 0], [0, 1]], [[1, 0], [0, 2]]))
    with pytest.raises(SplitError, match="completion is not unimodular"):
        split(Group.of_rank(2), (1, 0))


def test_split_rank_one():
    G = Group.of_rank(1)
    sp = split(G, (1,))
    assert sp.g0_basis == ()
    assert sp.level((5,)) == 5
    sp = split(G, (-1,))
    assert sp.level((5,)) == -5


def test_hermite_basis():
    # generators (2,0) and (3,0) give the subgroup Z*(1,0)
    assert hermite_basis([(2, 0), (3, 0)], 2) == ((1, 0),)
    # full lattice from a unimodular pair
    basis = hermite_basis([(2, 1), (1, 1)], 2)
    mat = [list(r) for r in basis]
    assert len(basis) == 2 and int_det(mat) in (1, -1)
    # (2,0),(0,2),(2,2) generate 2Z x 2Z, an index-4 sublattice
    basis = hermite_basis([(2, 0), (0, 2), (2, 2)], 2)
    mat = [list(r) for r in basis]
    assert abs(int_det(mat)) == 4
    assert hermite_basis([], 3) == ()
    assert hermite_basis([(0, 0)], 2) == ()


def test_hermite_membership_random():
    rng = random.Random(991)
    for _ in range(100):
        n = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        basis = hermite_basis(vecs, n)
        # random integer combinations of the input lie in the basis span
        coeffs = [rng.randint(-3, 3) for _ in vecs]
        x = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n))
        # reduce x by the (triangular) basis rows
        r = list(x)
        for row in basis:
            lead = next(i for i in range(n) if row[i])
            if r[lead] % row[lead] == 0:
                q = r[lead] // row[lead]
                for i in range(n):
                    r[i] -= q * row[i]
        assert not any(r), (vecs, basis, x)


def _frozen_hermite_basis(vectors, n):
    """hermite_basis as it was with its own canonical pass (each pivot row
    reducing every row above it, top pivot first), frozen as a reference."""
    rows = [list(v) for v in vectors if not is_zero(v)]
    basis = []
    for col in range(n):
        pool = [r for r in rows if r[col] != 0]
        if not pool:
            continue
        while True:
            pool.sort(key=lambda r: abs(r[col]))
            piv = pool[0]
            reduced = False
            for r in pool[1:]:
                q = r[col] // piv[col]
                for i in range(n):
                    r[i] -= q * piv[i]
                if r[col] != 0:
                    reduced = True
            pool = [piv] + [r for r in pool[1:] if r[col] != 0]
            if not reduced or len(pool) == 1:
                break
        piv = pool[0]
        if piv[col] < 0:
            piv[:] = [-a for a in piv]
        basis.append(piv)
        rows = [r for r in rows if r is not piv and not is_zero(r)]
        for r in rows:
            if r[col] != 0 and r[col] % piv[col] == 0:
                q = r[col] // piv[col]
                for i in range(n):
                    r[i] -= q * piv[i]
        rows = [r for r in rows if not is_zero(r)]
    for j in range(1, len(basis)):
        piv = basis[j]
        col = next(i for i in range(n) if piv[i])
        for r in basis[:j]:
            q = r[col] // piv[col]
            if q:
                for i in range(n):
                    r[i] -= q * piv[i]
    return tuple(tuple(r) for r in basis)


def test_hermite_basis_matches_frozen_canonical_pass():
    # the Hermite normal form is unique, so the bottom-up pass through
    # reduce_modulo must give the frozen top-down pass's basis exactly
    rng = random.Random(17017)
    full = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        m = rng.randint(0, 5)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)]
        basis = hermite_basis(vecs, n)
        assert basis == _frozen_hermite_basis(vecs, n), vecs
        full += len(basis) == n
    assert full > 500


def test_reduce_modulo_is_canonical_and_stays_in_the_coset():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        basis = hermite_basis(vecs, n)
        v = tuple(rng.randint(-20, 20) for _ in range(n))
        r = reduce_modulo(v, basis)
        for h in basis:
            c = next(i for i, a in enumerate(h) if a)
            assert 0 <= r[c] < h[c]
        # v - r lies in the lattice: adding a lattice vector gives the same r
        ks = [rng.randint(-3, 3) for _ in basis]
        shifted = tuple(a + sum(k * h[i] for k, h in zip(ks, basis)) for i, a in enumerate(v))
        assert reduce_modulo(shifted, basis) == r
        assert hermite_basis(list(basis) + [tuple(a - b for a, b in zip(v, r))], n) == basis


def test_group_order_default_colex():
    def cmp(x, y):
        kx, ky = colex_key(x), colex_key(y)
        return (kx > ky) - (kx < ky)

    def positive(x):
        return colex_key(x) > colex_key((0, 0))

    # last coordinate dominates: g1=(1,0) < g2=(0,1)
    assert cmp((1, 0), (0, 1)) < 0
    assert positive((1, 0)) and positive((0, 1))
    assert not positive((0, 0))
    assert positive((-3, 1))
    assert not positive((3, -1))
    # translation invariance, which PBW straightening relies on
    rng = random.Random(5)
    for _ in range(100):
        x = tuple(rng.randint(-5, 5) for _ in range(2))
        y = tuple(rng.randint(-5, 5) for _ in range(2))
        z = tuple(rng.randint(-5, 5) for _ in range(2))
        assert cmp(x, y) == cmp(gadd(x, z), gadd(y, z))


def test_group_validate():
    import pytest

    G = Group.of_rank(2)
    assert G.validate([1, 2]) == (1, 2)
    with pytest.raises(ValueError):
        G.validate((1, 2, 3))
    # coordinates are never rewritten: a float, a bool or a string is refused
    for bad in ((1.5, 2), (True, 2), ("3", 2)):
        with pytest.raises(ValueError):
            G.validate(bad)
