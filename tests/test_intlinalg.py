import random
from itertools import product

from kleppner.intlinalg import (RowLattice, integer_kernel, kernel_mod, smith_normal_form,
                                vector_key, xgcd)


def mm(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def det(a):
    """Determinant by Laplace expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def test_xgcd():
    rng = random.Random(0)
    for _ in range(500):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_snf_properties():
    rng = random.Random(1)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)]
        u, d, v = smith_normal_form(a)
        assert mm(mm(u, a), v) == d
        prev = None
        for i in range(min(m, n)):
            assert d[i][i] >= 0
            for j in range(n):
                if j != i:
                    assert d[i][j] == 0
            if prev not in (None, 0) and d[i][i] != 0:
                assert d[i][i] % prev == 0
            prev = d[i][i]
        # U and V are unimodular
        assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_integer_kernel_is_saturated():
    rng = random.Random(2)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        ker = integer_kernel(a)
        for vec in ker:
            assert all(sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(m))
        lat = RowLattice(n, ker)
        # brute force small solutions; all must lie in the kernel lattice
        for cand in product(range(-3, 4), repeat=n):
            if all(sum(a[i][j] * cand[j] for j in range(n)) == 0 for i in range(m)):
                assert lat.contains(cand)


def test_row_lattice_basis_is_reduced_and_unique():
    """The rows are the reduced echelon basis: positive, strictly increasing
    pivots, every entry above a pivot in [0, pivot); a unimodular change of
    the spanning set, with a redundant vector, gives the same rows."""
    rng = random.Random(5)
    for _ in range(300):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        gens = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        lat = RowLattice(n, gens)
        pivots = [next(j for j, x in enumerate(row) if x) for row in lat.rows]
        assert pivots == sorted(set(pivots))
        for i, (row, p) in enumerate(zip(lat.rows, pivots)):
            assert row[p] > 0 and all(0 <= above[p] < row[p] for above in lat.rows[:i])
        moved = [list(g) for g in gens]
        for _ in range(6 if k > 1 else 0):
            i, j = rng.sample(range(k), 2)
            c = rng.choice((-2, -1, 1, 2))
            moved[i] = [a + c * b for a, b in zip(moved[i], moved[j])]
        moved = [g if rng.random() < 0.5 else [-x for x in g] for g in moved]
        if moved:
            moved.append([a + b for a, b in zip(rng.choice(moved), rng.choice(moved))])
        rng.shuffle(moved)
        assert RowLattice(n, moved).rows == lat.rows, gens


def test_row_lattice_membership_brute_force():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        lat = RowLattice(n, gens)
        # all small integer combinations of the generators are members
        for coeffs in product(range(-2, 3), repeat=len(gens)):
            v = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
            assert lat.contains(v)
        # members reduce to zero, non-members don't: spot-check via reduction
        for cand in product(range(-2, 3), repeat=n):
            if lat.contains(cand):
                # must be representable: check against a rational solve
                pass


def test_lattice_index_matches_snf():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 3)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        lat = RowLattice(n, gens)
        cols = [[gens[i][k] for i in range(n)] for k in range(n)]
        _, d, _ = smith_normal_form(cols)
        expected = 1
        full = True
        for i in range(n):
            if d[i][i] == 0:
                full = False
            expected *= d[i][i]
        got = lat.index_in_ambient()
        if full:
            assert got == abs(expected)
        else:
            assert got is None


def test_kernel_mod():
    basis = kernel_mod([[1, 1]], 2)
    lat = RowLattice(2, basis)
    for t1 in range(-4, 5):
        for t2 in range(-4, 5):
            assert lat.contains((t1, t2)) == ((t1 + t2) % 2 == 0)


def _l1_ball(n, radius):
    """Every integer vector of length n with L1 norm at most radius."""
    if n == 0:
        yield ()
        return
    for c in range(-radius, radius + 1):
        for rest in _l1_ball(n - 1, radius - abs(c)):
            yield (c,) + rest


def test_small_nonzero_is_least_in_its_l1_box():
    # brute force over every vector as short as the answer, in L1 norm
    rng = random.Random(5)
    for _ in range(250):
        n = rng.randint(1, 4)
        lat = RowLattice(n, [[rng.randint(-3, 3) for _ in range(n)]
                             for _ in range(rng.randint(1, n))])
        v = lat.small_nonzero()
        if lat.is_trivial():
            assert v is None
            continue
        members = [w for w in _l1_ball(n, sum(map(abs, v))) if any(w) and lat.contains(w)]
        assert min(members, key=vector_key) == v, lat.rows


def test_small_nonzero_looks_past_small_coefficients():
    # the least vector is the second row plus 6 times the third
    lat = RowLattice(4, [[1, 6, -2, -4], [0, 3, -36, 0], [0, 0, 6, 0], [0, 0, 0, 6]])
    assert lat.small_nonzero() == (0, 3, 0, 0)
