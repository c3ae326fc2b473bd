import random
from itertools import combinations, product
from math import gcd

import pytest

from references import reference_small_nonzero, reference_smith_form, reference_vector_key

from kleppner.groups import INFINITE, FreeAbelian, Subgroup
from kleppner.intlinalg import (RowLattice, echelon_contains, integer_kernel, kernel_mod,
                                smith_normal_form, vector_key, xgcd)


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
        u, d, v = reference_smith_form(a)
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


def _reference_diagonal(a):
    """The nonzero diagonal of the reference Smith form of a."""
    _, d, _ = reference_smith_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


def test_smith_diagonal_matches_the_reference_elimination():
    rng = random.Random(13)
    shapes = {"deficient": 0, "single": 0}
    for _ in range(2000):
        n = rng.randint(1, 6)
        a = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.3:
            # rank deficient: every row a combination of the first few
            base = a[:rng.randint(1, max(1, min(len(a), n) - 1))]
            coeffs = [[rng.randint(-2, 2) for _ in base] for _ in a]
            a = [[sum(c * b[k] for c, b in zip(row, base)) for k in range(n)] for row in coeffs]
        diag = smith_normal_form(a)
        assert diag == _reference_diagonal(a), a
        assert all(x > 0 for x in diag) and all(y % x == 0 for x, y in zip(diag, diag[1:])), a
        shapes["deficient"] += len(diag) < min(len(a), n)
        shapes["single"] += len(a) == 1
    assert min(shapes.values()) > 100, shapes
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0, 0]]) == []
    assert smith_normal_form([[6, -4, 10]]) == [2]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def _minors_gcd(a, k):
    """D_k: the gcd of every k x k minor of a (D_0 = 1)."""
    return gcd(*(det([[a[i][j] for j in cols] for i in rows])
                 for rows in combinations(range(len(a)), k)
                 for cols in combinations(range(len(a[0])), k))) if k else 1


def test_smith_diagonal_is_the_quotient_of_determinantal_divisors():
    """d_k = D_k / D_(k-1), D_k the gcd of the k x k minors: the invariant
    factors by a route that forms no normal form at all."""
    rng = random.Random(14)
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        divisors = [_minors_gcd(a, k) for k in range(min(m, n) + 1)]
        want = [divisors[k] // divisors[k - 1] for k in range(1, len(divisors)) if divisors[k]]
        assert smith_normal_form(a) == want, a


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
                assert echelon_contains(lat.rows, cand)


def test_row_lattice_basis_is_reduced_and_unique():
    """The rows are the reduced echelon basis: positive, strictly increasing
    pivots, every entry above a pivot in [0, pivot); a unimodular change of
    the spanning set, with a redundant vector, gives the same rows."""
    rng = random.Random(5)
    for _ in range(300):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        gens = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        lat = RowLattice(n, gens)
        _assert_reduced_echelon(lat.rows)
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


class _AppendAndResort:
    """The reduced echelon basis by an independent route, the test reference
    for RowLattice: reduce each vector against the rows in order, append the
    remainder, then re-sort all rows by a fresh pivot scan and merge equal
    pivots by xgcd until the pivots are distinct, and finally reduce the
    entries above each pivot."""

    def __init__(self, n, vectors):
        self.rows = []
        for v in vectors:
            self._add(v)
        for j, row in enumerate(self.rows):
            p = _pivot(row)
            for above in self.rows[:j]:
                if q := above[p] // row[p]:
                    above[:] = [a - q * b for a, b in zip(above, row)]

    def _add(self, vec0):
        vec = list(vec0)
        for row in self.rows:
            j = _pivot(row)
            if vec[j]:
                a, b = row[j], vec[j]
                if b % a == 0:
                    vec = [x - b // a * y for x, y in zip(vec, row)]
                else:
                    x, y, g = xgcd(a, b)
                    new_row = [x * r + y * w for r, w in zip(row, vec)]
                    vec = [a // g * w - b // g * r for r, w in zip(row, vec)]
                    row[:] = new_row
        if any(vec):
            self.rows.append(vec)
            self._echelonize()

    def _echelonize(self):
        rows = [r for r in self.rows if any(r)]
        changed = True
        while changed:
            changed = False
            rows.sort(key=_pivot)
            for i in range(len(rows) - 1):
                p = _pivot(rows[i])
                if p == _pivot(rows[i + 1]):
                    a, b = rows[i][p], rows[i + 1][p]
                    x, y, g = xgcd(a, b)
                    comb = [x * r + y * w for r, w in zip(rows[i], rows[i + 1])]
                    other = [a // g * w - b // g * r for r, w in zip(rows[i], rows[i + 1])]
                    rows[i] = comb
                    if any(other):
                        rows[i + 1] = other
                    else:
                        del rows[i + 1]
                    changed = True
                    break
        self.rows = [r if r[_pivot(r)] > 0 else [-x for x in r] for r in rows]


def _pivot(row):
    return next(k for k, x in enumerate(row) if x)


def _assert_reduced_echelon(rows):
    pivots = [_pivot(row) for row in rows]
    assert pivots == sorted(set(pivots)), rows
    for i, (row, p) in enumerate(zip(rows, pivots)):
        assert row[p] > 0 and all(0 <= above[p] < row[p] for above in rows[:i]), rows


def _spanning_set(rng, n):
    """Random vectors of Z^n with zero, duplicate and negated vectors,
    negative leading entries and, often, fewer independent vectors than n;
    with a bound on the rank they span: n, or the number of base vectors
    that every vector combines."""
    gens = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
            for _ in range(rng.randint(0, n + 2))]
    bound = n
    if gens and rng.random() < 0.5:
        # rank deficient: every vector a combination of the first few, one
        # coefficient per base vector
        base = gens[:rng.randint(1, max(1, n - 1))]
        bound = len(base)
        coeffs = [[rng.randint(-2, 2) for _ in base] for _ in gens]
        gens = [[sum(c * b[k] for c, b in zip(row, base)) for k in range(n)] for row in coeffs]
    extras = [[0] * n]
    if gens:
        extras += [list(rng.choice(gens)), [-x for x in rng.choice(gens)]]
    gens += rng.sample(extras, rng.randint(0, len(extras)))
    rng.shuffle(gens)
    return gens, bound


def test_row_lattice_matches_the_append_and_resort_reference():
    rng = random.Random(6)
    deficient = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        gens, bound = _spanning_set(rng, n)
        lat = RowLattice(n, gens)
        assert lat.rows == _AppendAndResort(n, gens).rows, gens
        _assert_reduced_echelon(lat.rows)
        assert lat.rank <= bound, gens
        deficient += bound < n
    # a third of the draws combine fewer than n base vectors: half of those
    # with n >= 2 and some vector drawn
    assert deficient > 150, deficient
    # negative pivots, a duplicate, a negated vector and the zero vector
    gens = [[-2, 4, 1], [0, -3, 5], [-2, 4, 1], [2, -4, -1], [0, 0, 0]]
    assert RowLattice(3, gens).rows == _AppendAndResort(3, gens).rows == [[2, 2, -11], [0, 3, -5]]


def test_row_lattice_refuses_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="wrong ambient dimension"):
        RowLattice(3, [[1, 0, 0], [0, 1]])
    with pytest.raises(ValueError, match="wrong ambient dimension"):
        RowLattice(2, [[1, 0, 0]])


def _smith_kernel(a):
    """Kernel columns of V in U A V = D, the independent route: the columns
    past the nonzero diagonal."""
    m, n = len(a), len(a[0])
    _, d, v = reference_smith_form(a)
    return [tuple(v[i][j] for i in range(n)) for j in range(n) if j >= m or d[j][j] == 0]


def test_integer_kernel_is_the_reduced_basis_of_the_smith_kernel():
    rng = random.Random(7)
    dependent = 0
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.choice((0, rng.randint(-7, 7))) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            # a dependent row: one coefficient per row, so the rank stays
            coeffs = [rng.randint(-2, 2) for _ in a]
            a.append([sum(c * r[k] for c, r in zip(coeffs, a)) for k in range(n)])
            assert RowLattice(n, a).rank == RowLattice(n, a[:-1]).rank, a
            dependent += 1
        ker = integer_kernel(a)
        assert ker == RowLattice(n, _smith_kernel(a)).basis(), a
        _assert_reduced_echelon([list(v) for v in ker])
    assert dependent > 100, dependent
    assert integer_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel([[0, 0]]) == [(1, 0), (0, 1)]


def test_kernel_mod_agrees_with_the_smith_route_and_brute_force():
    rng = random.Random(8)
    for _ in range(150):
        m, d = rng.randint(1, 3), rng.randint(1, 3)
        delta = rng.randint(1, 12)
        n_mat = [[rng.randint(-delta, 2 * delta) for _ in range(d)] for _ in range(m)]
        basis = kernel_mod(n_mat, delta)
        _assert_reduced_echelon([list(v) for v in basis])
        # Smith kernel of [N | -delta I], projected to its first d coordinates
        aug = [row + [-delta * (k == i) for k in range(m)] for i, row in enumerate(n_mat)]
        assert basis == RowLattice(d, (v[:d] for v in _smith_kernel(aug))).basis()
        lat = RowLattice(d, basis)
        for t in product(range(-delta, delta + 1), repeat=d):
            solves = all(sum(c * x for c, x in zip(row, t)) % delta == 0 for row in n_mat)
            assert echelon_contains(lat.rows, t) == solves, (n_mat, delta, t)


def test_row_lattice_membership_brute_force():
    rng = random.Random(3)
    members = non_members = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        lat = RowLattice(n, gens)
        # all small integer combinations of the generators are members
        for coeffs in product(range(-2, 3), repeat=len(gens)):
            v = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
            assert echelon_contains(lat.rows, v)
        # every small vector, member or not, is decided as by the Smith form
        for cand in product(range(-2, 3), repeat=n):
            member = _smith_contains(gens, cand)
            assert echelon_contains(lat.rows, cand) == member, (gens, cand)
            members += member
            non_members += not member
    assert min(members, non_members) > 500, (members, non_members)


def _smith_contains(gens, v):
    """Whether v is an integer combination of gens, apart from the echelon
    form: with U A V = D for the matrix A whose columns are gens, A x = v has
    an integer solution exactly when D y = U v has one."""
    n = len(v)
    a = [[g[i] for g in gens] for i in range(n)]
    u, d, _ = reference_smith_form(a)
    uv = [sum(x * y for x, y in zip(row, v)) for row in u]
    return all(uv[i] % d[i][i] == 0 if i < len(gens) and d[i][i] else uv[i] == 0
               for i in range(n))


def test_lattice_index_matches_snf():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 3)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        cols = [[gens[i][k] for i in range(n)] for k in range(n)]
        _, d, _ = reference_smith_form(cols)
        expected = 1
        full = True
        for i in range(n):
            if d[i][i] == 0:
                full = False
            expected *= d[i][i]
        got = Subgroup.sublattice(FreeAbelian(n), gens).index()
        if full:
            assert got == abs(expected)
        else:
            assert got is INFINITE


def test_kernel_mod():
    basis = kernel_mod([[1, 1]], 2)
    lat = RowLattice(2, basis)
    for t1 in range(-4, 5):
        for t2 in range(-4, 5):
            assert echelon_contains(lat.rows, (t1, t2)) == ((t1 + t2) % 2 == 0)


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
        if lat.rank == 0:
            assert v is None
            continue
        members = [w for w in _l1_ball(n, sum(map(abs, v))) if any(w) and echelon_contains(lat.rows, w)]
        assert min(members, key=vector_key) == v, lat.rows


def test_small_nonzero_looks_past_small_coefficients():
    # the least vector is the second row plus 6 times the third
    lat = RowLattice(4, [[1, 6, -2, -4], [0, 3, -36, 0], [0, 0, 6, 0], [0, 0, 0, 6]])
    assert lat.small_nonzero() == (0, 3, 0, 0)


def test_vector_key_orders_as_its_reference():
    rng = random.Random(11)
    vecs = [tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 6))) for _ in range(2500)]
    vecs += [tuple(v) for n in (1, 2) for v in product(range(-6, 7), repeat=n)]
    # both keys are injective, so equal sorted lists mean the same order
    assert sorted(vecs, key=vector_key) == sorted(vecs, key=reference_vector_key)


def test_small_nonzero_matches_its_reference():
    rng = random.Random(12)
    lattices = [RowLattice(4, [[1, 6, -2, -4], [0, 3, -36, 0], [0, 0, 6, 0], [0, 0, 0, 6]])]
    for _ in range(400):
        n = rng.randint(1, 5)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        lattices.append(RowLattice(n, gens))
    assert {lat.rank for lat in lattices} == {0, 1, 2, 3, 4, 5}
    for lat in lattices:
        assert lat.small_nonzero() == reference_small_nonzero(lat), lat.rows
