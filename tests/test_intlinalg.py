import random
from itertools import product

import pytest

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
    negative leading entries and, often, fewer independent vectors than n."""
    gens = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
            for _ in range(rng.randint(0, n + 2))]
    if gens and rng.random() < 0.5:
        # rank deficient: every vector a combination of the first few
        base = gens[:rng.randint(1, max(1, n - 1))]
        gens = [[sum(rng.randint(-2, 2) * b[k] for b in base) for k in range(n)]
                for _ in range(len(gens))]
    extras = [[0] * n]
    if gens:
        extras += [list(rng.choice(gens)), [-x for x in rng.choice(gens)]]
    gens += rng.sample(extras, rng.randint(0, len(extras)))
    rng.shuffle(gens)
    return gens


def test_row_lattice_matches_the_append_and_resort_reference():
    rng = random.Random(6)
    for _ in range(600):
        n = rng.randint(1, 6)
        gens = _spanning_set(rng, n)
        lat = RowLattice(n, gens)
        assert lat.rows == _AppendAndResort(n, gens).rows, gens
        _assert_reduced_echelon(lat.rows)
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
    _, d, v = smith_normal_form(a)
    return [tuple(v[i][j] for i in range(n)) for j in range(n) if j >= m or d[j][j] == 0]


def test_integer_kernel_is_the_reduced_basis_of_the_smith_kernel():
    rng = random.Random(7)
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.choice((0, rng.randint(-7, 7))) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            a.append([sum(rng.randint(-2, 2) * r[k] for r in a) for k in range(n)])
        ker = integer_kernel(a)
        assert ker == RowLattice(n, _smith_kernel(a)).basis(), a
        _assert_reduced_echelon([list(v) for v in ker])
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
            assert lat.contains(t) == solves, (n_mat, delta, t)


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
