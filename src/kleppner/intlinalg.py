"""Exact integer and rational linear algebra: echelon lattices, SNF, kernels.

Everything here works on small matrices (ambient dimension <= a handful), so
the implementations favour clarity over asymptotics.  All arithmetic is exact
(int / Fraction); unimodular transforms are tracked explicitly where needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


def int_key(c: int) -> tuple[int, int]:
    return (abs(c), 1 if c < 0 else 0)


def vector_key(v: Sequence[int]):
    """Total order on integer vectors: L1 norm first, then entrywise int_key."""
    return (sum(abs(c) for c in v), tuple(int_key(c) for c in v))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 unless both 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def echelon_contains(rows: Sequence[Sequence[int]], vec0: Sequence[int]) -> bool:
    """Whether vec0 lies in the lattice spanned by rows, an echelon basis."""
    vec = list(vec0)
    for row in rows:
        j = next(i for i, x in enumerate(row) if x)
        if vec[j]:
            if vec[j] % row[j] != 0:
                return False
            q = vec[j] // row[j]
            for k in range(len(vec)):
                vec[k] -= q * row[k]
    return not any(vec)


class RowLattice:
    """Sublattice of Z^n kept as an integer row basis in echelon form."""

    def __init__(self, ambient: int, vectors: Iterable[Sequence[int]] = ()) -> None:
        self.n = ambient
        self.rows: list[list[int]] = []
        for v in vectors:
            self.add(v)

    def add(self, vec0: Sequence[int]) -> None:
        if len(vec0) != self.n:
            raise ValueError("wrong ambient dimension")
        vec = list(vec0)
        for row in self.rows:
            j = next(i for i, x in enumerate(row) if x)
            if vec[j]:
                a, b = row[j], vec[j]
                if b % a == 0:
                    q = b // a
                    for k in range(self.n):
                        vec[k] -= q * row[k]
                else:
                    x, y, g = xgcd(a, b)
                    new_row = [x * row[k] + y * vec[k] for k in range(self.n)]
                    mult_a, mult_b = a // g, b // g
                    vec = [mult_a * vec[k] - mult_b * row[k] for k in range(self.n)]
                    row[:] = new_row
        if any(vec):
            self.rows.append(vec)
            self._echelonize()

    def _echelonize(self) -> None:
        # re-reduce so pivots are strictly increasing and positive
        rows = [r for r in self.rows if any(r)]
        rows.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
        changed = True
        while changed:
            changed = False
            rows.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
            for i in range(len(rows) - 1):
                pi = next(k for k, x in enumerate(rows[i]) if x)
                pj = next(k for k, x in enumerate(rows[i + 1]) if x)
                if pi == pj:
                    a, b = rows[i][pi], rows[i + 1][pj]
                    x, y, g = xgcd(a, b)
                    comb = [x * rows[i][k] + y * rows[i + 1][k] for k in range(self.n)]
                    other = [(a // g) * rows[i + 1][k] - (b // g) * rows[i][k]
                             for k in range(self.n)]
                    rows[i] = comb
                    if any(other):
                        rows[i + 1] = other
                    else:
                        del rows[i + 1]
                    changed = True
                    break
        for r in rows:
            p = next(k for k, x in enumerate(r) if x)
            if r[p] < 0:
                r[:] = [-x for x in r]
        self.rows = rows

    def contains(self, vec0: Sequence[int]) -> bool:
        return echelon_contains(self.rows, vec0)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_trivial(self) -> bool:
        return not self.rows

    def index_in_ambient(self) -> int | None:
        """Index [Z^n : L], None when infinite (rank deficient)."""
        if self.rank < self.n:
            return None
        det = 1
        for i, row in enumerate(self.rows):
            det *= row[next(k for k, x in enumerate(row) if x)]
        return abs(det)

    def basis(self) -> list[IntVec]:
        return [tuple(r) for r in self.rows]

    def small_nonzero(self) -> IntVec | None:
        """The nonzero lattice vector least under vector_key, None for the
        zero lattice.

        Exact branch and bound over the echelon rows: once the coefficients
        of rows 0..i are fixed, every column before the pivot of row i+1 is
        final, so the L1 norm of those columns bounds the L1 norm of every
        completion from below.
        """
        rows, r = self.rows, len(self.rows)
        if not r:
            return None
        piv = [next(k for k, x in enumerate(row) if x) for row in rows] + [self.n]
        best = min((tuple(row) for row in rows), key=vector_key)
        bound = sum(map(abs, best))

        def search(i: int, v: list[int], l1: int) -> None:
            # v combines rows 0..i-1; its columns before piv[i] have L1 norm l1
            nonlocal best, bound
            if i == r:
                if any(v) and vector_key(v) < vector_key(best):
                    best, bound = tuple(v), l1
                return
            row, p, x = rows[i], rows[i][piv[i]], v[piv[i]]
            # the pivot column alone must stay within the bound: |x + c p| <= slack
            slack = bound - l1
            coeffs = range(-((slack + x) // p), (slack - x) // p + 1)
            for c in sorted(coeffs, key=int_key):
                w = [a + c * b for a, b in zip(v, row)]
                cost = l1 + sum(abs(w[k]) for k in range(piv[i], piv[i + 1]))
                if cost <= bound:
                    search(i + 1, w, cost)

        search(0, [0] * self.n, 0)
        return best


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*A*V = D diagonal, U and V unimodular.

    Diagonal entries are nonnegative and form a divisibility chain.
    """
    d = [list(row) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def row_combine(i1, i2, x, y, xa, ya):
        # rows i1,i2 <- (x*r1 + y*r2, xa*r1 + ya*r2) applied to d and u
        for mat in (d, u):
            r1, r2 = mat[i1], mat[i2]
            for k in range(len(r1)):
                r1[k], r2[k] = x * r1[k] + y * r2[k], xa * r1[k] + ya * r2[k]

    def col_combine(j1, j2, x, y, xa, ya):
        for mat in (d, v):
            for row in mat:
                row[j1], row[j2] = x * row[j1] + y * row[j2], xa * row[j1] + ya * row[j2]

    t = 0
    while t < min(m, n):
        # locate a pivot of minimal absolute value in the trailing block
        pos = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pos = (i, j)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            d[t], d[i0] = d[i0], d[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for mat in (d, v):
                for row in mat:
                    row[t], row[j0] = row[j0], row[t]
        while True:
            # clear column t
            for i in range(t + 1, m):
                if d[i][t]:
                    if d[i][t] % d[t][t] == 0:
                        q = d[i][t] // d[t][t]
                        row_combine(t, i, 1, 0, -q, 1)
                    else:
                        x, y, g = xgcd(d[t][t], d[i][t])
                        aa, bb = d[t][t] // g, d[i][t] // g
                        row_combine(t, i, x, y, -bb, aa)
            # clear row t
            dirty = False
            for j in range(t + 1, n):
                if d[t][j]:
                    if d[t][j] % d[t][t] == 0:
                        q = d[t][j] // d[t][t]
                        col_combine(t, j, 1, 0, -q, 1)
                    else:
                        x, y, g = xgcd(d[t][t], d[t][j])
                        aa, bb = d[t][t] // g, d[t][j] // g
                        col_combine(t, j, x, y, -bb, aa)
                        dirty = True
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, m)):
                break
        # enforce divisibility of the remaining block by d[t][t]
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    row_combine(t, i, 1, 1, 0, 1)  # add row i to row t
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if d[t][t] < 0:
            for k in range(n):
                d[t][k] = -d[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1
    return u, d, v


def integer_kernel(a: Sequence[Sequence[int]]) -> list[IntVec]:
    """Basis of {x in Z^n : A x = 0} (saturated; all integer solutions)."""
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    _, d, v = smith_normal_form(a)
    basis = []
    for j in range(n):
        diag = d[j][j] if j < min(m, n) else 0
        if j >= m or diag == 0:
            basis.append(tuple(v[i][j] for i in range(n)))
    return basis


def kernel_mod(n_mat: Sequence[Sequence[int]], delta: int) -> list[IntVec]:
    """Basis of the lattice {t in Z^d : N t = 0 (mod delta)}."""
    m = len(n_mat)
    d = len(n_mat[0]) if m else 0
    if m == 0 or delta == 1:
        return [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    aug = [list(row) + [-delta if k == i else 0 for k in range(m)]
           for i, row in enumerate(n_mat)]
    ker = integer_kernel(aug)
    lat = RowLattice(d, (vec[:d] for vec in ker))
    return lat.basis()


def rational_kernel_lattice(rows: Sequence[Sequence[Fraction]], n: int) -> RowLattice:
    """Integer points of the rational null space of the given row constraints."""
    cleaned: list[list[int]] = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        if any(ints):
            cleaned.append(ints)
    if not cleaned:
        lat = RowLattice(n)
        for i in range(n):
            lat.add([1 if j == i else 0 for j in range(n)])
        return lat
    return RowLattice(n, integer_kernel(cleaned))


def invert_unimodular(u: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (result is integral)."""
    n = len(u)
    aug = [[Fraction(u[i][j]) for j in range(n)] + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    inv = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            irow.append(int(x))
        out.append(irow)
    return out


def mat_mul_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> IntVec:
    return tuple(sum(a[i][j] * x[j] for j in range(len(x))) for i in range(len(a)))
