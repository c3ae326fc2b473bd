"""Exact integer linear algebra: reduced echelon lattices, SNF, kernels.

Everything here works on small matrices (ambient dimension <= a handful), so
the implementations favour clarity over asymptotics.  All arithmetic is on
Python ints.  Every lattice is kept as its reduced echelon (Hermite) basis,
built by inserting one vector at a time, and every kernel is read off one
such basis of [A^T | I].  The Smith form, with both unimodular transforms,
serves the shape of a quotient Z^n / L.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IntVec = tuple[int, ...]


def int_key(c: int) -> tuple[int, int]:
    return (abs(c), 1 if c < 0 else 0)


def vector_key(v: Sequence[int]):
    """Total order on integer vectors: L1 norm first, then entrywise int_key,
    built inline as (abs(c), c < 0), whose bool orders as int_key's 0 and 1."""
    return (sum(map(abs, v)), tuple([(abs(c), c < 0) for c in v]))


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
    """Sublattice of Z^n kept as its reduced echelon (Hermite) basis: pivots
    positive and strictly increasing, and every entry above a pivot in
    [0, pivot).  That basis is unique, so every spanning set of one lattice
    gives the same rows."""

    def __init__(self, ambient: int, vectors: Iterable[Sequence[int]] = ()) -> None:
        self.n = ambient
        # one row per pivot column; each vector is cleared column by column
        # against the rows, and takes the first column that has none
        by_pivot: dict[int, list[int]] = {}
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("wrong ambient dimension")
            vec = list(v)
            for j in range(ambient):
                b = vec[j]
                if not b:
                    continue
                row = by_pivot.get(j)
                if row is None:
                    by_pivot[j] = vec if b > 0 else [-x for x in vec]
                    break
                a = row[j]
                if b % a == 0:
                    q = b // a
                    vec = [x - q * y for x, y in zip(vec, row)]
                else:
                    x, y, g = xgcd(a, b)
                    by_pivot[j] = [x * r + y * w for r, w in zip(row, vec)]
                    vec = [a // g * w - b // g * r for r, w in zip(row, vec)]
        pivots = sorted(by_pivot)
        self.rows: list[list[int]] = [by_pivot[p] for p in pivots]
        # entries above each pivot into [0, pivot), pivot by pivot from the
        # left: a row changes only the columns from its own pivot on
        for j, (p, row) in enumerate(zip(pivots, self.rows)):
            for above in self.rows[:j]:
                if q := above[p] // row[p]:
                    above[:] = [a - q * b for a, b in zip(above, row)]

    @property
    def rank(self) -> int:
        return len(self.rows)

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
        best_key = vector_key(best)
        bound = best_key[0]

        def search(i: int, v: list[int], l1: int) -> None:
            # v combines rows 0..i-1; its columns before piv[i] have L1 norm l1
            nonlocal best, best_key, bound
            if i == r:
                # here l1 is the L1 norm of all of v, 0 only for v = 0
                if l1:
                    key = vector_key(v)
                    if key < best_key:
                        best, best_key, bound = tuple(v), key, l1
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


def _unit(n: int, i: int, c: int = 1) -> list[int]:
    """c times the i-th unit vector of length n."""
    return [c if k == i else 0 for k in range(n)]


def _identity(n: int) -> list[list[int]]:
    return [_unit(n, i) for i in range(n)]


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


def _hermite_kernel(a: Sequence[Sequence[int]], n: int,
                    extra: Sequence[list[int]] = ()) -> list[IntVec]:
    """The rows of the Hermite form of [A^T | I], plus the extra rows, whose
    pivot lies past A's m columns, with those m entries dropped: the reduced
    echelon basis of the lattice's intersection with 0^m x Z^n."""
    m = len(a)
    lat = RowLattice(m + n, [[row[i] for row in a] + _unit(n, i) for i in range(n)] + list(extra))
    return [tuple(r[m:]) for r in lat.rows if not any(r[:m])]


def integer_kernel(a: Sequence[Sequence[int]], n: int | None = None) -> list[IntVec]:
    """The reduced echelon basis of {x in Z^n : A x = 0}, read off the Hermite
    form of [A^T | I] (Cohen 1993, section 2.4).  n, the number of columns,
    is read off A unless A has no rows."""
    if n is None:
        n = len(a[0]) if a else 0
    return _hermite_kernel(a, n)


def kernel_mod(n_mat: Sequence[Sequence[int]], delta: int) -> list[IntVec]:
    """The reduced echelon basis of {t in Z^d : N t = 0 (mod delta)}: the
    projection to Z^d of the kernel of [N | delta I], read off the Hermite
    form of [N^T | I] with the rows delta * e_k | 0 added."""
    m = len(n_mat)
    d = len(n_mat[0]) if m else 0
    return _hermite_kernel(n_mat, d, [_unit(m, k, delta) + [0] * d for k in range(m)])
