"""Exact dense linear algebra: rank, kernel, RREF, determinants, Plucker coordinates.

Matrices are immutable tuples of tuples of field elements and carry their
field.  The reduced row-echelon form is canonical, so row-space equality is
syntactic equality of RREFs.
"""

from itertools import combinations

from .fields import FieldError


class MatrixExact:
    __slots__ = ("field", "rows", "_rref")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(
            tuple(field.elem(c) if not field.contains(c) else c for c in row)
            for row in rows
        )
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")
        self._rref = None

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zero(cls, field, m, n):
        return cls(field, [[field.zero] * n for _ in range(m)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        if isinstance(other, MatrixExact):
            return self.field == other.field and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"MatrixExact({self.nrows}x{self.ncols} over {self.field!r})"

    def transpose(self):
        return MatrixExact(self.field, list(zip(*self.rows)) if self.rows else [])

    def __mul__(self, other):
        if isinstance(other, MatrixExact):
            if other.field != self.field:
                raise FieldError("mixed-field matrices")
            bt = list(zip(*other.rows))
            return MatrixExact(self.field, [
                [_dot(r, c, self.field) for c in bt] for r in self.rows])
        return NotImplemented

    def apply(self, vec):
        return tuple(_dot(r, vec, self.field) for r in self.rows)

    def stack(self, other):
        if other.field != self.field:
            raise FieldError("mixed-field matrices")
        return MatrixExact(self.field, list(self.rows) + list(other.rows))

    def rref(self):
        """(RREF matrix, pivot column tuple).  Cached; RREF is canonical."""
        if self._rref is None:
            f = self.field
            rows = [list(r) for r in self.rows]
            m, n = len(rows), self.ncols
            pivots = []
            r = 0
            for c in range(n):
                piv = None
                for i in range(r, m):
                    if rows[i][c]:
                        piv = i
                        break
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                inv = f.one / rows[r][c]
                rows[r] = [v * inv for v in rows[r]]
                for i in range(m):
                    if i != r and rows[i][c]:
                        factor = rows[i][c]
                        rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
                pivots.append(c)
                r += 1
                if r == m:
                    break
            self._rref = (MatrixExact(f, rows), tuple(pivots))
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def rank_with_row(self, row):
        """Rank of this matrix with ``row`` appended, from the cached RREF:
        rank + 1 exactly when the row keeps a nonzero entry after it is
        reduced against the pivot rows."""
        R, pivots = self._rref or self.rref()
        row = list(row)
        for prow, c in zip(R.rows, pivots):
            factor = row[c]
            if factor:
                row = [a - factor * b for a, b in zip(row, prow)]
        return len(pivots) + any(row)

    def row_space_matrix(self):
        """Canonical basis of the row space: nonzero rows of the RREF."""
        R, pivots = self.rref()
        return MatrixExact(self.field, [R.rows[i] for i in range(len(pivots))])

    def kernel_basis(self):
        """Canonical right-kernel basis from the RREF free columns."""
        f = self.field
        R, pivots = self.rref()
        n = self.ncols
        pivset = set(pivots)
        free = [c for c in range(n) if c not in pivset]
        basis = []
        for fc in free:
            v = [f.zero] * n
            v[fc] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = -R.rows[i][fc]
            basis.append(tuple(v))
        return basis

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        f = self.field
        rows = [list(r) for r in self.rows]
        n = len(rows)
        det = f.one
        for c in range(n):
            piv = None
            for i in range(c, n):
                if rows[i][c]:
                    piv = i
                    break
            if piv is None:
                return f.zero
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = -det
            pv = rows[c][c]
            det = det * pv
            inv = f.one / pv
            for i in range(c + 1, n):
                if rows[i][c]:
                    factor = rows[i][c] * inv
                    rows[i][c:] = [a - factor * b for a, b in zip(rows[i][c:], rows[c][c:])]
        return det

    def solve(self, rhs):
        """One solution x of A x = rhs, or None if inconsistent."""
        f = self.field
        n = self.ncols
        aug = MatrixExact(f, [list(r) + [b] for r, b in zip(self.rows, rhs)])
        R, pivots = aug.rref()
        for i in range(len(pivots)):
            if pivots[i] == n:
                return None
        x = [f.zero] * n
        for i, pc in enumerate(pivots):
            x[pc] = R.rows[i][n]
        return tuple(x)

    def map_field(self, target):
        from .fields import coerce
        return MatrixExact(target, [[coerce(c, target) for c in row] for row in self.rows])

    def sort_key(self):
        return tuple(tuple(self.field.sort_key(c) for c in row) for row in self.rows)


def _dot(a, b, field):
    acc = field.zero
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


def rank_kernel_rref(mat):
    """(rank, kernel basis, RREF) bundle for a MatrixExact."""
    R, pivots = mat.rref()
    return len(pivots), mat.kernel_basis(), R


def plucker(mat):
    """Normalized Plucker coordinates of the row space of ``mat``.

    Maximal minors in lexicographic column order, scaled so the first
    nonzero coordinate is one.  Rows must be linearly independent.
    """
    f = mat.field
    k, n = mat.nrows, mat.ncols
    if mat.rank() != k:
        raise ValueError("plucker requires linearly independent rows")
    coords = []
    for cols in combinations(range(n), k):
        sub = MatrixExact(f, [[mat.rows[i][j] for j in cols] for i in range(k)])
        coords.append(sub.det())
    first = next(c for c in coords if c)
    inv = f.one / first
    return tuple(c * inv for c in coords)
