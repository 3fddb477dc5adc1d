"""Exact dense linear algebra: rank, kernel, RREF, determinants, Plucker coordinates.

Matrices are immutable tuples of tuples of field elements and carry their
field.  The reduced row-echelon form is canonical, so row-space equality is
syntactic equality of RREFs.  A ``VectorTable`` keeps many vectors on the
field's kernel codes, so that which of them lie in a row space costs one
``kernel.combine`` per kernel vector, not one row reduction per vector.
"""

from itertools import combinations

from .fields import coerce


class MatrixExact:
    __slots__ = ("field", "rows", "_rref")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(field.elem(c) for c in row) for row in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")
        self._rref = None

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

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

    def apply(self, vec):
        return tuple(_dot(r, vec, self.field) for r in self.rows)

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
        return bareiss_det(self.rows, self.field.one)

    def map_field(self, target):
        return MatrixExact(target, [[coerce(c, target) for c in row] for row in self.rows])


class VectorTable:
    """Vectors over a field, column by column on its kernel codes: column c
    is the polynomial whose coefficient j is entry c of vector j."""

    __slots__ = ("field", "size", "columns")

    def __init__(self, field, vectors):
        self.field, self.size = field, len(vectors)
        self.columns = [field._encode(col) for col in zip(*vectors)]

    def in_row_space(self, M):
        """The set of j with v_j in the row space of M, over the table's field:
        h.v_j = 0 for each h of M's kernel basis, one ``kernel.combine`` each."""
        f, on = self.field, range(self.size)
        zero = f.kernel.zero
        for h in M.kernel_basis() if self.size else ():
            dots = f.kernel.combine(f._encode(h), self.columns)
            on = [j for j in on if j >= len(dots) or dots[j] == zero]
        return set(on)

    def map_field(self, target):
        cols = [[coerce(c, target) for c in self.field._decode(col)] for col in self.columns]
        return VectorTable(target, list(zip(*cols)))


def reduce_row(row, echelon):
    """``row`` reduced against ``echelon``: pairs (pivot column, row), each row
    one at its pivot and zero at the earlier pivots (as in an RREF)."""
    row = list(row)
    for c, prow in echelon:
        factor = row[c]
        if factor:
            row = [a - factor * b for a, b in zip(row, prow)]
    return row


def bareiss_det(rows, one):
    """Determinant of a square matrix, given as rows, over an integral domain
    whose ``/`` divides exactly: a field, or F[x] with ``Poly``'s exact
    division.  ``one`` is the ring's unit, the determinant of a 0x0 matrix.

    Bareiss's fraction-free elimination: after step k every entry below and
    right of the pivot is a (k+1)-minor, so each division by the previous
    pivot is exact.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if not n:
        return one
    sign, prev = 1, one
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return rows[k][k]   # the zero of the ring
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk, rk = rows[k][k], rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - ri[k] * rk[j]) / prev
        prev = pk
    return rows[-1][-1] if sign == 1 else -rows[-1][-1]


def sylvester(a, b, zero):
    """The Sylvester matrix, as rows, of two polynomials given by their
    coefficients highest degree first, of formal degrees m = len(a) - 1 and
    n = len(b) - 1: n shifted copies of a, then m shifted copies of b."""
    m, n = len(a) - 1, len(b) - 1
    return ([[zero] * i + list(a) + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + list(b) + [zero] * (m - 1 - i) for i in range(m)])


def _dot(a, b, field):
    acc = field.zero
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


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
