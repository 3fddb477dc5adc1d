"""Points of a canonical genus-4 curve through the rulings of its quadric.

C = Q n E lies on the unique quadric Q, and the g^1_3's of C are cut by the
lines of Q (Hartshorne IV Ex. 5.5.2).  Over K = F_(q^m), p odd, with Gram
matrix G of Q (Q(x) = x.G.x, polar form B(x, y) = x.G.y):

  * rank 4, det G a square in K (Q split over K): a hyperbolic basis M
    gives Q(M.x) = x0*x3 - x1*x2, and the Segre map
    ((u : v), (s : t)) -> M.(su, sv, tu, tv) is a bijection
    P^1(K) x P^1(K) -> Q(K).  The cubic is pulled back once; the points of
    C on the line of each (s : t) are the K-roots of one binary cubic in
    (u : v).
  * rank 3 (a cone): the base conic is parametrized by P^1 through one of
    its K-points, and each line through the vertex V meets E in the roots
    of a binary cubic in (u : v) along u*phi(s, t) + v*V.  The vertex is not
    on a smooth C.
  * rank 4 and det G not a square in K (the rulings are conjugate over the
    quadratic extension of K; this happens only for odd m): the points are
    swept over the pencil of planes through the line x0 = x1 = 0.

Binary forms and line parameters share one variable order, (u, v, s, t),
so a form in them is grouped by its (s, t)-monomial once and specialized
per line (``_by_st``, ``_specialize_pencil``).
"""

from itertools import combinations

from .algebra.fields import coerce
from .algebra.linalg import MatrixExact
from .curves import (
    ProjectivePoint,
    _apply_shear,
    _binary_rational_points,
    _first_shear_zeros,
    _gram_matrix,
    _rational_chart_zeros,
    _shear_matrices,
    mp_substitute,
)


def points_over(curve, K):
    """Sorted distinct points of the genus-4 curve over its extension K."""
    quad, cub = curve.quadric.map_field(K), curve.cubic.map_field(K)
    gram = _gram_matrix(K, quad)
    kind = _quadric_type(gram)
    if kind == "nonsplit":
        found = _sweep_points(K, quad, cub)
    else:
        make = _segre_images if kind == "split" else _cone_images
        found = _line_points(K, make(K, gram, curve.field), cub)
    pts = {P.coords: P for P in found if not quad(P.coords) and not cub(P.coords)}
    return sorted(pts.values(), key=ProjectivePoint.sort_key)


def _quadric_type(gram):
    """"cone" (rank 3), "split" or "nonsplit" (rank 4) over the field of
    the Gram matrix."""
    if gram.rank() == 3:
        return "cone"
    return "split" if gram.field.is_square(gram.det()) else "nonsplit"


# -- the Segre map and the cone --------------------------------------------

def _bil(gram, x, y):
    return sum((a * b for a, b in zip(x, gram.apply(y))), gram.field.zero)


def _isotropic(gram, basis, base):
    """A nonzero v in the span of ``basis`` with Q(v) = 0, or None.

    Each plane spanned by basis[0] and a combination y of the others with
    coefficients from the subfield ``base`` holds an isotropic vector iff
    the binary form's discriminant B(x, y)^2 - Q(x) Q(y) is a square.
    Planes through basis[0] cover the span, so a nondegenerate Q on a span
    of dimension >= 3 (always isotropic over a finite field) is found.  A
    plane is decided by one y, whose discriminant and Q(y) are those of
    every multiple of y up to a square: the walk takes one tuple per line
    (``_directions``), lazily, and leaves a large field after a few.
    """
    K = gram.field
    for b in basis:
        if not _bil(gram, b, b):
            return b
    x, rest = basis[0], basis[1:]
    qx = _bil(gram, x, x)
    for cs in _directions(base, K, len(rest)):
        y = [sum((c * r[i] for c, r in zip(cs, rest)), K.zero) for i in range(4)]
        qy, bxy = _bil(gram, y, y), _bil(gram, x, y)
        if not qy:
            return y
        r = K.sqrt(bxy * bxy - qx * qy)
        if r is not None:   # Q(qy*x + (r - bxy)*y) = 0
            return [qy * a + (r - bxy) * b for a, b in zip(x, y)]
    return None


def _directions(base, K, n):
    """The tuples of itertools.product(base.elements(), repeat=n) whose first
    nonzero entry is one, in that order, coerced into K: as elements()
    begins 0, 1, each is the first tuple of its line in product order."""
    for lead in reversed(range(n)):
        for tail in _tuples(base, K, n - 1 - lead):
            yield (K.zero,) * lead + (K.one,) + tail


def _tuples(base, K, n):
    """itertools.product(base.elements(), repeat=n), coerced into K, without
    listing the elements."""
    if not n:
        yield ()
        return
    for c in base.elements():
        c = coerce(c, K)
        for cs in _tuples(base, K, n - 1):
            yield (c,) + cs


def _partner(gram, v, basis):
    """An isotropic w in the span of ``basis`` with B(v, w) = 1; v isotropic."""
    K = gram.field
    z = next(b for b in basis if _bil(gram, v, b))
    z = [c / _bil(gram, v, z) for c in z]
    lam = _bil(gram, z, z) / K.elem(2)
    return [a - lam * b for a, b in zip(z, v)]


def _segre_images(K, gram, base):
    """x = M.(su, sv, tu, tv) as forms in (u, v, s, t), with M a hyperbolic
    basis: isotropic v1, v2 spanning a line of Q, w1, w2 dual to them."""
    unit = MatrixExact.identity(K, 4).rows
    v1 = _isotropic(gram, unit, base)
    w1 = _partner(gram, v1, unit)
    perp = MatrixExact(K, [gram.apply(v1), gram.apply(w1)]).kernel_basis()
    v2 = _isotropic(gram, perp, base)
    assert v2 is not None, "a split quadric has an isotropic vector in H^perp"
    w2 = _partner(gram, v2, perp)
    half = K.one / K.elem(2)
    cols = [v1, v2, [-half * c for c in w2], [half * c for c in w1]]
    keys = [(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]
    return [{k: col[i] for k, col in zip(keys, cols) if col[i]} for i in range(4)]


def _cone_images(K, gram, base):
    """x = u*phi(s, t) + v*V as forms in (u, v, s, t): V the vertex, phi the
    base conic parametrized through one of its points P0 by the second
    intersection Q(D)*P0 - 2*B(P0, D)*D of the line from P0 towards
    D = s*R1 + t*R2."""
    V = gram.kernel_basis()[0]
    j = next(i for i, c in enumerate(V) if c)
    comp = [r for i, r in enumerate(MatrixExact.identity(K, 4).rows) if i != j]
    P0 = _isotropic(gram, comp, base)
    R1, R2 = next(pair for pair in combinations(comp, 2)
                  if MatrixExact(K, [V, P0, *pair]).rank() == 4)
    b1, b2 = _bil(gram, P0, R1), _bil(gram, P0, R2)
    two = K.elem(2)
    out = []
    for p, r1, r2, v in zip(P0, R1, R2, V):
        im = {(1, 0, 2, 0): _bil(gram, R1, R1) * p - two * b1 * r1,
              (1, 0, 1, 1): two * (_bil(gram, R1, R2) * p - b1 * r2 - b2 * r1),
              (1, 0, 0, 2): _bil(gram, R2, R2) * p - two * b2 * r2,
              (0, 1, 0, 0): v}
        out.append({k: c for k, c in im.items() if c})
    return out


def _line_points(K, images, cub):
    """Points u*A(s, t) + v*B(s, t) of the images over the K-roots (u : v)
    of the pulled-back cubic, line by line."""
    pulled = _by_st(mp_substitute(cub.coeffs, images, K, 4))
    ims = [_by_st(im) for im in images]
    out = []
    for s, t in _p1(K):
        c = _specialize_pencil(pulled, s, t)
        roots = _binary_rational_points(K, [c.get((3 - j, j), K.zero) for j in range(4)])
        if roots:
            xs = [_specialize_pencil(g, s, t) for g in ims]
            A = [x.get((1, 0), K.zero) for x in xs]
            B = [x.get((0, 1), K.zero) for x in xs]
            out += [ProjectivePoint(K, [u * a + v * b for a, b in zip(A, B)])
                    for u, v in roots]
    return out


# -- the pencil-of-planes sweep (non-split quadrics) ------------------------

def _sweep_points(K, quad, cub):
    """Every point lies on a plane through the axis line x0 = x1 = 0, so the
    rational zeros of all planes s*x0 + t*x1 = 0 of the pencil are the
    points of C(K).

    The quadric and the cubic are restricted once to the generic plane
    (x0 = t*a, x1 = -s*a, x2 = b, x3 = c, with s and t kept as variables),
    and each shear is applied to those forms once, when a plane first needs
    it.  Every plane specializes (s, t), takes the first shear that works
    for it, as restricting to that plane alone would, and solves its own
    conic and cubic.
    """
    images = [{(1, 0, 0, 0, 1): K.one}, {(1, 0, 0, 1, 0): -K.one},
              {(0, 1, 0, 0, 0): K.one}, {(0, 0, 1, 0, 0): K.one}]
    pencil = [mp_substitute(f.coeffs, images, K, 5) for f in (quad, cub)]
    mats, sheared = _shear_matrices(K), []

    def shears(s, t):
        for i, mat in enumerate(mats):
            if i == len(sheared):
                sheared.append(_shear_pencil(K, pencil, mat))
            if sheared[i]:
                yield (mat, *(_specialize_pencil(f, s, t) for f in sheared[i]))

    out = []
    for s, t in _p1(K):
        for a0, b0, c0 in _first_shear_zeros(K, shears(s, t), _rational_chart_zeros):
            out.append(ProjectivePoint(K, [a0 * t, -a0 * s, b0, c0]))
    return out


def _shear_pencil(field, pencil, mat):
    """The pencil's conic and cubic, dicts in (a, b, c, s, t) with mat
    applied to (a, b, c), each grouped by (s, t)-monomial; None when a top
    c-coefficient is zero on every plane."""
    q, e = (_apply_shear(f, mat, field, 5) for f in pencil)
    if not (any(k[:3] == (0, 0, 2) for k in q)
            and any(k[:3] == (0, 0, 3) for k in e)):
        return None
    return [_by_st(q), _by_st(e)]


# -- shared -----------------------------------------------------------------

def _p1(K):
    """P^1(K) as (s, t): (1, t) in elements() order, then (0, 1)."""
    return [(K.one, t) for t in K.elements()] + [(K.zero, K.one)]


def _by_st(d):
    """A dict whose keys end in the (s, t) exponents, grouped by them."""
    groups = {}
    for key, v in d.items():
        groups.setdefault(key[-2:], []).append((key[:-2], v))
    return groups


def _specialize_pencil(groups, s, t):
    """A dict grouped by ``_by_st``, at (s, t)."""
    out = {}
    for (es, et), terms in groups.items():
        f = s ** es * t ** et
        if f:
            for key, v in terms:
                v = v * f
                out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if v}
