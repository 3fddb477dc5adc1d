"""Every cut of a curve by a linear space L: (L . C), hyperplane sections,
point tables and samplers.

The rational stage of (L . C) (``meet_form``) is a binary form, which gives
its degree: the gcd of the x-forms of the hyperplanes through L on the
hyperelliptic model, pulled back from P^1; the gcd of the curve's forms on
a line L.  The root stage (``meet``, ``line_cut``) finds its zeros.

C = Q n E lies on the unique quadric Q, and the g^1_3's of C are cut by the
lines of Q (Hartshorne IV Ex. 5.5.2).  ``rulings`` alone decides their
field of definition F: the curve's field F_q, p odd, or F_(q^2) when Q does
not split.  With Gram matrix G of Q (Q(x) = x.G.x, B(x, y) = x.G.y), they
are, for rank 4, the Segre map ((u : v), (s : t)) -> M.(su, sv, tu, tv), a
bijection P^1 x P^1 -> Q over F, with M a hyperbolic basis (Q(M.x) =
x0*x3 - x1*x2); for rank 3 (a cone), the lines u*phi(s, t) + v*V through the
vertex V, with phi the base conic parametrized through one of its F-points.
Every reader maps them from F into its own field, which must contain F.

A point table C(K), K = F_(q^m), is read on a pencil defined over a
subfield F of K: a plane quartic's lines through (0 : 0 : 1); a genus-4
curve's rulings (``_line_points``); or, for odd m where Q does not split,
the planes s*x0 + t*x1 = 0 (``_sweep_points``).  x -> x^|F| carries the
points on the member at (s : t) onto those at (s^|F| : t^|F|), so one
member per Frobenius orbit of P^1(K) is solved (``_orbit_walk``).

A plane section H n C is the conic H n Q cut by E, and one solver serves
hyperplane sections, a plane's rational points, the sweep and trisecants.
A smooth conic is parametrized through a K-point P0 by x(t) = Q(D)*P0 -
2*B(P0, D)*D, D = R1 + t*R2; the roots of the pulled-back sextic S(t), with
multiplicity, are the section's points with their intersection
multiplicities, the degree deficit of S the point at t = oo.  A line pair
is split into its two lines, a double line counts twice, and each line is
cut by E.  The rational points of a plane over a prime field whose conic
is smooth, the planes that ``sample_point`` draws, take the same steps on
residues (``_residue_zeros``); tangent planes and planes over extension
fields take them on field elements.

A g^1_3 is cut by the planes through a line of Q: each plane meets Q in
that line and a moving line, of the other ruling (of the same on a cone),
which cuts the member once the axis cuts the residual.  On the rulings'
parameters the moving line is linear in the pencil's parameter c, and the
cubic's discriminant on it is the pencil's branch form, of degree 12 in c
(``pencil_lines``, ``branch_discriminant``).

Binary forms and line parameters share one variable order, (u, v, s, t),
so a form in them is grouped by its (s, t)-monomial once and specialized
per line (``_by_st``, ``_specialize_pencil``).
"""

import random
from itertools import chain, combinations

from .algebra.fields import PrimeField, coerce, projective_points
from .algebra.linalg import MatrixExact
from .algebra.mpoly import mp_map_field, mp_substitute
from .algebra.poly import (
    Poly,
    binary_gcd,
    binary_roots,
    root_multiplicity,
    roots_in_field,
    roots_in_splitting_extension,
)
from .curves import INF, CurveError, HomForm, ProjectivePoint, ValidationInconclusive, gram_matrix
from .divisors import Divisor, pullback_x


class UnsupportedConfiguration(RuntimeError):
    """Curve model / dimension combination outside the supported ranges."""


# -- (L . C): the rational stage and the divisor ---------------------------

def meet_form(curve, rows, fld):
    """The rational stage of (L . C), L cut out by the independent hyperplane
    ``rows`` over fld: (basis of L, form, deg (L . C)), with no point found.
    form is the ``binary_gcd`` whose zeros are (L . C), pulled back from P^1
    when basis is None (hyperelliptic, where the degree doubles), and None on
    a genus-4 plane (degree 2g - 2) or at a plane quartic's point (degree 1
    if it lies on the curve)."""
    if not rows:
        raise UnsupportedConfiguration("W = P^(g-1) has no intersection divisor")
    if curve.model == "hyperelliptic":
        form = binary_gcd([(Poly(fld, row), curve.genus - 1) for row in rows])
        return None, form, 2 * form[1]
    basis = MatrixExact(fld, rows).kernel_basis()
    if len(basis) == 2:
        form = _line_form(curve, basis, fld)
        return basis, form, form[1]
    if (len(basis), curve.model) == (3, "canonical_g4"):
        return basis, None, 2 * curve.genus - 2
    if (len(basis), curve.model) == (1, "plane_quartic"):
        return basis, None, int(curve.contains(ProjectivePoint(fld, basis[0])))
    raise UnsupportedConfiguration(
        f"no intersection divisor for a {len(basis) - 1}-plane on the {curve.model} model")


def meet(curve, rows, fld, cap):
    """(L . C) from ``meet_form``: its form's zeros, pulled back along x or
    on the line; the conic H n Q cut by the cubic on a genus-4 plane; at a
    plane quartic's point, the point itself over fld, counted deg times."""
    basis, form, deg = meet_form(curve, rows, fld)
    if basis is None:
        _, zeros = binary_roots([form], cap)
        return pullback_x(curve, [(t if s else INF, m) for (s, t), m in zeros], field=fld)
    if form is not None:
        return Divisor(curve, line_cut(curve, basis, fld, cap, form), field=fld)
    if len(basis) == 3:
        conic, cubic = (f.restrict_plane(*basis, field=fld) for f in curve.forms)
        _, zeros = plane_section(conic, cubic, cap)
        return Divisor(curve, [(space_point(basis, x), m) for x, m in zeros], field=fld)
    return Divisor(curve, [(ProjectivePoint(fld, basis[0]), deg)], field=fld)


# -- lines and pencils of lines --------------------------------------------

def line_cut(curve, basis, fld, cap=None, form=None):
    """[(P, m)]: the zeros of a canonical curve on the line through basis[0]
    and basis[1] over fld, in ``binary_roots`` order, from the gcd of its
    forms there (``form``, when already taken): with ``cap``, all of them,
    over their splitting field; without, only the fld-rational ones."""
    K, zeros = binary_roots([form or _line_form(curve, basis, fld)], cap)
    if K != fld:
        basis = [[coerce(c, K) for c in b] for b in basis]
        zeros = [((coerce(s, K), coerce(t, K)), m) for (s, t), m in zeros]
    return [(ProjectivePoint(K, [u * a + v * b for a, b in zip(*basis)]), m)
            for (u, v), m in zeros]


def _line_form(curve, basis, fld):
    """The gcd of the curve's forms on the line through basis[0] and basis[1]."""
    forms = [(f.pullback(basis, fld), f.degree) for f in curve.forms]
    if not any(S for S, _ in forms):
        raise CurveError("line lies on the curve; impossible for a smooth model")
    return binary_gcd(forms)


def _line_points(K, images, form):
    """The points u*A(s, t) + v*B(s, t) of the images, keyed (u, v, s, t)
    over the field of ``form``, at the K-roots (u : v) of the pulled-back
    form, one line per Frobenius orbit."""
    F, d = form.field, form.degree
    pulled = _by_st(mp_map_field(mp_substitute(form.coeffs, images, F, 4), K))
    at = line_at(K, [mp_map_field(x, K) for x in images])

    def solve(s, t):
        c = _specialize_pencil(pulled, s, t)
        S = Poly(K, [c.get((d - j, j), K.zero) for j in range(d + 1)])
        if not S:
            raise CurveError("restriction vanished identically")
        A, B = at(s, t)
        return [[u * a + v * b for a, b in zip(A, B)] for (u, v), _ in binary_roots([(S, d)])[1]]
    return _orbit_walk(K, F, solve)


def _orbit_walk(K, F, solve):
    """The points on the members at every (s : t) of P^1(K) of a pencil over
    the subfield F of K, from ``solve(s, t)``'s coordinates: only the first
    (s : t) of each orbit of x -> x^|F|, which keeps a leading one, is
    solved, and its points' conjugates follow on kernel codes."""
    frob, seen, out = K.kernel.frob, set(), []
    for st in projective_points(K, 2):
        if K._encode(st) in seen:
            continue
        orbit = [K._encode(x) for x in (st, *solve(*st))]
        while orbit[0] not in seen:
            seen.add(orbit[0])
            out += orbit[1:]
            for _ in range(F.degree):
                orbit = [tuple([frob(c) for c in x]) for x in orbit]
    return [ProjectivePoint(K, K._decode(x)) for x in out]


def line_at(K, images):
    """(s, t) -> [A, B], the line u*A + v*B of images keyed (u, v, s, t)."""
    groups = [_by_st(x) for x in images]

    def at(s, t):
        xs = [_specialize_pencil(x, s, t) for x in groups]
        return [[x.get(key, K.zero) for x in xs] for key in ((1, 0), (0, 1))]
    return at


# -- point tables ----------------------------------------------------------

def points_over(curve, K):
    """Sorted distinct points of a canonical curve over its extension K, read
    on a pencil over a subfield, one member per Frobenius orbit: a plane
    quartic's lines through (0 : 0 : 1); a genus-4 curve's rulings over
    their field of definition when K contains it, else (Q not split, K of
    odd degree) the planes through x0 = x1 = 0."""
    if curve.model == "plane_quartic":
        F = curve.field
        pencil = [{(1, 0, 1, 0): F.one}, {(1, 0, 0, 1): F.one}, {(0, 1, 0, 0): F.one}]
        found = _line_points(K, pencil, curve.form)
    else:
        _, F, images = rulings(curve)
        found = _sweep_points(K, curve.quadric, curve.cubic) if K.degree % F.degree else \
            _line_points(K, images, curve.cubic.map_field(F))
    return sorted({P.coords: P for P in found}.values(), key=ProjectivePoint.sort_key)


def rulings(curve):
    """(kind, F, images): the type of the genus-4 curve's quadric, the field
    of definition F of its rulings (the curve's field, or F_(q^2) when Q
    does not split) and the rulings x(u, v, s, t) over F: the Segre map of a
    quadric split over F, or the lines through the vertex of a cone."""
    F, kind = curve.field, _quadric_type(curve.gram)
    if kind == "nonsplit":
        F = F.extension(2)
    gram = curve.gram.map_field(F)
    return kind, F, (_cone_images if kind == "cone" else _segre_images)(gram)


def _quadric_type(gram):
    """"cone" (rank 3), "split" or "nonsplit" (rank 4) over the field of
    the Gram matrix."""
    if gram.rank() == 3:
        return "cone"
    return "split" if gram.field.is_square(gram.det()) else "nonsplit"


# -- the Segre map and the cone --------------------------------------------

def _bil(gram, x, y):
    return sum((a * b for a, b in zip(x, gram.apply(y))), gram.field.zero)


def _isotropic(gram, basis):
    """A nonzero v in the span of ``basis`` with Q(v) = 0, or None.

    Each plane spanned by basis[0] and a combination y of the others holds
    an isotropic vector iff the binary form's discriminant
    B(x, y)^2 - Q(x) Q(y) is a square.  Planes through basis[0] cover the
    span, so a nondegenerate Q on a span of dimension >= 3 (always isotropic
    over a finite field) is found.  A plane is decided by one y, whose
    discriminant and Q(y) are those of every multiple of y up to a square:
    the walk takes one tuple per line (``_directions``), lazily, and leaves
    a large field after a few.
    """
    K = gram.field
    for b in basis:
        if not _bil(gram, b, b):
            return b
    x, rest = basis[0], basis[1:]
    qx = _bil(gram, x, x)
    for cs in _directions(K, len(rest)):
        y = [sum((c * r[i] for c, r in zip(cs, rest)), K.zero) for i in range(len(x))]
        qy, bxy = _bil(gram, y, y), _bil(gram, x, y)
        if not qy:
            return y
        r = K.sqrt(bxy * bxy - qx * qy)
        if r is not None:   # Q(qy*x + (r - bxy)*y) = 0
            return [qy * a + (r - bxy) * b for a, b in zip(x, y)]
    return None


def _directions(K, n):
    """The tuples of itertools.product(K.elements(), repeat=n) whose first
    nonzero entry is one, in that order: as elements() begins 0, 1, each is
    the first tuple of its line in product order."""
    for lead in reversed(range(n)):
        yield from ((K.zero,) * lead + (K.one,) + tail for tail in _product(K, n - 1 - lead))


def _product(K, n):
    """itertools.product(K.elements(), repeat=n), without listing the
    elements."""
    return ((c,) + cs for c in K.elements() for cs in _product(K, n - 1)) if n else iter([()])


def _partner(gram, v, basis):
    """An isotropic w in the span of ``basis`` with B(v, w) = 1; v isotropic."""
    K = gram.field
    z = next(b for b in basis if _bil(gram, v, b))
    z = [c / _bil(gram, v, z) for c in z]
    lam = _bil(gram, z, z) / K.elem(2)
    return [a - lam * b for a, b in zip(z, v)]


def _segre_images(gram):
    """x = M.(su, sv, tu, tv) as forms in (u, v, s, t) over the field of
    ``gram``, where it splits, with M a hyperbolic basis: isotropic v1, v2
    spanning a line of Q, w1, w2 dual to them."""
    K = gram.field
    unit = MatrixExact.identity(K, 4).rows
    v1 = _isotropic(gram, unit)
    w1 = _partner(gram, v1, unit)
    perp = MatrixExact(K, [gram.apply(v1), gram.apply(w1)]).kernel_basis()
    v2 = _isotropic(gram, perp)
    assert v2 is not None, "a split quadric has an isotropic vector in H^perp"
    w2 = _partner(gram, v2, perp)
    half = K.one / K.elem(2)
    cols = [v1, v2, [-half * c for c in w2], [half * c for c in w1]]
    keys = [(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]
    return [{k: col[i] for k, col in zip(keys, cols) if col[i]} for i in range(4)]


def _cone_images(gram):
    """x = u*phi(s, t) + v*V as forms in (u, v, s, t) over the field of
    ``gram``: V the vertex, phi the base conic parametrized through one of
    its points P0 by the second intersection Q(D)*P0 - 2*B(P0, D)*D of the
    line from P0 towards D = s*R1 + t*R2."""
    K = gram.field
    V = gram.kernel_basis()[0]
    j = next(i for i, c in enumerate(V) if c)
    comp = [r for i, r in enumerate(MatrixExact.identity(K, 4).rows) if i != j]
    P0 = _isotropic(gram, comp)
    R1, R2 = next(pair for pair in combinations(comp, 2)
                  if MatrixExact(K, [V, P0, *pair]).rank() == 4)
    keys = [(1, 0, 2, 0), (1, 0, 1, 1), (1, 0, 0, 2), (0, 1, 0, 0)]
    return [{k: c for k, c in zip(keys, cs) if c}
            for cs in zip(*_conic_param(gram, P0, R1, R2), V)]


# -- a g^1_3: the lines of a pencil of planes through a line of Q ------------

def pencil_lines(curve, K, planes):
    """(axis, x(u, v, c0, c1)) for the pencil of planes ``planes`` = (h0, h1)
    over K: its axis, a line of Q, as two points spanning it, and the line
    that the plane c0*h0 + c1*h1 cuts on Q besides the axis; None when K
    does not hold the rulings' field or the axis is no line of Q.

    On the rulings' parameters x(u, v, s, t) the planes pull back to f_c =
    l*g_c, with l the axis and g_c = c0*g0 + c1*g1 the moving line.  When it
    has fixed (s : t), (g0, g1) is the kernel of (g0, g1) -> f0*g1 - f1*g0
    on linear forms in (s, t), and the line of c is x at the zero mu(c) of
    g_c; when it has fixed (u : v) that kernel is zero: the rulings swap.
    """
    _, F, images = rulings(curve)
    if K.degree % F.degree:
        return None
    images = [mp_map_field(x, K) for x in images]
    units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    for ims in (images, [{k[2:] + k[:2]: c for k, c in im.items()} for im in images]):
        f0, f1 = (mp_substitute(dict(zip(units, h)), ims, K, 4) for h in planes)
        # the columns f0*s, f0*t, -f1*s, -f1*t of (x1, y1, x0, y0), for the
        # forms g_i = x_i*s + y_i*t
        cols = [{(a, b, c + 1 - j, d + j): w * e for (a, b, c, d), w in f.items()}
                for f, e in ((f0, 1), (f1, -1)) for j in (0, 1)]
        rows = [[col.get(k, K.zero) for col in cols] for k in sorted(set().union(*cols))]
        ker = MatrixExact(K, rows).kernel_basis()
        if len(ker) == 1:
            x1, y1, x0, y0 = ker[0]
            mu = [{units[2]: y0, units[3]: y1}, {units[2]: -x0, units[3]: -x1}]
            return MatrixExact(K, planes).kernel_basis(), \
                [mp_substitute(im, [{units[0]: K.one}, {units[1]: K.one}, *mu], K, 4) for im in ims]
    return None


def branch_discriminant(cubic, lines):
    """The discriminant b^2c^2 - 4ac^3 - 4b^3d - 27a^2d^2 + 18abcd of the
    binary cubic a*u^3 + b*u^2*v + c*u*v^2 + d*v^3 that the cubic pulls back
    to on ``pencil_lines``: a form of degree 12 in (c0 : c1) (a, b, c, d of
    degrees 3, 3, 3, 3, or 6, 4, 2, 0 on a cone) as a Poly in c1 at c0 = 1,
    vanishing at the members with a repeated point."""
    K = cubic.field
    coeffs = [[K.zero] * 7 for _ in range(4)]
    for (_, ev, _, e1), w in mp_substitute(cubic.coeffs, lines, K, 4).items():
        coeffs[ev][e1] = coeffs[ev][e1] + w
    a, b, c, d = (Poly(K, cs) for cs in coeffs)
    return b * b * c * c - a * c * c * c * 4 - b * b * b * d * 4 - a * a * d * d * 27 + \
        a * b * c * d * 18


# -- plane sections: the conic H n Q cut by the cubic ------------------------

def plane_section(conic, cubic, cap):
    """(L, [(x, m)]): the common zeros x of a ternary conic and cubic over K,
    in plane coordinates over L, with their intersection multiplicities m.

    L is the splitting field of the whole section, reached from K by one
    embedding; beyond degree ``cap`` it raises ExtensionCapError.
    """
    K = conic.field
    F, comps = _components(conic, cap)
    L, zeros = _cut(cubic if F == K else cubic.map_field(F), comps, cap)
    if F != K:
        # conjugate lines: solve again in L, with K embedded in L directly
        return plane_section(conic.map_field(L), cubic.map_field(L), cap)
    return L, zeros


def plane_rational_zeros(conic, cubic):
    """The distinct K-rational common zeros of a ternary conic and cubic over
    K, as normalized plane coordinates."""
    K = conic.field
    F, comps = _components(conic, 2 * K.degree)
    if F != K:   # conjugate lines: their vertex is the one rational point
        V = gram_matrix(K, conic).kernel_basis()[0]
        return [] if cubic(V) else [ProjectivePoint(K, V).coords]
    _, zeros = _cut(cubic, comps)
    return list(dict.fromkeys(ProjectivePoint(K, x).coords for x, _ in zeros))


def space_point(basis, x):
    """The point sum_j x[j]*basis[j] of P^3, in the field of x."""
    L = x[0].field
    return ProjectivePoint(L, [sum((c * coerce(b[i], L) for c, b in zip(x, basis)), L.zero)
                               for i in range(len(basis[0]))])


def trisecants_through(curve, P, cap=12):
    """The degree-3 members through a point of the genus-4 model: cut by the
    lines of the quadric through P, the components of the conic that the
    tangent plane of the quadric at P cuts (``_components``: a line pair, or
    on a cone the double line through the vertex, taken once), each by
    ``_cut`` over the splitting field of its own points."""
    if curve.model != "canonical_g4":
        raise UnsupportedConfiguration("trisecants live on the genus-4 model")
    fld = P.field
    normal = curve.gram.map_field(fld).apply(P.coords)   # half the gradient
    if not any(normal):
        raise CurveError("singular quadric point")
    basis = MatrixExact(fld, [normal]).kernel_basis()
    K, comps = _components(curve.quadric.restrict_plane(*basis, field=fld), cap)
    basis = [[coerce(c, K) for c in v] for v in basis]
    cubic = curve.cubic.restrict_plane(*basis, field=K)
    return [Divisor(curve, [(space_point(basis, x), m) for x, m in _cut(cubic, [(A, 1)], cap)[1]],
                    field=K) for A, _ in comps]


def _components(conic, cap):
    """(F, [(A, m)]): the conic as the images of P^1 under t -> sum_j A[j] t^j
    (t = oo giving A[-1]) over F, each counted m times.  A smooth conic is
    parametrized through one of its K-points, a line pair is split over the
    field F of its lines (``_conic_lines``), and a double line counts twice."""
    K = conic.field
    gram = gram_matrix(K, conic)
    rank = gram.rank()
    if rank == 3:
        P0 = _isotropic(gram, MatrixExact.identity(K, 3).rows)
        return K, [(_conic_param(gram, P0, *_complement(P0)), 1)]
    if rank == 1:
        return K, [(gram.kernel_basis(), 2)]
    F, V, dirs = _conic_lines(gram, cap)
    return F, [([V, d], 1) for d in dirs]


def _conic_lines(gram, cap):
    """(F, V, dirs): the lines of a rank-2 conic run from its vertex V
    towards c1 + r*c2 for the roots r of Q(c1 + r*c2), in root order, and
    towards c2 when that quadratic drops degree; c1, c2 are the unit
    vectors of ``_complement(V)`` and F is the splitting field of the
    quadratic.  ``find_g13`` takes the first rational trisecant, so this
    basis and this order decide which pencil it returns."""
    K = gram.field
    V = gram.kernel_basis()[0]
    c1, c2 = _complement(V)
    bq = Poly(K, [_bil(gram, c1, c1), K.elem(2) * _bil(gram, c1, c2), _bil(gram, c2, c2)])
    F, roots = roots_in_splitting_extension(bq, cap)
    V, c1, c2 = ([coerce(c, F) for c in v] for v in (V, c1, c2))
    dirs = [[a + r * b for a, b in zip(c1, c2)] for r, _ in roots]
    if bq.degree < 2:
        dirs.append(c2)
    return F, V, dirs


def _complement(v):
    """The unit vectors other than the one at v's last nonzero coordinate."""
    K = v[0].field
    j = max(i for i, c in enumerate(v) if c)
    return [row for i, row in enumerate(MatrixExact.identity(K, len(v)).rows) if i != j]


def _conic_param(gram, P0, R1, R2):
    """[A0, A1, A2] with Q(D)*P0 - 2*B(P0, D)*D = A0 + A1*t + A2*t^2 for
    D = R1 + t*R2: the second intersection of the conic with the line from
    its point P0 towards D, a bijection from P^1 when P0, R1, R2 are a
    basis."""
    two = gram.field.elem(2)
    b1, b2 = _bil(gram, P0, R1), _bil(gram, P0, R2)
    q11, q12, q22 = _bil(gram, R1, R1), _bil(gram, R1, R2), _bil(gram, R2, R2)
    return [[q11 * p - two * b1 * r1 for p, r1 in zip(P0, R1)],
            [two * (q12 * p - b1 * r2 - b2 * r1) for p, r1, r2 in zip(P0, R1, R2)],
            [q22 * p - two * b2 * r2 for p, r2 in zip(P0, R2)]]


def _cut(form, comps, cap=None):
    """(L, [(x, m)]): the zeros of the form on the components (A, m) of
    ``_components``, with multiplicities, over the splitting field L of all
    of them; with no cap, only the rational ones (L = K).  A component on
    which the form vanishes raises CurveError."""
    K = form.field
    pulled = [(A, m, form.pullback(A)) for A, m in comps]
    if not all(S for *_, S in pulled):
        raise CurveError("a component lies on the form")
    prod = pulled[0][2]
    for *_, S in pulled[1:]:
        prod = prod * S
    L, roots = (K, roots_in_field(prod)) if cap is None else \
        roots_in_splitting_extension(prod, cap)
    out = []
    for A, m, S in pulled:
        if L != K:
            A, S = [[coerce(c, L) for c in a] for a in A], S.map_field(L)
        for r, k in roots:
            k = k if len(pulled) == 1 else root_multiplicity(S, r)
            if k:
                out.append((_at(A, r), k * m))
        top = form.degree * (len(A) - 1)
        if S.degree < top:
            out.append((A[-1], (top - S.degree) * m))
    return L, out


def _at(A, r):
    """sum_j A[j] r^j."""
    out = A[-1]
    for a in reversed(A[:-1]):
        out = [x * r + y for x, y in zip(out, a)]
    return out


# -- the rational points of a plane (sample_point) ---------------------------

def plane_rational_points(curve, h):
    """The rational points of the genus-4 curve on the plane h . x = 0.

    ``sample_point`` indexes this list with its rng, so the order decides
    which point a seeded run draws, and seeded reports (the pinned bench
    digests among them) keep their bytes only while it stays fixed: in the
    coordinates y = M^-1 x of the first shear M of ``_shears`` whose last
    column is off the restricted conic and cubic, the points with y0 != 0
    come first, by (y1/y0, y2/y0), then the others, by y2/y1.

    Over a prime field a smooth conic H n Q is solved on residues
    (``_residue_zeros``); a tangent plane's line pair or double line, and
    every plane over an extension field, go through ``plane_rational_zeros``
    on the restricted forms.  Both give the same zeros.
    """
    F = curve.field
    basis = _plane_basis(curve, h)
    if basis is None:
        raise ValidationInconclusive("no usable basis for the plane")
    zeros = _residue_zeros(curve, basis) if isinstance(F, PrimeField) else None
    if zeros is None:
        zeros = plane_rational_zeros(*(f.restrict_plane(*basis) for f in curve.forms))
    if len(zeros) > 1:
        # conic(col) and cubic(col) are the forms at B.col in space
        for col, inv in _shears(F):
            x = [sum((c * b[i] for c, b in zip(col, basis)), F.zero) for i in range(4)]
            if all(f(x) for f in curve.forms):
                break
        else:
            raise ValidationInconclusive("no shear orders the plane's points")

        def key(x):
            y = ProjectivePoint(F, [sum((a * b for a, b in zip(row, x)), F.zero)
                                    for row in inv])
            return (not y.coords[0], y.sort_key())

        zeros.sort(key=key)
    return [space_point(basis, x) for x in zeros]


def _plane_basis(curve, h):
    """Basis of the plane h . x = 0 with the last vector off the curve.

    b0, b1, b2 are the kernel basis of h, one vector per free coordinate as
    in its RREF; the last vector is the first of b2, b0, b1, b2 + b0,
    b2 + b1 and b0 + b1 + b2 off the curve, after the first pair of the b_i
    that it completes to a basis.  The basis fixes the coordinates that
    order the points."""
    F = curve.field
    if not any(h):
        return None
    j = next(i for i, c in enumerate(h) if c)
    inv = -F.one / h[j]
    b0, b1, b2 = (tuple(F.one if i == f else h[f] * inv if i == j else F.zero
                        for i in range(4)) for f in range(4) if f != j)
    for vs, pair in (((b2,), (b0, b1)), ((b0,), (b1, b2)), ((b1,), (b0, b2)),
                     ((b2, b0), (b0, b1)), ((b2, b1), (b0, b1)), ((b0, b1, b2), (b0, b1))):
        cand = tuple(sum(cs[1:], cs[0]) for cs in zip(*vs))
        if curve.quadric(cand) or curve.cubic(cand):
            return (*pair, cand)
    return None


_SHEAR_CACHE = {}


def _shears(field):
    """Deterministic sequence of invertible 3x3 coordinate changes M, the
    identity first, as (last column of M, rows of M^-1); cached per field.
    The first that suits a plane orders its rational points."""
    if field not in _SHEAR_CACHE:
        unit = MatrixExact.identity(field, 3).rows
        out = [([r[2] for r in unit], unit)]
        rng = random.Random(0xC0FFEE + 3)
        while len(out) < 15:
            m = [[field.elem(rng.randrange(0, 7)) for _ in range(3)] for _ in range(3)]
            R, pivots = MatrixExact(field, [r + list(u) for r, u in zip(m, unit)]).rref()
            if pivots[:3] == (0, 1, 2):   # M is invertible and R = [I | M^-1]
                out.append(([r[2] for r in m], [r[3:] for r in R.rows]))
        _SHEAR_CACHE[field] = out
    return _SHEAR_CACHE[field]


def _residue_zeros(curve, basis):
    """``plane_rational_zeros`` of the conic and cubic restricted to the
    plane of ``basis`` over F_p, computed on residues, when the conic is
    smooth; None when it is not.

    The steps are those of the element path: the conic's Gram matrix is
    B^T.G.B for the quadric's G and the plane basis B; its point comes from
    ``_isotropic``'s walk (e2, then e1 + c*e2, with the same square root);
    the parametrization is ``_conic_param``'s; and the cubic is pulled back
    along B.A(t) straight into kernel codes.
    """
    F = curve.field
    p, kern = F.p, F.kernel
    G = [[c.value for c in row] for row in curve.gram.rows]
    B = [[c.value for c in b] for b in basis]
    GB = [[sum(r * x for r, x in zip(row, b)) for row in G] for b in B]
    g = [[sum(x * y for x, y in zip(a, gb)) % p for gb in GB] for a in B]
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = g
    if not (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
            + g02 * (g01 * g12 - g11 * g02)) % p:
        return None   # a line pair or a double line

    def bil(x, y):
        return sum(a * g[i][j] * b for i, a in enumerate(x) if a
                   for j, b in enumerate(y) if b) % p

    P0 = next(([int(i == j) for i in range(3)] for j in range(3) if not g[j][j]), None)
    walk = () if P0 else chain([(0, 0, 1)], ((0, 1, c) for c in range(p)))
    for y in walk:   # _isotropic's: e2, then e1 + c*e2
        qy, bxy = bil(y, y), bil((1, 0, 0), y)
        if not qy:
            P0 = list(y)
            break
        r = F.sqrt(F.elem(bxy * bxy - g00 * qy))
        if r is not None:   # Q(qy*e0 + (r - bxy)*y) = 0
            P0 = [qy] + [(r.value - bxy) * c % p for c in y[1:]]
            break
    j = max(i for i in range(3) if P0[i])
    R1, R2 = ([int(i == k) for i in range(3)] for k in range(3) if k != j)
    b1, b2 = bil(P0, R1), bil(P0, R2)
    q11, q12, q22 = bil(R1, R1), bil(R1, R2), bil(R2, R2)
    A = [[(q11 * a - 2 * b1 * r1) % p for a, r1 in zip(P0, R1)],
         [2 * (q12 * a - b1 * r2 - b2 * r1) % p for a, r1, r2 in zip(P0, R1, R2)],
         [(q22 * a - 2 * b2 * r2) % p for a, r2 in zip(P0, R2)]]
    xs = [kern.strip([sum(a * b[i] for a, b in zip(Ak, B)) % p for Ak in A]) for i in range(4)]
    pw = [[(1,), x] for x in xs]
    S = ()
    for e, c in curve.cubic.coeffs.items():
        term = (c.value,)
        for i, k in enumerate(e):
            if k:
                while len(pw[i]) <= k:
                    pw[i].append(kern.mul(pw[i][-1], xs[i]))
                term = kern.mul(term, pw[i][k])
        S = kern.add(S, term)
    if not S:
        raise CurveError("a component lies on the form")
    pts = [[(a + r * (b + r * c)) % p for a, b, c in zip(*A)]
           for r in (r.value for r, _ in roots_in_field(Poly._from_code(F, S)))]
    if len(S) < 7:   # the point at t = oo
        pts.append(A[2])
    out = []
    for x in pts:
        inv = pow(next(v for v in x if v), -1, p)
        out.append(tuple(v * inv % p for v in x))
    return [F._decode(x) for x in dict.fromkeys(out)]


# -- the pencil-of-planes sweep (non-split quadrics) ------------------------

def _sweep_points(K, quad, cub):
    """Every point of C(K) lies on a plane s*x0 + t*x1 = 0 through the axis
    x0 = x1 = 0.  The quadric and the cubic are restricted once, over their
    field, to the generic plane (x0 = t*a, x1 = -s*a, x2 = b, x3 = c), and
    one plane per Frobenius orbit (``_orbit_walk``) solves its conic and
    cubic."""
    F = quad.field
    images = [{(1, 0, 0, 0, 1): F.one}, {(1, 0, 0, 1, 0): -F.one},
              {(0, 1, 0, 0, 0): F.one}, {(0, 0, 1, 0, 0): F.one}]
    pencil = [_by_st(mp_map_field(mp_substitute(f.coeffs, images, F, 5), K))
              for f in (quad, cub)]

    def solve(s, t):
        forms = (HomForm(K, 3, d, _specialize_pencil(f, s, t)) for f, d in zip(pencil, (2, 3)))
        return [[a * t, -a * s, b, c] for a, b, c in plane_rational_zeros(*forms)]
    return _orbit_walk(K, F, solve)


# -- shared -----------------------------------------------------------------

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
