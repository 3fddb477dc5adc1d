"""Complete linear systems, the span map on their members, and duals.

A complete system |D| of a special divisor D is stored as a residual
divisor F (with D + F a hyperplane section) together with the canonical
basis h_0, ..., h_r of hyperplanes through span(F); the member with
parameter c in P^r is phi^*(sum c_i h_i) - F.  The member-to-span map
beta(F) = span(F) restricts to complete systems; reconstruct_system walks
it backwards from Grassmannian samples using intersection divisors.

Non-reduced members correspond to parameter hyperplanes tangent (through
the associated morphism phi_L) to the image curve; dual_samples harvests
them together with contact-order certificates.  For pencils on
hyperelliptic curves and for the g^1_3's of the genus-4 model the full
branch binary form is available, giving the total dual count with
multiplicity: a g^1_3's members are cut by the lines of one ruling of the
quadric Q, or by the lines through the vertex of a cone (``sections``), and
its branch form is the discriminant of the cubic on those lines.  It is
checked at the pencil's axis: the lines cut every member iff it cuts F.
"""

import random
from itertools import combinations, product

from .algebra.fields import FieldError, coerce, common_field, projective_points
from .algebra.linalg import MatrixExact
from .algebra.poly import ExtensionCapError, conjugate_roots, splitting_field
from .curves import INF, CurveError
from .divisors import Divisor, gcd_div, pullback_x, x_fibers
from .gauss import intersection_divisor
from .sections import (
    UnsupportedConfiguration,
    branch_discriminant,
    line_cut,
    pencil_lines,
    trisecants_through,
)
from .spans import (
    NotSpecialError,
    ell,
    hyperplane_conditions,
    hyperplane_section,
    residual,
    span,
)

# a parameter space P^r(F_q) is swept point by point only when q^r is at most this
SWEEP_LIMIT = 10 ** 6


class MemberError(ValueError):
    """A divisor claimed to belong to a system does not."""


class InequivalentSamplesError(ValueError):
    """Reconstruction inputs come from distinct linear systems."""


class CompleteSystem:
    """|D| presented by a residual divisor and a hyperplane basis."""

    __slots__ = ("curve", "field", "degree", "r", "F", "basis", "cap", "_base_locus")

    def __init__(self, curve, field, degree, F, basis, cap=12):
        self.curve = curve
        self.field = field
        self.degree = degree
        self.F = F
        self.basis = tuple(tuple(row) for row in basis)
        self.r = len(self.basis) - 1
        self.cap = cap
        self._base_locus = None

    def member(self, c):
        """The member divisor with parameter c in P^r."""
        fld = self.field
        for ci in c:
            if hasattr(ci, "field"):
                fld = common_field(fld, ci.field)
        cs = [coerce(ci, fld) for ci in c]
        if not any(cs):
            raise ValueError("zero parameter")
        h = [sum((ci * coerce(v, fld) for ci, v in zip(cs, col)), fld.zero)
             for col in zip(*self.basis)]
        return hyperplane_section(self.curve, h, field=fld, cap=self.cap) - self.F

    def base_locus(self):
        """gcd of the members (a basis suffices)."""
        if self._base_locus is None:
            B = None
            for i in range(self.r + 1):
                E = self.member([int(i == j) for j in range(self.r + 1)])
                B = E if B is None else gcd_div(B, E)
            self._base_locus = B
        return self._base_locus

    def member_parameter(self, E):
        """Parameter of a member, normalized; raises MemberError otherwise."""
        if E.degree != self.degree:
            raise MemberError("degree mismatch")
        total = E + self.F
        M = hyperplane_conditions(total)
        fld = M.field if M.nrows else self.field
        fld = common_field(fld, self.field)
        B = MatrixExact(fld, [[coerce(v, fld) for v in row] for row in self.basis])
        rows = [B.apply(row) for row in M.map_field(fld).rows] if M.nrows else []
        sol = MatrixExact(fld, rows).kernel_basis() if rows else \
            MatrixExact.identity(fld, self.r + 1).rows
        if len(sol) != 1:
            raise MemberError("parameter is not unique; not a member")
        c = sol[0]
        if self.member(c) != E:
            raise MemberError("hyperplane section does not reproduce the divisor")
        lead = next(v for v in c if v)
        return tuple(v / lead for v in c)

    def contains(self, E):
        """Is E linearly equivalent to the members, i.e. is E + F a
        hyperplane section?"""
        return (E.degree == self.degree
                and hyperplane_conditions(E + self.F).rank() < self.curve.genus)

    def rational_parameters(self):
        """All of P^r over the base field; raises UnsupportedConfiguration
        when q^r exceeds SWEEP_LIMIT."""
        fld = self.curve.field
        count = fld.order ** self.r
        if count > SWEEP_LIMIT:
            raise UnsupportedConfiguration(
                f"rational sweep of size ~{count} exceeds limit {SWEEP_LIMIT}")
        yield from projective_points(fld, self.r + 1)

    def members_rational(self):
        for c in self.rational_parameters():
            yield c, self.member(c)

    def __repr__(self):
        return (f"CompleteSystem(degree={self.degree}, r={self.r}, "
                f"deg F={self.F.degree})")

    def to_json(self):
        fld = self.field
        return {
            "degree": self.degree,
            "dim": self.r,
            "residual": self.F.to_json(),
            "basis": [[fld.to_json(c) for c in row] for row in self.basis],
            "base_locus": self.base_locus().to_json(),
        }


def complete_system(D, cap=12):
    """The complete linear system |D| of a special effective divisor."""
    sp = span(D)
    if sp.s < 1:
        raise NotSpecialError("complete_system requires a special divisor")
    F = residual(D, cap=cap)
    spF = span(F)
    basis = spF.hyperplanes.rows
    L = CompleteSystem(D.curve, spF.field, D.degree, F, basis, cap=cap)
    r_expected = ell(D) - 1
    assert L.r == r_expected, f"system dimension {L.r} != ell - 1 = {r_expected}"
    return L


def beta(F):
    """The span of a member of a complete special system."""
    sp = span(F)
    if F.degree - sp.dim < 2:   # ell(F) < 2
        raise ValueError("beta expects a member of a positive-dimensional system")
    return sp


def classify_member(L, E):
    """Flags for a member: reduced (away from the base locus) and, on
    hyperelliptic models, membership in the conjugate-choice set."""
    L.member_parameter(E)  # raises MemberError when E is not in L
    B = L.base_locus()
    core = E - B
    flags = {"reduced": core.is_reduced(), "nc": None}
    if L.curve.model == "hyperelliptic":
        flags["nc"] = _nc_status(L, E, B)
    return flags


def _nc_status(L, E, B):
    """Existence of pairwise-non-conjugate representatives, checked over all
    per-fiber choices."""
    curve = L.curve
    G = E - B
    b_support = {P.coerce(G.field) if P.field != G.field else P for P, _ in B.items}
    classes = []
    for t0, kind, group in x_fibers(curve, G):
        if kind == "branch":
            (W, m), = group
            assert m % 2 == 0, "pullback part must pair up at branch points"
            classes.append([(W,)] if m == 2 else ([] if m > 2 else [()]))
            if m > 2:
                return False  # two representatives both equal to the fixed point
        else:
            (P1, a), (P2, b) = group
            assert a == b, "pullback part must be conjugation-symmetric"
            classes.append([(P1,), (P2,)])
    for choice in product(*classes):
        pool = [q for tup in choice for q in tup] + list(b_support)
        if not any(curve.involution(u.coerce(G.field)) == v.coerce(G.field)
                   for u, v in combinations(pool, 2)):
            return True
    return False


def phi_L(L, P, order_hint=None):
    """Evaluate the morphism attached to L at a curve point: the projective
    tuple (h_0 : ... : h_r) along phi, with the common residual part
    cancelled by series stripping."""
    vals, v = _phi_series(L, P, order_hint)
    out = tuple(s.coefficient(v) for s in vals)
    fld = vals[0].field
    lead = next((c for c in out if c), None)
    assert lead is not None
    inv = fld.one / lead
    return tuple(c * inv for c in out)


def _phi_series(L, P, order_hint=None):
    """Series of the r+1 coordinate forms of phi_L along a local
    parametrization at P, plus their minimal valuation."""
    curve = L.curve
    order = order_hint or (L.F.degree + L.base_locus().degree + 4)
    while True:
        series = curve.canonical_series(P, order)
        vals = [_combination(row, series) for row in L.basis]
        vs = [s.valuation() for s in vals]
        known = [v for v in vs if v is not None]
        if known and (min(known) < order - 1 or all(v is not None for v in vs)):
            v = min(known)
            if all(v2 is None or v2 >= v for v2 in vs):
                return vals, v
        order *= 2
        if order > 512:
            raise ArithmeticError("phi_L series did not stabilize")


def _combination(cs, series):
    """sum_i cs[i] * series[i], the cs coerced to the series' field."""
    fld = series[0].field
    acc = series[0] * 0
    for c, s in zip(cs, series):
        acc = acc + s * coerce(c, fld)
    return acc


def contact_order(L, c, P):
    """Contact order of the parameter hyperplane c with phi_L(C) at phi_L(P)."""
    vals, v = _phi_series(L, P, order_hint=L.F.degree + L.base_locus().degree + 8)
    acc = _combination(c, vals)
    w = acc.valuation()
    if w is None:
        return acc.prec - v
    return w - v


class DualSample:
    """A tangent parameter hyperplane with its contact certificate."""

    __slots__ = ("parameter", "point", "order", "member")

    def __init__(self, parameter, point, order, member):
        self.parameter = parameter
        self.point = point
        self.order = order
        self.member = member

    def __repr__(self):
        return f"DualSample(order={self.order}, at={self.point!r})"

    def to_json(self):
        def enc(c):
            return c.field.to_json(c) if hasattr(c, "field") else c
        return {
            "parameter": [enc(c) for c in self.parameter],
            "contact_order": self.order,
            "member": self.member.to_json(),
        }


def dual_samples(L, cap=12):
    """Non-reduced members of L as dual-hypersurface points.

    Each sample carries the unique parameter hyperplane, a repeated point of
    the member, and the verified contact order (>= 2) of the hyperplane with
    the image curve at that point (``certify_dual``).  Pencils use the roots
    of their branch form when it exists and its roots fit the cap; otherwise
    P^r(F_q) is swept when q^r <= SWEEP_LIMIT, and any other system raises
    UnsupportedConfiguration.
    """
    try:
        roots = dual_branch_form(L).roots(cap=cap)
    except (UnsupportedConfiguration, ExtensionCapError):
        # no branch form, or roots beyond the cap: sweep instead
        params = L.rational_parameters()
    else:
        params = filter(None, (_branch_parameter(L, st) for st, _ in roots))
    out = []
    for c in params:
        try:
            sample = certify_dual(L, c)
        except (ArithmeticError, FieldError):
            # the member's local series did not stabilize, or its points and
            # the parameter share no field: no certificate for this parameter
            continue
        if sample is not None:
            assert sample.order >= 2, "contact certificate failed"
            out.append(sample)
    return out


def _branch_parameter(L, st):
    """Translate a branch-form root into a system parameter."""
    curve = L.curve
    s, t = st
    if curve.model == "hyperelliptic":
        # branch roots are x-values: the member is the pulled-back fiber
        # (plus base locus); find its parameter
        if not s:
            p1 = [(INF, 1)]
        else:
            p1 = [(t / s, 1)]
        E = pullback_x(curve, p1, field=t.field if hasattr(t, "field") else None)
        E = E + L.base_locus()
        try:
            return L.member_parameter(E)
        except MemberError:
            return None
    return (s, t)


def certify_dual(L, c):
    """The DualSample of parameter c: its member, the first point of
    multiplicity >= 2 off the base locus and the contact order there; None
    when the member is reduced off the base locus, or when it or its local
    series needs a splitting field beyond the cap.  The order is returned,
    not checked."""
    try:
        E = L.member(c)
        P = next((P for P, m in (E - L.base_locus()).items if m >= 2), None)
        return None if P is None else DualSample(tuple(c), P, contact_order(L, c, P), E)
    except ExtensionCapError:
        return None


class BranchForm:
    """Binary form on a pencil's parameter line whose roots (with
    multiplicity) are the non-reduced members."""

    __slots__ = ("field", "poly", "formal_degree")

    def __init__(self, field, poly, formal_degree):
        self.field = field
        self.poly = poly
        self.formal_degree = formal_degree

    def orbits(self, cap=12):
        """(roots, orbits): ``roots``, and per Galois orbit of zeros (m, zero,
        positions in roots).  The affine orbits are the irreducible factors f
        of the form in ``factor_finite`` order, each with its multiplicity and
        its first root over its own field F_(q^(b deg f)); (0 : 1) is last."""
        base, form = self.field, self.poly
        K, factors = splitting_field(form, cap) if form.degree else (base, [])
        conj = [conjugate_roots(f, K) for f, _ in factors]
        found = sorted((K.sort_key(r), r, i) for i, rs in enumerate(conj) for r in rs)
        roots = [((K.one, r), factors[i][1]) for _, r, i in found]
        orbits = []
        for i, (f, m) in enumerate(factors):
            F = base.extension(f.degree)
            r = conj[i][0] if F == K else conjugate_roots(f, F)[0]
            orbits.append((m, (F.one, r), [j for j, (*_, k) in enumerate(found) if k == i]))
        if self.formal_degree > form.degree:
            roots.append(((base.zero, base.one), self.formal_degree - form.degree))
            orbits.append((roots[-1][1], roots[-1][0], [len(roots) - 1]))
        return roots, orbits

    def roots(self, cap=12):
        """[((s, t), multiplicity)]: the affine zeros by key, then (0 : 1)."""
        return self.orbits(cap)[0]


def dual_branch_form(L):
    """The full branch form of a pencil (r = 1).

    Supported cases: hyperelliptic pencils pulled back from P^1 (members are
    g^1_2 translates: the branch form is the ramification form of the double
    cover, degree 2g+2) and the g^1_3's of the genus-4 model, cones
    included, over the pencil's field: the discriminant of the cubic on the
    ruling lines that cut the members (degree 12 by Riemann-Hurwitz).
    """
    if L.r != 1:
        raise UnsupportedConfiguration("branch forms are defined for pencils")
    curve = L.curve
    if curve.model == "hyperelliptic":
        return BranchForm(curve.field, curve.f.monic(), 2 * curve.genus + 2)
    if curve.model != "canonical_g4":
        raise UnsupportedConfiguration(f"no branch form for model {curve.model}")
    fld = L.field
    if L.base_locus().degree != 0:
        raise UnsupportedConfiguration("branch form needs a base-point-free pencil")
    found = pencil_lines(curve, fld, L.basis)
    if found is None:
        raise UnsupportedConfiguration("the pencil is cut by no ruling of Q over its field")
    axis, lines = found   # member(c) = (axis . C) + (line of c . C) - F
    if Divisor(curve, line_cut(curve, axis, fld, L.cap), field=fld) != L.F:
        raise UnsupportedConfiguration("the pencil's axis does not cut its residual")
    disc = branch_discriminant(curve.cubic.map_field(fld), lines)
    if disc.is_zero():
        raise UnsupportedConfiguration("degenerate discriminant")
    return BranchForm(fld, disc, 12)


def reconstruct_system(W_samples, n=None, k=None, cap=12):
    """Recover a complete system from Grassmannian samples via (W . C).

    All samples must cut intersection divisors of one linear-equivalence
    class; returns (system, members) with members[i] = (W_i . C) and the
    round trip beta(members[i]) = W_i verified.
    """
    if not W_samples:
        raise ValueError("need at least one sample")
    members = [intersection_divisor(W, cap=cap) for W in W_samples]
    first = members[0]
    L = complete_system(first, cap=cap)
    if not all(L.contains(E) for E in members[1:]):
        raise InequivalentSamplesError("samples from distinct systems")
    if n is not None and first.degree != n + (k or 0):
        raise ValueError("sample degrees do not match the requested (n, k)")
    for W, E in zip(W_samples, members):
        if beta(E) != W:
            raise InequivalentSamplesError("round trip beta(E) = W failed")
    return L, members


def find_g13(curve, seed=0, cap=12):
    """A complete g^1_3 pencil on the genus-4 model, found through ruling
    lines at sampled points; prefers members defined over the base field."""
    rng = random.Random(seed)
    fallback = None
    for _ in range(40):
        P = curve.sample_point(rng)
        try:
            members = trisecants_through(curve, P, cap=cap)
        except (UnsupportedConfiguration, CurveError):
            continue
        members.sort(key=lambda m: m.field.degree)
        for member in members:
            L = complete_system(member, cap=cap)
            if L.r != 1:
                continue
            if member.field.degree == curve.field.degree:
                return L
            fallback = fallback or L
    if fallback is not None:
        return fallback
    raise UnsupportedConfiguration("no trisecant pencil found")


def hyperelliptic_image_witness(D, k=1, cap=12):
    """Conjugate-double the first k points of D: (L, F) with L = |F|, where
    F should satisfy beta(F) = gauss_eval(D) and lie in the conjugate-choice
    set (``classify_member(L, F)["nc"]``); the caller checks both."""
    curve = D.curve
    if curve.model != "hyperelliptic":
        raise CurveError("witness construction is hyperelliptic-only")
    n = D.degree
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    flat = []
    for P, m in D.items:
        flat.extend([P] * m)
    items = []
    for i, P in enumerate(flat):
        if i < k:
            items.append((P, 1))
            items.append((curve.involution(P), 1))
        else:
            items.append((P, 1))
    F = Divisor(curve, items, field=D.field)
    return complete_system(F, cap=cap), F
