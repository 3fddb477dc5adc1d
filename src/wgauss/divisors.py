"""Effective divisors on a curve.

A divisor is a formal sum of curve points with positive multiplicities.
On construction all points are coerced into the compositum of their
coordinate fields and sorted canonically, so equality is syntactic.
Hyperelliptic divisors additionally support pullback along the x-map and
the canonical decomposition into conjugate pairs plus a conjugate-free
remainder.
"""

from collections import namedtuple

from .algebra.fields import ExtField, PrimeField, common_field, json_int
from .curves import INF, CurveError, HyperellipticPoint, ProjectivePoint


class Divisor:
    __slots__ = ("curve", "field", "items")

    def __init__(self, curve, items, field=None):
        pts = [(P, int(m)) for P, m in items if m]
        if any(m < 0 for _, m in pts):
            raise ValueError("divisors are effective: multiplicities must be >= 0")
        fld = field or curve.field
        for P, _ in pts:
            fld = common_field(fld, P.field)
        merged = {}
        for P, m in pts:
            Pc = P if P.field == fld else P.coerce(fld)
            merged[Pc] = merged.get(Pc, 0) + m
        out = sorted(merged.items(), key=lambda pm: pm[0].sort_key())
        self.curve = curve
        self.field = fld
        self.items = tuple(out)

    @property
    def degree(self):
        return sum(m for _, m in self.items)

    def support(self):
        return [P for P, _ in self.items]

    def mult_of(self, P):
        Pc = P.coerce(self.field) if P.field != self.field else P
        for Q, m in self.items:
            if Q == Pc:
                return m
        return 0

    def is_reduced(self):
        return all(m == 1 for _, m in self.items)

    def is_zero(self):
        return not self.items

    def map_field(self, target):
        return Divisor(self.curve, [(P.coerce(target), m) for P, m in self.items],
                       field=target)

    def _pair(self, other):
        if not isinstance(other, Divisor):
            raise TypeError("expected a Divisor")
        if other.curve != self.curve:
            raise CurveError("mixed curves in divisor arithmetic")
        fld = common_field(self.field, other.field)
        return self.map_field(fld), other.map_field(fld), fld

    def __add__(self, other):
        a, b, fld = self._pair(other)
        return Divisor(self.curve, list(a.items) + list(b.items), field=fld)

    def __sub__(self, other):
        a, b, fld = self._pair(other)
        counts = {P: m for P, m in a.items}
        for P, m in b.items:
            counts[P] = counts.get(P, 0) - m
        if any(m < 0 for m in counts.values()):
            raise ValueError("difference is not effective")
        return Divisor(self.curve, list(counts.items()), field=fld)

    def __mul__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return Divisor(self.curve, [(P, m * n) for P, m in self.items], field=self.field)

    __rmul__ = __mul__

    def __le__(self, other):
        a, b, _ = self._pair(other)
        counts = {P: m for P, m in b.items}
        return all(counts.get(P, 0) >= m for P, m in a.items)

    def __eq__(self, other):
        if isinstance(other, Divisor):
            a, b, _ = self._pair(other)
            return a.items == b.items
        return NotImplemented

    def __hash__(self):
        return hash((self.curve, self.items))

    def __repr__(self):
        if not self.items:
            return "Div(0)"
        return "Div(" + " + ".join(
            (f"{m}*{P!r}" if m > 1 else repr(P)) for P, m in self.items) + ")"

    def subdivisors(self, n):
        """All effective E <= self of degree n, each once, lexicographically."""
        if n < 0 or n > self.degree:
            return
        pts = list(self.items)

        def rec(i, remaining, acc):
            if remaining == 0:
                yield Divisor(self.curve, list(acc), field=self.field)
                return
            if i == len(pts):
                return
            P, m = pts[i]
            tail = sum(mm for _, mm in pts[i + 1:])
            lo = max(0, remaining - tail)
            for e in range(lo, min(m, remaining) + 1):
                if e:
                    acc.append((P, e))
                yield from rec(i + 1, remaining - e, acc)
                if e:
                    acc.pop()

        yield from rec(0, n, [])

    def to_json(self):
        out = []
        for P, m in self.items:
            fld = self.field
            if isinstance(P, HyperellipticPoint):
                if P.kind == "aff":
                    coords = [fld.to_json(P.x), fld.to_json(P.y)]
                elif P.w is not None:
                    coords = ["inf", fld.to_json(P.w)]
                else:
                    coords = ["inf"]
            else:
                coords = [fld.to_json(c) for c in P.coords]
            out.append({"point": coords, "ext_degree": fld.degree, "mult": m})
        return out


def divisor_from_json(curve, obj):
    items, p = [], curve.field.char
    for rec in obj:
        d = json_int(rec.get("ext_degree", 1))
        fld = PrimeField(p) if d == 1 else ExtField(p, d)
        coords = rec["point"]
        if curve.model == "hyperelliptic":
            if coords and coords[0] == "inf":
                w = fld.from_json(coords[1]) if len(coords) > 1 else None
                P = HyperellipticPoint.infinity(fld, w)
            else:
                P = HyperellipticPoint.affine(fld, fld.from_json(coords[0]),
                                              fld.from_json(coords[1]))
        else:
            P = ProjectivePoint(fld, [fld.from_json(c) for c in coords])
        if not curve.contains(P):
            raise CurveError("point in divisor JSON does not lie on the curve")
        items.append((P, json_int(rec["mult"])))
    return Divisor(curve, items)


def gcd_div(D, E):
    """Pointwise minimum of multiplicities."""
    a, b, fld = D._pair(E)
    counts = {P: m for P, m in b.items}
    out = [(P, min(m, counts.get(P, 0))) for P, m in a.items]
    return Divisor(D.curve, out, field=fld)


def pullback_x(curve, p1_divisor, field=None):
    """Pull a divisor on P^1 back along the hyperelliptic double cover.

    Each (t0, m) contributes m*(P + iota(P)) when t0 is not a branch point
    and 2m*W when it is; the degree doubles.
    """
    if curve.model != "hyperelliptic":
        raise CurveError("pullback_x requires a hyperelliptic model")
    fld = field or curve.field
    items = []
    for t0, m in p1_divisor:
        base = t0.field if hasattr(t0, "field") else fld   # fld at INF
        pts = curve.points_above_x(t0, base)
        if len(pts) == 1:  # branch point, or INF on an odd model
            items.append((pts[0], 2 * m))
        else:
            items.extend((P, m) for P in pts)
    return Divisor(curve, items)


def x_fibers(curve, D):
    """Group a hyperelliptic divisor by x-value.

    Returns [(t0, kind, [(point, mult), ...])] sorted canonically, where kind
    is "branch" (one involution-fixed point) or "pair" (both conjugates are
    listed, an absent one with multiplicity 0).
    """
    if curve.model != "hyperelliptic":
        raise CurveError("x_fibers requires a hyperelliptic model")
    by_x = {}
    for P, m in D.items:
        key = ("inf",) if P.kind == "inf" else ("aff", D.field.sort_key(P.x))
        by_x.setdefault(key, []).append((P, m))
    out = []
    for key in sorted(by_x):
        group = by_x[key]
        P0 = group[0][0]
        t0 = INF if P0.kind == "inf" else P0.x
        fixed = curve.odd_model if P0.kind == "inf" else not P0.y
        if fixed:
            assert len(group) == 1
            out.append((t0, "branch", group))
        else:
            if len(group) == 1:
                partner = curve.involution(P0)
                group = group + [(partner, 0)]
            group.sort(key=lambda pm: pm[0].sort_key())
            out.append((t0, "pair", group))
    return out


# the canonical shape of a hyperelliptic divisor: k conjugate pairs plus a
# conjugate-free remainder B (no pair {P, iota(P)}, Weierstrass points at
# multiplicity at most one)
HyperellipticForm = namedtuple("HyperellipticForm", "k B")


def hyperelliptic_reduce(D):
    """Extract the maximal number of conjugate pairs (counting 2W at a
    Weierstrass point W as a pair), greedily from the smallest point."""
    curve = D.curve
    if curve.model != "hyperelliptic":
        raise CurveError("hyperelliptic_reduce requires a hyperelliptic model")
    k = 0
    b_items = []
    for t0, kind, group in x_fibers(curve, D):
        if kind == "branch":
            (W, m), = group
            k += m // 2
            if m % 2:
                b_items.append((W, 1))
        else:
            (P1, a), (P2, b) = group
            pair = min(a, b)
            k += pair
            if a - pair:
                b_items.append((P1, a - pair))
            if b - pair:
                b_items.append((P2, b - pair))
    return HyperellipticForm(k, Divisor(curve, b_items, field=D.field))
