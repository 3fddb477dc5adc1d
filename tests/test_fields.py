import random

import pytest

from wgauss.algebra import (
    ExtField,
    FieldError,
    PrimeField,
    coerce,
    common_field,
    field_from_json,
)
from wgauss.algebra import fields
from wgauss.algebra.fields import (ExtElement, _binomial_irreducible, _t_irreducible,
                                   projective_points)


def test_prime_field_basics():
    F = PrimeField(11)
    a, b = F.elem(7), F.elem(8)
    assert a + b == 4
    assert a - b == 10
    assert a * b == 56 % 11
    assert (a / b) * b == a
    assert -a == 4
    assert a ** 10 == 1


def test_prime_field_rejects_non_prime_and_two():
    with pytest.raises(FieldError):
        PrimeField(10)
    with pytest.raises(FieldError):
        PrimeField(2)


def test_fp_sqrt_roundtrip():
    F = PrimeField(10007)
    rng = random.Random(1)
    for _ in range(50):
        a = F.rand(rng)
        s = a * a
        r = F.sqrt(s)
        assert r is not None and r * r == s
    nr = F.nonresidue()
    assert F.sqrt(nr) is None


@pytest.mark.parametrize("field", [PrimeField(7), ExtField(7, 2), ExtField(10007, 3)], ids=repr)
def test_zero_has_no_inverse_in_any_field(field):
    with pytest.raises(ZeroDivisionError):
        field.zero ** -1
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero


def test_ext_field_canonical_modulus_deterministic():
    E1 = ExtField(5, 2)
    E2 = ExtField(5, 2)
    assert E1 is E2
    # x^2 + 2 is the first monic irreducible over F_5 in counter order
    assert E1.modulus == (2, 0, 1)


def test_ext_field_arithmetic():
    E = ExtField(7, 3)
    rng = random.Random(2)
    for _ in range(30):
        a, b = E.rand(rng), E.rand(rng)
        assert (a + b) - b == a
        if b:
            assert (a / b) * b == a
        assert a * b == b * a
    g = E.gen
    assert g ** E.order == g  # Frobenius orbit closes


def test_ext_sqrt():
    E = ExtField(5, 2)
    rng = random.Random(3)
    for _ in range(30):
        a = E.rand(rng)
        s = a * a
        r = E.sqrt(s)
        assert r is not None and r * r == s


def test_coerce_prime_into_extension_and_back():
    F = PrimeField(13)
    E = ExtField(13, 4)
    a = F.elem(9)
    b = coerce(a, E)
    assert b == E.elem(9)
    assert coerce(b, F) == a


def test_embedding_tower_consistency():
    # F_25 -> F_5^6 embedding respects arithmetic
    E2, E6 = ExtField(5, 2), ExtField(5, 6)
    rng = random.Random(4)
    for _ in range(20):
        a, b = E2.rand(rng), E2.rand(rng)
        assert coerce(a * b, E6) == coerce(a, E6) * coerce(b, E6)
        assert coerce(a + b, E6) == coerce(a, E6) + coerce(b, E6)


def test_embedding_is_field_hom_not_identity_on_constants():
    E3, E6 = ExtField(7, 3), ExtField(7, 6)
    g = E3.gen
    img = coerce(g, E6)
    # image satisfies the degree-3 modulus
    m = E3.modulus
    acc = E6.zero
    for i, c in enumerate(m):
        acc = acc + img ** i * c
    assert not acc


def test_common_field():
    F = PrimeField(5)
    assert common_field(F, F) is F
    assert common_field(ExtField(5, 2), ExtField(5, 3)) == ExtField(5, 6)
    assert common_field(F, ExtField(5, 4)) == ExtField(5, 4)
    with pytest.raises(FieldError):
        common_field(F, PrimeField(7))


def test_field_json_roundtrip():
    for f in (PrimeField(31), ExtField(11, 3)):
        assert field_from_json(f.describe()) == f
    # numbers in a description are JSON integers, never truncated or parsed
    E = ExtField(11, 3)
    assert E.from_json([1, 2]) == E.elem((1, 2)) and E.from_json(3) == E.elem(3)
    bad = [(PrimeField(31).from_json, [1.5, "1/2", True]),
           (E.from_json, [[1, 2.0], ["1/2"], [True], 1.5]),
           (field_from_json, [{"type": "prime", "p": 31.0}, {"type": "rational"},
                              {"type": "extension", "p": 11, "k": "3"}])]
    for parse, objs in bad:
        for obj in objs:
            with pytest.raises(FieldError):
                parse(obj)


def test_elements_enumeration_order_is_stable():
    E = ExtField(3, 2)
    elems = list(E.elements())
    assert len(elems) == 9
    assert elems[0] == E.zero and elems[1] == E.one


def test_projective_points_order_is_pinned():
    # the point tables, the pencil sweeps and rational_parameters all
    # enumerate P^(n-1) in this order
    F3 = PrimeField(3)
    pts = {n: [tuple(c.value for c in P) for P in projective_points(F3, n)]
           for n in (1, 2, 3)}
    assert pts[1] == [(1,)]
    assert pts[2] == [(1, 0), (1, 1), (1, 2), (0, 1)]
    assert pts[3] == [(1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
                      (1, 2, 0), (1, 2, 1), (1, 2, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
                      (0, 0, 1)]


# -- field set-up: canonical modulus and non-residue ------------------------

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_capelli_agrees_with_rabin_on_binomials(p):
    # x^k + c is decided by Capelli's theorem in the modulus search; it
    # must agree with Rabin's test, including 4 | k for p = 1 and 3 mod 4
    for k in range(2, 7):
        for c in range(1, p):
            f = (c,) + (0,) * (k - 1) + (1,)
            assert _binomial_irreducible(p - c, k, p) == _t_irreducible(f, p), (k, c)


# (p, k) -> (modulus, nonresidue().coeffs), as found by the exhaustive
# searches that the closed-form shortcuts replaced
SETUP_PINS = {
    (10007, 2): ((1, 0, 1), (2, 1)),
    (10007, 3): ((1, 1, 0, 1), (5, 0, 0)),
    (10007, 4): ((6, 1, 0, 0, 1), (2, 1, 0, 0)),
    (10007, 5): ((3, 1, 0, 0, 0, 1), (5, 0, 0, 0, 0)),
    (10007, 6): ((7, 1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)),
    (7, 2): ((1, 0, 1), (2, 1)),
    (7, 3): ((2, 0, 0, 1), (3, 0, 0)),
    (7, 4): ((1, 1, 0, 0, 1), (5, 1, 0, 0)),
    (7, 5): ((3, 1, 0, 0, 0, 1), (3, 0, 0, 0, 0)),
    (7, 6): ((2, 0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0, 0)),
    (7, 7): ((1, 6, 0, 0, 0, 0, 0, 1), (3, 0, 0, 0, 0, 0, 0)),
    (7, 8): ((3, 1, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0, 0)),
    (7, 9): ((2, 0, 0, 0, 0, 0, 0, 0, 0, 1), (3, 0, 0, 0, 0, 0, 0, 0, 0)),
    (7, 10): ((3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
    (7, 11): ((3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), (3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    (7, 12): ((2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
              (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("pk", sorted(SETUP_PINS), ids=str)
def test_modulus_and_nonresidue_are_pinned(pk):
    F = ExtField(*pk)
    assert (F.modulus, F.nonresidue().coeffs) == SETUP_PINS[pk]


@pytest.mark.parametrize("pk", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                (7, 2), (7, 3), (11, 2), (13, 2), (13, 3)],
                         ids=str)
def test_nonresidue_is_first_nonsquare_by_brute_force(pk):
    F = ExtField(*pk)
    elems = list(F.elements())
    squares = {(x * x).coeffs for x in elems}
    first = next(x for x in elems if x.coeffs not in squares)
    assert F.nonresidue() == first
    assert F.sqrt(first) is None and not F.is_square(first)


def test_large_field_setup_needs_no_search(monkeypatch):
    # count the Rabin tests and exponentiations of building a fresh
    # F_(10007^6): every binomial is decided in closed form, and the
    # non-residue search skips the p constants, which are all squares
    rabin, powers = [], []
    real_rabin, real_pow = fields._t_irreducible, ExtElement.__pow__

    def counting_rabin(f, p):
        rabin.append(f)
        return real_rabin(f, p)

    def counting_pow(x, e):
        powers.append(e)
        return real_pow(x, e)

    monkeypatch.setattr(fields, "_t_irreducible", counting_rabin)
    monkeypatch.setattr(ExtElement, "__pow__", counting_pow)
    monkeypatch.setattr(ExtField, "_registry", {})
    F = ExtField(10007, 6)
    assert F.modulus == SETUP_PINS[(10007, 6)][0]
    assert rabin and not [f for f in rabin if not any(f[1:-1])]
    assert len(rabin) < 10
    assert F.nonresidue().coeffs == SETUP_PINS[(10007, 6)][1]
    assert len(powers) < 10


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_hash_agrees_with_eq_on_the_prime_subfield(p, k):
    Fp, Fq = PrimeField(p), ExtField(p, k)
    for a in range(p):
        x, y = Fp.elem(a), Fq.elem(a)
        assert x == y and hash(x) == hash(y)
    # as dict keys, F_p inside F_(p^k) is one set of p elements
    keys = {Fp.elem(a): a for a in range(p)}
    assert all(keys[Fq.elem(a)] == a for a in range(p))
    assert len(set(keys) | set(Fq.elements())) == p ** k
