from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from selfsim.field import (FieldError, NumberField, RootBox, _is_irreducible, check_pisot,
                           format_rational, parse_rational)
from selfsim.intervals import RatInterval, RectInterval, sqrt_interval


@pytest.fixture(scope="module")
def golden_field():
    return NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))


@pytest.fixture(scope="module")
def dragon_field():
    return NumberField([F(1, 2), -1, 1],
                       RootBox(RatInterval(0, 1), RatInterval(F(1, 4), 1)),
                       complex_embedding=True)


def test_interval_arithmetic():
    a = RatInterval(F(1, 3), F(1, 2))
    b = RatInterval(-1, 2)
    assert (a + b).lo == F(-2, 3) and (a + b).hi == F(5, 2)
    assert (a * b).lo == F(-1, 2)
    assert a.square().lo == F(1, 9)
    s = sqrt_interval(RatInterval(2, 2), 64)
    assert s.lo < s.hi and s.lo ** 2 <= 2 <= s.hi ** 2
    assert s.width < F(1, 2**60)
    with pytest.raises(ZeroDivisionError):
        RatInterval(-1, 1).inverse()


def test_rect_arithmetic():
    z = RectInterval.point(F(1, 2), F(1, 2))
    w = z * z
    assert w.re.contains(0) and w.im.contains(F(1, 2))
    assert z.modulus_sq().contains(F(1, 2))
    inv = z.inverse()
    back = inv * z
    assert back.re.contains(1) and back.im.contains(0)


def test_additive_identities(golden_field):
    K = golden_field
    rho = K.gen
    assert rho + K.zero == rho
    assert (K.one - rho) + rho == K.one
    assert rho * rho + rho == K.one          # rho^2 reduces to 1 - rho


def test_multiplication_and_inverse(golden_field):
    K = golden_field
    rho = K.gen
    assert rho * rho.inverse() == K.one
    assert rho.inverse() == rho + K.one      # 1/rho = rho + 1
    assert (rho - rho).is_zero()
    # rho^2 * rho reduces to 2 rho - 1, by hand from rho^2 = 1 - rho
    assert rho * rho * rho == K.element([-1, 2])
    with pytest.raises(ZeroDivisionError):
        K.zero.inverse()


def test_field_mismatch_rejected(golden_field):
    other = NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))
    with pytest.raises(FieldError):
        golden_field.gen + other.gen


def test_enclosures(golden_field):
    K = golden_field
    one = K.one.enclosure(64)
    assert one.lo == 1 == one.hi
    enc = K.gen.enclosure(64)
    assert enc.width < F(1, 2**60)
    assert enc.contains(parse_rational("61803398874/100000000000")) or \
        (enc.lo > F(61803398874, 100000000000))
    assert abs(float(enc.mid) - 0.6180339887498949) < 1e-12
    zero = (K.gen - K.gen).enclosure(64)
    assert zero.contains(0) and zero.width < F(1, 2**60)


def test_degree_one_field_is_exact():
    K = NumberField([F(-1, 3), 1], RootBox(RatInterval(0, 1)))
    assert K.gen.enclosure().width == 0
    assert K.gen.as_rational() == F(1, 3)


def test_reducible_minimal_polynomial_rejected():
    with pytest.raises(FieldError):
        NumberField([F(-1, 2), F(-1, 2), 1], RootBox(RatInterval(F(1, 2), F(3, 2))))


def _sympy_irreducible(coeffs):
    """Reference verdict: sympy's factorisation over Q (coefficients ascending)."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, x).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


small_rat = st.builds(F, st.integers(-12, 12), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(small_rat, small_rat)
@example(F(-2), F(0))       # x^2 - 2: discriminant 8 > 0 is no square
@example(F(1, 8), F(1))     # x^2 + x + 1/8: discriminant 1/2, square numerator only
@example(F(-1, 2), F(0))    # x^2 - 1/2: discriminant 2, square denominator only
@example(F(1, 4), F(1))     # (x + 1/2)^2: discriminant 0
def test_quadratic_irreducibility_matches_sympy(c0, c1):
    coeffs = [c0, c1, F(1)]
    assert _is_irreducible(coeffs) == _sympy_irreducible(coeffs)


@settings(max_examples=60, deadline=None)
@given(small_rat, small_rat)
@example(F(1, 3), F(1, 3))  # a double root
@example(F(0), F(0))        # x^2
def test_quadratic_with_rational_roots_is_reducible(r, s):
    coeffs = [r * s, -(r + s), F(1)]
    assert not _is_irreducible(coeffs)
    assert not _sympy_irreducible(coeffs)
    with pytest.raises(FieldError, match="reducible"):
        NumberField(coeffs, RootBox(RatInterval(r - 1, r + 1)))


@pytest.mark.parametrize("root", [F(0), F(1), F(-7, 3), F(5, 12)])
def test_linear_polynomials_are_irreducible(root):
    assert _is_irreducible([-root, F(1)])


def test_cubic_irreducibility_through_sympy():
    # x^3 - x - 1 (the plastic number's polynomial) is irreducible
    K = NumberField([-1, -1, 0, 1], RootBox(RatInterval(1, 2)))
    assert K.degree == 3 and K.gen ** 3 == K.gen + 1
    assert abs(float(K.gen) - 1.324717957244746) < 1e-12
    # (x - 1/2)(x^2 + 1) = x^3 - x^2/2 + x - 1/2 has the rational root 1/2
    reducible = [F(-1, 2), 1, F(-1, 2), 1]
    assert not _is_irreducible(reducible)
    with pytest.raises(FieldError, match="reducible"):
        NumberField(reducible, RootBox(RatInterval(0, 1)))


def test_check_pisot_examples():
    r = check_pisot([-1, 1, 1], RootBox(RatInterval(0, 1)))
    assert r.kind == "pisot"
    assert abs(r.selected_modulus - 1.618034) < 1e-5
    r = check_pisot([F(-1, 2), 1], RootBox(RatInterval(0, 1)))
    assert r.kind == "pisot" and r.selected_modulus == 2.0
    # a cofactor of 1/rho has modulus 1: not Pisot
    r = check_pisot([F(-1, 2), F(-1, 2), 1], RootBox(RatInterval(F(-3, 4), F(-1, 4))))
    assert r.kind == "neither"


def test_check_pisot_complex(dragon_field):
    r = check_pisot([F(1, 2), -1, 1],
                    RootBox(RatInterval(0, 1), RatInterval(F(1, 4), 1)))
    assert r.kind == "complex-pisot"
    assert abs(r.selected_modulus - 2**0.5) < 1e-9


def test_complex_conjugation(dragon_field):
    K = dragon_field
    rho = K.gen
    conj = rho.conjugate()
    assert conj + rho == K.one               # trace of x^2 - x + 1/2
    assert rho.modulus_sq() == K.from_rational(F(1, 2))
    enc = conj.enclosure(64)
    assert enc.im.hi < 0                     # lower half plane


def test_format_parse_roundtrip():
    for s in ["1/2", "-7/3", "0/1", "12345/67890"]:
        assert format_rational(parse_rational(s)) == format_rational(F(s))


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def golden_elements(draw):
    return tuple(draw(small_rats) for _ in range(2))


@settings(max_examples=60, deadline=None)
@given(golden_elements(), golden_elements(), golden_elements())
def test_ring_axioms(ca, cb, cc):
    K = _GOLDEN
    a, b, c = K.element(ca), K.element(cb), K.element(cc)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == K.one


@settings(max_examples=30, deadline=None)
@given(golden_elements(), golden_elements())
def test_enclosure_respects_arithmetic(ca, cb):
    K = _GOLDEN
    a, b = K.element(ca), K.element(cb)
    pa, pb = a.enclosure(80), b.enclosure(80)
    box = pa * pb
    # both enclose the exact value, so they overlap, and the direct
    # enclosure sits inside the interval product up to its own width
    prod = (a * b).enclosure(160)
    assert prod.overlaps(box)
    eps = F(1, 2**150)
    assert prod.lo >= box.lo - eps and prod.hi <= box.hi + eps


@settings(max_examples=40, deadline=None)
@given(golden_elements(), golden_elements())
def test_canonical_form(ca, cb):
    K = _GOLDEN
    a, b = K.element(ca), K.element(cb)
    assert (a - b).is_zero() == (a.coeffs == b.coeffs)


_GOLDEN = NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))
