from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from selfsim.field import (FieldError, NumberField, RootBox, _is_irreducible, _isolate_roots,
                           check_pisot, format_rational, poly_eval)
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
    assert enc.contains(F("61803398874/100000000000")) or \
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


def _sympy_poly(coeffs):
    """The sympy polynomial with these coefficients (ascending)."""
    return sympy.Poly.from_list([sympy.Rational(c.numerator, c.denominator)
                                 for c in reversed(coeffs)], sympy.Symbol("x"))


def _sympy_irreducible(coeffs):
    """Reference verdict: sympy's factorisation over Q (coefficients ascending)."""
    _, factors = _sympy_poly(coeffs).factor_list()
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


def test_cubic_irreducibility():
    # x^3 - x - 1 (the plastic number's polynomial) is irreducible
    K = NumberField([-1, -1, 0, 1], RootBox(RatInterval(1, 2)))
    assert K.degree == 3 and K.gen ** 3 == K.gen + 1
    assert abs(float(K.gen) - 1.324717957244746) < 1e-12
    # (x - 1/2)(x^2 + 1) = x^3 - x^2/2 + x - 1/2 has the rational root 1/2
    reducible = [F(-1, 2), 1, F(-1, 2), 1]
    assert not _is_irreducible(reducible)
    with pytest.raises(FieldError, match="reducible"):
        NumberField(reducible, RootBox(RatInterval(0, 1)))


def _product(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def monic_polys(draw):
    """Monic rational polynomials of degree 1-6; half of them are the
    product of two monic rational factors."""
    def monic(degree):
        return [draw(small_rat) for _ in range(degree)] + [F(1)]
    if draw(st.booleans()):
        a = draw(st.integers(1, 5))
        return _product(monic(a), monic(draw(st.integers(1, 6 - a))))
    return monic(draw(st.integers(1, 6)))


_M89 = 2 ** 89 - 1  # a prime: factors with denominator M89 need root boxes far below 2^-80


@settings(max_examples=100, deadline=None)
@given(monic_polys())
@example(_product([F(-1, 3), 1], [F(-2, 9), F(1, 3), 1]))        # (x - 1/3)^2 (x + 2/3)
@example(_product([-2, 0, 1], [-3, 0, 1]))                        # (x^2 - 2)(x^2 - 3)
@example(_product([-2, 0, 0, 1], [-1, -1, 0, 1]))                 # two irreducible cubics
@example([1, 0, 0, 0, 1])                                         # x^4 + 1
@example([1, -1, -1, -1, 1])                                      # a Salem polynomial
@example(_product([-3, F(1, _M89), 1], [F(-1, _M89), 1]))
@example(_product([F(-5, 3 * _M89), F(2, _M89), 1], [F(-7, _M89), 1]))
def test_irreducibility_matches_sympy(coeffs):
    assert _is_irreducible(coeffs) == _sympy_irreducible(coeffs)


def test_root_box_must_isolate_one_root():
    # x^3 - 3x + 1 has the roots -1.879, 0.347 and 1.532
    coeffs, wide = [1, -3, 0, 1], RootBox(RatInterval(-2, 2))
    with pytest.raises(FieldError, match="does not isolate a single root"):
        NumberField(coeffs, wide)
    with pytest.raises(FieldError, match="does not isolate a single root"):
        check_pisot(coeffs, wide)
    K = NumberField(coeffs, RootBox(RatInterval(0, 1)))
    assert abs(float(K.gen) - 0.3472963553338607) < 1e-12
    # a complex backend needs a non-real root, here the golden ratio's is real
    with pytest.raises(FieldError, match="non-real root"):
        NumberField([-1, 1, 1], RootBox(RatInterval(0, 1), RatInterval(-1, 1)),
                    complex_embedding=True)


def test_complex_cubic_root_refines_on_a_bounded_grid():
    # x^3 + x^2 - 1 and its root near -0.877 + 0.745i
    coeffs = [F(-1), F(0), F(1), F(1)]
    K = NumberField(coeffs, RootBox(RatInterval(-1, F(-3, 4)), RatInterval(F(1, 2), 1)),
                    complex_embedding=True)
    box = K.root_box(200)
    assert box.width <= F(1, 2 ** 200)
    z, = [z for z in _sympy_poly(coeffs).nroots(n=60) if sympy.im(z) > 0]
    assert _in_box(z, box, slack=F(1, 10 ** 58))  # up to the error of a 60-digit root
    # outward rounding keeps the endpoints on a grid near the target width;
    # exact Newton steps would square their denominators at each step
    ends = [x for iv in (box.re, box.im) for x in (iv.lo, iv.hi)]
    assert max(x.denominator.bit_length() for x in ends) <= 200 + 32
    assert abs(complex(K.gen) - complex(-0.8774388331233464, 0.7448617666197442)) < 1e-12


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


def _sympy_roots(coeffs):
    """Reference: sympy's 40-digit roots, after its isolating intervals
    have certified how many of them are real."""
    poly = _sympy_poly(coeffs)
    real, _ = poly.intervals(all=True)
    values = poly.nroots(n=40)
    assert sum(1 for z in values if z.is_real) == len(real)
    return values


def _in_box(z, box, slack=F(1, 10 ** 35)):
    """z within box, up to the error of a 40-digit root (degree 1 gives a point box)."""
    return (box.re.lo - slack <= sympy.re(z) <= box.re.hi + slack
            and box.im.lo - slack <= sympy.im(z) <= box.im.hi + slack)


def _sympy_pisot_kind(coeffs, values, sel):
    """Reference verdict on 1/rho: sympy's monic reversal, and the moduli of
    sympy's roots against 1 (a modulus within 1e-30 of 1 decides nothing)."""
    rev = _sympy_poly(coeffs[::-1]).monic()
    z = values[sel]
    others = [w for j, w in enumerate(values)
              if j != sel and (z.is_real or abs(w - sympy.conjugate(z)) > 1e-30)]
    assert len(others) == len(values) - (1 if z.is_real else 2)
    if (all(c.is_integer for c in rev.all_coeffs()) and abs(z) < 1 - 1e-30
            and all(abs(w) > 1 + 1e-30 for w in others)):
        return "pisot" if z.is_real else "complex-pisot"
    return "neither"


@st.composite
def squarefree_polys(draw):
    """Squarefree rational polynomials of degree 1-5 with a nonzero constant term.

    Half of them reverse to integer polynomials (constant term +-1), so
    that 1/rho is an algebraic integer and Pisot verdicts occur.
    """
    degree = draw(st.integers(1, 5))
    if draw(st.booleans()):
        coeffs = ([F(draw(st.sampled_from([-1, 1])))]
                  + [F(draw(st.integers(-3, 3))) for _ in range(degree - 1)]
                  + [F(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))])
    else:
        coeffs = [draw(small_rat) for _ in range(degree + 1)]
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    poly = _sympy_poly(coeffs)
    assume(sympy.gcd(poly, poly.diff()).degree() == 0)
    return coeffs, draw(st.integers(0, degree - 1))


@settings(max_examples=60, deadline=None)
@given(squarefree_polys())
def test_isolated_roots_match_sympy(spec):
    coeffs, sel = spec
    boxes = _isolate_roots(coeffs)
    assert len(boxes) == len(coeffs) - 1
    assert all(a.intersect(b) is None for i, a in enumerate(boxes) for b in boxes[:i])
    values = _sympy_roots(coeffs)
    # each certified box holds exactly one of sympy's roots, each root one box
    hits = [[j for j, z in enumerate(values) if _in_box(z, b)] for b in boxes]
    assert all(len(h) == 1 for h in hits)
    assert sorted(h[0] for h in hits) == list(range(len(values)))
    assert sum(1 for b in boxes if b.im.contains(0)) == sum(1 for z in values if z.is_real)
    z = values[sel]
    grid = 1 << 60
    near = lambda x: RatInterval(F(int(x * grid) - 2, grid), F(int(x * grid) + 2, grid))  # noqa: E731
    root_box = RootBox(near(sympy.re(z)), None if z.is_real else near(sympy.im(z)))
    assert check_pisot(coeffs, root_box).kind == _sympy_pisot_kind(coeffs, values, sel)


def test_check_pisot_tribonacci_and_salem():
    # rho^3 + rho^2 + rho = 1: 1/rho is the tribonacci constant, a Pisot number
    r = check_pisot([-1, 1, 1, 1], RootBox(RatInterval(0, 1)))
    assert r.kind == "pisot" and r.is_algebraic_integer
    assert abs(r.selected_modulus - 1.839286755214161) < 1e-12
    assert all(m < 1 for m in r.conjugate_moduli)
    # x^4 - x^3 - x^2 - x + 1 is its own reversal: a Salem number with two
    # conjugates on |z| = 1, so no modulus comparison decides them
    r = check_pisot([1, -1, -1, -1, 1], RootBox(RatInterval(F(1, 2), F(7, 10))))
    assert r.kind == "neither" and r.is_algebraic_integer
    assert abs(r.selected_modulus - 1.722083805739043) < 1e-12
    assert sorted(r.conjugate_moduli)[1:] == pytest.approx([1.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("coeffs", [
    [F(1, 4), -1, 1],                    # (x - 1/2)^2
    [F(3, 4), F(-11, 4), 2, 1],          # (x - 1/2)^2 (x + 3)
])
def test_check_pisot_refuses_repeated_roots(coeffs):
    with pytest.raises(FieldError):
        check_pisot(coeffs, RootBox(RatInterval(0, 1)))


@pytest.mark.parametrize("coeffs", [
    [],                                  # no coefficients
    [1, 0],                              # a zero leading coefficient
])
def test_check_pisot_refuses_malformed_polynomials(coeffs):
    with pytest.raises(FieldError, match="nonzero leading coefficient"):
        check_pisot(coeffs, RootBox(RatInterval(0, 1)))


def test_compare_escalates_past_64_bits(golden_field):
    # rho^100 is about 1.3e-21: its 64-bit enclosure straddles 0, so the
    # sign needs a finer one
    x = golden_field.gen ** 100
    assert x.enclosure(64).sign() is None
    assert x > 0 and -x < 0 and x.compare(0) == 1
    assert x < golden_field.gen ** 99


def test_complex_conjugation(dragon_field):
    K = dragon_field
    rho = K.gen
    conj = rho.conjugate()
    assert conj + rho == K.one               # trace of x^2 - x + 1/2
    assert rho.modulus_sq() == K.from_rational(F(1, 2))
    enc = conj.enclosure(64)
    assert enc.im.hi < 0                     # lower half plane


def test_format_parse_roundtrip():
    # canonical strings survive Fraction parsing and format_rational
    for s in ["1/2", "-7/3", "0/1", "823/4526"]:
        assert format_rational(F(s)) == s


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
    assert not (prod.strictly_less(box) or box.strictly_less(prod))
    eps = F(1, 2**150)
    assert prod.lo >= box.lo - eps and prod.hi <= box.hi + eps


@settings(max_examples=40, deadline=None)
@given(golden_elements(), golden_elements())
def test_canonical_form(ca, cb):
    K = _GOLDEN
    a, b = K.element(ca), K.element(cb)
    assert (a - b).is_zero() == (a.coeffs == b.coeffs)


_GOLDEN = NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))


# -- the int-over-denominator form against the Fraction arithmetic ------------

_FIELDS = {
    "golden": _GOLDEN,
    # its reduction table rho^2 = rho - 1/2 has a denominator
    "dragon": NumberField([F(1, 2), -1, 1], RootBox(RatInterval(0, 1), RatInterval(F(1, 4), 1)),
                          complex_embedding=True),
    "tribonacci": NumberField([-1, 1, 1, 1], RootBox(RatInterval(0, 1))),
}


def _fraction_powers(K):
    """rho^D .. rho^(2D-2) in the power basis, as Fractions."""
    d = K.degree
    powers = [[-c for c in K.min_poly[:d]]]
    for _ in range(d - 2):
        prev = powers[-1]
        powers.append([s + prev[-1] * p for s, p in zip([F(0)] + prev[:-1], powers[0])])
    return powers


def _fraction_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _fraction_mul(K, a, b):
    """The product on Fraction coefficients: convolve, then replace each
    rho^k with k >= D by its row of the reduction table."""
    d = K.degree
    conv = [F(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    out = conv[:d]
    for ck, row in zip(conv[d:], _fraction_powers(K)):
        out = [o + ck * t for o, t in zip(out, row)]
    return tuple(out)


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert x.coeffs == tuple(F(n, x.den) for n in x.num)
    assert x.is_zero() == (not any(x.coeffs)) == (x.num == (0,) * len(x.num) and x.den == 1)
    assert x.is_rational() == (not any(x.coeffs[1:]))


_coeff = st.fractions(min_value=-6, max_value=6, max_denominator=30)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_FIELDS)), st.data())
def test_int_arithmetic_matches_fraction_arithmetic(name, data):
    K = _FIELDS[name]
    # short lists pad with zeros, so rational elements and zero come up often
    ca, cb = (data.draw(st.lists(_coeff, min_size=1, max_size=K.degree)) for _ in range(2))
    a, b = K.element(ca), K.element(cb)
    A, B = a.coeffs, b.coeffs
    assert A == tuple(ca) + (F(0),) * (K.degree - len(ca))
    total, diff, prod = a + b, a - b, a * b
    assert total.coeffs == _fraction_add(A, B)
    assert diff.coeffs == _fraction_add(A, tuple(-y for y in B))
    assert prod.coeffs == _fraction_mul(K, A, B)
    for x in (a, b, total, diff, prod, -a, a - a, K.zero, K.one, K.gen):
        _assert_canonical(x)
    assert (a == b) == (A == B)
    again = total - b  # a by another route
    assert again == a and hash(again) == hash(a) and K.element(A) == a
    if a.is_rational():
        assert a == A[0] and a.as_rational() == A[0]
    if not a.is_zero():
        inv = a.inverse()
        _assert_canonical(inv)
        assert _fraction_mul(K, A, inv.coeffs) == K.one.coeffs
        assert a * inv == K.one
    # Horner on the int numerators over den is Horner on the Fractions
    box = K.root_box(100)
    assert K._eval_at_root(prod, 100) == poly_eval(prod.coeffs,
                                                  box if K.complex_embedding else box.re)
