"""Exact arithmetic in Q(rho) for an algebraic contraction ratio rho.

An element is a vector of int numerators over one positive int
denominator in the power basis 1, rho, ..., rho^(D-1), reduced modulo a
monic minimal polynomial and kept in lowest terms (the gcd of the
denominator and all numerators is 1).  That form is canonical, so
equality is a comparison of int tuples, and all ring/field operations
are exact: a sum or a product makes int products and one gcd.  The
selected root is pinned down by a rational isolating box which can be
refined on demand; every element then gets a certified interval (real
backend) or rectangle (complex backend) enclosure of its embedding.

One root routine serves real and complex fields alike: `_isolate_roots`
seeds every root with `numpy.roots` and certifies a box around it with
the interval-Newton operator `_newton_step`, and `_refine` shrinks a box
by the same operator on an outward-rounded dyadic grid.  The field
selects its root among those boxes, `_is_irreducible` decides
irreducibility in every degree from them, and `check_pisot` compares
their moduli.  numpy is the only import outside the standard library.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import ceil, floor, gcd, lcm
from typing import Sequence

from .intervals import RatInterval, RectInterval, _as_fraction

_ROOT_BITS = 80  # _isolate_roots' boxes have width 2^-_ROOT_BITS
_GUARD_BITS = 16  # _refine rounds to a grid this many bits finer than its target


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class FieldError(ValueError):
    pass


# ----------------------------------------------------------------------
# polynomial helpers (coefficients ascending, rational)
# ----------------------------------------------------------------------

def poly_eval(coeffs: Sequence[Fraction], x):
    """Horner evaluation; works for Fraction, RatInterval and RectInterval."""
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return acc


def poly_derivative(coeffs: Sequence[Fraction]):
    return [c * i for i, c in enumerate(coeffs)][1:]


def _is_irreducible(coeffs: Sequence[Fraction], boxes=None) -> bool:
    """Irreducibility over Q of a rational polynomial p, exact in every degree.

    A repeated root makes p reducible; gcd(p, p') decides that first
    (`_isolate_roots` returns None).  Else let p be monic and D the lcm of
    its denominators.  By Gauss's lemma a monic rational factor of p with
    root set S has D * prod_{s in S} (x - s) in Z[x].  The root boxes (those
    of `_isolate_roots`, or `boxes` if the caller holds them) enclose these
    coefficients for every S of at most half the roots, and are refined
    until every enclosure is narrower than 1.  Each S then leaves at most
    one integer candidate, and exact division decides it.
    """
    p = [_as_fraction(c) / coeffs[-1] for c in coeffs]
    if len(p) == 2:
        return True
    boxes = boxes or _isolate_roots(p)
    if boxes is None:
        return False
    n, dp = len(p) - 1, poly_derivative(p)
    scale = lcm(*(c.denominator for c in p))
    subsets = [s for k in range(1, n // 2 + 1) for s in combinations(range(n), k)]
    while True:
        factors = [reduce(_poly_mul, ([-boxes[i], 1] for i in s), [scale]) for s in subsets]
        if max(c.width for f in factors for c in f[:-1]) < 1:
            break
        target = max(b.width for b in boxes) / (1 << 32)
        boxes = [_refine(p, dp, b, target) for b in boxes]
    for f in factors:
        ints = [ceil(c.re.lo) for c in f[:-1]]
        if (all(k <= c.re.hi and c.im.contains(0) for k, c in zip(ints, f))
                and not any(_poly_divmod(p, ints + [scale])[1])):
            return False
    return True


# ----------------------------------------------------------------------
# certified root isolation
# ----------------------------------------------------------------------

class RootBox:
    """A config's region for the selected root: an interval or a rectangle.

    It need not be small.  `NumberField` and `check_pisot` select the
    certified root box (`_isolate_roots`) that lies inside it, and refuse
    the region unless it meets exactly one root box and holds all of it.
    An interval (imag None) selects among the real roots by their real
    parts alone.
    """

    def __init__(self, real: RatInterval, imag: RatInterval | None = None):
        self.real = real
        self.imag = imag  # None => real root

    @property
    def is_real(self) -> bool:
        return self.imag is None or (self.imag.lo == 0 == self.imag.hi)

    def as_rect(self) -> RectInterval:
        return RectInterval(self.real, self.imag or RatInterval.point(0))

    def __repr__(self):
        if self.imag is None:
            return f"RootBox({self.real!r})"
        return f"RootBox({self.real!r}, {self.imag!r})"


def _newton_step(coeffs, dcoeffs, box: RectInterval):
    mid = RectInterval.point(*box.mid)
    dp = poly_eval(dcoeffs, box)
    if dp.contains_zero():
        return None
    return mid - poly_eval(coeffs, mid) / dp


def _round_out(box: RectInterval, scale: int) -> RectInterval:
    """The least box with endpoints on the grid 1/scale that holds box."""
    return RectInterval(*(RatInterval(Fraction(floor(iv.lo * scale), scale),
                                      Fraction(ceil(iv.hi * scale), scale))
                          for iv in (box.re, box.im)))


def _refine(coeffs, dcoeffs, box: RectInterval, target: Fraction) -> RectInterval:
    """Shrink a certified root box to width <= target by interval Newton.

    Let 2^-n be the largest power of 2 <= target.  Each step keeps
    box & N(box) (`_newton_step`), rounded outward to the grid
    2^-(n + _GUARD_BITS).  Every root in box lies in N(box), so the root
    never leaves the box, and the grid bounds the endpoints' denominators,
    which exact Newton steps would square.  Last, each axis is rounded
    outward to the grid 2^-n where that keeps it within target: the
    dyadic cell that bisection reaches.  Every box stays inside the
    certified one, and a box symmetric about the real axis stays so.
    """
    n = (ceil(1 / target) - 1).bit_length()
    certified = box
    while box.width > target:
        step = _newton_step(coeffs, dcoeffs, box)
        nxt = step and _round_out(step, 1 << (n + _GUARD_BITS)).intersect(box)
        if nxt is None or nxt.width >= box.width:
            raise FieldError("interval Newton does not contract the root box")
        box = nxt
    cell = _round_out(box, 1 << n).intersect(certified)
    return RectInterval(*(c if c.width <= target else b
                          for c, b in ((cell.re, box.re), (cell.im, box.im))))


def _isolate_roots(coeffs) -> list[RectInterval] | None:
    """Disjoint boxes of width 2^-_ROOT_BITS, one per root; None if p has a
    repeated root, which gcd(p, p') decides exactly.

    numpy.roots seeds each root; point Newton steps in exact complex
    rational arithmetic, rounded to a grid 2^-40 finer than the boxes,
    polish the seed, and the box around it counts only if its own Newton
    image lies inside it (`_newton_step`), which proves it holds exactly
    one root.  deg p pairwise disjoint such boxes hold every root;
    anything less raises FieldError.  A real seed stays real, so the box
    of a real root is symmetric about the real axis.  Degree 1 gives the
    exact rational root.
    """
    import numpy as np

    if len(coeffs) == 2:
        return [RectInterval.point(-coeffs[0] / coeffs[1])]
    dcoeffs = poly_derivative(coeffs)
    if len(_poly_gcd(coeffs, dcoeffs)) > 1:
        return None
    grid = 1 << (_ROOT_BITS + 40)
    w = Fraction(1, 1 << (_ROOT_BITS + 1))
    boxes = []
    for z in np.roots([float(c) for c in reversed(coeffs)]):
        re, im = _as_fraction(z.real), _as_fraction(z.imag)
        for _ in range(8):
            pr, pi = _complex_eval(coeffs, re, im)
            dr, di = _complex_eval(dcoeffs, re, im)
            m = dr * dr + di * di
            if not m:
                break
            # z - p(z)/p'(z) = z - p(z) conj(p'(z)) / |p'(z)|^2, rounded to the grid
            nxt = (Fraction(round((re - (pr * dr + pi * di) / m) * grid), grid),
                   Fraction(round((im - (pi * dr - pr * di) / m) * grid), grid))
            if nxt == (re, im):
                break
            re, im = nxt
        box = RectInterval(RatInterval(re - w, re + w), RatInterval(im - w, im + w))
        n = _newton_step(coeffs, dcoeffs, box)
        if n is None or not n.contained_in(box):
            raise FieldError("interval Newton does not certify a root box")
        boxes.append(box)
    if any(a.intersect(b) is not None for a, b in combinations(boxes, 2)):
        raise FieldError("root boxes overlap: unseparated roots")
    return boxes


def _complex_eval(coeffs, re, im):
    """p(re + i im) by Horner, as an exact (real, imaginary) pair."""
    a = b = 0
    for c in reversed(coeffs):
        a, b = a * re - b * im + c, a * im + b * re
    return a, b


def _holds_real_root(box: RectInterval) -> bool:
    # the one root of a box symmetric about the real axis is its own conjugate
    return box.im.lo == -box.im.hi


def _select_root(boxes, root_box: RootBox) -> RectInterval:
    """The one root box inside root_box; for a real root_box, the one real
    root whose box's real part lies inside root_box.real.  A root box that
    meets root_box but sticks out of it counts against it."""
    rect = root_box.as_rect()
    if root_box.is_real:
        seen = [(b, RectInterval(b.re, rect.im)) for b in boxes if _holds_real_root(b)]
    else:
        seen = [(b, b) for b in boxes]
    hits = [(b, part) for b, part in seen if part.intersect(rect) is not None]
    if len(hits) != 1 or not hits[0][1].contained_in(rect):
        raise FieldError("isolating box does not isolate a single root")
    return hits[0][0]


# ----------------------------------------------------------------------
# the field
# ----------------------------------------------------------------------

class NumberField:
    """Q(rho), rho the root of a monic rational polynomial inside a given box."""

    def __init__(self, min_poly: Sequence, root_box: RootBox, complex_embedding: bool = False):
        coeffs = [_as_fraction(c) for c in min_poly]
        if len(coeffs) < 2:
            raise FieldError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        roots = _isolate_roots(coeffs)
        if roots is None or not _is_irreducible(coeffs, roots):
            raise FieldError("minimal polynomial is reducible over Q")
        self.min_poly = coeffs
        self._dpoly = poly_derivative(coeffs)
        self.degree = len(coeffs) - 1
        self.complex_embedding = complex_embedding
        if complex_embedding and root_box.is_real:
            raise FieldError("complex backend requires a genuinely complex root box")
        if not complex_embedding and not root_box.is_real:
            raise FieldError("real backend requires a real root box")
        self._root = _select_root(roots, root_box)
        if complex_embedding and self._root.im.contains(0):
            raise FieldError("complex backend requires a non-real root")
        # reduction table: rho^D .. rho^(2D-2) in the power basis, times _scale
        self._table, self._scale = self._build_table()
        self._enclosure_cache: dict = {}

        self.zero = self.element([0] * self.degree)
        self.one = self.element([1] + [0] * (self.degree - 1))
        self.gen = (self.element([0, 1] + [0] * (self.degree - 2))
                    if self.degree >= 2 else self.element([-coeffs[0]]))

    # -- setup ----------------------------------------------------------
    def _build_table(self):
        """Int rows T*rho^D .. T*rho^(2D-2) in the power basis, and the
        least T > 0 that clears their denominators."""
        d = self.degree
        # rho^d = -(c_0 + c_1 rho + ... + c_{d-1} rho^{d-1})
        powers = [[-c for c in self.min_poly[:d]]]
        for _ in range(d - 2):
            prev = powers[-1]
            shifted = [Fraction(0)] + prev[:-1]
            lead = prev[-1]
            powers.append([s + lead * p for s, p in zip(shifted, powers[0])])
        powers = powers[:d - 1]
        scale = lcm(*(c.denominator for row in powers for c in row))
        return [tuple(int(c * scale) for c in row) for row in powers], scale

    # -- element constructors --------------------------------------------
    def element(self, coeffs) -> "FieldElement":
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise FieldError(f"expected at most {self.degree} coefficients")
        cs += [Fraction(0)] * (self.degree - len(cs))
        # over the lcm of the reduced denominators the numerators share no
        # factor with it, so the pair is already canonical
        den = lcm(*(c.denominator for c in cs))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def from_rational(self, q) -> "FieldElement":
        return self.element([_as_fraction(q)])

    # -- arithmetic backend ----------------------------------------------
    def _mul(self, a, b):
        """Int numerators of a*b*_scale reduced modulo the minimal polynomial,
        for int numerator vectors a and b."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        scale = self._scale
        out = conv[:d] if scale == 1 else [c * scale for c in conv[:d]]
        for ck, row in zip(conv[d:], self._table):
            if ck:
                for i, t in enumerate(row):
                    out[i] += ck * t
        return out

    def _inverse(self, a):
        # extended Euclid in Q[x] against the minimal polynomial
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        r0, r1 = list(self.min_poly), list(a)
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        # r0 is a nonzero constant gcd (minimal polynomial irreducible)
        c = r0[0]
        inv = [t / c for t in t0]
        inv += [Fraction(0)] * (self.degree - len(inv))
        return tuple(inv[:self.degree])

    # -- embedding ---------------------------------------------------------
    def refine_root(self, target_width: Fraction):
        """Shrink the selected root's box to width <= target_width.

        Interval Newton on an outward-rounded dyadic grid (`_refine`), the
        same for a real and a complex field.
        """
        if self._root.width <= target_width:
            return
        self._enclosure_cache.clear()
        self._root = _refine(self.min_poly, self._dpoly, self._root, target_width)

    def enclose(self, el: "FieldElement", bits: int = 64):
        """Certified enclosure of el's embedding: RatInterval or RectInterval."""
        key = (el.num, el.den, bits)
        hit = self._enclosure_cache.get(key)
        if hit is not None:
            return hit
        target = Fraction(1, 1 << bits)
        size = Fraction(sum(map(abs, el.num)), el.den) + 1
        # linear error propagation: output width <~ size * D * box width
        self.refine_root(target / (size * self.degree * 4))
        out = self._eval_at_root(el)
        while out.width > target and self._root.width > 0:
            self.refine_root(self._root.width / 16)
            out = self._eval_at_root(el)
        if len(self._enclosure_cache) > 100_000:
            self._enclosure_cache.clear()
        self._enclosure_cache[key] = out
        return out

    def _eval_at_root(self, el: "FieldElement"):
        # Horner on the int numerators, then one division by den: scaling by
        # a positive rational commutes with exact interval Horner, so this is
        # the enclosure that Horner on the rational coefficients gives
        root = self._root if self.complex_embedding else self._root.re  # the root is real
        out = poly_eval(el.num, root)
        if not isinstance(out, (RatInterval, RectInterval)):  # degree 1: a real rational
            return RatInterval.point(Fraction(out, el.den))
        return out if el.den == 1 else out * Fraction(1, el.den)

    def multiplication_matrix(self, el: "FieldElement"):
        """Rational matrix of y -> el*y on the power basis (column j: el*rho^j)."""
        cols = [el]
        for _ in range(self.degree - 1):
            cols.append(cols[-1] * self.gen)
        return tuple(tuple(cols[j].coeffs[i] for j in range(self.degree))
                     for i in range(self.degree))

    def basis_embeddings(self, bits: int = 64):
        """Float (or complex) values of 1, rho, ..., rho^(D-1)."""
        out = []
        p = self.one
        for _ in range(self.degree):
            enc = p.enclosure(bits)
            out.append(complex(enc) if self.complex_embedding else float(enc.mid))
            p = p * self.gen
        return out

    # -- conjugation (complex quadratic fields) ------------------------------
    def conjugate(self, el: "FieldElement") -> "FieldElement":
        """Complex conjugation as the automorphism rho -> -c1 - rho (degree 2)."""
        if not (self.complex_embedding and self.degree == 2):
            raise FieldError("conjugation automorphism only available for quadratic fields")
        a, b = el.coeffs
        c1 = self.min_poly[1]
        return self.element([a - b * c1, -b])

    def __repr__(self):
        kind = "complex" if self.complex_embedding else "real"
        return f"NumberField(deg={self.degree}, {kind}, minpoly={[str(c) for c in self.min_poly]})"


def _poly_divmod(a, b):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, bi in enumerate(b):
            a[i + k] -= f * bi
        while a and a[-1] == 0:
            a.pop()
    return q, (a or [Fraction(0)])


def _poly_gcd(a, b):
    while any(b):
        a, b = b, _poly_divmod(a, b)[1]
    return a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _reduced(field: NumberField, num, den: int) -> "FieldElement":
    """The element num/den (den > 0) in lowest terms: one gcd."""
    g = gcd(den, *num)
    if g != 1:
        return FieldElement(field, tuple(n // g for n in num), den // g)
    return FieldElement(field, tuple(num), den)


class FieldElement:
    """(n0 + n1*rho + ... + n_{D-1}*rho^{D-1}) / den, exact.

    num holds the int numerators n_i and den is a positive int, kept
    canonical: gcd(den, n_0, ..., n_{D-1}) = 1, so zero is (0, ..., 0)/1
    and equal elements have equal (num, den).  The constructor trusts
    its caller to pass that form; `NumberField.element` builds it from
    rational coefficients.  `coeffs` gives the Fractions n_i / den.
    """

    __slots__ = ("field", "num", "den", "_coeffs")

    def __init__(self, field: NumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._coeffs = None

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients n_i / den in the power basis."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(n, self.den) for n in self.num)
        return self._coeffs

    # -- ring operations -----------------------------------------------
    def _check(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldError("elements from different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        other = self._check(other)
        da, db = self.den, other.den
        if da == db:
            return _reduced(self.field, [a + b for a, b in zip(self.num, other.num)], da)
        return _reduced(self.field, [a * db + b * da for a, b in zip(self.num, other.num)],
                        da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        field = self.field
        return _reduced(field, field._mul(self.num, other.num),
                        self.den * other.den * field._scale)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self.field.element(self.field._inverse(self.coeffs))

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.field is other.field and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def compare(self, other) -> int:
        """-1/0/+1 against another element, exact (real embedding only)."""
        if self.field.complex_embedding:
            raise FieldError("complex embeddings are not ordered")
        diff = self - self._check(other)
        if diff.is_zero():
            return 0
        bits = 64
        while True:
            enc = diff.enclosure(bits)
            s = enc.sign()
            if s is not None:
                return s
            bits *= 2

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- embedding helpers --------------------------------------------------
    def enclosure(self, bits: int = 64):
        return self.field.enclose(self, bits)

    def conjugate(self) -> "FieldElement":
        return self.field.conjugate(self)

    def modulus_sq(self) -> "FieldElement":
        """|x|^2, exact: x*x, or x*conj(x) over a complex (quadratic) field."""
        if not self.field.complex_embedding:
            return self * self
        return self * self.conjugate()

    def __float__(self):
        enc = self.enclosure(64)
        if isinstance(enc, RectInterval):
            raise FieldError("complex element has no float value; use complex()")
        return float(enc.mid)

    def __complex__(self):
        enc = self.enclosure(64)
        if isinstance(enc, RectInterval):
            return complex(enc)
        return complex(float(enc.mid), 0.0)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "r" if i == 1 else f"r^{i}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def __repr__(self):
        return f"<{self}>"


# ----------------------------------------------------------------------
# Pisot classification (advisory)
# ----------------------------------------------------------------------

class PisotReport:
    def __init__(self, kind: str, is_algebraic_integer: bool, moduli: list, selected_modulus: float):
        self.kind = kind  # 'pisot' | 'complex-pisot' | 'neither'
        self.is_algebraic_integer = is_algebraic_integer
        self.conjugate_moduli = moduli
        self.selected_modulus = selected_modulus

    def __repr__(self):
        return (f"PisotReport({self.kind}, alg_int={self.is_algebraic_integer}, "
                f"|1/rho|={self.selected_modulus:.6f}, conj moduli={self.conjugate_moduli})")


def check_pisot(min_poly: Sequence, root_box: RootBox) -> PisotReport:
    """Classify 1/rho as Pisot, complex Pisot, or neither.

    1/rho is (complex) Pisot iff the reversed monic polynomial has integer
    coefficients, |rho| < 1, and every conjugate of rho other than its
    complex partner has modulus > 1.  Every root is held in a certified
    box (`_isolate_roots`), and root_box selects rho's as it does for
    `NumberField`; a modulus comparison those boxes leave undecided
    classifies as neither.  Advisory only: reducible inputs are
    still classified by the selected root and its cofactors.  The moduli
    reported are those of the reciprocals.
    """
    coeffs = [_as_fraction(c) for c in min_poly]
    if len(coeffs) < 2 or coeffs[-1] == 0:
        raise FieldError("the polynomial must have degree >= 1 and a nonzero leading coefficient")
    if coeffs[0] == 0:
        raise FieldError("zero is a root; reciprocal undefined")
    is_alg_int = all((c / coeffs[0]).denominator == 1 for c in coeffs)
    boxes = _isolate_roots(coeffs)
    if boxes is None:
        raise FieldError("the polynomial has a repeated root")
    sel = _select_root(boxes, root_box)
    selected_is_real = _holds_real_root(sel)
    # the conjugates, without the complex partner of a non-real selected root
    others = [b for b in boxes
              if b is not sel and (selected_is_real or b.intersect(sel.conj()) is None)]
    if len(others) != len(boxes) - (1 if selected_is_real else 2):
        raise FieldError("could not match the complex conjugate of the selected root")
    if (is_alg_int and sel.modulus_sq().hi < 1
            and all(b.modulus_sq().lo > 1 for b in others)):
        kind = "pisot" if selected_is_real else "complex-pisot"
    else:
        kind = "neither"
    return PisotReport(kind, is_alg_int, [1 / abs(complex(b)) for b in others],
                       1 / abs(complex(sel)))
