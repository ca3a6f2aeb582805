"""Exact arithmetic in Q(rho) for an algebraic contraction ratio rho.

Elements are rational coefficient vectors in the power basis
1, rho, ..., rho^(D-1) reduced modulo a monic minimal polynomial, so
equality is literal coefficient equality and all ring/field operations
are exact.  The selected root is pinned down by a rational isolating
box which can be refined on demand; every element then gets a certified
interval (real backend) or rectangle (complex backend) enclosure of its
embedding.

One interval-Newton operator on rational rectangles (`_newton_step`)
certifies roots: `_refine_complex_root` pins a complex selected root with
it, and `check_pisot` certifies every root with it from `numpy.roots`
seeds (a real selected root is pinned by bisection).  sympy is imported
only by the irreducibility test of a minimal polynomial of degree >= 3;
degrees 1 and 2 are decided here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Sequence

from .intervals import RatInterval, RectInterval

Rat = Fraction
_PISOT_BITS = 80  # check_pisot's root boxes have width 2^-_PISOT_BITS


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def parse_rational(s) -> Fraction:
    """Parse a 'num/den' string (or int) into an exact Fraction."""
    return _rat(s)


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


def _is_rational_square(q: Fraction) -> bool:
    return (q >= 0 and isqrt(q.numerator) ** 2 == q.numerator
            and isqrt(q.denominator) ** 2 == q.denominator)


def _is_irreducible(coeffs: Sequence[Fraction]) -> bool:
    """Irreducibility over Q; degree >= 3 is decided by sympy's factor_list.

    a x^2 + b x + c is reducible iff it has a rational root, i.e. iff its
    discriminant b^2 - 4ac is the square of a rational.
    """
    degree = len(coeffs) - 1
    if degree == 1:
        return True
    if degree == 2:
        c, b, a = coeffs
        return not _is_rational_square(b * b - 4 * a * c)
    import sympy

    poly = sympy.Poly.from_list([sympy.Rational(c.numerator, c.denominator)
                                 for c in reversed(coeffs)], sympy.Symbol("x"))
    _, factors = poly.factor_list()
    return len(factors) == 1 and factors[0][1] == 1


# ----------------------------------------------------------------------
# certified root isolation
# ----------------------------------------------------------------------

class RootBox:
    """Rational isolating region for one root: an interval or a rectangle."""

    def __init__(self, real: RatInterval, imag: RatInterval | None = None):
        self.real = real
        self.imag = imag  # None => real root

    @property
    def is_real(self) -> bool:
        return self.imag is None or (self.imag.lo == 0 == self.imag.hi)

    def as_rect(self) -> RectInterval:
        return RectInterval(self.real, self.imag or RatInterval.point(0))

    @property
    def width(self) -> Fraction:
        if self.imag is None:
            return self.real.width
        return max(self.real.width, self.imag.width)

    def __repr__(self):
        if self.imag is None:
            return f"RootBox({self.real!r})"
        return f"RootBox({self.real!r}, {self.imag!r})"


def _bisect_real_root(coeffs, lo: Fraction, hi: Fraction, target: Fraction):
    """Shrink [lo,hi] around a sign-change root until width <= target."""
    flo = poly_eval(coeffs, lo)
    fhi = poly_eval(coeffs, hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise FieldError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > target:
        mid = (lo + hi) / 2
        fm = poly_eval(coeffs, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def _newton_step(coeffs, dcoeffs, box: RectInterval):
    mid = RectInterval.point(*box.mid)
    dp = poly_eval(dcoeffs, box)
    if dp.contains_zero():
        return None
    return mid - poly_eval(coeffs, mid) / dp


def _refine_complex_root(coeffs, box: RectInterval, target: Fraction,
                         certified: bool) -> tuple[RectInterval, bool]:
    """Shrink a rectangle around a simple complex root.

    Returns (box, certified): certified means an interval-Newton
    contraction N(box) within box was observed, which proves existence
    and uniqueness of a root in the box.
    """
    dcoeffs = poly_derivative(coeffs)
    for _ in range(256):
        if certified and box.width <= target:
            return box, True
        n = _newton_step(coeffs, dcoeffs, box)
        if n is not None:
            inter = n.intersect(box)
            if inter is None:
                raise FieldError("isolating box excludes the root")
            if n.contained_in(box):
                certified = True
            if inter.width < box.width:
                box = inter
                continue
            if certified:
                return box, True
        # Newton not yet contracting: quadrisect and keep sub-boxes where
        # the polynomial may vanish.
        keep = [b for b in box.split4() if poly_eval(coeffs, b).contains_zero()]
        if not keep:
            raise FieldError("no root in the isolating box")
        if len(keep) == 1:
            box = keep[0]
        else:
            # root may sit on a split line; merge the survivors back
            re_lo = min(b.re.lo for b in keep)
            re_hi = max(b.re.hi for b in keep)
            im_lo = min(b.im.lo for b in keep)
            im_hi = max(b.im.hi for b in keep)
            merged = RectInterval(RatInterval(re_lo, re_hi), RatInterval(im_lo, im_hi))
            if merged.width >= box.width:
                # nudge: shrink towards the numeric root
                box = _numeric_shrink(coeffs, box)
            else:
                box = merged
    if not certified:
        raise FieldError("could not certify the isolating box; supply a tighter one")
    return box, certified


def _numeric_shrink(coeffs, box: RectInterval) -> RectInterval:
    import numpy as np

    roots = np.roots([float(c) for c in reversed(coeffs)])
    cx = complex(box)
    z = min(roots, key=lambda r: abs(r - cx))
    w = box.width / 4
    cand = RectInterval(RatInterval(_rat(z.real) - w, _rat(z.real) + w),
                        RatInterval(_rat(z.imag) - w, _rat(z.imag) + w))
    inter = cand.intersect(box)
    return inter if inter is not None else cand


def _isolate_roots(coeffs) -> list[RectInterval]:
    """Disjoint rectangles of width 2^-_PISOT_BITS, one per root.

    numpy.roots seeds each root; point Newton steps, rounded to a grid
    2^-40 finer than the boxes, polish the seed, and the box around it
    counts only if its own Newton image lies inside it (`_newton_step`),
    which proves it holds exactly one root.  deg p pairwise disjoint such
    boxes hold every root, so p is squarefree; anything less raises
    FieldError.  Degree 1 gives the exact rational root.
    """
    import numpy as np

    if len(coeffs) == 2:
        return [RectInterval.point(-coeffs[0] / coeffs[1])]
    dcoeffs = poly_derivative(coeffs)
    grid = 1 << (_PISOT_BITS + 40)
    w = Fraction(1, 1 << (_PISOT_BITS + 1))
    boxes = []
    for z in np.roots([float(c) for c in reversed(coeffs)]):
        pt = RectInterval.point(_rat(z.real), _rat(z.imag))
        for _ in range(8):
            nxt = _newton_step(coeffs, dcoeffs, pt)
            if nxt is None:
                break
            nxt = RectInterval.point(*(Fraction(round(x * grid), grid) for x in nxt.mid))
            if nxt == pt:
                break
            pt = nxt
        re, im = pt.mid
        box = RectInterval(RatInterval(re - w, re + w), RatInterval(im - w, im + w))
        n = _newton_step(coeffs, dcoeffs, box)
        if n is None or not n.contained_in(box):
            raise FieldError("interval Newton does not certify a root box")
        boxes.append(box)
    if any(a.intersect(b) is not None for a, b in combinations(boxes, 2)):
        raise FieldError("root boxes overlap: repeated or unseparated roots")
    return boxes


# ----------------------------------------------------------------------
# the field
# ----------------------------------------------------------------------

class NumberField:
    """Q(rho), rho the root of a monic rational polynomial inside a given box."""

    def __init__(self, min_poly: Sequence, root_box: RootBox, complex_embedding: bool = False):
        coeffs = [_rat(c) for c in min_poly]
        if len(coeffs) < 2:
            raise FieldError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        if not _is_irreducible(coeffs):
            raise FieldError("minimal polynomial is reducible over Q")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        self.complex_embedding = complex_embedding
        if complex_embedding and root_box.is_real:
            raise FieldError("complex backend requires a genuinely complex root box")
        if not complex_embedding and not root_box.is_real:
            raise FieldError("real backend requires a real root box")
        self._box = self._certify_box(root_box)
        # reduction table: rho^D .. rho^(2D-2) expressed in the power basis
        self._powers = self._build_powers()
        self._enclosure_cache: dict = {}

        self.zero = self.element([0] * self.degree)
        self.one = self.element([1] + [0] * (self.degree - 1))
        self.gen = (self.element([0, 1] + [0] * (self.degree - 2))
                    if self.degree >= 2 else self.element([-coeffs[0]]))

    # -- setup ----------------------------------------------------------
    def _certify_box(self, box: RootBox) -> RootBox:
        if self.degree == 1:
            root = -self.min_poly[0]
            if box.is_real and not box.real.contains(root):
                raise FieldError("isolating box does not contain the rational root")
            return RootBox(RatInterval.point(root))
        return self._shrink(box, Fraction(1, 1 << 64), certified=False)

    def _shrink(self, box: RootBox, target: Fraction, certified: bool) -> RootBox:
        if box.is_real:
            return RootBox(RatInterval(*_bisect_real_root(self.min_poly, box.real.lo,
                                                          box.real.hi, target)))
        rect, _ = _refine_complex_root(self.min_poly, box.as_rect(), target, certified)
        return RootBox(rect.re, rect.im)

    def _build_powers(self):
        d = self.degree
        # rho^d = -(c_0 + c_1 rho + ... + c_{d-1} rho^{d-1})
        powers = [[-c for c in self.min_poly[:d]]]
        for _ in range(d - 2):
            prev = powers[-1]
            shifted = [Fraction(0)] + prev[:-1]
            lead = prev[-1]
            powers.append([s + lead * p for s, p in zip(shifted, powers[0])])
        return powers

    # -- element constructors --------------------------------------------
    def element(self, coeffs) -> "FieldElement":
        cs = [_rat(c) for c in coeffs]
        if len(cs) > self.degree:
            raise FieldError(f"expected at most {self.degree} coefficients")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_rational(self, q) -> "FieldElement":
        return self.element([_rat(q)])

    # -- arithmetic backend ----------------------------------------------
    def _mul(self, a, b):
        d = self.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:d])
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                table = self._powers[k - d]
                for i in range(d):
                    out[i] += ck * table[i]
        return tuple(out)

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
        if self._box.width <= target_width:
            return
        self._enclosure_cache.clear()
        self._box = self._shrink(self._box, target_width, certified=True)

    def enclose(self, el: "FieldElement", bits: int = 64):
        """Certified enclosure of el's embedding: RatInterval or RectInterval."""
        key = (el.coeffs, bits)
        hit = self._enclosure_cache.get(key)
        if hit is not None:
            return hit
        target = Fraction(1, 1 << bits)
        size = sum(abs(c) for c in el.coeffs) + 1
        # linear error propagation: output width <~ size * D * box width
        self.refine_root(target / (size * self.degree * 4))
        out = self._eval_at_root(el)
        while out.width > target and self._box.width > 0:
            self.refine_root(self._box.width / 16)
            out = self._eval_at_root(el)
        if len(self._enclosure_cache) > 100_000:
            self._enclosure_cache.clear()
        self._enclosure_cache[key] = out
        return out

    def _eval_at_root(self, el: "FieldElement"):
        if self.complex_embedding:
            out = poly_eval(el.coeffs, self._box.as_rect())
            if not isinstance(out, RectInterval):
                out = RectInterval(out if isinstance(out, RatInterval)
                                   else RatInterval.point(out), RatInterval.point(0))
        else:
            out = poly_eval(el.coeffs, self._box.real)
            if not isinstance(out, RatInterval):
                out = RatInterval.point(out)
        return out

    def multiplication_matrix(self, el: "FieldElement"):
        """Rational matrix of y -> el*y on the power basis (column j: el*rho^j)."""
        cols = [el.coeffs]
        for _ in range(self.degree - 1):
            cols.append(self._mul(cols[-1], self.gen.coeffs))
        return tuple(tuple(cols[j][i] for j in range(self.degree))
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
    def has_conjugation(self) -> bool:
        return self.complex_embedding and self.degree == 2

    def conjugate(self, el: "FieldElement") -> "FieldElement":
        """Complex conjugation as the automorphism rho -> -c1 - rho (degree 2)."""
        if not self.has_conjugation():
            raise FieldError("conjugation automorphism only available for quadratic fields")
        a, b = el.coeffs
        c1 = self.min_poly[1]
        return self.element([a - b * c1, -b])

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

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


class FieldElement:
    """c0 + c1*rho + ... + c_{D-1}*rho^{D-1} with exact rational coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- ring operations -----------------------------------------------
    def _check(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldError("elements from different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inverse(self.coeffs))

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
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("element is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

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

    def modulus_sq(self):
        """|x|^2: exact FieldElement when conjugation exists, else RatInterval."""
        if not self.field.complex_embedding:
            return self * self
        if self.field.has_conjugation():
            return self * self.conjugate()
        return self.enclosure().modulus_sq()

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
    box (`_isolate_roots`); a modulus comparison those boxes leave
    undecided classifies as neither.  Advisory only: reducible inputs are
    still classified by the selected root and its cofactors.  The moduli
    reported are those of the reciprocals.
    """
    coeffs = [_rat(c) for c in min_poly]
    if coeffs[0] == 0:
        raise FieldError("zero is a root; reciprocal undefined")
    is_alg_int = all((c / coeffs[0]).denominator == 1 for c in coeffs)
    boxes = _isolate_roots(coeffs)
    inside = [b for b in boxes if b.intersect(root_box.as_rect()) is not None]
    if len(inside) != 1:
        raise FieldError("isolating box does not isolate a single root")
    sel = inside[0]
    selected_is_real = sel.im.contains(0)
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
