"""Contracting similitudes with exact algebra, and iterated function systems.

A similitude is x -> L x + t where L is r^k times an exact orthogonal
dxd matrix over the number field; over a complex field d = 1 and L is a
single entry of modulus r^k.  Composition, inversion and equality are
all exact; the integer scale exponent k is carried explicitly so that
stopping-set bookkeeping never touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .field import FieldElement, NumberField
from .intervals import RatInterval, RectInterval, sqrt_interval


class MapError(ValueError):
    pass


_BALL_BITS = 96  # bits of the certified enclosures behind the invariant ball and its test


# ----------------------------------------------------------------------
# small exact linear algebra over the field
# ----------------------------------------------------------------------

def _dot(u, v):
    # a term with a zero factor is skipped, not multiplied: linear parts such
    # as r^k * I are mostly zeros; a 1x1 product is one multiply
    out = None
    for x, y in zip(u, v):
        if any(x.num) and any(y.num):
            out = x * y if out is None else out + x * y
    return u[0].field.zero if out is None else out


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def mat_vec(a, v):
    return tuple(_dot(row, v) for row in a)


def mat_inv(a):
    """Inverse of a small matrix over the field, by Gaussian elimination."""
    d = len(a)
    field = a[0][0].field
    aug = [list(row) + [field.one if i == j else field.zero for j in range(d)]
           for i, row in enumerate(a)]
    for col in range(d):
        piv = next((r for r in range(col, d) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise MapError("singular linear part")
        aug[col], aug[piv] = aug[piv], aug[col]
        invp = aug[col][col].inverse()
        aug[col] = [x * invp for x in aug[col]]
        for r in range(d):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def identity_matrix(field: NumberField, d: int):
    return tuple(tuple(field.one if i == j else field.zero for j in range(d))
                 for i in range(d))


def _int_coeffs(el: FieldElement):
    """(numerator, denominator) of each coefficient of el in lowest terms, flat."""
    den = el.den
    out = []
    for n in el.num:
        g = gcd(n, den)
        out.append(n // g)
        out.append(den // g)
    return tuple(out)


# ----------------------------------------------------------------------
# similitudes
# ----------------------------------------------------------------------

class Similitude:
    """x -> L x + t with similarity ratio r^exponent.

    L is a dxd tuple-of-tuples of FieldElement and t a d-tuple.  Over a
    complex field d = 1: the map z -> c z + t is held as L = ((c,),),
    t = (t,), and points are 1-tuples.
    """

    __slots__ = ("field", "linear", "translation", "exponent", "_key",
                 "_lin_ident", "_inv", "_hash")

    def __init__(self, field: NumberField, linear, translation, exponent: int,
                 lin_ident: bool | None = None):
        self.field = field
        self.linear = linear
        self.translation = translation
        self.exponent = exponent
        self._inv = None
        self._hash = None
        if lin_ident is None:
            lin_ident = all(
                linear[i][j] == (field.one if i == j else field.zero)
                for i in range(len(linear)) for j in range(len(linear)))
        self._lin_ident = lin_ident
        # keys are flat int tuples: cheap to hash, compare and sort
        self._key = (exponent,
                     tuple(_int_coeffs(c) for row in linear for c in row),
                     tuple(_int_coeffs(c) for c in translation))

    @property
    def dim(self) -> int:
        return len(self.translation)

    @staticmethod
    def identity(field: NumberField, d: int = 1) -> "Similitude":
        return Similitude(field, identity_matrix(field, d),
                          tuple(field.zero for _ in range(d)), 0)

    def is_identity(self) -> bool:
        return self == Similitude.identity(self.field, self.dim)

    # -- algebra -----------------------------------------------------------
    def compose(self, other: "Similitude") -> "Similitude":
        """self after other: x -> self(other(x))."""
        if self.field is not other.field:
            raise MapError("similitudes over different fields")
        k = self.exponent + other.exponent
        if self._lin_ident:
            return Similitude(self.field, other.linear,
                              tuple(a + b for a, b in zip(other.translation,
                                                          self.translation)), k,
                              lin_ident=other._lin_ident)
        lin = mat_mul(self.linear, other.linear)
        tr = tuple(a + b for a, b in
                   zip(mat_vec(self.linear, other.translation), self.translation))
        return Similitude(self.field, lin, tr, k)

    def inverse(self) -> "Similitude":
        if self._inv is not None:
            return self._inv
        ident = None
        if self._lin_ident:
            lin, tr, ident = self.linear, tuple(-x for x in self.translation), True
        else:
            lin = mat_inv(self.linear)
            tr = tuple(-x for x in mat_vec(lin, self.translation))
        out = Similitude(self.field, lin, tr, -self.exponent, lin_ident=ident)
        out._inv = self
        self._inv = out
        return out

    def apply(self, point):
        if self._lin_ident:
            return tuple(a + b for a, b in zip(point, self.translation))
        return tuple(a + b for a, b in zip(mat_vec(self.linear, point), self.translation))

    __call__ = apply

    def fixed_point(self):
        """The unique fixed point of a contracting similitude."""
        d = self.dim
        field = self.field
        m = tuple(tuple((field.one if i == j else field.zero) - self.linear[i][j]
                        for j in range(d)) for i in range(d))
        return mat_vec(mat_inv(m), self.translation)

    # -- identity/ordering helpers -------------------------------------------
    def key(self):
        return self._key

    def __eq__(self, other):
        # like FieldElement equality: maps over distinct fields never match
        return (isinstance(other, Similitude) and self.field is other.field
                and self._key == other._key)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __str__(self):
        if self.field.complex_embedding:
            return f"z->({self.linear[0][0]})*z+({self.translation[0]})"
        rows = ";".join(",".join(str(c) for c in row) for row in self.linear)
        tr = ",".join(str(c) for c in self.translation)
        return f"x->[{rows}]x+({tr})"

    def __repr__(self):
        return f"Similitude({self}, k={self.exponent})"


def dist_sq_interval(p, q, bits: int = 96) -> RatInterval:
    """Certified enclosure of the squared distance between two field points."""
    terms = [(a - b).modulus_sq() for a, b in zip(p, q)]
    enc = sum(terms[1:], start=terms[0]).enclosure(bits)
    # a real-valued element of a complex field lies in the real slice
    return enc.re if isinstance(enc, RectInterval) else enc


# ----------------------------------------------------------------------
# scale bookkeeping
# ----------------------------------------------------------------------

class ScaleBase:
    """The base contraction r, with certified access to powers r^e.

    Real backend stores r itself; the complex backend stores r^2 = c*cbar
    (the modulus generally lies outside the field).
    """

    def __init__(self, field: NumberField, ratio: FieldElement | None = None,
                 ratio_sq: FieldElement | None = None):
        self.field = field
        if field.complex_embedding:
            if field.degree != 2:
                # the modulus check |c|^2 = r^(2k) is exact through
                # conj(rho) = -c1 - rho, which holds in a quadratic field only;
                # a planar system over another field takes the real form
                raise MapError(f"a complex field must be quadratic, not of degree "
                               f"{field.degree}: write the maps as 2x2 matrices over "
                               f"a real field, with \"backend\": \"real\" and "
                               f"\"dimension\": 2")
            if ratio_sq is None:
                raise MapError("complex backend needs the squared base ratio")
            self.ratio = None
            self.ratio_sq = ratio_sq
        else:
            if ratio is None:
                raise MapError("real backend needs the base ratio")
            self.ratio = ratio
            self.ratio_sq = ratio * ratio
        iv = self.ratio_sq_interval(1)
        if not (iv.lo > 0 and iv.hi < 1):
            raise MapError("base ratio must lie strictly inside (0,1)")

    def ratio_sq_interval(self, e: int, bits: int = 64) -> RatInterval:
        enc = (self.ratio_sq ** e).enclosure(bits)
        if isinstance(enc, RatInterval):
            return enc
        lo = max(Fraction(0), enc.re.lo)
        return RatInterval(lo, enc.re.hi)

    def ratio_interval(self, e: int, bits: int = 64) -> RatInterval:
        """Certified enclosure of r^e for any integer e."""
        if self.ratio is not None:
            enc = (self.ratio ** e).enclosure(bits)
            return enc
        return sqrt_interval(self.ratio_sq_interval(e, bits), bits)

    def log_ratio(self) -> float:
        import math
        if self.ratio is not None:
            return math.log(float(self.ratio))
        return 0.5 * math.log(float(self.ratio_sq_interval(1).mid))


# ----------------------------------------------------------------------
# words and the IFS
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """A finite composition address with its exact weight and scale."""
    letters: tuple
    probability: Fraction
    exponent: int


@dataclass(frozen=True)
class BoundingBall:
    """Ball B(c, R) with S_i(B) inside B for every generator, so K inside B."""
    center: tuple
    radius: Fraction     # rational upper bound
    radius_sq: Fraction  # radius**2 (kept exact to avoid resquaring)

    def __repr__(self):
        return f"BoundingBall(R<={self.radius})"


@dataclass(frozen=True)
class Bridge:
    """One refinement step from a cylinder at one stopping level to the next."""
    letters: tuple
    weight: int  # the word's probability as an int over IFS.den
    map: Similitude
    new_tag: int


class IFS:
    """An ordered list of contracting similitudes with a probability vector."""

    def __init__(self, field: NumberField, maps, probabilities, base: ScaleBase,
                 mode: str = "equicontractive"):
        self.field = field
        self.maps = list(maps)
        self.probabilities = [Fraction(p) for p in probabilities]
        self.base = base
        self.mode = mode
        self.m = len(self.maps)
        self.exponents = [s.exponent for s in self.maps]
        self._validate()
        self.k_max = max(self.exponents)
        self.dim = self.maps[0].dim
        self._bridge_cache: dict[int, tuple] = {}
        self._meet_bounds: dict = {}  # exponent k -> (1 + r^k)^2 R^2, for `may_meet`
        # the one denominator of every bridge weight, over all scale tags
        self.den = lcm(*(w.probability.denominator for budget in range(1, self.k_max + 1)
                         for w in self.stopping_words(budget)))

    # -- validation (exact) --------------------------------------------------
    def _validate(self):
        if self.m < 1:
            raise MapError("need at least one map")
        if len(self.probabilities) != self.m:
            raise MapError("probability vector length mismatch")
        if any(p <= 0 for p in self.probabilities):
            raise MapError("probabilities must be positive")
        if sum(self.probabilities) != 1:
            raise MapError("probabilities must sum to exactly 1")
        if len({s.key() for s in self.maps}) != self.m:
            raise MapError("maps must be distinct")
        if any(s.exponent < 1 for s in self.maps):
            raise MapError("generator scale exponents must be >= 1")
        if self.mode == "equicontractive" and any(k != 1 for k in self.exponents):
            raise MapError("equicontractive mode requires every exponent equal to 1")
        for s in self.maps:
            self._check_orthogonal(s)

    def _check_orthogonal(self, s: Similitude):
        rk = self.base.ratio_sq ** s.exponent
        if self.field.complex_embedding:
            if s.linear[0][0].modulus_sq() != rk:
                raise MapError(f"linear part of {s} has |c|^2 != r^(2k)")
            return
        d = s.dim
        lt = tuple(tuple(s.linear[j][i] for j in range(d)) for i in range(d))
        prod = mat_mul(lt, s.linear)
        for i in range(d):
            for j in range(d):
                want = rk if i == j else self.field.zero
                if prod[i][j] != want:
                    raise MapError(f"linear part of {s} is not r^k-orthogonal")

    # -- stopping sets ---------------------------------------------------------
    def stopping_words(self, n: int) -> list[Word]:
        """All words whose scale exponent first reaches n.

        Exponent-threshold semantics in the base r: a word i1..ik stops
        at level n when k_{i1}+...+k_{ik} >= n while every proper prefix
        stays below n.  Equicontractive systems give exactly the length-n
        words.  Decided purely on integers.
        """
        if n < 0:
            raise MapError("level must be >= 0")
        if n == 0:
            return [Word((), Fraction(1), 0)]
        out: list[Word] = []
        stack = [((), Fraction(1), 0)]
        while stack:
            letters, prob, expo = stack.pop()
            for i in range(self.m - 1, -1, -1):
                e2 = expo + self.exponents[i]
                w = (letters + (i,), prob * self.probabilities[i], e2)
                if e2 >= n:
                    out.append(Word(*w))
                else:
                    stack.append(w)
        out.sort(key=lambda w: w.letters)
        return out

    def bridges(self, tag: int) -> tuple:
        """Refinement steps for a cylinder carrying scale tag r^tag.

        The budget to the next stopping level is k_max - tag; returned
        bridges are exactly the stopping words of that budget together
        with their composed maps and the tag at the next level.
        """
        hit = self._bridge_cache.get(tag)
        if hit is not None:
            return hit
        if not 0 <= tag < self.k_max:
            raise MapError(f"scale tag {tag} outside [0, {self.k_max})")
        budget = self.k_max - tag
        words = self.stopping_words(budget)
        out = []
        for w in words:
            smap = self.map_of_word(w.letters)
            weight = (w.probability * self.den).numerator
            out.append(Bridge(w.letters, weight, smap, tag + w.exponent - self.k_max))
        out = tuple(out)
        self._bridge_cache[tag] = out
        return out

    def map_of_word(self, letters) -> Similitude:
        s = Similitude.identity(self.field, self.dim)
        for i in letters:
            s = s.compose(self.maps[i])
        return s

    def word(self, letters) -> Word:
        p = Fraction(1)
        e = 0
        for i in letters:
            p *= self.probabilities[i]
            e += self.exponents[i]
        return Word(tuple(letters), p, e)

    # -- geometry ----------------------------------------------------------------
    def identity_map(self) -> Similitude:
        return Similitude.identity(self.field, self.dim)

    @cached_property
    def ball(self) -> BoundingBall:
        """The invariant ball, centered at the mean of the generator fixed points."""
        fps = [s.fixed_point() for s in self.maps]
        minv = self.field.from_rational(Fraction(1, self.m))
        center = tuple(sum((fp[i] for fp in fps[1:]), start=fps[0][i]) * minv
                       for i in range(self.dim))
        # R = max_i |S_i(c) - c| / (1 - r_max), r_max the largest generator ratio
        rmax = self.base.ratio_interval(min(self.exponents), _BALL_BITS)
        num_sq = RatInterval.point(0)
        for s in self.maps:
            d2 = dist_sq_interval(s.apply(center), center, _BALL_BITS)
            if d2.hi > num_sq.hi:
                num_sq = d2
        r_up = (sqrt_interval(RatInterval(max(Fraction(0), num_sq.lo), num_sq.hi), 80)
                / (RatInterval.point(1) - rmax)).hi
        return BoundingBall(center, r_up, r_up * r_up)

    def may_meet(self, smap: Similitude) -> bool:
        """Necessary condition for smap(K) to meet K; False only when certified.

        K lies in the ball B(c, R), so smap(K) meets K only if
        |smap(c) - c| <= (1 + r^k) R; the right side, squared, depends
        only on the exponent k and is kept per k.
        """
        k = smap.exponent
        ball = self.ball
        rhs = self._meet_bounds.get(k)
        if rhs is None:
            ratio = self.base.ratio_interval(k, _BALL_BITS)
            rhs = self._meet_bounds[k] = ((RatInterval.point(1) + ratio).square()
                                          * RatInterval.point(ball.radius_sq))
        lhs = dist_sq_interval(smap.apply(ball.center), ball.center, _BALL_BITS)
        return not lhs.strictly_greater(rhs)

    def log_stopping_ratio(self) -> float:
        """log of the per-level contraction rho = r^k_max."""
        return self.k_max * self.base.log_ratio()
