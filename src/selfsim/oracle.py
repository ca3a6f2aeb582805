"""Naive reference implementations used to validate the main pipeline.

Everything here works by brute force: discrete approximations of the
invariant measure, Monte-Carlo sampling, dyadic-cell moment sums, ball
subdivision for intersection tests, and exhaustive word enumeration.
It shares the IFS's geometry with the pipeline: the similitudes, the
certified distances, and the invariant ball `IFS.ball` with its test
`IFS.may_meet` (the ball is tested against its definition on its own).
It shares none of the neighbour, automaton or measure machinery, so
agreement between the two sides is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import RatInterval
from .maps import IFS, Similitude


class OracleError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# coefficient-lattice form of the generators
# ----------------------------------------------------------------------

def _flatten_point(point):
    return tuple(c for coord in point for c in coord.coeffs)


def _coeff_affine(ifs: IFS, smap: Similitude):
    """The generator as an affine map on flattened coefficient vectors."""
    field = ifs.field
    deg = field.degree
    d = smap.dim
    n = d * deg
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d):
        for j in range(d):
            block = field.multiplication_matrix(smap.linear[i][j])
            for u in range(deg):
                for v in range(deg):
                    a[i * deg + u][j * deg + v] = block[u][v]
    b = [c for coord in smap.translation for c in coord.coeffs]
    return a, b


class DiscreteMeasure:
    """Level-n discrete approximation: point masses p_I at S_I(x0).

    x0 is the fixed point of the first generator.  Points are kept as
    integer coefficient vectors over a common power-of-M denominator and
    weights as integers over a power of the lcm of the probability
    denominators, so words reaching the same point merge exactly and the
    weight sum stays exactly one at every level.
    """

    def __init__(self, ifs: IFS, level: int):
        self.ifs = ifs
        affines = [_coeff_affine(ifs, s) for s in ifs.maps]
        denoms = [c.denominator for a, b in affines for row in a for c in row]
        denoms += [c.denominator for _a, b in affines for c in b]
        m = math.lcm(*denoms)
        int_affines = []
        for a, b in affines:
            int_affines.append((tuple(tuple(int(c * m) for c in row) for row in a),
                                tuple(int(c * m) for c in b)))
        x0 = _flatten_point(ifs.maps[0].fixed_point())
        den0 = math.lcm(*(c.denominator for c in x0))
        start = tuple(int(c * den0) for c in x0)

        threshold = level * ifs.k_max
        exps = ifs.exponents
        pden = math.lcm(*(p.denominator for p in ifs.probabilities))
        probs = [p.numerator * (pden // p.denominator) for p in ifs.probabilities]
        # frontier: (point ints, exponent) -> weight; points at scale
        # den0*m^depth, weights as ints at scale pden^depth
        frontier = {(start, 0): 1}
        finished: dict = {}
        depth = 0
        max_len = 0
        if threshold == 0:
            finished[(start, 0)] = 1
            frontier = {}
        while frontier:
            nxt: dict = {}
            scale = den0 * m**depth
            steps = [(ai, [b * scale for b in bi], p, e)
                     for (ai, bi), p, e in zip(int_affines, probs, exps)]
            for (pt, expo), w in frontier.items():
                for ai, shift, p, e in steps:
                    p2 = tuple([sum([a * c for a, c in zip(row, pt)]) + b
                                for row, b in zip(ai, shift)])
                    w2 = w * p
                    e2 = expo + e
                    if e2 >= threshold:
                        max_len = max(max_len, depth + 1)
                        key = (p2, depth + 1)
                        finished[key] = finished.get(key, 0) + w2
                    else:
                        key = (p2, e2)
                        nxt[key] = nxt.get(key, 0) + w2
            frontier = nxt
            depth += 1
        merged: dict = {}
        for (pt, ln), w in finished.items():
            f = m ** (max_len - ln)
            key = tuple(c * f for c in pt)
            merged[key] = merged.get(key, 0) + w * pden ** (max_len - ln)
        self.scale = den0 * m**max_len
        self._weight_scale = pden**max_len
        self.points = list(merged.keys())
        self._int_weights = list(merged.values())
        if sum(self._int_weights) != self._weight_scale:
            raise OracleError("discrete measure weights do not sum to 1")
        self.weights = [Fraction(w, self._weight_scale) for w in self._int_weights]

    # -- embeddings ---------------------------------------------------------
    def positions(self):
        """Float positions: (N,) for 1-D, (N, d) for d-D, complex for C."""
        field = self.ifs.field
        deg = field.degree
        basis = field.basis_embeddings()
        pts = np.array(self.points, dtype=float) / float(self.scale)
        if field.complex_embedding:
            return pts @ np.array(basis, dtype=complex)
        d = self.ifs.dim
        bvec = np.array(basis, dtype=float)
        if d == 1:
            return pts @ bvec
        out = np.empty((len(self.points), d))
        for i in range(d):
            out[:, i] = pts[:, i * deg:(i + 1) * deg] @ bvec
        return out

    def weight_array(self):
        return np.array([w / self._weight_scale for w in self._int_weights])


# ----------------------------------------------------------------------
# regions and mass estimation
# ----------------------------------------------------------------------

@dataclass
class MassEstimate:
    lower: float
    upper: float
    stderr: float
    mode: str

    @property
    def value(self):
        return (self.lower + self.upper) / 2


_BOUNDARY_TOL = 1e-12  # a float point this close to an endpoint is undecided


class IntervalUnion:
    """Union of disjoint open 1-D intervals with rational endpoints."""

    def __init__(self, pieces):
        self.pieces = [(Fraction(a), Fraction(b)) for a, b in pieces if Fraction(b) > Fraction(a)]

    def classify_floats(self, xs):
        xs = np.asarray(xs)
        inside = np.zeros(len(xs), dtype=bool)
        maybe = np.zeros(len(xs), dtype=bool)
        tol = _BOUNDARY_TOL
        for a, b in self.pieces:
            fa, fb = float(a), float(b)
            inside |= (xs > fa + tol) & (xs < fb - tol)
            maybe |= (np.abs(xs - fa) <= tol) | (np.abs(xs - fb) <= tol)
        maybe &= ~inside
        return inside, maybe

    def classify_exact(self, x: Fraction):
        for a, b in self.pieces:
            if a < x < b:
                return True
            if x == a or x == b:
                return None
        return False


def _check_real_line(ifs: IFS, caller: str):
    if ifs.dim != 1 or ifs.field.complex_embedding:
        raise OracleError(f"{caller} is for 1-D real systems")


def estimate_mass(ifs: IFS, region, *, depth: int | None = None,
                  samples: int | None = None, seed: int = 0) -> MassEstimate:
    """Reference mass of a region: exact discrete sum or Monte-Carlo.

    depth mode sums the level-`depth` discrete measure, exactly where the
    region decides points exactly; undecided points widen the interval
    instead of being guessed.  samples mode draws i.i.d. points of the
    invariant measure and reports a binomial standard error.
    """
    if (depth is None) == (samples is None):
        raise OracleError("choose exactly one of depth= or samples=")
    _check_real_line(ifs, "estimate_mass")
    if depth is not None:
        dm = DiscreteMeasure(ifs, depth)
        lo = Fraction(0)
        und = Fraction(0)
        for pt, w in zip(dm.points, dm.weights):
            if all(c == 0 for c in pt[1:]):
                r = region.classify_exact(Fraction(pt[0], dm.scale))
            else:
                r = _classify_enclosure(ifs, pt, dm.scale, region)
            if r is True:
                lo += w
            elif r is None:
                und += w
        return MassEstimate(float(lo), float(lo + und), 0.0, "discrete-exact")

    pts = sample_points(ifs, samples, seed=seed)
    inside, maybe = region.classify_floats(pts)
    n_in = int(inside.sum())
    n_maybe = int(maybe.sum())
    p_lo = n_in / samples
    p_hi = (n_in + n_maybe) / samples
    phat = (p_lo + p_hi) / 2
    stderr = math.sqrt(max(phat * (1 - phat), 1.0 / samples) / samples)
    return MassEstimate(p_lo, p_hi, stderr, "monte-carlo")


def _classify_enclosure(ifs, pt, scale, region):
    enc = ifs.field.element([Fraction(c, scale) for c in pt]).enclosure(128)
    outside_all = True
    for a, b in region.pieces:
        pa, pb = RatInterval.point(a), RatInterval.point(b)
        if pa.strictly_less(enc) and enc.strictly_less(pb):
            return True
        if not (enc.strictly_less(pa) or pb.strictly_less(enc)):
            outside_all = False
    return False if outside_all else None


def sample_points(ifs: IFS, n: int, seed: int = 0, word_len: int | None = None):
    """n i.i.d. samples of the invariant measure (float precision).

    Letters are drawn one refinement step at a time (inverse-CDF on a
    uniform draw), so memory stays O(n) regardless of the word length.
    Only 1-D real systems, the ones `estimate_mass` takes.
    """
    _check_real_line(ifs, "sample_points")
    rng = np.random.default_rng(np.random.PCG64(seed))
    probs = np.array([float(p) for p in ifs.probabilities])
    cdf = np.cumsum(probs / probs.sum())[:-1]
    if word_len is None:
        rmax = float(ifs.base.ratio_interval(min(ifs.exponents)).mid)
        word_len = max(8, int(math.ceil(math.log(1e-12) / math.log(rmax))))

    def draw():
        return np.searchsorted(cdf, rng.random(n), side="right")

    a = np.array([float(s.linear[0][0]) for s in ifs.maps])
    b = np.array([float(s.translation[0]) for s in ifs.maps])
    x = np.zeros(n)
    for _ in range(word_len):
        row = draw()
        x = a[row] * x + b[row]
    return x


# ----------------------------------------------------------------------
# dyadic moment sums
# ----------------------------------------------------------------------

def matched_level(ifs: IFS, n: int) -> int:
    """Smallest level k with the per-level contraction rho^k <= 2^-n."""
    target = Fraction(1, 2**n)
    k = 1
    while True:
        iv = ifs.base.ratio_interval(k * ifs.k_max, 96)
        if iv.hi <= target:
            return k
        k += 1


def dyadic_lq_sums(ifs: IFS, q: float, ns) -> list:
    """Per n, the sum over dyadic cells of side 2^-n of (discrete measure mass)^q.

    One discrete measure at the level matched to the finest n serves all
    coarser n (it is at least as fine as each requires).
    """
    if q <= 0:
        raise OracleError("dyadic sums are defined for q > 0 here")
    measure = DiscreteMeasure(ifs, matched_level(ifs, max(ns)))
    pos = measure.positions()
    w = measure.weight_array()
    if np.iscomplexobj(pos):
        pos = np.column_stack([pos.real, pos.imag])
    coords = pos.reshape(len(pos), -1)
    sums = []
    for n in ns:
        cells = np.floor(coords * (2**n)).astype(np.int64)
        _, inv = np.unique(cells, axis=0, return_inverse=True)
        sums.append(float(np.sum(np.bincount(inv, weights=w)**q)))
    return sums


@dataclass
class DyadicTau:
    estimate: float
    residual: float
    n_range: tuple
    log_sums: list


def tau_dyadic(ifs: IFS, q: float, n_range) -> DyadicTau:
    """Slope fit of the logs of `dyadic_lq_sums` against -n log 2 over a range of n."""
    ns = list(n_range)
    ys = [math.log(s) for s in dyadic_lq_sums(ifs, q, ns)]
    xs = np.array([-n * math.log(2) for n in ns])
    ya = np.array(ys)
    coef = np.polyfit(xs, ya, 1)
    fit = np.polyval(coef, xs)
    residual = float(np.sqrt(np.mean((fit - ya) ** 2)))
    return DyadicTau(float(coef[0]), residual, (ns[0], ns[-1]), ys)


# ----------------------------------------------------------------------
# one-dimensional net pieces
# ----------------------------------------------------------------------

def interval_hull(ifs: IFS):
    """Exact endpoints of the convex hull of the attractor (1-D real)."""
    _check_real_line(ifs, "interval_hull")
    fps = [s.fixed_point()[0] for s in ifs.maps]
    return min(fps), max(fps)


def attractor_is_full_interval(ifs: IFS) -> bool:
    """Exact check that the level-1 cylinders cover the hull gap-free."""
    lo, hi = interval_hull(ifs)
    pieces = []
    for s in ifs.maps:
        a, b = s.apply((lo,))[0], s.apply((hi,))[0]
        if b < a:
            a, b = b, a
        pieces.append((a, b))
    pieces.sort(key=lambda p: p[0])
    reach = lo
    for a, b in pieces:
        if a > reach:
            return False
        if b > reach:
            reach = b
    return reach == hi


class NetCensus:
    """Exact 1-D net pieces at one stopping level.

    Breakpoints are the cylinder endpoints; each open piece between
    consecutive breakpoints carries a constant covering set, so grouping
    pieces by covering set reproduces the partition atoms geometrically,
    independent of the automaton machinery.
    """

    def __init__(self, ifs: IFS, level: int):
        if not attractor_is_full_interval(ifs):
            raise OracleError("net census requires a connected attractor")
        lo, hi = interval_hull(ifs)
        cyl = level_map_weights(ifs, level)
        self.cylinders = []
        for key, (smap, _w) in cyl.items():
            a = smap.apply((lo,))[0]
            b = smap.apply((hi,))[0]
            if b < a:
                a, b = b, a
            self.cylinders.append((key, a, b))
        points = {}
        for _key, a, b in self.cylinders:
            points[a.coeffs] = a
            points[b.coeffs] = b
        brk = list(points.values())
        brk.sort()
        self.breakpoints = brk
        self.piece_cover = []
        for i in range(len(brk) - 1):
            mid = (brk[i] + brk[i + 1]) * ifs.field.from_rational(Fraction(1, 2))
            cover = frozenset(key for key, a, b in self.cylinders if a < mid < b)
            self.piece_cover.append(cover)

    def atoms(self) -> dict:
        """Covering set -> list of piece indices (same set = same atom)."""
        out: dict = {}
        for i, cover in enumerate(self.piece_cover):
            if cover:
                out.setdefault(cover, []).append(i)
        return out

    def breakpoint_floats(self):
        return np.array([float(b) for b in self.breakpoints])


# ----------------------------------------------------------------------
# subdivision intersection test
# ----------------------------------------------------------------------

def subdivision_intersects(ifs: IFS, f: Similitude, g: Similitude,
                           depth: int = 12) -> str:
    """'yes' / 'no' / 'unknown' for f(K) meeting g(K), by ball subdivision.

    'no' needs certified ball separation along every branch; 'yes' needs
    an exact common-point certificate: a relative map recurring as
    u = S_A^{-1} u S_B whose fixed-point identity u(fix(S_B)) = fix(S_A)
    holds in exact arithmetic, which exhibits a point shared by the two
    cylinder systems.  Anything else stays 'unknown'.
    """
    kmax = ifs.k_max
    if f.exponent // kmax != g.exponent // kmax:
        raise OracleError("maps must come from a common stopping level")

    no_memo: set = set()
    unknown_memo: dict = {}

    def explore(u, ta, tb, d, path):
        key = (u.key(), ta, tb)
        if key in no_memo:
            return "no"
        if not ifs.may_meet(u):
            no_memo.add(key)
            return "no"
        # the current node is path[-1]; a repeat among the proper ancestors
        # closes a cycle u = S_A^{-1} u S_B
        for i in range(len(path) - 1):
            if path[i][0] == key:
                a_letters = tuple(l for _, fl, _ in path[i + 1:] for l in fl)
                b_letters = tuple(l for _, _, gl in path[i + 1:] for l in gl)
                if _cycle_certificate(ifs, u, a_letters, b_letters):
                    return "yes"
                return "unknown"
        if d <= 0:
            return "unknown"
        if unknown_memo.get(key, -1) >= d:
            return "unknown"
        all_no = True
        for bf in ifs.bridges(ta):
            left = bf.map.inverse().compose(u)
            for bg in ifs.bridges(tb):
                child = left.compose(bg.map)
                ck = (child.key(), bf.new_tag, bg.new_tag)
                res = explore(child, bf.new_tag, bg.new_tag, d - 1,
                              path + [(ck, bf.letters, bg.letters)])
                if res == "yes":
                    return "yes"
                if res != "no":
                    all_no = False
        if all_no:
            no_memo.add(key)
            return "no"
        unknown_memo[key] = d
        return "unknown"

    u0 = f.inverse().compose(g)
    return explore(u0, f.exponent % kmax, g.exponent % kmax, depth,
                   [((u0.key(), f.exponent % kmax, g.exponent % kmax), (), ())])


def _cycle_certificate(ifs: IFS, u: Similitude, a_letters, b_letters) -> bool:
    if not a_letters or not b_letters:
        return not a_letters and not b_letters and u.is_identity()
    za = ifs.map_of_word(a_letters).fixed_point()
    zb = ifs.map_of_word(b_letters).fixed_point()
    return u.apply(zb) == za


# ----------------------------------------------------------------------
# word enumeration
# ----------------------------------------------------------------------

_WORD_BUDGET = 2_000_000  # frontier plus finished entries that one walk may hold


def _stopping_walk(ifs: IFS, level: int) -> dict:
    """Map key -> (map, sum of p_I, least I) over the stopping words I at the level."""
    threshold = level * ifs.k_max
    ident = ifs.identity_map()
    if threshold == 0:
        return {ident.key(): (ident, Fraction(1), ())}
    frontier = {ident.key(): (ident, Fraction(1), (), 0)}
    done: dict = {}
    while frontier:
        nxt: dict = {}
        for smap, w, letters, expo in frontier.values():
            for i, gen in enumerate(ifs.maps):
                child = smap.compose(gen)
                e2 = expo + ifs.exponents[i]
                w2, word = w * ifs.probabilities[i], letters + (i,)
                table, k2 = (done, child.key()) if e2 >= threshold else (nxt, (child.key(), e2))
                prev = table.get(k2)
                if prev is not None:
                    w2, word = prev[1] + w2, min(prev[2], word)
                table[k2] = (child, w2, word, e2)
            if len(nxt) + len(done) > _WORD_BUDGET:
                raise OracleError("word enumeration budget exceeded")
        frontier = nxt
    return done


def level_map_weights(ifs: IFS, level: int) -> dict:
    """Map key -> (map, sum of p_I) over stopping words at the level."""
    return {k: v[:2] for k, v in _stopping_walk(ifs, level).items()}


def word_sum_entry(ifs: IFS, target: Similitude, level: int) -> Fraction:
    """Exact sum of p_I over stopping words at the level with S_I = target."""
    hit = level_map_weights(ifs, level).get(target.key())
    return hit[1] if hit is not None else Fraction(0)


def canonical_words(ifs: IFS, level: int) -> dict:
    """Map key -> lexicographically minimal stopping word realizing the map."""
    return {k: v[2] for k, v in _stopping_walk(ifs, level).items()}
