"""Pressure of the transition-matrix cocycle and the L^q spectrum.

tau(q) = P(q) / log rho, where rho is the per-level contraction and
P(q) the exponential growth rate of the q-th moment sums of matrix
products over admissible words of the essential class.  Three routes:

* integer q: the entry-sum norm satisfies ||A||^q = ||A kron^q||, so
  P(q) is the log spectral radius of sum_i M_i^(kron q), which equals
  that of the lifted operator (blocks T(k,i)^(kron q) on the edges
  k -> i, dimension sum_i d_i^q, see `lifted_operator`);
* scalar: all blocks are 1x1, so the lifted operator is the transfer
  matrix with entries raised to the q-th power, for any real q > 0;
* finite n: exact dynamic programming over words, giving rigorous
  upper/lower bounds a_n/n and a_n/n - C/n plus a difference-quotient
  point estimate.  The DP holds a level as numpy columns: end states,
  integer vectors at scale D^n (D the one denominator of the blocks;
  int64 below 2^53, Python ints past it) and word counts, with merged
  entries in first-occurrence order.  It divides by D^n only when it
  reduces a vector to its float norm (see `word_norm_levels`).

The essential class is the one terminal component of the pruned
automaton: two would each hold a mass-carrying class without inflow,
which the mass solve refuses (see `essential_class`).

The integer and scalar routes run on the bisimulation quotient of the
class (`lump`), whose lifted operator has the same spectral radius (see
`PressureEngine._certified`); everything else reads the full class: the
route gate, the word DP, r, delta and the exact check of P(1) = 0.
`kron_dim_budget` bounds L^q of the full class, the dimension of the
unlifted Kronecker sum, not the lifted dimension: the integer route is
taken at the same q as with the L^q operator, so every value recorded
beyond the budget keeps its route: scalar for one-dimensional blocks,
finite-n otherwise.
The lifted operator is numpy COO arrays, and the certificate's matvec is
one `np.bincount` over them.  It is built with one batched Kronecker power
per block shape, whose floats are those of `np.kron` block by block (see
`lifted_operator`).  The exact check of P(1) = 0 runs in Python ints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .config import BUDGETS
from .measure import MeasureModel, GlobalSystem, _tarjan_scc


class SpectrumError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# essential class
# ----------------------------------------------------------------------

class EssentialClass:
    """The one terminal component of the pruned automaton (`essential_class`),
    with the block system, quotient, r and delta that the routes read."""

    def __init__(self, model: MeasureModel, ids, diagnostics):
        self.ids = list(ids)
        self.diagnostics = diagnostics
        self.system = GlobalSystem(model, alphabet=self.ids)
        self.size = self.system.size  # L

    @cached_property
    def quotient(self) -> LumpedSystem:
        """The bisimulation quotient of `system` (see `lump`)."""
        return lump(self.system)

    @cached_property
    def r(self) -> int:
        """The irreducibility exponent (see `irreducibility_check`)."""
        return irreducibility_check(self)

    @cached_property
    def delta(self) -> float:
        """The smallest positive entry of sum_{i<=r} H^i (see
        `min_positive_entry_sum_powers`)."""
        return min_positive_entry_sum_powers(self, self.r)


def essential_class(model: MeasureModel) -> EssentialClass:
    """The terminal strongly connected component of the pruned automaton.

    There is exactly one, and any other count raises.  The pruned model
    keeps every automaton edge between two mass-positive states, so a
    terminal component T sends no mass outside T, and a sink among the
    mass-carrying classes of the mass solve inside T has no inflow.  Two
    terminal components would give two such classes, which
    `compute_mass_vectors`, the only builder of a MeasureModel, refuses
    as underdetermined.  Communication by walks of length >= 1 is checked
    on the class's block adjacency (`_reach`).
    """
    ids = list(model.kept)
    pos = {sid: k for k, sid in enumerate(ids)}
    succ = [[pos[e.child] for e in model.successors(sid)] for sid in ids]
    comp_of, ncomp = _tarjan_scc(len(ids), succ)
    left = {comp_of[k] for k, row in enumerate(succ) for t in row if comp_of[t] != comp_of[k]}
    terminal = [c for c in range(ncomp) if c not in left]
    if len(terminal) != 1:
        raise SpectrumError(f"the pruned automaton has {len(terminal)} terminal "
                            "components; the mass solve admits exactly one")
    ess = EssentialClass(model, [sid for sid, c in zip(ids, comp_of) if c == terminal[0]],
                         {"terminal_components": 1})
    # the reversed graph, read off blocks_into, communicates iff the graph does
    if _reach([[k for k, _t in into] for into in ess.system.blocks_into])[0] is None:
        raise SpectrumError("essential class members do not all communicate")
    return ess


def _reach(succ):
    """(r, acc) for the n nodes of successor lists succ: the least r such
    that every node reaches every node by a walk of length 1..r (None if
    none is <= n), and acc[i], the int bitset of the j reached from i by
    a walk of length 1..r (1..n for None).  One more step gives
    acc'[i] = succ(i) | OR_{j in succ(i)} acc[j]."""
    n = len(succ)
    full = (1 << n) - 1
    step = [reduce(int.__or__, (1 << j for j in row), 0) for row in succ]
    acc = step
    r = 1
    while any(a != full for a in acc):
        if r >= n:
            return None, acc
        acc = [reduce(int.__or__, (acc[j] for j in row), s) for s, row in zip(step, succ)]
        r += 1
    return r, acc


@dataclass(frozen=True)
class LumpedSystem:
    """A block system with one block per class of bisimilar blocks.

    `dims`, `blocks_into` and `den` are read as those of `GlobalSystem`;
    `classes[k]` is the class of block k of the system that was lumped,
    and the classes are numbered in the order of their first blocks.
    """
    dims: list
    blocks_into: list
    den: int
    classes: list

    @property
    def size(self) -> int:
        return sum(self.dims)


def lump(system) -> LumpedSystem:
    """Counting forward bisimulation of the blocks, by partition refinement.

    Blocks k and k' stay in one class when they have the same size and,
    for every class C and int matrix T, the same number of out-edges
    k -> i with block T and i in C.  The first partition is by size; each
    round splits the classes by the multiset of (class of i, T) over the
    out-edges, until no class splits.  Each T is interned to an int first,
    so a round compares int pairs only.  The lumped system keeps the
    out-edges of each class's first block, with their multiplicity, and
    sends each to the class of its target.  Reads only `dims`,
    `blocks_into` and `den`.
    """
    intern = {}
    out = [[] for _ in system.dims]
    for i, into in enumerate(system.blocks_into):
        for k, t in into:
            out[k].append((i, intern.setdefault(t, len(intern))))
    mats = list(intern)
    classes = _first_occurrence(system.dims)
    while True:
        split = _first_occurrence(
            [(c, tuple(sorted((classes[i], tid) for i, tid in edges)))
             for c, edges in zip(classes, out)])
        if split == classes:  # a round that splits nothing renumbers nothing
            break
        classes = split
    reps = {}
    for k, c in enumerate(classes):
        reps.setdefault(c, k)
    blocks_into = [[] for _ in reps]
    for c, k in reps.items():
        for i, tid in out[k]:
            blocks_into[classes[i]].append((c, mats[tid]))
    return LumpedSystem([system.dims[k] for k in reps.values()], blocks_into,
                        system.den, classes)


def _first_occurrence(keys):
    """Each key's index among the distinct keys, in order of first occurrence."""
    index = {}
    return [index.setdefault(key, len(index)) for key in keys]


def lifted_operator(system, q):
    """(dim, rows, cols, vals): COO arrays, sorted by (row, col), of the
    operator with block (k, i) = T(k, i)^(kron q) on each edge k -> i.

    Block k has size d_k^q, and q = 1 gives H = sum_i M_i.  Its spectral
    radius is that of sum_i M_i^(kron q) = H^(kron q) P, since rho(XP) =
    rho(PXP) for the projection P onto the block-diagonal tensors, and
    PXP restricted to them is this operator.  With all blocks 1x1 the
    entries are raised to the q-th power, for any real q > 0; otherwise q
    must be a positive integer.  Reads only `dims`, `blocks_into` and
    `den`: each block's floats are n / den, rounded once.

    The edges are grouped by block shape (d_k, d_i), in `blocks_into`
    order, and each group is one (E, d_k, d_i) array.  Its q-th Kronecker
    power is q - 1 broadcast products (`_kron_batch`), or one `** q` when
    all blocks are 1x1.  Each entry is the same left-to-right product of
    q floats that `np.kron` forms block by block, so the floats do not
    depend on the grouping.  Positions repeat only for parallel edges of
    one pair (k, i), which share a group and keep their order in it, so
    `np.bincount` sums them in `blocks_into` order, as edge by edge.
    """
    scalar = all(d == 1 for d in system.dims)
    if not scalar and q != int(q):
        raise SpectrumError("lifted operator needs integer q unless all blocks are 1x1")
    q = q if scalar else int(q)
    offsets = np.cumsum([0] + [int(d ** q) for d in system.dims])
    groups = {}
    for i, into in enumerate(system.blocks_into):
        for k, t in into:
            groups.setdefault((len(t), len(t[0])), []).append((k, i, t))
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for edges in groups.values():
        m = np.array([t for _k, _i, t in edges], dtype=float) / system.den
        block = m ** q if scalar else reduce(_kron_batch, [m] * q)
        e, r, c = np.nonzero(block)
        rows.append(r + offsets[[k for k, _i, _t in edges]][e])
        cols.append(c + offsets[[i for _k, i, _t in edges]][e])
        vals.append(block[e, r, c])
    dim = int(offsets[-1])
    keys, at = np.unique(np.concatenate(rows) * dim + np.concatenate(cols), return_inverse=True)
    return dim, keys // dim, keys % dim, np.bincount(at, np.concatenate(vals), minlength=len(keys))


def _kron_batch(x, y):
    """np.kron of each x[e] with y[e], for stacks of E matrices."""
    e, a, b = x.shape
    _e, c, d = y.shape
    return (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(e, a * c, b * d)


def irreducibility_check(ess: EssentialClass):
    """Minimal r with sum_{i<=r} H^i entrywise positive; raises on failure.

    `_reach` on the support of H.
    """
    n, rows, cols, _ = lifted_operator(ess.system, 1)
    ends = np.searchsorted(rows, np.arange(n + 1))
    r, acc = _reach([cols[a:b].tolist() for a, b in zip(ends[:-1], ends[1:])])
    if r is None:
        missing = [(i, j) for i in range(n) for j in range(n) if not acc[i] >> j & 1]
        raise SpectrumError(
            f"transfer matrix is reducible; zero pattern at {missing[:10]}"
            f"{'...' if len(missing) > 10 else ''}")
    return r


def min_positive_entry_sum_powers(ess: EssentialClass, r: int) -> float:
    """delta: the smallest positive entry of sum_{i<=r} H^i (float).

    delta is computed in floats from the entries n / D of H, so it is
    not certified.  Each next power is the dense previous one times the
    sparse H: column c gains power[:, a] * H[a, c] over the nonzeros
    (a, c) in row order.  The powers are held transposed.
    """
    n, rows, cols, vals = lifted_operator(ess.system, 1)
    power = np.zeros((n, n))
    power[cols, rows] = vals
    acc = power.copy()
    for _ in range(r - 1):
        nxt = np.zeros((n, n))
        for a, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            nxt[c] += power[a] * v
        power = nxt
        acc += power
    vals = acc[acc > 0]
    return float(vals.min())


# ----------------------------------------------------------------------
# spectral radius with Collatz-Wielandt certificates
# ----------------------------------------------------------------------

_CW_TOL = 1e-13
_CW_MAX_ITER = 100000
_CW_STALL = 1000


def spectral_radius_bounds(matvec, dim):
    """Certified [lo, hi] around the Perron root of a nonnegative operator.

    For x > 0, min_i (Ax)_i/x_i <= rho(A) <= max_i (Ax)_i/x_i; power
    iteration shrinks the gap when the matrix is primitive.  Bounds stay
    valid either way; the width is reported, not hidden.

    The ratios run over the support S of x, which is sound for reducible
    A with dead coordinates: from x = 1 the supports nest, so A maps x
    into S, and every coordinate on a cycle stays in S.  Demanding x > 0
    everywhere would give hi = inf on any lift with a dead coordinate.

    A periodic operator never reaches _CW_TOL: once neither bound has
    improved for _CW_STALL iterations the best bounds so far are returned.
    A weaker class that does not see the dominant one pins lo at its own
    ratio until its coordinates underflow to 0 and leave S, so an
    iteration in which min x reaches a new low counts as progress too:
    such a class runs until it underflows, a periodic one stops once its
    transients have died out.  Above about half the dominant ratio the
    coordinate settles on the smallest subnormal instead of 0, and lo
    stays at the weaker ratio: valid, but wide.
    """
    x = np.ones(dim)
    lo_best, hi_best, x_low = 0.0, math.inf, math.inf
    since_gain = 0
    for _ in range(_CW_MAX_ITER):
        y = matvec(x)
        ny = float(y.sum())  # the 1-norm, as y >= 0
        if ny == 0:
            return 0.0, 0.0
        mask = x > 0
        ratios = y[mask] / x[mask]
        lo, hi = float(ratios.min()), float(ratios.max())
        low = float(x[mask].min())
        gain = lo > lo_best or hi < hi_best or low < x_low
        since_gain = 0 if gain else since_gain + 1
        lo_best = max(lo_best, lo)
        hi_best = min(hi_best, hi)
        x_low = min(x_low, low)
        if hi_best - lo_best <= _CW_TOL * max(1.0, hi_best) or since_gain >= _CW_STALL:
            break
        x = y / ny
    return lo_best, hi_best


# ----------------------------------------------------------------------
# pressure estimates
# ----------------------------------------------------------------------

@dataclass
class PressureEstimate:
    q: float
    lower: float
    upper: float
    point: float
    method: str
    n: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass
class SpectrumCurve:
    q: list
    tau: list
    tau_lower: list
    tau_upper: list
    method: list
    n: list
    diagnostics: dict = field(default_factory=dict)


class PressureEngine:
    """Pressure and tau for one measure model's essential class."""

    def __init__(self, model: MeasureModel,
                 kron_dim_budget: int = BUDGETS["kron_dim_budget"].default,
                 default_n: int = BUDGETS["pressure_n"].default):
        self.model = model
        self.ess = essential_class(model)
        self.kron_dim_budget = kron_dim_budget
        self.default_n = default_n
        self.log_rho = model.automaton.ifs.log_stopping_ratio()
        self._scalar = all(d == 1 for d in self.ess.system.dims)
        self._word_dp: dict[int, list] = {}
        self._dp_coarsened: set[int] = set()

    # -- certified routes ------------------------------------------------------
    def _certified(self, q, method: str, n: int) -> PressureEstimate:
        """Collatz-Wielandt bounds on rho of the lifted operator, built on
        the bisimulation quotient (`EssentialClass.quotient`).

        The two lifted operators have one spectral radius.  Let A and B be
        those of the full class and of the quotient, and J copy a vector
        on the quotient's blocks to every member of each class, block by
        block.  Block (k, C) of A J sums the lifted blocks of the edges
        k -> i with i in C, each a function of T(k, i) alone; block k of
        J B is the same sum over the edges of the first block of k's
        class, and bisimilar blocks have the same multiset of such T, so
        A J = J B at every q.  A nonnegative eigenvector v of B for rho(B)
        (Perron-Frobenius) gives A (J v) = rho(B) J v with J v >= 0 and
        nonzero, so rho(B) <= rho(A); a nonnegative left eigenvector u of
        A for rho(A) gives (J^T u)^T B = rho(A) (J^T u)^T with J^T u >= 0
        and nonzero, so rho(A) <= rho(B).
        """
        dim, rows, cols, vals = lifted_operator(self.ess.quotient, q)
        lo, hi = spectral_radius_bounds(
            lambda x: np.bincount(cols, vals * x[rows], minlength=dim), dim)
        if lo <= 0:
            raise SpectrumError(f"{method} route found a zero spectral radius")
        return PressureEstimate(q, math.log(lo), math.log(hi),
                                (math.log(lo) + math.log(hi)) / 2, method, n)

    def pressure_scalar(self, q: float) -> PressureEstimate:
        if not self._scalar:
            raise SpectrumError("scalar route requires one-dimensional blocks")
        return self._certified(q, "scalar", len(self.ess.ids))

    def pressure_integer_q(self, q: int) -> PressureEstimate:
        """Exact-norm route via the lifted operator; past the budget the
        scalar route for one-dimensional blocks, finite-n otherwise."""
        if q < 1 or q != int(q):
            raise SpectrumError("integer route needs a positive integer q")
        q = int(q)
        if q == 1:
            return self._pressure_one()
        # L^q, not the lifted dimension: see the module docstring
        if self.ess.size ** q > self.kron_dim_budget:
            if self._scalar:
                return self.pressure_scalar(float(q))
            return self.pressure_finite_n(q, self.default_n)
        return self._certified(q, "kronecker", q)

    def _pressure_one(self) -> PressureEstimate:
        # H w = w exactly for the concatenated mass vector, so P(1) = 0:
        # N W = D W in ints, for the int blocks N of H over D and the mass
        # vectors W = s w, s the lcm of all their denominators
        w = [self.model.v_star(sid) for sid in self.ess.ids]
        s = math.lcm(*(x.denominator for v in w for x in v))
        w = [[x.numerator * (s // x.denominator) for x in v] for v in w]
        nw = [[0] * len(v) for v in w]
        for i, into in enumerate(self.ess.system.blocks_into):
            for k, t in into:
                for a, row in enumerate(t):
                    nw[k][a] += sum(map(operator.mul, row, w[i]))
        if any(h != [self.ess.system.den * x for x in v] for h, v in zip(nw, w)):
            raise SpectrumError("mass vector is not an exact eigenvector of H")
        return PressureEstimate(1.0, 0.0, 0.0, 0.0, "eigenvector-exact", 0)

    # -- finite-n route -----------------------------------------------------------
    def _word_norms(self, n: int):
        """Aggregated (norm, count) pairs per word length 1..n, cached per n."""
        hit = self._word_dp.get(n)
        if hit is not None:
            return hit
        snapshots, coarsened = word_norm_levels(self.ess.system, n)
        if coarsened:
            self._dp_coarsened.add(n)
        self._word_dp[n] = snapshots
        return snapshots

    def pressure_finite_n(self, q: float, n: int | None = None) -> PressureEstimate:
        if n is None:
            n = self.default_n
        if n < 2:
            raise SpectrumError("finite-n route needs n >= 2")
        if q < 0:  # C = q |log delta| + log L below needs q >= 0
            raise SpectrumError("finite-n bounds hold for q >= 0 only")
        snaps = self._word_norms(n)
        a_n = _log_moment(snaps[n], q)
        a_prev2 = _log_moment(snaps[n - 2], q) if n >= 3 else _log_moment(snaps[1], q) * (n - 2)
        c = q * abs(math.log(self.ess.delta)) + math.log(len(self.ess.ids))
        upper = a_n / n
        lower = a_n / n - c / n
        # two-step difference quotient: sharp point estimate inside the bounds
        point = min(max((a_n - a_prev2) / 2, lower), upper)
        return PressureEstimate(q, lower, upper, point, "finite-n", n)

    # -- tau ---------------------------------------------------------------------
    def pressure(self, q: float) -> PressureEstimate:
        if q <= 0:
            raise SpectrumError("pressure is computed for q > 0 only")
        if float(q).is_integer():
            return self.pressure_integer_q(int(q))
        if self._scalar:
            return self.pressure_scalar(q)
        return self.pressure_finite_n(q)

    def tau(self, q: float):
        """tau(q) and rigorous bounds; log rho is negative, so bounds swap."""
        est = self.pressure(q)
        lr = self.log_rho
        vals = sorted((est.lower / lr, est.upper / lr))
        return est.point / lr, vals[0], vals[1], est

    def lq_curve(self, qs, n: int | None = None) -> SpectrumCurve:
        """Sample tau on a grid with one consistent method across the grid.

        The curve value follows the subadditive estimate a_n(q)/n, which
        is a log-sum-exp and hence exactly convex in q, so the sampled
        tau is concave up to float evaluation noise; the sharper point
        estimates stay available through tau().  diagnostics["dp_coarsened"]
        says whether the word DP behind a finite-n curve left exact
        arithmetic for floats (see `word_norm_levels`).  q must be >= 0.
        """
        method = "scalar" if self._scalar else "finite-n"
        curve = SpectrumCurve([], [], [], [], [], [])
        widths = []
        for q in qs:
            if q < 0:
                raise SpectrumError("the L^q spectrum is computed for q >= 0 only")
            if method == "scalar":
                est = self.pressure_scalar(q)
                value = est.point / self.log_rho
            else:
                est = self.pressure_finite_n(q, n)
                value = est.upper / self.log_rho
            lr = self.log_rho
            lo, hi = sorted((est.lower / lr, est.upper / lr))
            curve.q.append(float(q))
            curve.tau.append(value)
            curve.tau_lower.append(lo)
            curve.tau_upper.append(hi)
            curve.method.append(est.method)
            curve.n.append(est.n)
            widths.append(hi - lo)
        curve.diagnostics = {
            "max_bound_width": max(widths) if widths else 0.0,
            "smoothness_max_jump": _max_second_difference(curve.q, curve.tau),
            "dp_coarsened": method == "finite-n" and any(
                k in self._dp_coarsened for k in curve.n),
        }
        return curve


# entries beyond which the word DP trades its exact vectors for floats
_DP_MAX_EXACT_ENTRIES = 400000
# int64 columns below this are exact as float64, so x / D^k rounds once
_EXACT = 2 ** 53


def word_norm_levels(system, n: int):
    """Aggregated (norm, count) pairs of all admissible words of length 1..n.

    Returns (snapshots, coarsened): snapshots[k] maps the entry sum of a
    length-k word's row vector r(i1) T(i1, i2) ... T(i_{k-1}, i_k) to the
    number of words giving it (snapshots[0] is None).  The DP tracks, per
    end state, the multiset of exact vectors; sharing collapses words
    with equal vectors, which keeps the multisets polynomial in practice.

    A level is three arrays: each entry's end state, its vector (padded
    with zeros to the largest block size) and its word count.  The blocks
    are integers over D = `den`, so the level-k vectors are integers at
    scale D^k.  A step repeats each row once per out-edge of its state,
    adds the block columns and merges equal (state, vector) rows, in the
    order of their first rows: the order a dict keyed by (state, vector)
    would keep.  The columns are int64 while the entries, D^k and the
    word count stay below 2^53, where x / D^k in float64 is
    float(Fraction(x, D^k)) bit for bit; past that they hold Python ints,
    which round the same quotient once.  A level with more than
    _DP_MAX_EXACT_ENTRIES vectors is coarsened to floats, and the DP
    continues in float64 with float(T) weights; `coarsened` says so.
    Reads only `blocks_into` and `den`.
    """
    blocks_into = system.blocks_into
    t = len(blocks_into)
    scale = system.den
    # edges grouped by source state, each source's in the order i, then blocks_into[i]
    edges = sorted(((k, i, tm) for i in range(t) for k, tm in blocks_into[i]),
                   key=lambda e: e[0])
    dmax = max((max(len(tm), len(tm[0])) for _k, _i, tm in edges), default=1)
    weights = np.zeros((len(edges), dmax, dmax), dtype=object)
    for e, (_k, _i, tm) in enumerate(edges):
        weights[e, :len(tm), :len(tm[0])] = tm
    dst = np.array([i for _k, i, _tm in edges], dtype=np.intp)
    out_deg = np.bincount([k for k, _i, _tm in edges], minlength=t)
    first_edge = np.cumsum(out_deg) - out_deg
    # (a, b) with a nonzero weight on some edge; floats add up in row order a
    pairs = [(a, b) for b in range(dmax) for a in range(dmax) if weights[:, a, b].any()]
    # every partial sum of a step's entries is at most max|x| * w_max
    w_max = int(np.abs(weights).sum(axis=1).max(initial=0))
    # initial vectors r(i) = sum_k e(eta_k) T(eta_k, eta_i), at scale D
    vecs = np.zeros((t, dmax), dtype=object)
    np.add.at(vecs, dst, weights.sum(axis=1))
    states = np.flatnonzero(np.bincount(dst, minlength=t))
    vecs, counts, w = vecs[states], np.ones(len(states), dtype=np.int64), weights
    if max(int(np.abs(vecs).max(initial=0)), w_max, scale) < _EXACT:
        vecs, w = vecs.astype(np.int64), weights.astype(np.int64)
    level_scale = scale
    snapshots = [None, _aggregate(vecs, counts, level_scale)]
    coarsened = False
    for _step in range(2, n + 1):
        if vecs.dtype == np.int64 and max(int(np.abs(vecs).max(initial=0)) * w_max,
                                          level_scale * scale) >= _EXACT:
            vecs, w = vecs.astype(object), weights
        if counts.dtype == np.int64 and int(counts.sum()) * int(out_deg.max()) >= _EXACT:
            counts = counts.astype(object)
        deg = out_deg[states]
        rep = np.repeat(np.arange(len(states)), deg)
        edge = np.arange(len(rep)) + np.repeat(first_edge[states] - np.cumsum(deg) + deg, deg)
        rows = vecs[rep]
        vecs = np.zeros_like(rows)
        for a, b in pairs:
            vecs[:, b] += rows[:, a] * w[edge, a, b]
        states = dst[edge]
        first, counts = _merge([*vecs.T, states], counts[rep])
        states, vecs = states[first], vecs[first]
        level_scale *= scale
        if len(states) > _DP_MAX_EXACT_ENTRIES and not coarsened:
            coarsened = True
            vecs = _true_div(vecs, level_scale)
            first, counts = _merge([*vecs.T, states], counts)
            states, vecs = states[first], vecs[first]
            # the vectors now hold true values, so the weights become float(T)
            w = _true_div(weights, scale)
            level_scale = scale = 1
        snapshots.append(_aggregate(vecs, counts, level_scale))
    return snapshots, coarsened


def _true_div(a, scale):
    """a / scale in float64, rounded once as float(Fraction) rounds: int64
    entries and a scale below 2^53 convert exactly, Python ints divide so."""
    return (a / scale).astype(float)


def _merge(keys, counts):
    """Rows with equal keys, in order of first occurrence: the index of
    each group's first row and the group's summed count.

    `keys` are the columns of the rows (int64, Python ints or floats;
    no NaN).  Any sort order of their `_row_key` is correct: equal rows
    have equal keys, so each group is one run of the sorted keys,
    whatever order the unstable sort leaves its rows in, and the least
    index in the run is the group's first row.  Marking those rows lists
    the groups in order of first occurrence, and a cumsum of the marks
    gives each run its place in that list.  The counts are ints, so the
    order in which a run adds them does not change the sum.
    """
    n = len(counts)
    if n == 0:
        return np.zeros(0, dtype=np.intp), counts[:0]
    key = _row_key(keys)
    order = key.argsort()
    k = key[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(k[1:], k[:-1], out=new[1:])
    starts = new.nonzero()[0]
    first = np.minimum.reduceat(order, starts)
    sums = np.add.reduceat(counts[order], starts)
    mark = np.zeros(n, dtype=bool)
    mark[first] = True
    merged = np.empty_like(sums)
    merged[mark.cumsum()[first] - 1] = sums
    return mark.nonzero()[0], merged


# keys and digits are int64 when every radix stays below this
_RADIX_LIMIT = 2 ** 63


def _row_key(columns):
    """One int64 per row, equal for two rows exactly where every column is.

    Each column gives one digit per row (`_digit`): an int64 column its
    entry minus the column minimum, a float64 column the same of its
    entries' bits, and a column of Python ints, or one spanning 2^63 or
    more, the entry's dense rank among the column's values.  The radix is
    the digit's maximum plus one, and the key is the mixed-radix number of
    the digits.  Before a digit whose radix would take the key's to 2^63,
    the key so far is replaced by its dense rank (and, if that is still
    too wide, the digit by its own), so n rows never need a radix above
    n^2.
    """
    key, radix = _digit(columns[0])
    for col in columns[1:]:
        digit, base = _digit(col)
        if radix * base >= _RADIX_LIMIT:
            key, radix = _dense_rank(key)
            if radix * base >= _RADIX_LIMIT:
                digit, base = _dense_rank(digit)
        key = key * base + digit
        radix *= base
    return key


def _digit(col):
    """An int64 column minus its minimum, with radix max - min + 1, or else
    the dense rank of the column.  A float64 column is read as the int64
    bits of its values plus 0.0, which turns -0.0 into 0.0, so that the
    bits are equal exactly where the values are."""
    if col.dtype == np.float64:
        col = (col + 0.0).view(np.int64)
    if col.dtype == np.int64:
        lo, hi = int(col.min()), int(col.max())
        if hi - lo + 1 < _RADIX_LIMIT:
            return col - lo, hi - lo + 1
    return _dense_rank(col)


def _dense_rank(col):
    """Each entry's index among the column's distinct values, and their number."""
    values, rank = np.unique(col, return_inverse=True)
    return rank.astype(np.int64, copy=False), len(values)


def _aggregate(vecs, counts, scale) -> dict:
    """Collapse rows of vectors at `scale` and their counts to (float norm
    -> count), summing each row's quotients left to right."""
    norms = np.zeros(len(vecs))
    for col in vecs.T:
        norms += _true_div(col, scale)
    first, sums = _merge([norms], counts)
    return dict(zip(norms[first].tolist(), sums.tolist()))


def _log_moment(norms: dict, q: float) -> float:
    terms = [cnt * v**q for v, cnt in norms.items() if v > 0]
    return math.log(math.fsum(terms))


def _max_second_difference(qs, taus) -> float:
    worst = 0.0
    for i in range(1, len(qs) - 1):
        h1, h2 = qs[i] - qs[i - 1], qs[i + 1] - qs[i]
        if h1 <= 0 or h2 <= 0:
            continue
        d2 = (taus[i + 1] - taus[i]) / h2 - (taus[i] - taus[i - 1]) / h1
        worst = max(worst, d2)
    return worst
