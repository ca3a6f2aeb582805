import hashlib
import json
import math
from fractions import Fraction as F
from functools import reduce
from math import lcm
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from conftest import (BUNDLED, assert_one_terminal_component, assert_same_bracket,
                      pressure_bracket)
from selfsim.measure import GlobalSystem
from selfsim import spectrum
from selfsim.spectrum import (PressureEngine, SpectrumError, essential_class,
                              irreducibility_check, lifted_operator, lump,
                              min_positive_entry_sum_powers, spectral_radius_bounds)


def _block_system(dims, edges, den=None):
    """A stand-in for GlobalSystem: edges maps (k, i) to the block T(k, i),
    given in Fractions and held as ints over den, by default the lcm of
    the entries' denominators."""
    if den is None:
        den = lcm(*(x.denominator for t in edges.values() for row in t for x in row))
    blocks_into = [[] for _ in dims]
    for (k, i), t in edges.items():
        scaled = [[x * den for x in row] for row in t]
        assert all(x.denominator == 1 for row in scaled for x in row)
        blocks_into[i].append((k, tuple(tuple(x.numerator for x in row) for row in scaled)))
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    return SimpleNamespace(dims=list(dims), blocks_into=blocks_into, den=den,
                           offsets=offsets, size=sum(dims))


def _fraction_blocks(system):
    """blocks_into with each int block as its Fractions over den."""
    return [[(k, tuple(tuple(F(n, system.den) for n in row) for row in t)) for k, t in into]
            for into in system.blocks_into]


def _dense(op):
    """The (dim, rows, cols, vals) tuple of `lifted_operator` as a dense matrix."""
    dim, rows, cols, vals = op
    m = np.zeros((dim, dim))
    m[rows, cols] = vals
    return m


def test_essential_class_cantor(cantor):
    ess = essential_class(cantor.measure)
    # the two recurring cylinder states communicate; the root is transient
    assert ess.ids == [1, 2]
    assert ess.size == 2


def test_essential_class_closure_and_communication(pipelines):
    for name in ("lebesgue-1-2", "golden-bernoulli", "commensurable-osc",
                 "complex-pisot-demo"):
        model = pipelines(name).measure
        ess = essential_class(model)
        idset = set(ess.ids)
        for sid in ess.ids:
            for e in model.successors(sid):
                assert e.child in idset


def test_irreducibility_cantor(cantor):
    ess = essential_class(cantor.measure)
    assert irreducibility_check(ess) == 1


def test_irreducibility_cycle_structure():
    # 2-cycle block pattern needs two powers before positivity
    class FakeSys:
        pass

    class FakeEss:
        ids = [0, 1]
        system = _block_system([1, 1], {(0, 1): ((F(1),),), (1, 0): ((F(1),),)})

    assert irreducibility_check(FakeEss()) == 2


def test_irreducibility_failure_reported():
    class FakeEss:
        ids = [0, 1]
        system = _block_system([1, 1], {(0, 0): ((F(1),),), (1, 1): ((F(1),),)})

    with pytest.raises(SpectrumError):
        irreducibility_check(FakeEss())


def test_irreducibility_golden_fixture(golden):
    eng = golden.engine
    r = irreducibility_check(eng.ess)
    assert 1 <= r <= eng.ess.size
    assert r == 4  # regression fixture


def _dense_irreducibility_check(ess):
    """Reference: r from dense boolean matrix powers of H."""
    b = _dense(lifted_operator(ess.system, 1)) > 0
    n = len(b)
    acc = b.copy()
    power = b.copy()
    r = 1
    while not acc.all():
        if r >= n:
            missing = [(i, j) for i in range(n) for j in range(n) if not acc[i, j]]
            raise SpectrumError(
                f"transfer matrix is reducible; zero pattern at {missing[:10]}"
                f"{'...' if len(missing) > 10 else ''}")
        power = power @ b
        acc |= power
        r += 1
    return r


def _dense_min_positive_entry(ess, r):
    """Reference: delta from dense float matrix powers of H."""
    h = _dense(lifted_operator(ess.system, 1))
    acc = h.copy()
    power = h.copy()
    for _ in range(r - 1):
        power = power @ h
        acc += power
    return float(acc[acc > 0].min())


def _exact_min_positive_entry(system, r):
    """Reference: the least positive entry of sum_{i<=r} H^i in Fractions."""
    h = [{} for _ in range(system.size)]
    for i, into in enumerate(_fraction_blocks(system)):
        for k, t in into:
            for a, row in enumerate(t):
                out = h[system.offsets[k] + a]
                for b, x in enumerate(row):
                    col = system.offsets[i] + b
                    out[col] = out.get(col, F(0)) + x
    power = [dict(row) for row in h]
    acc = [dict(row) for row in h]
    for _ in range(r - 1):
        nxt = []
        for row in power:
            out = {}
            for k, x in row.items():
                for j, y in h[k].items():
                    out[j] = out.get(j, F(0)) + x * y
            nxt.append(out)
        power = nxt
        for a, row in zip(acc, power):
            for j, x in row.items():
                a[j] = a.get(j, F(0)) + x
    return min(x for row in acc for x in row.values() if x > 0)


_positive = st.builds(F, st.integers(1, 4), st.integers(1, 4))
_entries = st.one_of(st.just(F(0)), _positive, _positive)


@st.composite
def pattern_systems(draw):
    """Block systems with 2-6 states: random (often reducible) patterns,
    a cycle through every state (periodic), or a cycle with chords.  Half
    of them draw zero entries, which leave zero rows inside blocks; random
    patterns also leave states without edges."""
    t = draw(st.integers(2, 6))
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=t, max_size=t))
    kind = draw(st.sampled_from(["random", "cycle", "cycle+chords"]))
    pairs = set()
    if kind != "random":
        perm = draw(st.permutations(range(t)))
        pairs |= {(perm[k], perm[(k + 1) % t]) for k in range(t)}
    if kind != "cycle":
        pairs |= {(k, i) for k in range(t) for i in range(t) if draw(st.booleans())}
    entries = draw(st.sampled_from([_entries, _positive]))
    edges = {(k, i): tuple(tuple(draw(entries) for _ in range(dims[i]))
                           for _ in range(dims[k]))
             for k, i in sorted(pairs)}
    return SimpleNamespace(system=_block_system(dims, edges))


def _r_or_error(check, ess):
    try:
        return check(ess)
    except SpectrumError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(pattern_systems())
def test_irreducibility_matches_dense_powers(ess):
    assert _r_or_error(irreducibility_check, ess) == _r_or_error(_dense_irreducibility_check, ess)


@settings(max_examples=150, deadline=None)
@given(pattern_systems())
def test_min_positive_entry_matches_fractions_on_fuzz(ess):
    try:
        r = irreducibility_check(ess)
    except SpectrumError:
        r = 3  # delta is defined for any r once H has a positive entry
    if not _dense(lifted_operator(ess.system, 1)).any():
        return
    exact = _exact_min_positive_entry(ess.system, r)
    delta = min_positive_entry_sum_powers(ess, r)
    assert abs(delta - exact) <= 1e-12 * exact


@pytest.mark.parametrize("name", ["cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
                                  "golden-gasket-conjugated", "complex-pisot-demo",
                                  "commensurable-osc"])
def test_irreducibility_and_delta_match_dense_references(pipelines, name):
    ess = pipelines(name).engine.ess
    r = irreducibility_check(ess)
    assert r == _dense_irreducibility_check(ess)
    delta = min_positive_entry_sum_powers(ess, r)
    assert delta.hex() == _dense_min_positive_entry(ess, r).hex()
    if name != "golden-gasket-conjugated":
        exact = _exact_min_positive_entry(ess.system, r)
        assert abs(delta - exact) <= 1e-12 * exact


def _fake_model(edges):
    """A stand-in for MeasureModel: the keys of edges are the kept states,
    each with a 1x1 star, and every edge carries the block (1) over den 1."""
    return SimpleNamespace(
        kept=sorted(edges), star_dim=lambda sid: 1,
        successors=lambda sid: [SimpleNamespace(child=c, tnum=((1,),)) for c in edges[sid]],
        automaton=SimpleNamespace(ifs=SimpleNamespace(den=1)))


@pytest.mark.parametrize("ids", [[1, 2, 3, 4], [3, 4, 1, 2]])
def test_verify_communication_refuses_one_way_classes(ids):
    # {1, 2} reaches {3, 4}, which never comes back, in either node order
    def reach(edges):
        return spectrum._reach([[ids.index(c) for c in edges[sid]] for sid in ids])[0]

    one_way = {1: [2], 2: [1, 3], 3: [4], 4: [3]}
    assert reach(one_way) is None
    assert reach({1: [2], 2: [1, 3], 3: [4], 4: [1]}) == 4
    assert essential_class(_fake_model(one_way)).ids == [3, 4]  # the sink communicates


def test_verify_communication_needs_a_cycle_through_a_lone_state():
    assert essential_class(_fake_model({7: [7]})).ids == [7]
    with pytest.raises(SpectrumError, match="^essential class members do not all communicate$"):
        essential_class(_fake_model({7: []}))


def test_essential_class_refuses_two_terminal_components():
    # the mass solve never builds this model: {2} and {3} would each carry mass
    with pytest.raises(SpectrumError, match="has 2 terminal components"):
        essential_class(_fake_model({1: [2, 3], 2: [2], 3: [3]}))


@pytest.mark.parametrize("name", BUNDLED + ["golden-gasket-3d"])
def test_pruned_automaton_has_one_terminal_component(request, pipelines, name):
    pipe = request.getfixturevalue("gasket_3d") if name == "golden-gasket-3d" else pipelines(name)
    assert_one_terminal_component(pipe.measure)


def test_spectral_radius_certificates():
    m = np.array([[0.5, 0.25], [0.25, 0.5]])
    lo, hi = spectral_radius_bounds(lambda x: m @ x, 2)
    assert lo <= 0.75 <= hi and hi - lo < 1e-12


def _reducible_5x5(weak):
    """0,1: dominant class (rho 2); 2: weaker class (rho weak) fed by 0;
    3: transient row reading 0, 2 and 4; 4: dead coordinate.  The
    transpose swaps the roles: 3 is dead, 4 transient and 2 no longer
    sees the dominant class."""
    return np.array([[0.0, 2.0, 0.0, 0.0, 0.0],
                     [1.0, 1.0, 0.0, 0.0, 0.0],
                     [0.25, 0.0, weak, 0.0, 0.0],
                     [1.0, 0.0, 1.0, 0.0, 1.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0]])


def test_spectral_radius_certificates_reducible():
    a = _reducible_5x5(0.5)
    # at weak = 1 the transposed x[2] pins lo at 1 until it underflows after
    # about 1075 steps, past the stall window: a falling min x is progress
    for m in (a, a.T, _reducible_5x5(1.0).T):
        rho = max(abs(np.linalg.eigvals(m)))
        assert abs(rho - 2.0) < 1e-12
        lo, hi = spectral_radius_bounds(lambda x: m @ x, 5)
        assert lo <= 2.0 <= hi
        assert hi - lo < 1e-12


def _bounds_and_matvecs(op):
    calls = []

    def matvec(x):
        calls.append(1)
        return op @ x

    lo, hi = spectral_radius_bounds(matvec, op.shape[0])
    return lo, hi, len(calls)


@pytest.mark.parametrize("m, rho", [
    (np.array([[0.0, 2.0], [1.0, 0.0]]), math.sqrt(2.0)),
    (np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 0.5], [2.0, 0.0, 0.0]]), 3.0 ** (1 / 3)),
])
def test_spectral_radius_periodic_stops_on_stall(m, rho):
    # period 2 and 3: the power iterates cycle, so tol is never reached
    lo, hi, matvecs = _bounds_and_matvecs(m)
    assert matvecs <= 1100  # max_iter is 100000
    assert lo <= rho <= hi
    assert hi - lo > 0.1


def test_spectral_radius_weaker_class_stuck_at_smallest_subnormal():
    # at weak = 1.5 the transposed x[2] settles on the smallest subnormal
    # (0.75 of it rounds back up) and never leaves the support, so lo stays
    # pinned near 1.5 however long the iteration runs; the stall stop
    # returns the valid interval instead of running all max_iter matvecs
    lo, hi, matvecs = _bounds_and_matvecs(_reducible_5x5(1.5).T)
    assert matvecs < 5000
    assert lo <= 2.0 <= hi


def test_certified_routes_converge_before_stall(pipelines, monkeypatch):
    # bundled classes are primitive: the engine's certified routes stop on
    # tol, well before the stall
    runs = []

    def counted(matvec, dim, **kw):
        calls = []

        def counting(x):
            calls.append(1)
            return matvec(x)

        lo, hi = spectral_radius_bounds(counting, dim, **kw)
        runs.append((lo, hi, len(calls)))
        return lo, hi

    monkeypatch.setattr(spectrum, "spectral_radius_bounds", counted)
    for name in ("cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
                 "complex-pisot-demo", "commensurable-osc"):
        eng = pipelines(name).engine
        for q in ((0.5, 2.5, 3.0) if eng._scalar else (2, 3)):
            runs.clear()
            est = eng.pressure_scalar(q) if eng._scalar else eng.pressure_integer_q(q)
            assert est.method in ("scalar", "kronecker")
            (lo, hi, matvecs), = runs
            assert matvecs < 100
            assert hi - lo <= 1e-13 * max(1.0, hi)


def _per_edge_lifted_operator(system, q):
    """Reference: the lifted operator built edge by edge with np.kron."""
    scalar = all(d == 1 for d in system.dims)
    q = q if scalar else int(q)
    offsets = np.cumsum([0] + [int(d ** q) for d in system.dims])
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for i, into in enumerate(system.blocks_into):
        for k, t in into:
            m = np.array(t, dtype=float) / system.den
            block = m ** q if scalar else reduce(np.kron, [m] * q)
            r, c = np.nonzero(block)
            rows.append(r + offsets[k])
            cols.append(c + offsets[i])
            vals.append(block[r, c])
    dim = int(offsets[-1])
    keys, at = np.unique(np.concatenate(rows) * dim + np.concatenate(cols), return_inverse=True)
    return dim, keys // dim, keys % dim, np.bincount(at, np.concatenate(vals), minlength=len(keys))


def _assert_same_operator(system, q):
    dim, rows, cols, vals = lifted_operator(system, q)
    want_dim, want_rows, want_cols, want_vals = _per_edge_lifted_operator(system, q)
    assert dim == want_dim
    assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()
    assert vals.dtype == want_vals.dtype and vals.tobytes() == want_vals.tobytes()


def test_lifted_operator_coo_sorted_with_repeated_edges_summed():
    # two edges 0 -> 1 put their blocks on the same positions; ints over 20
    system = SimpleNamespace(dims=[1, 2], den=20, blocks_into=[
        [(1, ((10,), (5,)))],
        [(0, ((5, 0),)), (0, ((5, 4),)), (1, ((0, 20), (20, 0)))],
    ])
    dim, rows, cols, vals = lifted_operator(system, 1)
    assert dim == 3
    assert (np.diff(rows * dim + cols) > 0).all()
    assert _dense((dim, rows, cols, vals)).tolist() == [[0, 0.5, 0.2], [0.5, 0, 1], [0.25, 1, 0]]

    # three parallel edges 0 -> 0, split by an edge of another shape, whose
    # float sum depends on the order; blocks 1x2, 2x1 and 3x3; ints over 10
    t = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    system = SimpleNamespace(dims=[1, 2, 3], den=10, blocks_into=[
        [(0, ((3,),)), (1, ((1,), (2,))), (0, ((4,),)), (0, ((8,),))],
        [(0, ((5, 6),))],
        [(2, t)],
    ])
    for q in (1, 3):
        dim, rows, cols, vals = lifted_operator(system, q)
        assert dim == 1 + 2 ** q + 3 ** q
        assert (np.diff(rows * dim + cols) > 0).all()
        parallel = [x / 10 * (x / 10) * (x / 10) if q == 3 else x / 10 for x in (3, 4, 8)]
        assert vals[0] == (parallel[0] + parallel[1]) + parallel[2]
        assert vals[0] != (parallel[2] + parallel[1]) + parallel[0]
        _assert_same_operator(system, q)
    # entry (9a + 3b + c, 9a' + 3b' + c') of the 27x27 block is the left to
    # right product t[a][a'] t[b][b'] t[c][c'] of the floats n / 10
    m = _dense((dim, rows, cols, vals))
    for r, c in np.ndindex(27, 27):
        (a, b, e), (a2, b2, e2) = np.unravel_index(r, (3,) * 3), np.unravel_index(c, (3,) * 3)
        assert m[9 + r, 9 + c] == t[a][a2] / 10 * (t[b][b2] / 10) * (t[e][e2] / 10)
    # the 1x8 block on 0 -> 1 and the 8x1 block on 1 -> 0
    assert m[0, 1:9].tolist() == [x * y * z for x in (0.5, 0.6) for y in (0.5, 0.6)
                                  for z in (0.5, 0.6)]
    assert m[1:9, 0].tolist() == [x * y * z for x in (0.1, 0.2) for y in (0.1, 0.2)
                                  for z in (0.1, 0.2)]


@pytest.mark.parametrize("name", ["cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
                                  "golden-gasket-conjugated", "complex-pisot-demo",
                                  "commensurable-osc"])
def test_lifted_operator_bit_identical_to_per_edge_kron(pipelines, name):
    system = pipelines(name).engine.ess.system
    for q in (1, 2, 3, 4):
        if sum(d ** q for d in system.dims) <= 5000:
            _assert_same_operator(system, q)
    if all(d == 1 for d in system.dims):
        for q in (0.5, 2.5, 3.75):
            _assert_same_operator(system, q)


def test_lifted_operator_bit_identical_to_per_edge_kron_in_3d(gasket_3d):
    for q in (1, 2):
        _assert_same_operator(gasket_3d.engine.ess.system, q)


def _kronecker_sum(system, q):
    """Reference: the unlifted sum_i M_i^(kron q), of dimension L^q."""
    total = None
    for i in range(len(system.dims)):
        m = sparse.csr_matrix(np.array(GlobalSystem.matrix_dense(system, i), dtype=float))
        kr = m
        for _ in range(q - 1):
            kr = sparse.kron(kr, m, format="csr")
        total = kr if total is None else total + kr
    return total


def _certified_rho(op):
    return spectral_radius_bounds(lambda x: op.T @ x, op.shape[0])


@pytest.mark.parametrize("name, qs", [
    ("golden-bernoulli", (2, 3, 4, 5)),
    ("complex-pisot-demo", (2, 3)),
    ("commensurable-osc", (2, 3, 4)),
    ("golden-gasket-conjugated", (2,)),
])
def test_lifted_operator_matches_kronecker_sum(pipelines, name, qs):
    system = pipelines(name).engine.ess.system
    for q in qs:
        lifted = _dense(lifted_operator(system, q))
        assert lifted.shape[0] == sum(d ** q for d in system.dims)
        lo_l, hi_l = _certified_rho(lifted)
        lo_k, hi_k = _certified_rho(_kronecker_sum(system, q))
        assert 0 < lo_l <= hi_l and 0 < lo_k <= hi_k
        assert max(lo_l, lo_k) <= min(hi_l, hi_k) * (1 + 1e-12)
        assert abs(hi_l - hi_k) <= 1e-10 * hi_k


@st.composite
def block_systems(draw):
    """Sparse nonnegative rational block systems, reducible ones included."""
    t = draw(st.integers(2, 4))
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=t, max_size=t))
    edges = {}
    for k in range(t):
        for i in range(t):
            if draw(st.booleans()):
                edges[k, i] = tuple(tuple(draw(_entries) for _ in range(dims[i]))
                                    for _ in range(dims[k]))
    q = draw(st.sampled_from([2, 3] if sum(dims) ** 3 <= 512 else [2]))
    return _block_system(dims, edges), q


def _spectral_radius(matrix):
    """rho of a dense nonnegative matrix, the largest over its strong components.

    `numpy.linalg.eigvals` loses digits on a Jordan block at rho, which a
    nonnegative matrix has when two components of spectral radius rho lie
    on one chain (Rothblum's index theorem).  The Perron root of one
    irreducible component is simple, so its eigenvalues are accurate.
    """
    count, labels = csgraph.connected_components(sparse.csr_matrix(matrix), connection="strong")
    return max(max(abs(np.linalg.eigvals(matrix[np.ix_(part, part)])))
               for part in (np.flatnonzero(labels == c) for c in range(count)))


@settings(max_examples=60, deadline=None)
@given(block_systems())
# the components {0, 1} and {2} of this block both have rho 2, so the lifted
# matrix has a Jordan block at rho = 8, where eigvals was 1.4e-5 off
@example((_block_system([1, 3, 1], {(1, 1): ((F(1), F(1), F(0)), (F(1), F(1), F(0)),
                                             (F(0), F(1), F(2)))}), 3))
def test_lifted_operator_fuzz_against_eigvals(spec):
    system, q = spec
    _assert_same_operator(system, q)
    rho = _spectral_radius(_kronecker_sum(system, q).toarray())
    lifted = _dense(lifted_operator(system, q))
    rho_lifted = _spectral_radius(lifted)
    tol = 1e-6 * max(1.0, rho)
    assert abs(rho_lifted - rho) <= tol
    with mock.patch.object(spectrum, "_CW_MAX_ITER", 2000):  # bounds hold at any count
        lo, hi = _certified_rho(lifted)
    assert lo - tol <= rho <= hi + tol
    assert abs(_spectral_radius(_dense(lifted_operator(lump(system), q))) - rho) <= tol


# blocks -> classes and L -> L' of each bundled essential class under `lump`
LUMPED = {
    "cantor-1-3": ((2, 1), (2, 1)),
    "lebesgue-1-2": ((2, 1), (2, 1)),
    "golden-bernoulli": ((5, 3), (9, 5)),
    "golden-gasket-conjugated": ((160, 9), (234, 17)),
    "complex-pisot-demo": ((52, 1), (52, 1)),
    "commensurable-osc": ((5, 2), (5, 2)),
}


def _lump_sizes(ess):
    return (len(ess.system.dims), len(ess.quotient.dims)), (ess.size, ess.quotient.size)


@pytest.mark.parametrize("name", sorted(LUMPED))
def test_lump_sizes(pipelines, name):
    assert _lump_sizes(pipelines(name).engine.ess) == LUMPED[name]


def test_lump_sizes_in_3d(gasket_3d):
    assert _lump_sizes(gasket_3d.engine.ess) == ((1395, 16), (2043, 36))


@pytest.mark.parametrize("name", sorted(LUMPED))
def test_quotient_bracket_matches_full_class(pipelines, name):
    eng = pipelines(name).engine
    for q in (2, 3) + ((0.5, 2.5) if eng._scalar else ()):
        est = eng._certified(q, "scalar" if eng._scalar else "kronecker", 0)
        lumped = pressure_bracket(eng.ess.quotient, q)
        assert (est.lower, est.upper) == lumped
        assert_same_bracket(lumped, pressure_bracket(eng.ess.system, q), 1e-12)


def test_quotient_bracket_matches_full_class_in_3d(gasket_3d):
    ess = gasket_3d.engine.ess
    assert_same_bracket(pressure_bracket(ess.quotient, 2), pressure_bracket(ess.system, 2), 1e-12)


def test_lump_splits_on_block_target_class_and_edge_count():
    one, two = ((F(1, 2),),), ((F(1, 4),),)
    # blocks 0 and 1 lead into block 0 by different T
    assert lump(_block_system([1, 1], {(0, 0): one, (1, 0): two})).classes == [0, 1]
    # 0 -> 2 and 1 -> 3 by one T, but the loops of 2 and 3 differ: 0 and 1
    # stay apart, while 0 and 2 (one edge by T into the class {0, 2}) merge
    system = _block_system([1] * 4, {(0, 2): one, (1, 3): one, (2, 2): one, (3, 3): two})
    assert lump(system).classes == [0, 1, 0, 2]
    # 0 has two edges by T into the class {1, 2, 3}, each of those has one
    system = _block_system([1] * 4, {(0, 1): one, (0, 2): one, (3, 1): one,
                                     (1, 1): one, (2, 2): one})
    assert lump(system).classes == [0, 1, 1, 1]


def test_lump_merges_bisimilar_blocks_and_keeps_parallel_edges():
    # blocks 0 and 1 each have a loop by a and an edge to the other by b
    a = ((F(1, 2), F(0)), (F(1, 4), F(1, 4)))
    b = ((F(1, 4), F(1, 4)), (F(0), F(1, 2)))
    system = _block_system([2, 2], {(0, 0): a, (1, 0): b, (1, 1): a, (0, 1): b})
    lumped = lump(system)
    assert lumped.classes == [0, 0] and lumped.dims == [2] and lumped.den == 4
    assert lumped.blocks_into == [[(0, ((2, 0), (1, 1))), (0, ((1, 1), (0, 2)))]]
    for q in (1, 2, 3):
        assert math.isclose(_spectral_radius(_dense(lifted_operator(lumped, q))),
                            _spectral_radius(_dense(lifted_operator(system, q))), rel_tol=1e-12)


def test_kronecker_certificates_in_3d_on_the_quotient(gasket_3d):
    # past the default budget on the full class (L^2 = 4.2M), but cheap
    # on the quotient: lifted dimension 96 and 288 against 3549 and 7335
    eng = PressureEngine(gasket_3d.measure, kron_dim_budget=10 ** 10)
    for q, dim, full_dim in ((2, 96, 3549), (3, 288, 7335)):
        assert sum(d ** q for d in eng.ess.quotient.dims) == dim
        assert sum(d ** q for d in eng.ess.system.dims) == full_dim
        tau, lo, hi, est = eng.tau(q)
        assert est.method == "kronecker"
        assert hi - lo <= 1e-12 * abs(tau)
        _tau, finite_lo, finite_hi, finite = gasket_3d.engine.tau(q)
        assert finite.method == "finite-n"
        assert finite_lo <= lo and hi <= finite_hi


def test_cantor_closed_form(cantor):
    eng = cantor.engine
    cf = lambda q: (q - 1) * math.log(2) / math.log(3)
    for q in (0.5, 1.0, 2.0, 3.0):
        t, lo, hi, est = eng.tau(q)
        assert abs(t - cf(q)) < 1e-9
        assert lo - 1e-12 <= cf(q) <= hi + 1e-12


def test_pressure_one_exact(pipelines, gasket_3d):
    assert gasket_3d.engine.ess.size == 2043
    for eng in [pipelines(name).engine for name in (
            "cantor-1-3", "golden-bernoulli", "commensurable-osc",
            "complex-pisot-demo", "golden-gasket-conjugated")] + [gasket_3d.engine]:
        est = eng.pressure(1.0)
        assert est.method == "eigenvector-exact"
        assert est.lower == est.upper == est.point == 0.0


@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("name", ["golden-bernoulli", "golden-gasket-conjugated"])
def test_pressure_one_refuses_a_block_off_by_one(pipelines, name, step):
    # one int of the last block into the last state, in a column where that
    # state's mass vector is positive
    model = pipelines(name).measure
    eng = PressureEngine(model)
    into = eng.ess.system.blocks_into[-1]
    v = model.v_star(eng.ess.ids[-1])
    b = v.index(max(v))
    k, t = into[-1]
    into[-1] = (k, ((*t[0][:b], t[0][b] + step, *t[0][b + 1:]),) + t[1:])
    with pytest.raises(SpectrumError, match="^mass vector is not an exact eigenvector of H$"):
        eng.pressure(1.0)


def test_finite_n_bounds_and_subadditivity(golden):
    eng = golden.engine
    widths = []
    for n in (8, 12, 16):
        est = eng.pressure_finite_n(2.0, n)
        assert est.lower <= est.point <= est.upper
        widths.append(est.width)
    # width decays like C/n
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] < widths[0] * (8 / 16) * 1.05
    snaps = eng._word_norms(16)

    def a(k, q):
        return math.log(math.fsum(c * v**q for v, c in snaps[k].items() if v > 0))

    for m, n in ((4, 4), (6, 8), (5, 11), (8, 8)):
        for q in (0.5, 1.0, 2.5):
            assert a(m + n, q) <= a(m, q) + a(n, q) + 1e-9


def test_finite_n_convex_in_q(golden):
    eng = golden.engine
    qs = [0.5 + 0.25 * i for i in range(12)]
    vals = [eng.pressure_finite_n(q, 10).upper for q in qs]
    for i in range(1, len(qs) - 1):
        assert vals[i + 1] - 2 * vals[i] + vals[i - 1] >= -1e-9


def test_method_agreement_golden(golden):
    eng = golden.engine
    for q in (2, 3):
        pk = eng.pressure_integer_q(q)
        pf = eng.pressure_finite_n(q, 16)
        assert abs(pk.point - pf.point) < 1e-4
        assert pf.lower - 1e-12 <= pk.point <= pf.upper + 1e-12


def test_non_integer_q_on_blocks_takes_finite_n(golden):
    # golden's essential class has blocks larger than 1x1, so no scalar
    # route: tau at a non-integer q is the finite-n estimate at the default n
    eng = golden.engine
    assert not eng._scalar
    est = eng.pressure(2.5)
    assert est.method == "finite-n" and est.n == eng.default_n
    assert est == eng.pressure_finite_n(2.5)


def test_kronecker_budget_fallback(golden):
    eng = PressureEngine(golden.measure, kron_dim_budget=4, default_n=8)
    est = eng.pressure_integer_q(2)
    assert est.method == "finite-n"


def test_scalar_class_past_budget_takes_scalar_route(cantor, monkeypatch):
    eng = PressureEngine(cantor.measure, kron_dim_budget=4)

    def no_finite_n(*_args, **_kwargs):
        raise AssertionError("finite-n computed for a scalar class")

    monkeypatch.setattr(eng, "pressure_finite_n", no_finite_n)
    for q in (3, 4):
        est = eng.pressure_integer_q(q)
        assert est.method == "scalar"
        assert est == eng.pressure_scalar(float(q)) == eng.pressure(float(q))
    assert eng.pressure_integer_q(2).method == "kronecker"


def test_negative_q_refused(cantor, golden):
    with pytest.raises(SpectrumError, match="q >= 0"):
        golden.engine.pressure_finite_n(-1.0, 8)
    for pipe in (cantor, golden):
        with pytest.raises(SpectrumError, match="q >= 0"):
            pipe.engine.lq_curve([-1.0, 0.5], n=8)
    est = golden.engine.pressure_finite_n(0.0, 8)
    assert est.lower <= est.upper
    curve = cantor.engine.lq_curve([0.0])
    assert abs(curve.tau[0] + math.log(2) / math.log(3)) < 1e-9


def test_tau_rejects_nonpositive_q(cantor):
    with pytest.raises(SpectrumError):
        cantor.engine.tau(0.0)
    with pytest.raises(SpectrumError):
        cantor.engine.tau(-1.0)


def test_lebesgue_tau_linear(lebesgue):
    eng = lebesgue.engine
    for q in (0.5, 1.0, 2.0, 3.0):
        t, lo, hi, est = eng.tau(q)
        assert abs(t - (q - 1)) < 1e-6


def test_dragon_tau_planar(dragon):
    eng = dragon.engine
    for q in (0.5, 2.0):
        t, *_ = eng.tau(q)
        assert abs(t - 2 * (q - 1)) < 1e-6


def _fraction_word_norms(system, n):
    """Reference: the word DP in exact Fraction arithmetic, never coarsened."""
    t = len(system.dims)
    blocks_into = _fraction_blocks(system)
    start = {}
    for i in range(t):
        acc = None
        for k, tm in blocks_into[i]:
            col = tuple(sum((row[j] for row in tm), F(0)) for j in range(len(tm[0])))
            acc = col if acc is None else tuple(a + b for a, b in zip(acc, col))
        if acc is not None:
            start[(i, acc)] = 1
    succ = [[] for _ in range(t)]
    for i in range(t):
        for k, tm in blocks_into[i]:
            succ[k].append((i, tm))

    def aggregate(dist):
        out = {}
        for (_i, vec), cnt in dist.items():
            s = 0.0
            for x in vec:
                s += float(x)
            out[s] = out.get(s, 0) + cnt
        return out

    snapshots = [None, aggregate(start)]
    cur = start
    for _step in range(2, n + 1):
        nxt = {}
        for (i, vec), cnt in cur.items():
            for j, tm in succ[i]:
                out = tuple(sum((vec[a] * tm[a][b] for a in range(len(vec))), F(0))
                            for b in range(len(tm[0])))
                nxt[(j, out)] = nxt.get((j, out), 0) + cnt
        cur = nxt
        snapshots.append(aggregate(cur))
    return snapshots


def _assert_same_levels(snaps, ref):
    assert len(snaps) == len(ref) and snaps[0] is None
    for got, want in zip(snaps[1:], ref[1:]):
        # bit for bit, in insertion order
        assert [(v.hex(), c) for v, c in got.items()] == [(v.hex(), c) for v, c in want.items()]


@pytest.mark.parametrize("name, n", [
    ("cantor-1-3", 14), ("lebesgue-1-2", 14), ("golden-bernoulli", 18),
    ("golden-gasket-conjugated", 8), ("complex-pisot-demo", 14),
    ("commensurable-osc", 14),
])
def test_word_dp_bit_identical_to_fraction_dp(pipelines, name, n):
    system = pipelines(name).engine.ess.system
    snaps, coarsened = spectrum.word_norm_levels(system, n)
    assert not coarsened
    _assert_same_levels(snaps, _fraction_word_norms(system, n))


_mixed = st.builds(F, st.integers(1, 100), st.sampled_from([3, 4, 6, 9]))


@st.composite
def mixed_denominator_systems(draw):
    """Small block systems whose entries mix the denominators 3, 4, 6 and 9."""
    t = draw(st.integers(1, 3))
    dims = draw(st.lists(st.sampled_from([1, 2]), min_size=t, max_size=t))
    edges = {}
    for k in range(t):
        for i in range(t):
            if draw(st.booleans()):
                edges[k, i] = tuple(tuple(draw(st.one_of(st.just(F(0)), _mixed))
                                          for _ in range(dims[i]))
                                    for _ in range(dims[k]))
    # one state keeps a single word per level, so it can run long enough
    # for the vectors at scale 36^n to pass 2**53; den may be a proper
    # multiple of the entries' lcm, as the IFS's one denominator is
    den = lcm(*(x.denominator for b in edges.values() for row in b for x in row))
    den *= draw(st.sampled_from([1, 1, 2, 5]))
    return _block_system(dims, edges, den), draw(st.integers(2, 16 if t == 1 else 7))


@settings(max_examples=40, deadline=None)
@given(mixed_denominator_systems())
# weights 1/6, 1/3 and 1/2 give den 6, while these blocks need only 2
@example((_block_system([1, 2], {(0, 1): ((F(1, 2), F(1, 2)),), (1, 0): ((F(1),), (F(1, 2),)),
                                 (1, 1): ((F(0), F(1, 2)), (F(1, 2), F(0)))}, 6), 12))
def test_word_dp_bit_identical_on_mixed_denominators(spec):
    system, n = spec
    snaps, coarsened = spectrum.word_norm_levels(system, n)
    assert not coarsened
    _assert_same_levels(snaps, _fraction_word_norms(system, n))


def test_word_dp_exact_past_float_precision():
    # one word per level: 35^k at scale 36^k, both past 2**53 from k = 11,
    # where the columns leave int64 for Python ints
    system = _block_system([1], {(0, 0): ((F(35, 36),),)})
    snaps, coarsened = spectrum.word_norm_levels(system, 16)
    assert not coarsened
    _assert_same_levels(snaps, _fraction_word_norms(system, 16))


def test_word_dp_counts_past_int64():
    # 2^k words of norm 2 at level k: the counts pass 2**63 before k = 70
    system = _block_system([1, 1], {(k, i): ((F(1),),) for k in range(2) for i in range(2)})
    snaps, coarsened = spectrum.word_norm_levels(system, 70)
    assert not coarsened
    assert all(snaps[k] == {2.0: 2 ** k} for k in range(1, 71))


@given(st.integers(0, 10 ** 40), st.integers(1, 10 ** 30))
def test_aggregate_rounds_once(x, scale):
    # one correctly rounded division, as float(Fraction) does, even where
    # x and scale are past 2**53 and float(x) / float(scale) rounds twice;
    # the DP's columns are int64 below 2**53 and Python ints past it
    vecs = np.array([[x]], dtype=np.int64 if max(x, scale) < 2 ** 53 else object)
    (value, count), = spectrum._aggregate(vecs, np.array([1]), scale).items()
    assert value.hex() == float(F(x, scale)).hex() and count == 1


def test_word_dp_coarsening(golden, monkeypatch):
    exact, coarsened = spectrum.word_norm_levels(golden.engine.ess.system, 16)
    assert not coarsened
    monkeypatch.setattr(spectrum, "_DP_MAX_EXACT_ENTRIES", 50)
    eng = PressureEngine(golden.measure, default_n=16)
    qs = (0.5, 2.0, 3.5)
    assert eng.lq_curve(qs, n=16).diagnostics["dp_coarsened"]
    snaps = eng._word_norms(16)
    for k in range(1, 17):
        assert sum(snaps[k].values()) == sum(exact[k].values())
        for q in qs:
            a, b = spectrum._log_moment(snaps[k], q), spectrum._log_moment(exact[k], q)
            assert abs(a - b) <= 1e-12 * abs(b)


# sha256 of every level's (norm.hex(), count) list, in insertion order,
# of the word DP coarsened past 50 vectors: the float levels bit for bit
COARSENED_DP_GOLDEN = {
    ("golden-bernoulli", 16):
        "54beb9710c7fb0855a7dd5d4e395987463140b5206607782d642fbf8f88fead7",
    ("golden-gasket-conjugated", 8):
        "7b51d491afd9932e7dff853ad721ee9670fd43b1607029f0f0b0946edf9ce909",
    ("commensurable-osc", 18):
        "dfea604522b12d56dc7386b3442375983d33ef0f6fd980d375e3da9a82e96153",
}


@pytest.mark.parametrize("name, n", sorted(COARSENED_DP_GOLDEN))
def test_word_dp_coarsened_levels_match_golden(pipelines, monkeypatch, name, n):
    monkeypatch.setattr(spectrum, "_DP_MAX_EXACT_ENTRIES", 50)
    snaps, coarsened = spectrum.word_norm_levels(pipelines(name).engine.ess.system, n)
    assert coarsened
    levels = [[(v.hex(), c) for v, c in level.items()] for level in snaps[1:]]
    assert hashlib.sha256(json.dumps(levels).encode()).hexdigest() == COARSENED_DP_GOLDEN[name, n]


def _merge_reference(columns, counts):
    """`_merge` by a dict keyed by the row tuple: Python ints and floats,
    with -0.0 == 0.0 as in the dict."""
    groups = {}
    for i, row in enumerate(zip(*(col.tolist() for col in columns))):
        first, total = groups.get(row, (i, 0))
        groups[row] = first, total + counts[i]
    return [f for f, _c in groups.values()], [c for _f, c in groups.values()]


_MERGE_COLUMNS = {
    "int64": (np.int64, st.integers(-3, 3)),
    # spans and radix products past 2^63, so that the rank folds run
    "wide int64": (np.int64, st.sampled_from(
        [-2 ** 63, -2 ** 40, 0, 7, 2 ** 40, 2 ** 62, 2 ** 63 - 1])),
    "object": (object, st.sampled_from([-2 ** 70, 0, 5, 2 ** 53 + 1, 2 ** 60 + 3, 2 ** 64 + 7])),
    "float": (np.float64, st.sampled_from(
        [0.0, -0.0, 5e-324, 0.1, 1.5, -2.5, 1e300, math.inf, -math.inf])),
}


@st.composite
def merge_inputs(draw):
    """Key columns of the four kinds, each drawn from a few values so that
    rows repeat, and int64 or object counts."""
    n = draw(st.integers(0, 30))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_MERGE_COLUMNS)), min_size=1, max_size=4)):
        dtype, values = _MERGE_COLUMNS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=3))
        columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                                dtype=dtype))
    wide = draw(st.booleans())
    counts = draw(st.lists(st.integers(1, 2 ** 80 if wide else 2 ** 40), min_size=n, max_size=n))
    return columns, np.array(counts, dtype=object if wide else np.int64)


@settings(max_examples=300, deadline=None)
@given(merge_inputs())
# one float column, as `_aggregate` passes it
@example(([np.array([1.5, 0.0, 1.5, -0.0, 0.25])], np.array([1, 2, 3, 4, 5])))
# zero rows
@example(([np.zeros(0, dtype=np.int64), np.zeros(0)], np.zeros(0, dtype=object)))
def test_merge_matches_dict_reference(spec):
    columns, counts = spec
    first, merged = spectrum._merge(columns, counts)
    assert first.dtype == np.intp and merged.dtype == counts.dtype
    assert (first.tolist(), merged.tolist()) == _merge_reference(columns, counts.tolist())


# below 2^63, with 3 * _SHIFT = 2^64 + 2
_SHIFT = (2 ** 64 + 2) // 3


@pytest.mark.parametrize("a, b, first, merged", [
    # radix (_SHIFT + 1)(2^62 + 1) passes 2^63: the key so far is ranked
    # (radix 2), and then b (radix 3); had the key not been ranked,
    # (_SHIFT, 0) and (0, 2^62) would share the key 2 modulo 2^64
    ([_SHIFT, 0, 0, _SHIFT], [0, 2 ** 62, 1, 0], [0, 1, 2], [1 + 4, 2, 3]),
    # the ranked key still has radix 5, so b must be ranked too; had it
    # not been, (4, 0) and (0, 4) would share the key 4 (2^62 + 1) = 4
    # modulo 2^64
    ([4, 0, 1, 2, 3], [0, 4, 2 ** 62, 0, 0], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5]),
])
def test_merge_ranks_folds_past_int64(a, b, first, merged):
    columns = [np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)]
    counts = np.arange(1, len(a) + 1)
    got = spectrum._merge(columns, counts)
    assert (got[0].tolist(), got[1].tolist()) == (first, merged)
    assert (first, merged) == _merge_reference(columns, counts.tolist())


def test_curves_concave(pipelines):
    grid = [round(0.3 + 0.1 * i, 1) for i in range(37)]
    for name in ("cantor-1-3", "golden-bernoulli", "commensurable-osc"):
        eng = pipelines(name).engine
        curve = eng.lq_curve(grid, n=10)
        assert curve.diagnostics["smoothness_max_jump"] <= 1e-8
        assert curve.diagnostics["dp_coarsened"] is False
        assert len(curve.q) == len(curve.tau) == 37
        for lo, t, hi in zip(curve.tau_lower, curve.tau, curve.tau_upper):
            assert lo - 1e-12 <= t <= hi + 1e-12
