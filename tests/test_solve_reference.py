"""The integer mass solve against the Fraction solve it replaced.

`_reference_nullspace` and `_reference_solve` are the mass solve as it was
before the fraction-free elimination: Fraction rows, each pivot row
divided by its pivot, the Markowitz pivot found by a scan of every alive
row, and every class, small or large, solved through the nullspace.  The
nullspace is compared on random sparse rational matrices, the whole solve
on the automata of the bundled configs, on the dyadic systems of
`test_pipeline_fuzz` and on random component graphs.
"""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BUNDLED
from selfsim import automaton as am
from selfsim import measure
from selfsim.measure import MeasureError, _component_edges, _tarjan_scc
from selfsim.neighbors import NeighborDecider
from test_pipeline_fuzz import _dyadic_ifs, dyadic_systems


def _reference_nullspace(rows, n):
    """The nullspace vector of a sparse rational matrix, or None.

    rows: list of dicts {col: Fraction}.  Returns None unless the nullspace
    is one-dimensional; the vector is signed so that it has no negative
    entry when that is possible.
    """
    rows = [dict(r) for r in rows]
    col_rows: dict = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    alive = {i for i, r in enumerate(rows) if r}
    pivot_order = []
    while True:
        best = None
        for i in alive:
            row = rows[i]
            if not row:
                continue
            rlen = len(row)
            for c in row:
                cost = (rlen - 1) * (len(col_rows[c]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, c)
            if best and best[0] == 0:
                break
        if best is None:
            break
        _, pr, pc = best
        prow = rows[pr]
        pv = prow[pc]
        prow = {c: x / pv for c, x in prow.items()}
        rows[pr] = {}
        for c in prow:
            col_rows[c].discard(pr)
        alive.discard(pr)
        for i in list(col_rows.get(pc, ())):
            if i not in alive:
                continue
            row = rows[i]
            f = row.get(pc)
            if f is None:
                continue
            for c, x in prow.items():
                nv = row.get(c, F(0)) - f * x
                if nv:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(i)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    col_rows[c].discard(i)
        pivot_order.append((pc, prow))
    pivot_cols = {c for c, _ in pivot_order}
    free = [c for c in range(n) if c not in pivot_cols]
    if len(free) != 1:
        return None
    vec = [F(0)] * n
    vec[free[0]] = F(1)
    for pc, prow in reversed(pivot_order):
        vec[pc] = -sum((x * vec[c] for c, x in prow.items() if c != pc), F(0))
    if any(x < 0 for x in vec):
        vec = [-x for x in vec]
    return vec


def _reference_solve(comps, rows):
    """The one-pass class solve on Fraction rows [(j, t), ...]."""
    comp_of, ncomp = _tarjan_scc(len(comps), [[j for j, _t in r] for r in rows])
    groups = [[] for _ in range(ncomp)]
    for c, cid in enumerate(comp_of):
        groups[cid].append(c)
    v = [F(0)] * len(comps)
    carrier = None
    for group in groups:
        gidx = {c: i for i, c in enumerate(group)}
        g = len(group)
        srows = []
        has_inflow = False
        for gi, c in enumerate(group):
            row = {gi: F(1)}
            inflow = F(0)
            for j, t in rows[c]:
                gj = gidx.get(j)
                if gj is None:
                    inflow += t * v[j]
                else:
                    row[gj] = row.get(gj, F(0)) - t
                    if row[gj] == 0:
                        del row[gj]
            if inflow:
                row[g] = -inflow
                has_inflow = True
            srows.append(row)
        if has_inflow:
            vec = _reference_nullspace(srows, g + 1)
            if vec is None or vec[g] == 0:
                raise MeasureError("singular transient block in the mass solve")
            sol = [x / vec[g] for x in vec[:g]]
            if any(x <= 0 for x in sol):
                raise MeasureError("non-positive mass in back-substitution")
        else:
            sol = _reference_nullspace(srows, g)
            if sol is None or any(x <= 0 for x in sol):
                continue
            if carrier is not None:
                states = sorted({comps[c][0] for c in group})
                raise MeasureError(
                    "mass system underdetermined: a second mass-carrying "
                    f"class without inflow exists (states {states}); the "
                    "self-consistency equations plus the root normalization "
                    "cannot fix the relative scale of independent classes")
            carrier = group
        for c, x in zip(group, sol):
            v[c] = x
    if carrier is None:
        raise MeasureError("no mass-carrying class found")
    return v


def _int_rows(rows):
    """Sparse Fraction rows [(j, t), ...] as (den, int rows over den)."""
    den = lcm(*(t.denominator for row in rows for _j, t in row))
    return den, [[(j, (t * den).numerator) for j, t in row] for row in rows]


def _positive_multiple(new, ref, strict):
    """new = c * ref for one c > 0 (any c != 0 unless strict)."""
    p = next(k for k, x in enumerate(ref) if x)
    c = F(new[p]) / ref[p]
    return all(x == c * y for x, y in zip(new, ref)) and (c > 0 or (c != 0 and not strict))


# ----------------------------------------------------------------------
# the nullspace on random sparse rational matrices
# ----------------------------------------------------------------------

_values = st.one_of(
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-2**62, 2**62), st.integers(1, 2**60)))
_nonzero = _values.filter(bool)


@st.composite
def sparse_matrices(draw):
    """An n x n sparse rational matrix of nullity at least 0, 1 or 2 as
    drawn (basis rows plus combinations of them, shuffled), with an
    optional augmented column n; returns (rows, number of columns)."""
    n = draw(st.integers(1, 12))
    rank = max(n - draw(st.integers(0, 2)), 0)
    cols = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    basis = [{c: draw(_nonzero) for c in draw(cols)} for _ in range(rank)]
    rows = list(basis)
    for _ in range(n - rank):
        row: dict = {}
        if basis:
            for b in draw(st.lists(st.sampled_from(basis), max_size=2)):
                f = draw(_nonzero)
                for c, x in b.items():
                    row[c] = row.get(c, F(0)) + f * x
        rows.append({c: x for c, x in row.items() if x})
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        for row in rows:
            x = draw(_values)
            if x:
                row[n] = x
        return rows, n + 1
    return rows, n


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_integer_nullspace_matches_the_fraction_reference(matrix):
    rows, n = matrix
    ref = _reference_nullspace(rows, n)
    new = measure._nullspace_dim1([dict(_int_rows([r.items()])[1][0]) for r in rows], n)
    assert (new is None) == (ref is None)
    if ref is not None:
        assert all(type(x) is int for x in new)
        # a sign-definite vector comes out nonnegative from both; a mixed
        # one is signed by which column stays free, which the pivots choose
        assert _positive_multiple(new, ref, strict=all(x >= 0 for x in ref))


# ----------------------------------------------------------------------
# the whole solve against the reference
# ----------------------------------------------------------------------

def _fraction_rows(rows, den):
    return [[(j, F(a, den)) for j, a in r] for r in rows]


def _assert_solves_agree(comps, rows, den):
    """Equal up to a positive scale, or refused with the same message."""
    try:
        ref = _reference_solve(comps, _fraction_rows(rows, den))
    except MeasureError as exc:
        with pytest.raises(MeasureError) as info:
            measure._solve_components(comps, rows, den)
        assert str(info.value) == str(exc)
        return
    new = measure._solve_components(comps, rows, den)
    assert all(type(x) is F for x in new)
    assert _positive_multiple(new, ref, strict=True)


@pytest.mark.parametrize("name", BUNDLED)
def test_solve_matches_the_reference_on_bundled_configs(pipelines, name):
    auto = pipelines(name).automaton
    comps, _base, rows = _component_edges(auto)
    _assert_solves_agree(comps, rows, auto.ifs.den)


@settings(max_examples=12, deadline=None)
@given(dyadic_systems())
def test_solve_matches_the_reference_on_dyadic_systems(sys_spec):
    ifs = _dyadic_ifs(*sys_spec)
    comps, _base, rows = _component_edges(am.build(ifs, NeighborDecider(ifs), max_states=5000))
    _assert_solves_agree(comps, rows, ifs.den)


@st.composite
def component_graphs(draw):
    """Up to 7 components with sparse positive weights, most rows scaled
    to sum 1: classes of one, two and more states, with and without
    inflow, carriers, null classes and refusals."""
    n = draw(st.integers(1, 7))
    weight = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 3), F(2), F(3, 4)])
    rows = []
    for _ in range(n):
        row = [(j, draw(weight))
               for j in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))]
        if row and draw(st.integers(0, 3)):
            total = sum(t for _j, t in row)
            row = [(j, t / total) for j, t in row]
        rows.append(row)
    den, rows = _int_rows(rows)
    return [(k, 0) for k in range(n)], rows, den


@settings(max_examples=400, deadline=None)
@given(component_graphs())
def test_solve_matches_the_reference_on_random_component_graphs(graph):
    _assert_solves_agree(*graph)
