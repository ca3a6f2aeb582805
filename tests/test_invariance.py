"""Presentation invariance: rewrites of an IFS that keep its measure.

tau(q) depends only on mu, and so does the multiset of atom masses at a
fixed scale.  Reordering the maps (with their weights), conjugating every
map by a translation x -> x + c and passing to the second iterate
{S_i S_j} (weights p_i p_j, ratio r^2, exponent 1) all keep mu, so each
must give the same certified tau(2) and the same masses; where the
classes are small, also the same tau(3) and tau(4).  Every rewrite
runs its own closure, automaton and mass solve, so agreement checks the
whole pipeline, also in the plane, where the brute-force oracle does not go.
"""

from fractions import Fraction as F

import pytest

from selfsim import automaton as am
from selfsim.maps import IFS, ScaleBase, Similitude, identity_matrix
from selfsim.measure import MeasureError, compute_mass_vectors
from selfsim.neighbors import NeighborDecider
from selfsim.spectrum import PressureEngine
from test_pipeline_fuzz import _dyadic_ifs


def reorder(ifs, order):
    return IFS(ifs.field, [ifs.maps[i] for i in order],
               [ifs.probabilities[i] for i in order], ifs.base)


def conjugate(ifs, c):
    """Every map as T S T^-1, T the translation x -> x + c."""
    field = ifs.field
    shift = Similitude(field, identity_matrix(field, ifs.dim),
                       tuple(field.from_rational(x) for x in c), 0)
    return IFS(field, [shift.compose(s).compose(shift.inverse()) for s in ifs.maps],
               ifs.probabilities, ifs.base)


def second_iterate(ifs):
    """{S_i S_j} with weights p_i p_j over the base ratio r^2."""
    field = ifs.field
    maps, weights = [], []
    for si, pi in zip(ifs.maps, ifs.probabilities):
        for sj, pj in zip(ifs.maps, ifs.probabilities):
            s = si.compose(sj)
            maps.append(Similitude(field, s.linear, s.translation, 1))
            weights.append(pi * pj)
    return IFS(field, maps, weights, ScaleBase(field, ratio=ifs.base.ratio ** 2))


def solve(ifs):
    return compute_mass_vectors(am.build(ifs, NeighborDecider(ifs)))


def invariants(model, depth, qs):
    """((tau(q), its bounds, its route) for each q, the sorted positive
    masses at the depth)."""
    engine = PressureEngine(model)
    taus = []
    for q in qs:
        tau, lo, hi, est = engine.tau(q)
        taus.append((tau, lo, hi, est.method))
    masses = sorted(m for m in map(model.mass, model.addresses(depth)) if m > 0)
    return taus, masses


def assert_same(ref, got):
    for (ref_tau, ref_lo, ref_hi, ref_method), (tau, lo, hi, method) in zip(ref[0], got[0],
                                                                             strict=True):
        assert ref_method == method == "kronecker"
        assert abs(tau - ref_tau) < 1e-9
        assert lo <= ref_hi and ref_lo <= hi  # the two certified intervals overlap
    assert got[1] == ref[1]


# the classes of golden and of the dyadic systems take the Kronecker route at
# q = 2, 3 and 4; the gasket's (L = 234) only at q = 2
_SMALL_QS = (2.0, 3.0, 4.0)


@pytest.mark.parametrize("name, rewrite, depth", [
    pytest.param("golden-bernoulli", lambda ifs: reorder(ifs, (1, 0)), 4, id="golden-reversed"),
    pytest.param("golden-bernoulli", lambda ifs: conjugate(ifs, (1,)), 4,
                 id="golden-conjugated"),
    # one step of the second iterate is two steps of the original
    pytest.param("golden-bernoulli", second_iterate, 2, id="golden-second-iterate"),
    pytest.param("golden-gasket-conjugated", lambda ifs: reorder(ifs, (1, 2, 0)), 4,
                 id="gasket-order-120"),
    pytest.param("golden-gasket-conjugated", lambda ifs: reorder(ifs, (0, 2, 1)), 4,
                 id="gasket-order-021"),
    pytest.param("golden-gasket-conjugated", lambda ifs: conjugate(ifs, (1, 1)), 4,
                 id="gasket-conjugated"),
    pytest.param("golden-gasket-conjugated", second_iterate, 2, id="gasket-second-iterate"),
])
def test_rewrite_keeps_tau_and_masses(pipelines, name, rewrite, depth):
    pipe = pipelines(name)
    qs = _SMALL_QS if name == "golden-bernoulli" else (2.0,)
    assert_same(invariants(pipe.measure, 4, qs), invariants(solve(rewrite(pipe.ifs)), depth, qs))


@pytest.mark.parametrize("weights", [(F(1, 3),) * 3, (F(1, 2), F(1, 3), F(1, 6))],
                         ids=["equal", "unequal"])
def test_dyadic_map_orders_agree(weights):
    # the maps x/2 + s/4, s = 0, 1, 2, with weights[s]; the four orders
    # build 18, 25, 18 and 25 states, yet give one measure
    def system(order):
        return _dyadic_ifs(list(order), [weights[s] for s in order])

    ref = invariants(solve(system((0, 1, 2))), 4, _SMALL_QS)
    assert len(ref[1]) == 32
    for order in [(0, 2, 1), (2, 1, 0), (2, 0, 1)]:
        assert_same(ref, invariants(solve(system(order)), 4, _SMALL_QS))
    # starting with the middle map, the states split into two inflow-less
    # classes whose relative scale the solve refuses to guess
    for order in [(1, 0, 2), (1, 2, 0)]:
        with pytest.raises(MeasureError, match="underdetermined"):
            solve(system(order))
