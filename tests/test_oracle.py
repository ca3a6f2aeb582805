import math
from fractions import Fraction as F

import pytest

from selfsim import oracle as orc
from selfsim.oracle import DiscreteMeasure, IntervalUnion, OracleError


def test_discrete_measure_weights_sum(pipelines):
    for name in ("cantor-1-3", "golden-bernoulli", "commensurable-osc"):
        ifs = pipelines(name).ifs
        for level in (0, 1, 3, 5):
            dm = DiscreteMeasure(ifs, level)
            assert sum(dm.weights) == 1


def test_discrete_measure_weight_array_matches_weights(pipelines):
    # the float weights divide the integer weights once, as float(Fraction) does
    for name, level in (("golden-bernoulli", 8), ("commensurable-osc", 5)):
        dm = DiscreteMeasure(pipelines(name).ifs, level)
        assert all(isinstance(w, F) for w in dm.weights)
        assert [x.hex() for x in dm.weight_array()] == [float(w).hex() for w in dm.weights]


def test_discrete_measure_merges_overlaps(golden):
    # fewer distinct points than words is the overlap structure at work
    dm = DiscreteMeasure(golden.ifs, 8)
    assert len(dm.points) < 2**8


def test_estimate_mass_whole_space(cantor):
    est = orc.estimate_mass(cantor.ifs, IntervalUnion([(F(-10), F(10))]), depth=5)
    assert est.lower == est.upper == 1.0


def test_estimate_mass_cantor_left_half(cantor):
    for depth in (2, 4, 6):
        est = orc.estimate_mass(cantor.ifs, IntervalUnion([(F(-1), F(1, 2))]),
                                depth=depth)
        assert est.lower == est.upper == 0.5


def test_estimate_mass_consistent_across_depths(cantor):
    # predicate aligned with atom boundaries: exact answers coincide
    reg = IntervalUnion([(F(-1), F(1, 3))])
    vals = {orc.estimate_mass(cantor.ifs, reg, depth=d).value for d in (4, 6)}
    assert vals == {0.5}


def test_estimate_mass_golden_atom(golden):
    # mu([0, rho^2)) equals the mass 1/3 of the leftmost level-1 atom;
    # the discrete approximation converges weak-*, so only up to a small
    # boundary discretization error
    model = golden.measure
    left = next(a for a in model.addresses(1))
    exact = model.mass(left)
    assert exact == F(1, 3)
    rho_sq_lo = F(38196601125, 10**11)  # rho^2 = 0.3819660112501...
    est = orc.estimate_mass(golden.ifs, IntervalUnion([(F(-1), rho_sq_lo)]), depth=18)
    assert abs(est.value - float(exact)) < 0.005


def test_estimate_mass_sampling(golden):
    est = orc.estimate_mass(golden.ifs, IntervalUnion([(F(0), F(1, 2))]),
                            samples=100000, seed=7)
    assert est.mode == "monte-carlo"
    assert abs(est.value - 0.5) < 4 * est.stderr + 1e-3
    # deterministic given the seed
    est2 = orc.estimate_mass(golden.ifs, IntervalUnion([(F(0), F(1, 2))]),
                             samples=100000, seed=7)
    assert est.lower == est2.lower and est.upper == est2.upper


def test_estimate_mass_argument_check(cantor):
    with pytest.raises(OracleError):
        orc.estimate_mass(cantor.ifs, IntervalUnion([(0, 1)]))


@pytest.mark.parametrize("mode", [{"depth": 3}, {"samples": 100}], ids=["depth", "samples"])
@pytest.mark.parametrize("name", ["golden-gasket-conjugated", "complex-pisot-demo"])
def test_estimate_mass_refuses_a_system_off_the_real_line(pipelines, name, mode):
    # a region is a set of real numbers; a planar or complex system has no mass on it
    with pytest.raises(OracleError, match="1-D real"):
        orc.estimate_mass(pipelines(name).ifs, IntervalUnion([(F(0), F(1, 2))]), **mode)
    # and so is the sampler, which only estimate_mass calls
    with pytest.raises(OracleError, match="1-D real"):
        orc.sample_points(pipelines(name).ifs, 100)


@pytest.mark.parametrize("name", ["golden-gasket-conjugated", "complex-pisot-demo"])
def test_real_line_refusals_name_their_caller(pipelines, name):
    # one check serves every 1-D entry point, and each names itself
    ifs = pipelines(name).ifs
    calls = [("estimate_mass", lambda: orc.estimate_mass(ifs, IntervalUnion([(0, 1)]), depth=2)),
             ("sample_points", lambda: orc.sample_points(ifs, 10)),
             ("interval_hull", lambda: orc.interval_hull(ifs)),
             ("interval_hull", lambda: orc.attractor_is_full_interval(ifs)),
             ("interval_hull", lambda: orc.NetCensus(ifs, 1))]
    for caller, call in calls:
        with pytest.raises(OracleError, match=f"^{caller} is for 1-D real systems$"):
            call()


@pytest.mark.parametrize("name, ns", [("complex-pisot-demo", range(4, 7)),
                                      ("golden-gasket-conjugated", range(3, 6))])
def test_dyadic_sums_at_q1_are_the_total_mass_off_the_real_line(pipelines, name, ns):
    # the complex and the planar positions: at q = 1 each sum adds the
    # weights of all cells, so it is 1 whatever the cells are
    ifs = pipelines(name).ifs
    sums = orc.dyadic_lq_sums(ifs, 1.0, list(ns))
    assert len(sums) == len(ns)
    assert all(abs(s - 1) < 1e-12 for s in sums)
    # a coarser grid merges cells, so the sums of squares do not grow with n
    squares = orc.dyadic_lq_sums(ifs, 2.0, list(ns))
    assert all(a >= b for a, b in zip(squares, squares[1:])) and squares[-1] < 1
    # each float position is its exact point's embedding
    dm = DiscreteMeasure(ifs, 3)
    pos = dm.positions()
    deg = ifs.field.degree
    for pt, got in zip(dm.points, pos):
        coords = [ifs.field.element([F(c, dm.scale) for c in pt[i * deg:(i + 1) * deg]])
                  for i in range(len(pt) // deg)]
        if ifs.field.complex_embedding:
            assert abs(got - complex(coords[0])) < 1e-12
        else:
            assert max(abs(g - float(c)) for g, c in zip(got, coords)) < 1e-12


def test_dyadic_lebesgue_exact_slope(lebesgue):
    for q in (0.5, 2.0, 3.0):
        td = orc.tau_dyadic(lebesgue.ifs, q, range(6, 13))
        assert abs(td.estimate - (q - 1)) < 1e-6
        assert td.residual < 1e-9


def test_dyadic_cantor_closed_form(cantor):
    td = orc.tau_dyadic(cantor.ifs, 2.0, range(4, 17))
    assert abs(td.estimate - math.log(2) / math.log(3)) < 0.01


def test_matched_level(cantor, lebesgue):
    # 3^-k <= 2^-n < 3^-(k-1) and the dyadic case is exact
    assert orc.matched_level(lebesgue.ifs, 7) == 7
    k = orc.matched_level(cantor.ifs, 8)
    assert F(1, 3)**k <= F(1, 2**8) < F(1, 3)**(k - 1)


def test_subdivision_basic(cantor, lebesgue):
    c1, c2 = cantor.ifs.maps
    assert orc.subdivision_intersects(cantor.ifs, c1, c1, 4) == "yes"
    assert orc.subdivision_intersects(cantor.ifs, c1, c2, 1) == "no"
    l1, l2 = lebesgue.ifs.maps
    assert orc.subdivision_intersects(lebesgue.ifs, l1, l2, 6) == "yes"
    assert orc.subdivision_intersects(
        lebesgue.ifs, l1.compose(l1), l2.compose(l2), 6) == "no"


def test_subdivision_level_check(cantor):
    c1, c2 = cantor.ifs.maps
    with pytest.raises(OracleError):
        orc.subdivision_intersects(cantor.ifs, c1, c2.compose(c1), 4)


def test_subdivision_never_contradicts_decider(pipelines):
    for name in ("cantor-1-3", "lebesgue-1-2", "golden-bernoulli"):
        pipe = pipelines(name)
        ifs, decider = pipe.ifs, pipe.decider
        words = [w.letters for w in ifs.stopping_words(3)]
        maps = {ifs.map_of_word(w).key(): ifs.map_of_word(w) for w in words}
        maps = list(maps.values())
        for f in maps[:6]:
            for g in maps[:6]:
                verdict = orc.subdivision_intersects(ifs, f, g, 10)
                if verdict == "unknown":
                    continue
                assert (verdict == "yes") == decider.intersects(f, g)


def test_word_sum_entries(cantor, golden):
    c1, _ = cantor.ifs.maps
    leftmost = c1.compose(c1).compose(c1)
    assert orc.word_sum_entry(cantor.ifs, leftmost, 3) == F(1, 8)
    unreachable = c1.inverse()
    assert orc.word_sum_entry(cantor.ifs, unreachable, 3) == 0
    # overlap: S1 S2 = rho^2 x + rho(1-rho); a second word 2,1 gives a
    # different map, but deeper composites do coincide
    g1, g2 = golden.ifs.maps
    table = orc.level_map_weights(golden.ifs, 4)
    assert any(w > F(1, 16) for _m, w in table.values())


def test_canonical_words_prefix_structure(golden):
    t2 = orc.canonical_words(golden.ifs, 2)
    t3 = orc.canonical_words(golden.ifs, 3)
    ifs = golden.ifs
    for key, word in t3.items():
        prefix = word[:2]
        parent = ifs.map_of_word(prefix)
        assert t2[parent.key()] <= prefix
