import itertools
from fractions import Fraction as F

import pytest

from selfsim import automaton as am
from selfsim.field import NumberField, RootBox
from selfsim.intervals import RatInterval
from selfsim.maps import IFS, MapError, ScaleBase, Similitude
from selfsim.neighbors import (BudgetExceeded, NeighborDecider, candidate_closure, prune,
                               reaches_cycle)


def ifs_1d(coeffs, box, specs, probs, mode="equicontractive"):
    K = NumberField(coeffs, RootBox(RatInterval(*box)))
    maps = [Similitude(K, ((lin(K),),), (tr(K),), k) for lin, tr, k in specs]
    return K, IFS(K, maps, probs, ScaleBase(K, ratio=K.gen), mode=mode)


@pytest.fixture(scope="module")
def cantor_ifs():
    return ifs_1d([F(-1, 3), 1], (0, 1),
                  [(lambda K: K.gen, lambda K: K.zero, 1),
                   (lambda K: K.gen, lambda K: K.from_rational(F(2, 3)), 1)],
                  [F(1, 2), F(1, 2)])[1]


@pytest.fixture(scope="module")
def half_ifs():
    return ifs_1d([F(-1, 2), 1], (0, 1),
                  [(lambda K: K.gen, lambda K: K.zero, 1),
                   (lambda K: K.gen, lambda K: K.from_rational(F(1, 2)), 1)],
                  [F(1, 2), F(1, 2)])[1]


@pytest.fixture(scope="module")
def golden_ifs():
    return ifs_1d([-1, 1, 1], (0, 1),
                  [(lambda K: K.gen, lambda K: K.zero, 1),
                   (lambda K: K.gen, lambda K: K.one - K.gen, 1)],
                  [F(1, 2), F(1, 2)])[1]


def test_bounding_ball_half(half_ifs):
    ball = half_ifs.ball
    assert ball.center[0].as_rational() == F(1, 2)
    assert ball.radius == F(1, 2)


def test_bounding_ball_single_map():
    K = NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))
    s = Similitude(K, ((K.gen,),), (K.zero,), 1)
    ifs = IFS(K, [s], [F(1)], ScaleBase(K, ratio=K.gen))
    ball = ifs.ball
    assert ball.center[0].is_zero()
    assert ball.radius == 0


def test_bounding_ball_golden(golden_ifs):
    ball = golden_ifs.ball
    assert ball.center[0] == golden_ifs.field.from_rational(F(1, 2))
    # certified upper bound on the true radius 1/2, rounded outward
    assert F(1, 2) <= ball.radius <= F(1, 2) + F(1, 2**70)


def test_cantor_closure_trivial(cantor_ifs):
    graph = prune(candidate_closure(cantor_ifs))
    assert [str(m) for m in graph.gamma_maps()] == ["x->[1]x+(0)"]


def test_half_closure_touching_maps_survive(half_ifs):
    graph = prune(candidate_closure(half_ifs))
    names = {str(m) for m in graph.gamma_maps()}
    assert names == {"x->[1]x+(-1)", "x->[1]x+(0)", "x->[1]x+(1)"}


def test_golden_closure_fixture(golden_ifs):
    # translations 0, +-rho^2, +-rho, +-1 (rho^2 = 1 - rho); regression
    # fixture cross-checked against the subdivision oracle below
    graph = prune(candidate_closure(golden_ifs))
    K = golden_ifs.field
    rho = K.gen
    offsets = {m.translation[0] for m in graph.gamma_maps()}
    expected = {K.zero, rho, -rho, K.one, -K.one, K.one - rho, rho - K.one}
    assert offsets == expected


def test_prune_keeps_successor_closed_set(golden_ifs):
    graph = prune(candidate_closure(golden_ifs))
    alive = graph.alive
    for n, kids in enumerate(graph.succ):
        if alive[n]:
            assert any(c is not None and alive[c] for c in kids)
    ident = golden_ifs.identity_map()
    assert alive[graph.nodes[(ident.key(), (0, 0))]]


def test_reaches_cycle_cases():
    known = {"T": True, "F": False}
    succ = {"a": ["b"], "b": ["a"],            # a cycle
            "c": ["d"], "d": ["e"], "e": [],   # a chain into a node with no successor
            "x": ["y"],                        # a chain into an unexplored key
            "t": ["T"], "u": ["t"],            # only successor decided True
            "f": ["F"],                        # only successor decided False
            "m": ["F", "e", "a"],              # one kept successor among dead ones
            "n": [None, "f"]}                  # a successor the ball test ruled out
    step = lambda s: succ.get(s, [])
    kept = {k for k in succ if reaches_cycle(k, step, dict(known))}
    assert kept == {"a", "b", "t", "u", "m"}
    shared = dict(known)
    assert {k for k in succ if reaches_cycle(k, step, shared)} == kept
    assert {k for k in succ if shared[k]} == kept  # every verdict is recorded
    assert reaches_cycle("T", None, known) and not reaches_cycle("F", None, known)


def test_reaches_cycle_budget_counts_expanded_states():
    chain = lambda s: [s + 1]  # an infinite chain, never a cycle
    with pytest.raises(BudgetExceeded) as exc:
        reaches_cycle(0, chain, {}, budget=50)
    assert exc.value.node_count == 51


def test_plastic_tuple_decided_on_its_first_cycle():
    # lambda^3 + lambda^2 = 1, maps lambda x and lambda x + 1: the whole reachable
    # product graph of this tuple has 2224 states, its first cycle is a few steps away
    K, ifs = ifs_1d([-1, 0, 1, 1], (0, 1),
                    [(lambda K: K.gen, lambda K: K.zero, 1),
                     (lambda K: K.gen, lambda K: K.one, 1)],
                    [F(1, 2), F(1, 2)])
    lam = K.gen
    third = Similitude(K, ((lam,),), (lam + lam * lam,), 1)
    decider = NeighborDecider(ifs, tuple_budget=100)
    expand, calls = decider._expand, []
    decider._expand = lambda state: calls.append(state) or expand(state)
    assert decider.tuple_intersects([*ifs.maps, third])
    assert 0 < len(calls) <= 20


def test_budget_exceeded_reports():
    # ratio 2/3 with overlap: 3/2 is not an algebraic integer, closure grows
    _, ifs = ifs_1d([F(-2, 3), 1], (0, 1),
                    [(lambda K: K.gen, lambda K: K.zero, 1),
                     (lambda K: K.gen, lambda K: K.one - K.gen, 1)],
                    [F(1, 2), F(1, 2)])
    with pytest.raises(BudgetExceeded) as exc:
        candidate_closure(ifs, max_nodes=300)
    assert exc.value.node_count >= 300


def test_intersects_basic(cantor_ifs, half_ifs):
    dc = NeighborDecider(cantor_ifs)
    c1, c2 = cantor_ifs.maps
    assert dc.intersects(c1, c1)
    assert not dc.intersects(c1, c2)
    dh = NeighborDecider(half_ifs)
    h1, h2 = half_ifs.maps
    assert dh.intersects(h1, h2)


def test_intersects_level_mismatch(half_ifs):
    d = NeighborDecider(half_ifs)
    h1, h2 = half_ifs.maps
    with pytest.raises(MapError):
        d.intersects(h1, h2.compose(h1))
    # h1 h1(K) lies inside h1(K): "they do not meet" would be a wrong answer
    with pytest.raises(MapError):
        d.pair_of(h1, 0, h1.compose(h1), 0)
    with pytest.raises(MapError):
        d.tuple_intersects([h1, h1.compose(h1)], [0, 0])


def test_intersects_symmetric_reflexive(golden_ifs):
    d = NeighborDecider(golden_ifs)
    words = [w.letters for w in golden_ifs.stopping_words(3)]
    maps = [golden_ifs.map_of_word(w) for w in words]
    for f, g in itertools.combinations(maps, 2):
        assert d.intersects(f, g) == d.intersects(g, f)
    for f in maps:
        assert d.intersects(f, f)


def test_tuple_reduces_to_pairs(golden_ifs):
    d = NeighborDecider(golden_ifs)
    maps = [golden_ifs.map_of_word(w.letters) for w in golden_ifs.stopping_words(2)]
    for f, g in itertools.combinations(maps, 2):
        assert d.tuple_intersects([f, g]) == d.intersects(f, g)
    assert d.tuple_intersects([maps[0], maps[0], maps[0]])


def test_tuple_half_overlap(half_ifs):
    d = NeighborDecider(half_ifs)
    h1, h2 = half_ifs.maps
    assert d.tuple_intersects([h1.compose(h2), h2.compose(h1)])
    assert not d.tuple_intersects([h1.compose(h1), h2.compose(h2)])
    # three-fold: left, middle-overlap pair partners
    assert not d.tuple_intersects([h1.compose(h1), h1.compose(h2), h2.compose(h1)])


def test_neighbor_count_bounds(golden_ifs):
    # every atom's touching list stays within the neighbor set size
    from selfsim import automaton as am
    d = NeighborDecider(golden_ifs)
    auto = am.build(golden_ifs, d)
    gamma = len(d.gamma_maps())
    for st in auto.states:
        assert st.v_size <= st.u_size <= gamma


def test_dot_export(golden_ifs):
    d = NeighborDecider(golden_ifs)
    dot = d.graph.to_dot()
    assert dot.startswith("digraph") and "->" in dot


SMALL = ["cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
         "complex-pisot-demo", "commensurable-osc"]


@pytest.mark.parametrize("name", SMALL)
def test_compose_memo_is_exact(pipelines, name):
    p = pipelines(name)
    p.automaton
    memo = p.decider._compose_memo
    maps = p.decider._maps
    assert memo
    for (a, b), c in memo.items():
        f, g, h = maps[a], maps[b], maps[c]
        assert h.key() == f.compose(g).key()
        assert h.field is f.field


@pytest.mark.parametrize("name", SMALL)
def test_second_children_pass_composes_nothing(pipelines, name, monkeypatch):
    from selfsim import automaton as am
    p = pipelines(name)
    auto = p.automaton
    first = [am.children(st, p.ifs, p.decider) for st in auto.states]
    calls = []
    compose = Similitude.compose

    def counted(self, other):
        calls.append((self, other))
        return compose(self, other)

    monkeypatch.setattr(Similitude, "compose", counted)
    second = [am.children(st, p.ifs, p.decider) for st in auto.states]
    assert calls == []
    assert second == first


@pytest.mark.parametrize("name", SMALL + ["golden-gasket-conjugated"])
def test_tuple_verdicts_do_not_depend_on_query_order(pipelines, name):
    p = pipelines(name)
    p.automaton
    decided = list(p.decider._raw_memo.items())
    assert decided
    fresh = NeighborDecider(p.ifs)
    for raw, verdict in reversed(decided):
        ids, tags = zip(*raw)
        maps = [p.decider._maps[i] for i in ids]
        assert fresh.tuple_intersects(maps, tags) == verdict, [str(m) for m in maps]


def _copy(s, field=None):
    """An equal map as a new object, over `field` if given."""
    if field is None:
        return Similitude(s.field, s.linear, s.translation, s.exponent)
    lin = tuple(tuple(field.element(c.coeffs) for c in row) for row in s.linear)
    tr = tuple(field.element(c.coeffs) for c in s.translation)
    return Similitude(field, lin, tr, s.exponent)


@pytest.mark.parametrize("name", ["golden-bernoulli", "golden-gasket-conjugated"])
def test_compose_returns_one_object_for_equal_maps(pipelines, name):
    ifs = pipelines(name).ifs
    d = NeighborDecider(ifs)
    f, g = ifs.maps[0], ifs.maps[-1]
    h = d.compose(f, g)
    assert h == f.compose(g)
    assert d.compose(_copy(f), _copy(g)) is h
    # the same map reached through different pairs
    fg_h = d.compose(d.compose(f, g), f)
    assert d.compose(f, d.compose(g, f)) is fg_h
    assert d.compose(_copy(f), _copy(d.compose(g, f))) is fg_h


def test_map_over_another_field_is_refused(pipelines):
    p = pipelines("golden-bernoulli")
    ifs = p.ifs
    other = p.config.build_field()
    assert other is not ifs.field
    ws = [ifs.map_of_word(w.letters) for w in ifs.stopping_words(3)]
    d = NeighborDecider(ifs)

    def answers():
        return ([d.compose(a, b) for a in ws[:3] for b in ifs.maps],
                [d.pair_of(a, 0, b, 0) for a in ws for b in ws],
                [d.tuple_intersects(c) for c in itertools.combinations(ws, 3)])

    before = answers()
    foreign = _copy(ws[0], other)
    assert foreign.key() == ws[0].key() and foreign != ws[0]
    with pytest.raises(MapError):
        d.compose(foreign, ws[1])
    with pytest.raises(MapError):
        d.compose(ws[1], foreign)
    with pytest.raises(MapError):
        d.pair_of(ws[1], 0, foreign, 0)
    with pytest.raises(MapError):
        d.tuple_intersects([ws[1], ws[2], foreign])
    after = answers()
    assert after[1:] == before[1:]
    assert all(x is y for x, y in zip(after[0], before[0]))


def test_tags_set_the_level_of_a_cylinder(pipelines):
    # commensurable-osc: one stopping level holds cylinders of two exponents,
    # and the exponent less the tag is the same for all of them
    ifs = pipelines("commensurable-osc").ifs
    k = ifs.k_max
    ws = [ifs.map_of_word(w.letters) for w in ifs.stopping_words(2 * k)]
    assert len({w.exponent for w in ws}) > 1
    d = NeighborDecider(ifs)
    for a, b in itertools.product(ws, ws):
        assert d.pair_of(a, a.exponent % k, b, b.exponent % k) == d.intersects(a, b)
        if a.exponent == b.exponent:
            with pytest.raises(MapError):
                d.pair_of(a, 0, b, 1)


def test_tuple_intersects_needs_one_tag_per_map(pipelines):
    ifs = pipelines("golden-bernoulli").ifs
    ws = [ifs.map_of_word(w.letters) for w in ifs.stopping_words(3)]
    d = NeighborDecider(ifs)
    assert not d.tuple_intersects([ws[0], ws[7]])
    assert not d.tuple_intersects([ws[0], ws[7]], [0, 0])
    with pytest.raises(MapError):
        d.tuple_intersects([ws[0], ws[7]], [0])
    with pytest.raises(MapError):
        d.tuple_intersects([ws[0]], [0, 0])


def test_one_map_with_two_tags_is_refused(pipelines):
    ifs = pipelines("commensurable-osc").ifs
    ws = [ifs.map_of_word(w.letters) for w in ifs.stopping_words(2)]
    d = NeighborDecider(ifs)
    assert d.pair_of(ws[0], 0, ws[0], 0)
    with pytest.raises(MapError):
        d.pair_of(ws[0], 0, ws[0], 1)
    with pytest.raises(MapError):
        d.tuple_intersects([ws[0], ws[0], ws[1]], [0, 1, 0])
