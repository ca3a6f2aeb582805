import itertools
from fractions import Fraction as F

import pytest

from selfsim.field import NumberField, RootBox
from selfsim.intervals import RatInterval
from selfsim.maps import IFS, MapError, ScaleBase, Similitude
from selfsim.neighbors import (BudgetExceeded, NeighborDecider, bounding_ball,
                               candidate_closure, greatest_fixed_point, prune)


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
    ball = bounding_ball(half_ifs)
    assert ball.center[0].as_rational() == F(1, 2)
    assert ball.radius == F(1, 2)


def test_bounding_ball_single_map():
    K = NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))
    s = Similitude(K, ((K.gen,),), (K.zero,), 1)
    ifs = IFS(K, [s], [F(1)], ScaleBase(K, ratio=K.gen))
    ball = bounding_ball(ifs)
    assert ball.center[0].is_zero()
    assert ball.radius == 0


def test_bounding_ball_golden(golden_ifs):
    ball = bounding_ball(golden_ifs)
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
    alive = {k for k, n in graph.nodes.items() if n.alive}
    for key in alive:
        node = graph.nodes[key]
        assert any(s in alive for s in node.succ)
    ident = golden_ifs.identity_map()
    assert graph.nodes[(ident.key(), (0, 0))].alive


def test_greatest_fixed_point_cases():
    known = {"T": True, "F": False}
    succ = {"a": ["b"], "b": ["a"],            # a cycle
            "c": ["d"], "d": ["e"], "e": [],   # a chain into a node with no successor
            "x": ["y"],                        # a chain into an unexplored key
            "t": ["T"], "u": ["t"],            # only successor decided True
            "f": ["F"],                        # only successor decided False
            "m": ["F", "e", "a"]}              # one kept successor among dead ones
    kept = greatest_fixed_point(succ, known)
    assert {"a", "b"} <= kept
    assert not kept & {"c", "d", "e", "x"}
    assert {"t", "u"} <= kept
    assert "f" not in kept
    assert "m" in kept
    assert kept == {"a", "b", "t", "u", "m"}
    assert greatest_fixed_point({}, known) == set()


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
    assert [[(c.key(), t) for c, t in kids] for kids in second] == \
        [[(c.key(), t) for c, t in kids] for kids in first]


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


def test_answers_survive_clearing_the_id_tables(pipelines):
    ifs = pipelines("golden-gasket-conjugated").ifs
    ws = [ifs.map_of_word(w.letters) for w in ifs.stopping_words(2)][:8]
    d = NeighborDecider(ifs)

    def answers():
        return ([d.compose(a, b) for a in ws[:3] for b in ws[:3]],
                [d.pair_of(a, 0, b, 0) for a in ws for b in ws],
                [d.tuple_intersects(c) for c in itertools.combinations(ws, 3)])

    before = answers()
    d._reset()  # what the memory bound does between public calls
    assert answers() == before


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
