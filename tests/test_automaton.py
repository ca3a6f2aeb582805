import functools
import hashlib
import itertools
import json
import operator
from fractions import Fraction as F

import pytest

from conftest import BUNDLED
from selfsim import automaton as am
from selfsim.automaton import NotAdmissible
from selfsim.field import NumberField, RootBox
from selfsim.intervals import RatInterval
from selfsim.maps import IFS, ScaleBase, Similitude
from selfsim.neighbors import BudgetExceeded, NeighborDecider
from selfsim.oracle import attractor_is_full_interval, canonical_words, interval_hull
from selfsim.spectrum import word_norm_levels


def test_root_state(cantor):
    root = am.root_state(cantor.ifs)
    assert root.v_size == 1 and root.u_size == 1
    assert root.umaps[0].is_identity() and root.rmap.is_identity()
    assert cantor.automaton.resolve([0]) == root
    assert len(cantor.automaton.edges[0]) >= 1


def test_single_map_recurs():
    K = NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))
    s = Similitude(K, ((K.gen,),), (K.zero,), 1)
    ifs = IFS(K, [s], [F(1)], ScaleBase(K, ratio=K.gen))
    auto = am.build(ifs, NeighborDecider(ifs))
    assert len(auto.states) == 2
    assert auto.edges[1][0].child == 1


def test_children_of_a_state_with_an_uncovered_v_entry():
    # x -> x/2 + (0, 1/2) and x -> Dx/2 + (0, -1/2) over Q, D = diag(1, -1).
    # With h the translation by (1, 0), h o D has exactly the children of h,
    # so in U = (id, h, h o D), V = (id, h) each child below h is also below
    # the touching cylinder h o D outside V: h's V entry is left uncovered
    # and the state has no children
    K = NumberField([F(-1, 2), 1], RootBox(RatInterval(0, 1)))
    zero, one, half = K.zero, K.one, K.gen

    def diag(a, b):
        return ((a, zero), (zero, b))

    ifs = IFS(K, [Similitude(K, diag(half, half), (zero, half), 1),
                  Similitude(K, diag(half, -half), (zero, -half), 1)],
              [F(1, 2), F(1, 2)], ScaleBase(K, ratio=K.gen))
    ident = ifs.identity_map()
    h = Similitude(K, diag(one, one), (one, zero), 0)
    hd = h.compose(Similitude(K, diag(one, -one), (zero, zero), 0))
    state = am.AtomState((ident, h, hd), (0, 0, 0), (0, 1), ident)
    decider = NeighborDecider(ifs)
    below_h = [r for r in am._child_records(state, ifs, decider) if 1 in r.vweight]
    assert len(below_h) == 2 and all(r.forbidden for r in below_h)
    assert am.children(state, ifs, decider) == []


def test_cantor_structure(cantor):
    auto = cantor.automaton
    # root plus one state per step map; every state has two children with
    # singleton covering and touching lists
    assert len(auto.states) == 3
    for sid, st in enumerate(auto.states):
        assert len(auto.edges[sid]) == 2
        if sid:
            assert st.v_size == 1 and st.u_size == 1
    assert len(auto.addresses(5)) == 32
    assert len(set(auto.addresses(5))) == 32


def test_half_overlap_child(lebesgue):
    auto = lebesgue.automaton
    root_children = [auto.states[e.child] for e in auto.edges[0]]
    assert any(st.v_size == 2 for st in root_children)


def test_golden_fixture(golden):
    # regression fixture; the measure and oracle suites cross-check it
    auto = golden.automaton
    assert len(auto.states) == 22
    assert len(auto.addresses(4)) == 39


def test_build_past_max_states_is_budget_exceeded(gasket):
    # the automaton runs out as the closure does: counts of found and unexpanded states
    with pytest.raises(BudgetExceeded, match="exceeded 5 states") as exc:
        am.build(gasket.ifs, gasket.decider, max_states=5)
    assert exc.value.node_count == 5 and exc.value.frontier_size > 0


def test_build_deterministic(golden):
    ifs = golden.ifs
    a1 = am.build(ifs, NeighborDecider(ifs))
    a2 = am.build(ifs, NeighborDecider(ifs))
    assert a1.states == a2.states
    assert [[e.child for e in es] for es in a1.edges] == \
           [[e.child for e in es] for es in a2.edges]


def test_resolve_roundtrip_and_errors(cantor):
    auto = cantor.automaton
    for addr in auto.addresses(4):
        st = auto.resolve(addr)
        assert st is auto.states[addr[-1]]
    with pytest.raises(NotAdmissible):
        auto.resolve([1])
    with pytest.raises(NotAdmissible):
        auto.resolve([0, 0])


def test_sibling_distinctness(pipelines):
    for name in ("cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
                 "commensurable-osc"):
        auto = pipelines(name).automaton
        for es in auto.edges:
            kids = [auto.states[e.child] for e in es]
            assert len(kids) == len(set(kids))


def test_refinement_no_cylinder_lost(cantor, commensurable):
    # on separated systems every allowed child map appears in exactly one
    # signature, so the entries of the edge matrices add to one per row:
    # to den, over which they are held
    for pipe in (cantor, commensurable):
        auto = pipe.automaton
        for sid, st in enumerate(auto.states):
            for i in range(st.v_size):
                total = sum(n for e in auto.edges[sid] for n in e.tnum[i])
                assert total == auto.ifs.den


def test_order_matches_recomputed_words(golden, lebesgue):
    """Stored entry order along a path equals the canonical word order."""
    for pipe in (golden, lebesgue):
        auto = pipe.automaton
        ifs = pipe.ifs
        for depth in (1, 2, 3):
            table = canonical_words(ifs, depth)
            for addr in auto.addresses(depth):
                frame = None
                for sid in addr[1:]:
                    r = auto.states[sid].rmap
                    frame = r if frame is None else frame.compose(r)
                st = auto.states[addr[-1]]
                words = []
                for m in st.umaps:
                    absolute = frame.compose(m) if frame is not None else m
                    words.append(table[absolute.key()])
                assert words == sorted(words), (addr, words)


def test_state_entries_lie_in_gamma(golden):
    gamma = {m.key() for m in golden.decider.gamma_maps()}
    for st in golden.automaton.states:
        for m in st.umaps:
            assert m.key() in gamma


def test_state_tags_zero_for_equicontractive(golden):
    for st in golden.automaton.states:
        assert all(t == 0 for t in st.utags)


def test_commensurable_tags_in_band(commensurable):
    kmax = commensurable.ifs.k_max
    seen = set()
    for st in commensurable.automaton.states:
        for t in st.utags:
            assert 0 <= t < kmax
            seen.add(t)
    assert seen == {0, 1}


def test_witness_root(cantor):
    w = am.witness(cantor.automaton, 0)
    assert w is not None
    assert w.point[0].is_rational()


def test_witness_cantor_children(cantor):
    auto = cantor.automaton
    pts = set()
    for e in auto.edges[0]:
        w = am.witness(auto, e.child)
        assert w is not None
        pts.add(float(w.point[0]))
    assert pts <= {0.0, 1.0, 1/3, 2/3} and pts


def test_witness_overlap_point(lebesgue):
    auto = lebesgue.automaton
    for sid, st in enumerate(auto.states):
        if st.v_size == 2 and sid in [e.child for e in auto.edges[0]]:
            w = am.witness(auto, sid)
            assert w is not None
            assert w.point[0].as_rational() == F(1, 2)


def test_witness_separated_from_touching_cylinders(golden):
    # states with |U| > |V|: the witness must lie in the hull images of the
    # covering cylinders and off those of the touching ones not in V, where
    # the attractor is an interval, so the hull images are the cylinders
    auto = golden.automaton
    assert attractor_is_full_interval(golden.ifs)
    lo, hi = interval_hull(golden.ifs)
    found = []
    for sid in golden.measure.kept:
        st = auto.states[sid]
        if st.u_size == st.v_size:
            continue
        w = am.witness(auto, sid)
        if w is None:
            continue
        frame = am._frame(auto, am._bfs_tree(auto, 0)[sid])
        x, = w.point
        for j, psi in enumerate(st.umaps):
            cyl = frame.compose(psi) if frame is not None else psi
            a, b = sorted((cyl.apply((lo,))[0], cyl.apply((hi,))[0]))
            if j in st.vpos:
                assert a <= x <= b
            else:
                assert x < a or x > b
        found.append(sid)
    assert len(found) == 6


@pytest.mark.parametrize("name", ["golden-bernoulli", "lebesgue-1-2", "commensurable-osc",
                                  "complex-pisot-demo"])
def test_child_records_made_in_order(pipelines, name):
    # each child map's first (U position, bridge letters) pair is its least,
    # so the records come out in the order of their least pairs
    p = pipelines(name)
    for st in p.automaton.states:
        least = {}
        for j, (psi, tag) in enumerate(zip(st.umaps, st.utags)):
            for br in p.ifs.bridges(tag):
                h = psi.compose(br.map)
                least[h] = min(least.get(h, (j, br.letters)), (j, br.letters))
        recs = am._child_records(st, p.ifs, p.decider)
        assert [r.map for r in recs] == sorted(least, key=least.get)


def test_exports(golden):
    auto = golden.automaton
    dot = auto.to_dot()
    assert "digraph" in dot and f"s{len(auto.states)-1}" in dot
    data = auto.to_json_dict()
    assert len(data["states"]) == len(auto.states)
    assert all("T" in e for e in data["edges"])


def test_golden_gasket_3d_closure(gasket_3d):
    # the ball test's right side is computed once per exponent: which children
    # it drops, and so the whole closure, must not move
    graph = gasket_3d.decider.graph
    assert len(graph.nodes) == 319 and sum(graph.alive) == 85
    assert len(graph.gamma_maps()) == 85
    digest = hashlib.sha256(graph.to_dot().encode()).hexdigest()
    assert digest == "f79d4324699a2715ec7ca177551a8012e483eafec41f9aed713b0903309b9e66"


def test_golden_gasket_3d_automaton(gasket_3d):
    auto = gasket_3d.automaton
    assert len(auto.states) == 7559
    assert sum(len(es) for es in auto.edges) == 27406
    digest = hashlib.sha256(
        json.dumps(auto.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "c4e634f41a5b7e869167e4d6e9239454e859edc29aba8d779e2134929062cee8"


def test_golden_gasket_3d_measure(gasket_3d):
    # the exact mass solve on the automaton above
    model = gasket_3d.measure
    assert len(model.kept) == 1422
    digest = hashlib.sha256(
        json.dumps([[str(x) for x in vec] for vec in model.v]).encode()).hexdigest()
    assert digest == "e5a2d413429d4d522bdff87cdc8f55eda4cd70a77a36458d330988e3a6136bf6"


def test_golden_gasket_3d_word_dp(gasket_3d):
    # the word DP on the essential class of the measure above, bit for bit
    # and in insertion order, level by level
    snaps, coarsened = word_norm_levels(gasket_3d.engine.ess.system, 8)
    assert not coarsened
    digests = [hashlib.sha256(json.dumps([(v.hex(), c) for v, c in level.items()]).encode())
               .hexdigest() for level in snaps[1:]]
    assert digests == [
        "04c5c22791777397f7f15495710af33b7dd7232c62ee71802a9086b2c002eee2",
        "7c1dbf3358ab739fbd6679f71b35a5d56ad34704e3ac19f48945c97f3f4699b9",
        "2f7a265d4552ac6cbc51ac786ba3a0dd8afa56a2f87e75ddefabddbd250663cc",
        "26331d5c07272bb5ba5a984ce3e6304a66b0b195625bf2f1f3e282106e801aee",
        "be394e3bafff06465903b4251eca1e668dbd55ff04e92424aebac7a4b4e5498d",
        "2bbaff97a912a2490b002669eba883e41b4e9012cc379b3e6c3c880198feff13",
        "be744d277a7ce71d9809cd4da6fef05d0cc46ecae80a449bc377c7c27d358b68",
        "a0da4d4c06d654975a9e8f7ec5a511162578a3756d9dc9b12090010b3380ce15",
    ]


def _assert_interned_maps_within_the_closure(ifs, d):
    """After a build, every interned map is a surviving closure map, one of
    those composed with a bridge, or the inverse of such a composition."""
    gamma = d.gamma_maps()
    keys = {g.key() for g in gamma}
    for g in gamma:
        for tag in range(ifs.k_max):
            for br in ifs.bridges(tag):
                h = g.compose(br.map)
                keys.update((h.key(), h.inverse().key()))
    assert len(d._maps) <= len(keys)
    assert {m.key() for m in d._maps} <= keys


@pytest.mark.parametrize("name", BUNDLED)
def test_interned_maps_stay_within_the_closure(pipelines, name):
    # a decider of its own: other tests query the shared pipelines' deciders
    ifs = pipelines(name).ifs
    d = NeighborDecider(ifs)
    am.build(ifs, d)
    _assert_interned_maps_within_the_closure(ifs, d)


def test_golden_gasket_3d_interned_maps(gasket_3d):
    gasket_3d.automaton
    _assert_interned_maps_within_the_closure(gasket_3d.ifs, gasket_3d.decider)


def _brute_signatures(allowed, covers, decider):
    """Every subset of allowed, in lexicographic order of membership
    vectors (member first), that covers V and whose maps meet pairwise
    and as one tuple."""
    full = functools.reduce(operator.or_, covers)
    out = []
    for member in itertools.product((True, False), repeat=len(allowed)):
        idx = tuple(i for i, m in enumerate(member) if m)
        if not idx or functools.reduce(operator.or_, (covers[i] for i in idx)) != full:
            continue
        items = sorted(allowed[i].item for i in idx)
        if all(decider.pair_ids(p, q) for p, q in itertools.combinations(items, 2)) \
                and decider.tuple_ids(tuple(items)):
            out.append(idx)
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_signatures_match_brute_force(pipelines, name):
    p = pipelines(name)
    searched = 0
    for st in p.automaton.states:
        recs = am._child_records(st, p.ifs, p.decider)
        allowed = [r for r in recs if r.vweight and not r.forbidden]
        covers = [sum(1 << k for k, vp in enumerate(st.vpos) if vp in r.vweight)
                  for r in allowed]
        if functools.reduce(operator.or_, covers, 0) != (1 << st.v_size) - 1:
            continue  # `children` stops before the search: no child
        assert am._signatures(allowed, covers, p.decider) == \
            _brute_signatures(allowed, covers, p.decider)
        searched += 1
    assert searched
