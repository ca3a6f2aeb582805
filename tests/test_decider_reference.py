"""The compiled tuple decider against a reference that composes Similitudes.

`ReferenceDecider` is the decider as it was before the compiled node
tables: a tuple state is a sorted tuple of (map key, tag) relative to one
of its cylinders, `_canonical` composes with the inverse of each pivot and
keeps the least tuple, and `_expand` composes every bridge combination.
Pairs are read off the same pruned closure.  A tuple is decided by the
earlier rule too: explore the whole reachable product graph, then keep its
greatest fixed point, a private copy kept here so that the reference does
not share `neighbors.reaches_cycle` with the decider; a fuzz checks the
two rules against each other.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BUNDLED
from selfsim import automaton as am
from selfsim.maps import IFS, ScaleBase, Similitude
from selfsim.neighbors import BudgetExceeded, NeighborDecider, reaches_cycle
from test_pipeline_fuzz import H, K, _dyadic_ifs, dyadic_systems


def _greatest_fixed_point(succ: dict, known: dict) -> set:
    """The largest set of keys of `succ` each with a successor kept or True.

    succ maps each undecided key to its successor keys; a successor that
    is neither kept nor True in `known` is dead.  The kept keys are those
    with an infinite refinement chain or a chain into a state known True.
    """
    alive = set(succ)
    changed = True
    while changed:
        changed = False
        for k in list(alive):
            if not any(s in alive or known.get(s) is True for s in succ[k]):
                alive.discard(k)
                changed = True
    return alive


@st.composite
def successor_graphs(draw):
    """Successor lists on keys 0..n-1, None successors among them; the
    other keys are known True, known False or never explored."""
    n = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(["succ", "succ", "succ", True, False, "unexplored"]),
                          min_size=n, max_size=n))
    targets = st.one_of(st.none(), st.integers(0, n - 1))
    succ = {k: draw(st.lists(targets, max_size=3)) for k in range(n) if kinds[k] == "succ"}
    known = {k: kind for k, kind in enumerate(kinds) if isinstance(kind, bool)}
    return succ, known, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(successor_graphs())
def test_reaches_cycle_agrees_with_the_greatest_fixed_point(graph):
    succ, known, order = graph
    kept = _greatest_fixed_point(succ, known)
    expected = {k: known.get(k, k in kept) for k in order}
    step = lambda k: succ.get(k, [])  # an unexplored key has no successor
    assert {k: reaches_cycle(k, step, dict(known)) for k in order} == expected
    shared = dict(known)  # one memo across keys in a random order, as in `prune`
    assert {k: reaches_cycle(k, step, shared) for k in order} == expected
    assert all(shared[k] == expected[k] for k in shared)


class ReferenceDecider:
    def __init__(self, ifs, graph, tuple_budget=200000):
        self.ifs = ifs
        self.tuple_budget = tuple_budget
        self.alive = {k for k, n in graph.nodes.items() if graph.alive[n]}  # (key, tags)
        self.maps: dict = {}          # key -> Similitude
        self.compose_memo: dict = {}  # (key, key) -> key
        self.tuple_memo: dict = {}

    def _key(self, smap):
        k = smap.key()
        self.maps.setdefault(k, smap)
        return k

    def _compose(self, a, b):
        c = self.compose_memo.get((a, b))
        if c is None:
            c = self.compose_memo[(a, b)] = self._key(self.maps[a].compose(self.maps[b]))
        return c

    def _inverse(self, a):
        return self._key(self.maps[a].inverse())

    def _pair(self, p, q):
        (a, ta), (b, tb) = p, q
        return a == b or (self._compose(self._inverse(a), b), (ta, tb)) in self.alive

    def _pairwise_ok(self, state):
        return all(self._pair(p, q) for p, q in itertools.combinations(state, 2))

    def tuple_intersects(self, maps, tags):
        items = tuple(sorted(dict.fromkeys(zip(map(self._key, maps), tags))))
        if not self._pairwise_ok(items):
            return False
        return len(items) <= 2 or self._decide_tuple(self._canonical(items))

    def _canonical(self, items):
        best = None
        for pivot, _ in items:
            inv = self._inverse(pivot)
            rel = tuple(sorted((self._compose(inv, s), t) for s, t in items))
            if best is None or rel < best:
                best = rel
        return best

    def _decide_tuple(self, start):
        memo = self.tuple_memo
        succ: dict = {}
        stack = [start]
        while stack:
            state = stack.pop()
            if state in succ or state in memo:
                continue
            if len(succ) > self.tuple_budget:
                raise BudgetExceeded("tuple intersection state budget exceeded")
            if len(state) > 2 and self._pairwise_ok(state):
                succ[state] = self._expand(state)
                stack.extend(succ[state])
            else:
                memo[state] = len(state) <= 2 and self._pairwise_ok(state)
        alive = _greatest_fixed_point(succ, memo)
        for state in succ:
            memo[state] = state in alive
        return memo[start]

    def _expand(self, state):
        out = []
        bridges = [[(self._key(b.map), b.new_tag) for b in self.ifs.bridges(t)]
                   for _, t in state]
        for combo in itertools.product(*bridges):
            base_inv = self._inverse(combo[0][0])
            nxt = dict.fromkeys((self._compose(base_inv, self._compose(s, b)), nt)
                                for (s, _), (b, nt) in zip(state, combo))
            out.append(self._canonical(list(nxt)))
        return out


def _assert_raw_memo_matches(decider, reference):
    decided = list(decider._raw_memo.items())
    assert decided
    for raw, verdict in decided:
        ids, tags = zip(*raw)
        maps = [decider._maps[i] for i in ids]
        assert reference.tuple_intersects(maps, tags) == verdict, [str(m) for m in maps]


@pytest.mark.parametrize("name", BUNDLED)
def test_compiled_verdicts_match_the_reference(pipelines, name):
    p = pipelines(name)
    p.automaton
    _assert_raw_memo_matches(p.decider, ReferenceDecider(p.ifs, p.decider.graph))


@settings(max_examples=12, deadline=None)
@given(dyadic_systems())
def test_compiled_verdicts_match_the_reference_on_dyadic_systems(sys_spec):
    ifs = _dyadic_ifs(*sys_spec)
    decider = NeighborDecider(ifs)
    am.build(ifs, decider, max_states=5000)
    reference = ReferenceDecider(ifs, decider.graph)
    _assert_raw_memo_matches(decider, reference)
    ws = [ifs.map_of_word(w.letters) for w in ifs.stopping_words(2)]
    for k in (3, 4):
        for combo in itertools.combinations(ws, k):
            assert decider.tuple_intersects(combo) == \
                reference.tuple_intersects(combo, [0] * k)


@st.composite
def commensurable_systems(draw):
    """Maps x/2 + s/8 and x/4 + s/8, both ratios present: scale tags 0 and 1."""
    exps = draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=3)
                .filter(lambda e: len(set(e)) == 2))
    shifts = draw(st.lists(st.integers(0, 6), min_size=len(exps), max_size=len(exps),
                           unique=True))
    maps = [Similitude(K, ((H ** k,),), (K.from_rational(F(s, 8)),), k)
            for k, s in zip(exps, shifts)]
    return IFS(K, maps, [F(1, len(maps))] * len(maps), ScaleBase(K, ratio=H),
               mode="commensurable")


@settings(max_examples=12, deadline=None)
@given(commensurable_systems())
def test_compiled_verdicts_match_the_reference_with_scale_tags(ifs):
    decider = NeighborDecider(ifs)
    reference = ReferenceDecider(ifs, decider.graph)
    for level in (2, 4):  # multiples of k_max, where a tag is the exponent mod k_max
        ws = [ifs.map_of_word(w.letters) for w in ifs.stopping_words(level)]
        for combo in itertools.combinations(ws, 3):
            tags = [m.exponent % ifs.k_max for m in combo]
            assert decider.tuple_intersects(combo) == reference.tuple_intersects(combo, tags)
