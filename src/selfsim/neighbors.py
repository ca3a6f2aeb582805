"""Certified decision procedures for cylinder intersections.

The candidate closure enumerates relative maps h = S_I^{-1} S_J of
same-level cylinder pairs, filtered by a certified ball test.  Pairs and
tuples of cylinders share one rule, `greatest_fixed_point`: keep the
states with an infinite refinement chain, because an intersection point
exists iff such a chain does.  Pruning the closure with it decides every
pair; a tuple is explored on the product graph of canonical tuple states
and decided by the same rule, with its sub-pair states answered by the
pruned closure.  Everything is exact: an ambiguous ball test keeps the
candidate, which never changes a verdict, only the amount of work.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .intervals import RatInterval, sqrt_interval
from .maps import IFS, Similitude, MapError, dist_sq_interval

_BALL_BITS = 96  # bits of the certified enclosures behind the ball tests


class BudgetExceeded(RuntimeError):
    """Closure grew past its node budget: finite type not verified."""

    def __init__(self, message, frontier_size=0, node_count=0):
        super().__init__(message)
        self.frontier_size = frontier_size
        self.node_count = node_count


class BoundingBall:
    """Ball B(c, R) with S_i(B) inside B for every generator, so K inside B."""

    def __init__(self, center, radius: Fraction, radius_sq: Fraction):
        self.center = center
        self.radius = radius        # rational upper bound
        self.radius_sq = radius_sq  # radius**2 (kept exact to avoid resquaring)

    def __repr__(self):
        return f"BoundingBall(R<={self.radius})"


def bounding_ball(ifs: IFS) -> BoundingBall:
    """Invariant ball centered at the mean of the generator fixed points."""
    fps = [s.fixed_point() for s in ifs.maps]
    minv = ifs.field.from_rational(Fraction(1, ifs.m))
    center = tuple(sum((fp[i] for fp in fps[1:]), start=fps[0][i]) * minv
                   for i in range(ifs.dim))
    # R = max_i |S_i(c) - c| / (1 - r_max), r_max the largest generator ratio
    k_min = min(ifs.exponents)
    rmax = ifs.base.ratio_interval(k_min, _BALL_BITS)
    num_sq = RatInterval.point(0)
    for s in ifs.maps:
        d2 = dist_sq_interval(s.apply(center), center, _BALL_BITS)
        if d2.hi > num_sq.hi:
            num_sq = d2
    denom = (RatInterval.point(1) - rmax)
    r_up = (sqrt_interval(RatInterval(max(Fraction(0), num_sq.lo), num_sq.hi), 80)
            / denom).hi
    return BoundingBall(center, r_up, r_up * r_up)


class NeighborNode:
    __slots__ = ("map", "tags", "succ", "alive")

    def __init__(self, smap: Similitude, tags: tuple):
        self.map = smap
        self.tags = tags
        self.succ: list = []
        self.alive = True


class NeighborGraph:
    """Candidate relative maps with refinement edges and survivor flags."""

    def __init__(self, ifs: IFS, ball: BoundingBall):
        self.ifs = ifs
        self.ball = ball
        self.nodes: dict = {}  # (map key, tags) -> NeighborNode

    def gamma_maps(self) -> list:
        """The surviving relative maps (the finite set the FTC asserts)."""
        seen = {}
        for n in self.nodes.values():
            if n.alive:
                seen.setdefault(n.map.key(), n.map)
        return [seen[k] for k in sorted(seen)]

    def to_dot(self) -> str:
        lines = ["digraph neighbors {"]
        ids = {}
        for i, (key, n) in enumerate(sorted(self.nodes.items())):
            ids[key] = i
            style = "solid" if n.alive else "dashed"
            label = str(n.map).replace('"', "'")
            if self.ifs.k_max > 1:
                label += f" tags={n.tags}"
            lines.append(f'  n{i} [label="{label}", style={style}];')
        for key, n in sorted(self.nodes.items()):
            for sk in n.succ:
                if sk in ids:
                    lines.append(f"  n{ids[key]} -> n{ids[sk]};")
        lines.append("}")
        return "\n".join(lines)


def _ball_feasible(ball: BoundingBall, ifs: IFS, smap: Similitude) -> bool:
    """Necessary condition for smap(K) to meet K; False only when certified."""
    lhs = dist_sq_interval(smap.apply(ball.center), ball.center, _BALL_BITS)
    ratio = ifs.base.ratio_interval(smap.exponent, _BALL_BITS)
    rhs = (RatInterval.point(1) + ratio).square() * RatInterval.point(ball.radius_sq)
    return not lhs.strictly_greater(rhs)


def candidate_closure(ifs: IFS, max_nodes: int = 20000) -> NeighborGraph:
    """BFS closure of same-level relative maps under refinement.

    Seeds are all pairs of first-level stopping cylinders; each node
    (h, (a, b)) refines through every bridge pair allowed by its scale
    tags.  A finite closure verifies the finite type condition with the
    surviving maps as the witness set; exceeding the budget raises
    BudgetExceeded and decides nothing.
    """
    ball = bounding_ball(ifs)
    graph = NeighborGraph(ifs, ball)
    level1 = [(ifs.map_of_word(w.letters), w.exponent - ifs.k_max)
              for w in ifs.stopping_words(ifs.k_max)]
    queue = []

    def add(smap, tags):
        key = (smap.key(), tags)
        node = graph.nodes.get(key)
        if node is None:
            if not _ball_feasible(ball, ifs, smap):
                return None
            if len(graph.nodes) >= max_nodes:
                raise BudgetExceeded(
                    f"neighbor closure exceeded {max_nodes} nodes; finite type not verified",
                    frontier_size=len(queue), node_count=len(graph.nodes))
            node = NeighborNode(smap, tags)
            graph.nodes[key] = node
            queue.append(key)
        return key

    for sf, af in level1:
        sf_inv = sf.inverse()
        for sg, ag in level1:
            add(sf_inv.compose(sg), (af, ag))

    head = 0
    while head < len(queue):
        key = queue[head]
        head += 1
        node = graph.nodes[key]
        af, ag = node.tags
        inv_bridges = [(bf.map.inverse(), bf.new_tag) for bf in ifs.bridges(af)]
        g_bridges = ifs.bridges(ag)
        for bf_inv, tf in inv_bridges:
            left = bf_inv.compose(node.map)
            for bg in g_bridges:
                child = add(left.compose(bg.map), (tf, bg.new_tag))
                if child is not None:
                    node.succ.append(child)
    return graph


def greatest_fixed_point(succ: dict, known: dict) -> set:
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


def prune(graph: NeighborGraph) -> NeighborGraph:
    """Keep the closure nodes with an infinite refinement chain.

    Survivors are exactly the maps h with h(K) meeting K: an infinite
    feasible refinement chain forces a common point by compactness, and
    a common point always refines.
    """
    alive = greatest_fixed_point({k: n.succ for k, n in graph.nodes.items()}, {})
    for k, n in graph.nodes.items():
        n.alive = k in alive
    ident = graph.nodes.get((graph.ifs.identity_map().key(), (0, 0)))
    if ident is None or not ident.alive:
        raise MapError("identity map failed to survive pruning; inconsistent closure")
    return graph


class NeighborDecider:
    """Exact intersection oracle for same-level cylinder maps and tuples.

    Under the finite type condition the relative maps and the bridge maps
    form a finite set, so every map the decider meets is interned: `_ids`
    takes a Similitude (equal maps over one field) to a small int id and
    `_maps` takes the id back.  Ids are per decider, handed out in order of
    first sight.  The compose and inverse tables, the pair, tuple and raw
    memos and the surviving closure nodes are all keyed by ids, and a tuple
    state is a sorted tuple of (id, tag).  Its canonical form is the least
    such tuple over the left renormalizations, so it follows id order: a
    fixed total order for the life of the decider.  A verdict does not
    depend on it, because a common left composition moves every cylinder
    of the tuple together and keeps their intersection empty or not.
    """

    def __init__(self, ifs: IFS, max_nodes: int = 20000, tuple_budget: int = 200000):
        self.ifs = ifs
        self.max_nodes = max_nodes
        self.tuple_budget = tuple_budget
        self._graph: NeighborGraph | None = None
        self._reset()

    def _reset(self):
        """Empty every id-keyed table together; ids restart from 0."""
        self._ids: dict = {}             # Similitude -> id
        self._maps: list = []            # id -> interned Similitude
        self._inv: list = []             # id -> id of the inverse, or None
        self._compose_memo: dict = {}    # (id, id) -> id
        self._bridge_ids: dict = {}      # tag -> ((bridge id, new tag), ...)
        self._alive: set | None = None   # (relative id, tag, tag) of survivors
        self._pair_memo: dict = {}
        self._tuple_memo: dict = {}
        self._raw_memo: dict = {}

    def _bound_memory(self):
        # only between public calls, never inside a tuple decision
        if len(self._maps) > 200_000 or len(self._raw_memo) > 2_000_000:
            self._reset()

    @property
    def graph(self) -> NeighborGraph:
        if self._graph is None:
            self._graph = prune(candidate_closure(self.ifs, self.max_nodes))
        return self._graph

    @property
    def ball(self) -> BoundingBall:
        return self.graph.ball

    def gamma_maps(self):
        return self.graph.gamma_maps()

    # -- the intern table --------------------------------------------------
    def _intern(self, smap: Similitude) -> int:
        i = self._ids.get(smap)
        if i is None:
            if smap.field is not self.ifs.field:
                raise MapError("similitude over a different field than the decider's")
            i = len(self._maps)
            self._ids[smap] = i
            self._maps.append(smap)
            self._inv.append(None)
        return i

    def _compose_id(self, a: int, b: int) -> int:
        c = self._compose_memo.get((a, b))
        if c is None:
            c = self._intern(self._maps[a].compose(self._maps[b]))
            self._compose_memo[(a, b)] = c
        return c

    def _inverse_id(self, a: int) -> int:
        b = self._inv[a]
        if b is None:
            b = self._intern(self._maps[a].inverse())
            self._inv[a] = b
            self._inv[b] = a
        return b

    def _bridges_of(self, tag: int) -> tuple:
        out = self._bridge_ids.get(tag)
        if out is None:
            out = tuple((self._intern(b.map), b.new_tag) for b in self.ifs.bridges(tag))
            self._bridge_ids[tag] = out
        return out

    def _alive_nodes(self) -> set:
        if self._alive is None:
            self._alive = {(self._intern(n.map),) + n.tags
                           for n in self.graph.nodes.values() if n.alive}
        return self._alive

    # -- public queries ----------------------------------------------------
    def compose(self, f: Similitude, g: Similitude) -> Similitude:
        """f.compose(g), memoized; equal results are one interned object."""
        self._bound_memory()
        return self._maps[self._compose_id(self._intern(f), self._intern(g))]

    def pair_of(self, s1: Similitude, t1: int, s2: Similitude, t2: int) -> bool:
        """Memoized intersection verdict for two tagged same-level maps.

        Read off the pruned closure: the node of s1^{-1} s2 with tags
        (t1, t2) exists and survived.
        """
        self._bound_memory()
        p, q = (self._intern(s1), t1), (self._intern(s2), t2)
        return self._pair(p, q) if p <= q else self._pair(q, p)

    def _pair(self, p, q) -> bool:
        """Pair verdict for (id, tag) items p <= q."""
        hit = self._pair_memo.get((p, q))
        if hit is None:
            (a, ta), (b, tb) = p, q
            if a == b:
                hit = True
            else:
                rel = self._compose_id(self._inverse_id(a), b)
                hit = (rel, ta, tb) in self._alive_nodes()
            self._pair_memo[(p, q)] = hit
        return hit

    def intersects(self, f: Similitude, g: Similitude) -> bool:
        """Exact decision of f(K) meeting g(K) for same-level cylinder maps."""
        return self.tuple_intersects([f, g])

    def tuple_intersects(self, maps, tags=None) -> bool:
        """Exact decision of a k-fold intersection of same-level cylinders.

        maps: list of Similitudes at one stopping level; tags, one per map,
        default to exponent mod k_max.  Memoized on the sorted distinct
        input; a failing pair decides it at once, and three or more
        cylinders go to the product graph as one canonical state.
        """
        maps = list(maps)
        if tags is None:
            k = self.ifs.k_max
            if len({s.exponent // k for s in maps}) != 1:
                raise MapError("tuple_intersects requires one stopping level")
            tags = [s.exponent % k for s in maps]
        else:
            tags = list(tags)
            if len(tags) != len(maps):
                raise MapError(f"tuple_intersects got {len(tags)} tags "
                               f"for {len(maps)} maps")
        self._bound_memory()
        items = tuple(sorted(dict.fromkeys(zip(map(self._intern, maps), tags))))
        if len(items) == 1:
            return True
        hit = self._raw_memo.get(items)
        if hit is None:
            hit = self._pairwise_ok(items)
            if hit and len(items) > 2:
                hit = self._decide_tuple(self._canonical(items))
            self._raw_memo[items] = hit
        return hit

    def _canonical(self, items):
        """Normalize a tuple state of distinct (id, tag) components.

        Quotients by a common left composition: renormalizes by each
        component in turn and keeps the least sorted representative.
        """
        compose = self._compose_id
        best = None
        for pivot, _ in items:
            inv = self._inverse_id(pivot)
            rel = tuple(sorted([(compose(inv, s), t) for s, t in items]))
            if best is None or rel < best:
                best = rel
        return best

    def _pairwise_ok(self, state) -> bool:
        # state is sorted, so every pair comes in order
        return all(self._pair(p, q) for p, q in itertools.combinations(state, 2))

    def _decide_tuple(self, start) -> bool:
        """Verdict for a canonical tuple state, memoized in `_tuple_memo`.

        Explores the product graph from start.  States of one or two
        components, and states with a failing pair, are decided directly;
        the others are decided together by `greatest_fixed_point`.
        """
        memo = self._tuple_memo
        succ: dict = {}
        stack = [start]
        while stack:
            state = stack.pop()
            if state in succ or state in memo:
                continue
            if len(succ) > self.tuple_budget:
                raise BudgetExceeded("tuple intersection state budget exceeded",
                                     node_count=len(succ))
            if len(state) > 2 and self._pairwise_ok(state):
                succ[state] = self._expand(state)
                stack.extend(succ[state])
            else:  # one or two components, or a failing pair
                memo[state] = len(state) <= 2 and self._pairwise_ok(state)
        alive = greatest_fixed_point(succ, memo)
        for state in succ:
            memo[state] = state in alive
        return memo[start]

    def _expand(self, state) -> list:
        """All simultaneous one-step refinements of a tuple state, canonical.

        Each refinement is renormalized by its first bridge, which
        `_canonical` would quotient out anyway; it keeps the composed maps
        at the scale of the relative maps, where their arithmetic is cheaper.
        """
        compose = self._compose_id
        out = []
        for combo in itertools.product(*(self._bridges_of(t) for _, t in state)):
            base_inv = self._inverse_id(combo[0][0])
            nxt = dict.fromkeys((compose(base_inv, compose(s, b)), nt)
                                for (s, _), (b, nt) in zip(state, combo))
            out.append(self._canonical(list(nxt)))
        return out
