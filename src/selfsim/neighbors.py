"""Certified decision procedures for cylinder intersections.

The candidate closure enumerates relative maps h = S_I^{-1} S_J of
same-level cylinder pairs, filtered by a certified ball test; greatest-
fixed-point pruning then keeps exactly the maps with h(K) and K meeting,
because an intersection point exists iff an infinite refinement chain
does.  Tuples of cylinders are decided on a product graph with the same
pruning rule.  Everything is exact: an ambiguous ball test keeps the
candidate, which never changes a verdict, only the amount of work.
"""

from __future__ import annotations

from fractions import Fraction

from .field import FieldElement
from .intervals import RatInterval, RectInterval
from .maps import IFS, Similitude, point_dist_sq, MapError


class BudgetExceeded(RuntimeError):
    """Closure grew past its node budget: finite type not verified."""

    def __init__(self, message, frontier_size=0, node_count=0):
        super().__init__(message)
        self.frontier_size = frontier_size
        self.node_count = node_count


def _as_interval(x, bits: int = 96) -> RatInterval:
    """Certified RatInterval for a real-valued quantity."""
    if isinstance(x, RatInterval):
        return x
    if isinstance(x, FieldElement):
        enc = x.enclosure(bits)
        if isinstance(enc, RectInterval):
            # real-valued element of a complex field: the value lies in the
            # real slice of the rectangle
            return enc.re
        return enc
    return RatInterval.point(x)


class BoundingBall:
    """Ball B(c, R) with S_i(B) inside B for every generator, so K inside B."""

    def __init__(self, center, radius: Fraction, radius_sq: Fraction):
        self.center = center
        self.radius = radius        # rational upper bound
        self.radius_sq = radius_sq  # radius**2 (kept exact to avoid resquaring)

    def __repr__(self):
        return f"BoundingBall(R<={self.radius})"


def bounding_ball(ifs: IFS, bits: int = 96) -> BoundingBall:
    """Invariant ball centered at the mean of the generator fixed points."""
    field = ifs.field
    fps = [s.fixed_point() for s in ifs.maps]
    minv = Fraction(1, ifs.m)
    if field.complex_embedding:
        center = sum(fps[1:], start=fps[0]) * field.from_rational(minv)
    else:
        center = tuple(sum((fp[i] for fp in fps[1:]), start=fps[0][i]) * field.from_rational(minv)
                       for i in range(ifs.dim))
    # R = max_i |S_i(c) - c| / (1 - r_max), r_max the largest generator ratio
    k_min = min(ifs.exponents)
    rmax = ifs.base.ratio_interval(k_min, bits)
    num_sq = RatInterval.point(0)
    for s in ifs.maps:
        d2 = _as_interval(point_dist_sq(s.apply(center), center), bits)
        if d2.hi > num_sq.hi:
            num_sq = d2
    denom = (RatInterval.point(1) - rmax)
    from .intervals import sqrt_interval
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
        self.pruned = False

    def node_key(self, smap: Similitude, tags: tuple):
        return (smap.key(), tags)

    def survivors(self):
        return [n for n in self.nodes.values() if n.alive]

    def gamma_maps(self) -> list:
        """The surviving relative maps (the finite set the FTC asserts)."""
        seen = {}
        for n in self.survivors():
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


def _ball_feasible(ball: BoundingBall, ifs: IFS, smap: Similitude, bits: int = 96) -> bool:
    """Necessary condition for smap(K) to meet K; False only when certified."""
    lhs = _as_interval(point_dist_sq(smap.apply(ball.center), ball.center), bits)
    ratio = ifs.base.ratio_interval(smap.exponent, bits)
    rhs = (RatInterval.point(1) + ratio).square() * RatInterval.point(ball.radius_sq)
    return not lhs.strictly_greater(rhs)


def candidate_closure(ifs: IFS, max_nodes: int = 20000, ball: BoundingBall | None = None) -> NeighborGraph:
    """BFS closure of same-level relative maps under refinement.

    Seeds are all pairs of first-level stopping cylinders; each node
    (h, (a, b)) refines through every bridge pair allowed by its scale
    tags.  A finite closure verifies the finite type condition with the
    surviving maps as the witness set; exceeding the budget raises
    BudgetExceeded and decides nothing.
    """
    if ball is None:
        ball = bounding_ball(ifs)
    graph = NeighborGraph(ifs, ball)
    level1 = [(ifs.map_of_word(w.letters), w.exponent - ifs.k_max)
              for w in ifs.stopping_words(ifs.k_max)]
    queue = []

    def add(smap, tags):
        key = graph.node_key(smap, tags)
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


def prune(graph: NeighborGraph) -> NeighborGraph:
    """Greatest fixed point: keep nodes with a successor among the kept.

    Survivors are exactly the maps h with h(K) meeting K: an infinite
    feasible refinement chain forces a common point by compactness, and
    a common point always refines.
    """
    alive = {k for k, n in graph.nodes.items() if n.succ}
    changed = True
    while changed:
        changed = False
        for k in list(alive):
            if not any(s in alive for s in graph.nodes[k].succ):
                alive.discard(k)
                changed = True
    for k, n in graph.nodes.items():
        n.alive = k in alive
    graph.pruned = True
    ident = graph.ifs.identity_map()
    idkey = graph.node_key(ident, (0, 0))
    if idkey not in graph.nodes or not graph.nodes[idkey].alive:
        raise MapError("identity map failed to survive pruning; inconsistent closure")
    return graph


class NeighborDecider:
    """Exact intersection oracle for same-level cylinder maps and tuples."""

    def __init__(self, ifs: IFS, max_nodes: int = 20000, tuple_budget: int = 200000):
        self.ifs = ifs
        self.max_nodes = max_nodes
        self.tuple_budget = tuple_budget
        self._graph: NeighborGraph | None = None
        self._pair_memo: dict = {}
        self._tuple_memo: dict = {}
        self._raw_memo: dict = {}
        self._compose_memo: dict = {}

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

    def compose(self, f: Similitude, g: Similitude) -> Similitude:
        """f.compose(g), memoized per (f, g).

        Under the finite type condition the relative maps and the bridge
        maps form a finite set, so the same compositions recur.  Keyed
        by the pair of maps, whose equality includes the field.
        """
        key = (f, g)
        h = self._compose_memo.get(key)
        if h is None:
            h = f.compose(g)
            if len(self._compose_memo) >= 200_000:
                self._compose_memo.clear()
            self._compose_memo[key] = h
        return h

    # -- pair decisions -----------------------------------------------------
    def _level_and_tag(self, smap: Similitude):
        k = self.ifs.k_max
        return smap.exponent // k, smap.exponent % k

    def pair_alive(self, rel: Similitude, tags: tuple) -> bool:
        key = (rel, tags)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        node = self.graph.nodes.get((rel.key(), tags))
        out = node is not None and node.alive
        self._pair_memo[key] = out
        return out

    def pair_of(self, s1: Similitude, t1: int, s2: Similitude, t2: int) -> bool:
        """Memoized intersection verdict for two tagged same-level maps."""
        key = (s1, t1, s2, t2)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        if s1 is s2 or s1 == s2:
            out = True
        else:
            out = self.pair_alive(self.compose(s1.inverse(), s2), (t1, t2))
        self._pair_memo[key] = out
        self._pair_memo[(s2, t2, s1, t1)] = out
        return out

    def intersects(self, f: Similitude, g: Similitude) -> bool:
        """Exact decision of f(K) meeting g(K) for same-level cylinder maps."""
        nf, af = self._level_and_tag(f)
        ng, ag = self._level_and_tag(g)
        if nf != ng:
            raise MapError("intersects requires maps from a common stopping level")
        if f == g:
            return True
        return self.pair_alive(self.compose(f.inverse(), g), (af, ag))

    # -- tuple decisions -------------------------------------------------------
    def tuple_intersects(self, maps, tags=None) -> bool:
        """Exact decision of a k-fold intersection of same-level cylinders.

        maps: list of Similitudes at one stopping level; tags default to
        exponent mod k_max.  Uses the product graph over relative-map
        tuples with the same greatest-fixed-point rule as pairs.
        """
        maps = list(maps)
        if tags is None:
            levels = {self._level_and_tag(s)[0] for s in maps}
            if len(levels) != 1:
                raise MapError("tuple_intersects requires one stopping level")
            tags = [self._level_and_tag(s)[1] for s in maps]
        dedup = {}
        for smap, tag in zip(maps, tags):
            dedup[(smap, tag)] = True
        items = sorted(dedup, key=lambda p: (p[0].key(), p[1]))
        if len(items) == 1:
            return True
        raw = tuple(items)
        hit = self._raw_memo.get(raw)
        if hit is not None:
            return hit
        out = self._pairwise_ok(items)
        if out and len(items) > 2:
            state = self._canonical(items)
            key = self._state_key(state)
            cached = self._tuple_memo.get(key)
            out = cached if cached is not None else self._decide_tuple(state)
        self._raw_memo[raw] = out
        if len(self._raw_memo) > 2_000_000:
            self._raw_memo.clear()
        return out

    def _canonical(self, pairs):
        """Normalize a tuple state: quotient by a common left composition.

        Dedupes components, renormalizes by each component in turn and
        keeps the lexicographically smallest sorted representative.
        """
        dedup = {}
        for smap, tag in pairs:
            dedup[(smap.key(), tag)] = (smap, tag)
        items = list(dedup.values())
        best = None
        best_raw = None
        for pivot, _ in items:
            inv = pivot.inverse()
            rel = sorted(((self.compose(inv, s), t) for s, t in items),
                         key=lambda p: (p[0].key(), p[1]))
            raw = tuple((s.key(), t) for s, t in rel)
            if best_raw is None or raw < best_raw:
                best_raw = raw
                best = tuple(rel)
        return best

    @staticmethod
    def _state_key(state):
        return tuple(state)

    def _pairwise_ok(self, state) -> bool:
        for i in range(len(state)):
            si, ai = state[i]
            for j in range(i + 1, len(state)):
                sj, aj = state[j]
                if not self.pair_of(si, ai, sj, aj):
                    return False
        return True

    def _decide_tuple(self, start) -> bool:
        memo = self._tuple_memo
        reach: dict = {}
        order = []
        stack = [start]
        while stack:
            state = stack.pop()
            key = self._state_key(state)
            if key in reach or key in memo:
                continue
            if len(reach) > self.tuple_budget:
                raise BudgetExceeded("tuple intersection state budget exceeded",
                                     node_count=len(reach))
            if len(state) <= 2 or not self._pairwise_ok(state):
                # resolved directly: pairs by the pair graph, infeasible dead
                if len(state) == 1:
                    memo[key] = True
                elif len(state) == 2:
                    (m1, a1), (m2, a2) = state
                    memo[key] = self.pair_of(m1, a1, m2, a2)
                else:
                    memo[key] = False
                continue
            succs = []
            bridge_lists = [self.ifs.bridges(t) for _, t in state]
            self._expand(state, bridge_lists, succs)
            reach[key] = succs
            order.append(key)
            for s in succs:
                stack.append(s)
        # greatest fixed point over the unresolved states
        alive = {k for k in reach}
        changed = True
        while changed:
            changed = False
            for k in list(alive):
                ok = False
                for s in reach[k]:
                    sk = self._state_key(s)
                    if sk in alive or memo.get(sk) is True:
                        ok = True
                        break
                if not ok:
                    alive.discard(k)
                    changed = True
        for k in reach:
            memo[k] = k in alive
        return memo[self._state_key(start)]

    def _expand(self, state, bridge_lists, out):
        """All simultaneous one-step refinements of a tuple state."""
        import itertools
        for combo in itertools.product(*bridge_lists):
            base_inv = combo[0].map.inverse()
            nxt = [(self.compose(base_inv, self.compose(s, b.map)), b.new_tag)
                   for (s, _), b in zip(state, combo)]
            out.append(self._canonical(nxt))
