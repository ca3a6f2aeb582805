"""Certified decision procedures for cylinder intersections.

The candidate closure enumerates relative maps h = S_I^{-1} S_J of
same-level cylinder pairs, filtered by the certified ball test of
`IFS.may_meet` (K lies in the IFS's invariant ball `IFS.ball`).  Pairs and
tuples of cylinders share one rule, `reaches_cycle`: a state meets iff
its refinement chain reaches a cycle (or a state known to meet), because
an intersection point exists iff an infinite chain does and the graph is
finite.  `prune` runs it on every closure node, which decides every pair;
a tuple runs it on the product graph of canonical tuple states, stopping
at the first cycle, with its sub-pair states answered by the pruned
closure.  Everything is exact: an ambiguous ball test keeps the
candidate, which never changes a verdict, only the amount of work.

Under the finite type condition the pruned closure is finite.  It is one
table, `NeighborGraph`: an id per (relative map, tag, tag), numbered once
in order of discovery, and lists indexed by it.  `NeighborDecider` reads
that table: a tuple state is a sorted tuple of node ids, refined by table
lookups and re-pivoted through a memo of the node of h_i^{-1} h_j, so a
map is composed at most once per pair of nodes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .config import BUDGETS
from .maps import IFS, Similitude, MapError


class BudgetExceeded(RuntimeError):
    """A search past its budget: closure max_nodes, tuple_budget or automaton max_states."""

    def __init__(self, message, frontier_size=0, node_count=0):
        super().__init__(message)
        self.frontier_size = frontier_size
        self.node_count = node_count


class NeighborGraph:
    """The neighbour closure as one table, its nodes numbered once in discovery order.

    `nodes` takes (map key, tags) to a node id; `maps`, `tags` and `succ`
    are indexed by it.  succ[n] holds one entry per bridge pair, pivot
    bridge major: the child's id, or None where the ball test rules the
    child out.  `prune` fills the rest: `alive[n]`, whether node n
    survives; `child[n][i]`, the distinct surviving children of n under
    pivot bridge i; and `ident[a]`, the identity node with tags (a, a).
    """

    def __init__(self, ifs: IFS):
        self.ifs = ifs
        self.nodes: dict = {}  # (map key, tags) -> node id
        self.maps: list = []   # node id -> relative map
        self.tags: list = []   # node id -> (tag, tag)
        self.succ: list = []   # node id -> child ids, None where ruled out
        self.alive, self.child, self.ident = [], [], {}  # filled by `prune`

    def live(self, smap: Similitude, tags: tuple) -> int:
        """The id of the surviving node (smap, tags), or -1."""
        n = self.nodes.get((smap.key(), tags), -1)
        return n if n >= 0 and self.alive[n] else -1

    def gamma_maps(self) -> list:
        """The surviving relative maps (the finite set the FTC asserts)."""
        seen = {}
        for smap, alive in zip(self.maps, self.alive):
            if alive:
                seen.setdefault(smap.key(), smap)
        return [seen[k] for k in sorted(seen)]

    def to_dot(self) -> str:
        lines = ["digraph neighbors {"]
        order = sorted(self.nodes.items())
        dot = {n: i for i, (_key, n) in enumerate(order)}
        for i, (_key, n) in enumerate(order):
            style = "solid" if self.alive[n] else "dashed"
            label = str(self.maps[n]).replace('"', "'")
            if self.ifs.k_max > 1:
                label += f" tags={self.tags[n]}"
            lines.append(f'  n{i} [label="{label}", style={style}];')
        for _key, n in order:
            for c in self.succ[n]:
                if c is not None:
                    lines.append(f"  n{dot[n]} -> n{dot[c]};")
        lines.append("}")
        return "\n".join(lines)


def candidate_closure(ifs: IFS,
                      max_nodes: int = BUDGETS["max_neighbor_nodes"].default) -> NeighborGraph:
    """BFS closure of same-level relative maps under refinement.

    Seeds are all pairs of first-level stopping cylinders; each node
    (h, (a, b)) refines through every bridge pair allowed by its scale
    tags; the nodes from `head` on are the frontier, not yet taken up.  A
    finite closure verifies the finite type condition with the surviving
    maps as the witness set; exceeding the budget raises BudgetExceeded
    and decides nothing.
    """
    graph = NeighborGraph(ifs)
    level1 = [(br.map, br.new_tag) for br in ifs.bridges(0)]
    head = 0

    def add(smap, tags):
        key = (smap.key(), tags)
        n = graph.nodes.get(key)
        if n is None:
            if not ifs.may_meet(smap):
                return None
            n = len(graph.maps)
            if n >= max_nodes:
                raise BudgetExceeded(
                    f"neighbor closure exceeded {max_nodes} nodes; finite type not verified",
                    frontier_size=n - head, node_count=n)
            graph.nodes[key] = n
            graph.maps.append(smap)
            graph.tags.append(tags)
        return n

    for sf, af in level1:
        sf_inv = sf.inverse()
        for sg, ag in level1:
            add(sf_inv.compose(sg), (af, ag))

    while head < len(graph.maps):
        smap, (af, ag) = graph.maps[head], graph.tags[head]
        head += 1
        kids = []
        for bf in ifs.bridges(af):
            left = bf.map.inverse().compose(smap)
            kids.extend(add(left.compose(bg.map), (bf.new_tag, bg.new_tag))
                        for bg in ifs.bridges(ag))
        graph.succ.append(kids)
    return graph


def reaches_cycle(start, succ, known: dict, budget=None) -> bool:
    """Whether start has an infinite chain under succ or a chain into a True state.

    An iterative depth-first search: a back edge to its path or a state
    that `known` holds True marks the whole path True and stops it; a state
    whose successors are all explored and none True is marked False.  Both
    verdicts are final, so `known` stays a valid memo across calls.  A None
    successor is dead; budget (the decider's tuple_budget) bounds the states
    expanded by one call.
    """
    hit = known.get(start)
    if hit is not None:
        return hit
    path = {start: iter(succ(start))}  # the states on the path -> their successors left
    expanded = 1
    while path:
        for s in next(reversed(path.values())):
            if s in path or known.get(s):
                known.update(dict.fromkeys(path, True))
                return True
            if s is not None and s not in known:
                break
        else:
            known[path.popitem()[0]] = False
            continue
        if budget is not None and expanded > budget:
            raise BudgetExceeded("tuple state budget exceeded", node_count=expanded)
        expanded += 1
        path[s] = iter(succ(s))
    return False


def prune(graph: NeighborGraph) -> NeighborGraph:
    """Keep the closure nodes whose refinement chain reaches a cycle.

    Survivors are exactly the maps h with h(K) meeting K: an infinite
    feasible refinement chain forces a common point by compactness, and
    a common point always refines.  One `known` memo serves every node.
    Then tabulates, for the decider, each node's surviving children per
    pivot bridge and the identity node of each tag.
    """
    known: dict = {}
    succ = graph.succ
    alive = graph.alive = [reaches_cycle(n, succ.__getitem__, known)
                           for n in range(len(succ))]
    ifs = graph.ifs
    graph.child = []
    for kids, (_a, b) in zip(succ, graph.tags):
        width = len(ifs.bridges(b))
        graph.child.append(tuple(
            tuple(c for c in dict.fromkeys(kids[i:i + width]) if c is not None and alive[c])
            for i in range(0, len(kids), width)))
    ident = ifs.identity_map().key()
    graph.ident = {a: n for (k, (a, b)), n in graph.nodes.items()
                   if k == ident and a == b and alive[n]}
    if 0 not in graph.ident:
        raise MapError("identity map failed to survive pruning; inconsistent closure")
    return graph


class NeighborDecider:
    """Exact intersection oracle for same-level cylinder maps and tuples.

    Under the finite type condition the relative maps form a finite set
    (Ngai and Wang, J. Lond. Math. Soc. 63, 2001), so the decider runs on
    two kinds of small int ids.

    Map ids intern the cylinder maps that callers pass: `_ids` takes a
    Similitude (equal maps over one field) to an id and `_maps` takes the
    id back, handed out in order of first sight.  The compose memo and the
    pair and raw memos are keyed by them; an item is a (map id, tag) pair.

    Node ids are those of the pruned closure, `NeighborGraph`, which
    numbers its nodes once and tabulates the surviving children of each
    node per pivot bridge (`child`) and the identity node of each tag
    (`ident`).  The decider adds one memo over them, `_rr[i][j]`, filled
    lazily: the node of h_i^{-1} h_j for two nodes with one first tag, or
    -1 when the pair does not meet.

    A tuple state is the sorted tuple of the node ids of its cylinders
    relative to one of them, the pivot, whose own node is the identity
    with the pivot tag twice; every pair of a state meets.  `_expand`
    reads the refinements off `child` and `_canonical` re-pivots through
    `_rr`, keeping the least tuple.  That is a fixed total order for the
    life of the decider; a verdict does not depend on it, because a common
    left composition moves every cylinder of the tuple together and keeps
    their intersection empty or not.  `reaches_cycle` walks the states
    from a query until the first cycle, so a True verdict explores one
    chain, not the whole reachable product graph.

    Map ids and every memo live as long as the decider, and the tables
    need no limit of their own.  In a build every U map is a surviving
    closure map, and every other interned map is a U map composed with a
    bridge, or the inverse of such a composition; so the intern table
    stays within a bound set by the closure, which `max_nodes` budgets.
    The memos grow with the automaton's queries, a few entries per state,
    so `max_states` bounds them.  A caller that passes maps of its own
    adds those maps and its queries, no more.
    """

    def __init__(self, ifs: IFS, max_nodes: int = BUDGETS["max_neighbor_nodes"].default,
                 tuple_budget: int = BUDGETS["tuple_budget"].default):
        self.ifs = ifs
        self.max_nodes = max_nodes
        self.tuple_budget = tuple_budget
        self._graph: NeighborGraph | None = None
        self._ids: dict = {}             # Similitude -> map id
        self._maps: list = []            # map id -> interned Similitude
        self._compose_memo: dict = {}    # (map id, map id) -> map id
        self._pair_memo: dict = {}       # (item, item) -> node id or -1
        self._raw_memo: dict = {}        # sorted distinct items -> verdict
        self._tuple_memo: dict = {}      # canonical tuple state -> verdict
        self._rr = defaultdict(dict)     # node id -> {node id: node id or -1}

    @property
    def graph(self) -> NeighborGraph:
        if self._graph is None:
            self._graph = prune(candidate_closure(self.ifs, self.max_nodes))
        return self._graph

    def gamma_maps(self):
        return self.graph.gamma_maps()

    # -- the intern table and the relative-node memo ---------------------------
    def _intern(self, smap: Similitude) -> int:
        i = self._ids.get(smap)
        if i is None:
            if smap.field is not self.ifs.field:
                raise MapError("similitude over a different field than the decider's")
            i = len(self._maps)
            self._ids[smap] = i
            self._maps.append(smap)
        return i

    def _relative(self, i: int, j: int) -> int:
        """Node id of h_i^{-1} h_j for nodes i, j with one first tag, or -1."""
        g = self._graph
        rel = g.maps[i].inverse().compose(g.maps[j])
        self._rr[i][j] = c = g.live(rel, (g.tags[i][1], g.tags[j][1]))
        return c

    # -- public queries on maps -------------------------------------------
    def compose(self, f: Similitude, g: Similitude) -> Similitude:
        """f.compose(g), memoized; equal results are one interned object."""
        pair = (self._intern(f), self._intern(g))
        c = self._compose_memo.get(pair)
        if c is None:
            c = self._compose_memo[pair] = self._intern(f.compose(g))
        return self._maps[c]

    def pair_of(self, s1: Similitude, t1: int, s2: Similitude, t2: int) -> bool:
        """Memoized intersection verdict for two tagged same-level maps.

        Read off the pruned closure: the node of s1^{-1} s2 with tags
        (t1, t2) exists and survived.  The level of a map is its exponent
        less its tag; two levels raise MapError.
        """
        if s1.exponent - t1 != s2.exponent - t2:
            raise MapError("pair_of requires one stopping level")
        return self.pair_ids((self._intern(s1), t1), (self._intern(s2), t2))

    def intersects(self, f: Similitude, g: Similitude) -> bool:
        """Exact decision of f(K) meeting g(K) for same-level cylinder maps."""
        return self.tuple_intersects([f, g])

    def tuple_intersects(self, maps, tags=None) -> bool:
        """Exact decision of a k-fold intersection of same-level cylinders.

        maps: list of Similitudes at one stopping level, that is with one
        value of exponent less tag; tags, one per map, default to exponent
        mod k_max.  Decided by `tuple_ids` on the sorted distinct items.
        """
        maps = list(maps)
        if tags is None:
            tags = [s.exponent % self.ifs.k_max for s in maps]
        else:
            tags = list(tags)
            if len(tags) != len(maps):
                raise MapError(f"tuple_intersects got {len(tags)} tags "
                               f"for {len(maps)} maps")
        if len({s.exponent - t for s, t in zip(maps, tags)}) != 1:
            raise MapError("tuple_intersects requires one stopping level")
        return self.tuple_ids(tuple(sorted(dict.fromkeys(zip(map(self._intern, maps), tags)))))

    # -- public queries on map ids ------------------------------------------
    def ids(self, maps) -> list:
        """The map ids of maps, for `pair_ids` and `tuple_ids`."""
        return [self._intern(m) for m in maps]

    def pair_ids(self, p, q) -> bool:
        """Memoized verdict for two (map id, tag) items."""
        return p == q or (self._pair_node(p, q) if p < q else self._pair_node(q, p)) >= 0

    def tuple_ids(self, items) -> bool:
        """Memoized verdict for sorted distinct (map id, tag) items of one level.

        A failing pair decides it at once; three or more cylinders become
        one canonical tuple state, decided on the closure's tables.
        """
        if len(items) < 2:
            return True
        hit = self._raw_memo.get(items)
        if hit is None:
            first = items[0]
            nodes = [self._pair_node(first, q) for q in items[1:]]
            if min(nodes) < 0:
                hit = False
            elif len(nodes) == 1:
                hit = True
            else:
                start = self._canonical([self._graph.ident[first[1]]] + nodes)
                hit = start is not None and self._decide_tuple(start)
            self._raw_memo[items] = hit
        return hit

    def _pair_node(self, p, q) -> int:
        """Node id of item q relative to item p < q, or -1 when they do not meet."""
        node = self._pair_memo.get((p, q))
        if node is None:
            (a, ta), (b, tb) = p, q
            if a == b:
                raise MapError("one map given with two scale tags")
            node = self.graph.live(self._maps[a].inverse().compose(self._maps[b]), (ta, tb))
            self._pair_memo[(p, q)] = node
        return node

    # -- tuple states on node ids ---------------------------------------------
    def _canonical(self, nodes):
        """The canonical tuple state of distinct nodes relative to one pivot.

        Re-pivots on each component j, taking every component k to the node
        of h_j^{-1} h_k, and keeps the least sorted result; None when some
        pair does not meet.
        """
        rr = self._rr
        best = None
        for j in nodes:
            row = rr[j]
            rel = [row.get(k) for k in nodes]
            if None in rel:
                rel = [self._relative(j, k) if c is None else c for k, c in zip(nodes, rel)]
            if -1 in rel:
                return None
            rel.sort()
            rel = tuple(rel)
            if best is None or rel < best:
                best = rel
        return best

    def _decide_tuple(self, start) -> bool:
        """Verdict for a canonical tuple state, memoized in `_tuple_memo`.

        True iff its refinements reach a cycle of tuple states or a state
        of one or two components, which `_expand` marks True; decided by
        `reaches_cycle` within `tuple_budget` expanded states.
        """
        return reaches_cycle(start, self._expand, self._tuple_memo, self.tuple_budget)

    def _expand(self, state) -> list:
        """All simultaneous one-step refinements of a tuple state, canonical.

        Each refinement is taken relative to the pivot's refinement, so it
        is read off the closure's `child`.  A refinement with a pair that
        does not meet is left out; one of one or two components meets, so
        it goes into `_tuple_memo` as True.
        """
        g = self._graph
        tag = g.tags[state[0]][0]
        pivot = g.ident[tag]
        others = [n for n in state if n != pivot]
        out = []
        for i, br in enumerate(self.ifs.bridges(tag)):
            new_pivot = g.ident[br.new_tag]
            for combo in itertools.product(*(g.child[n][i] for n in others)):
                nxt = self._canonical(list(dict.fromkeys((new_pivot,) + combo)))
                if nxt is not None:
                    if len(nxt) < 3:
                        self._tuple_memo[nxt] = True
                    out.append(nxt)
        return out
