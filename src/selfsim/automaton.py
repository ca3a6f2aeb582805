"""The refinement automaton over atom states.

Each atom of the n-th Borel partition of the attractor is summarized by
a normalized triple: the ordered covering cylinders V (first entry the
identity), the ordered touching cylinders U (V is a sublist), and the
step map r from the parent frame.  In the commensurable case every
entry carries an integer scale tag.  Finitely many triples occur; their
child relation is computable from the triple alone, which is what this
module does.

Atom-candidate enumeration is deliberately a superset: a candidate
signature only has to pass the exact tuple-intersection test, so states
for empty or null atoms may appear.  They receive mass zero in the
measure pass and are pruned there; nothing downstream consumes them.
"""

from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .config import BUDGETS
from .field import format_rational
from .intervals import RatInterval
from .maps import IFS, Similitude, MapError, dist_sq_interval
from .neighbors import BudgetExceeded, NeighborDecider

_WITNESS_DEPTH = 10  # ball-subdivision depth of the witness separation test


class NotAdmissible(KeyError):
    """Address walks an edge that does not exist."""


@dataclass(frozen=True, slots=True)
class AtomState:
    """Normalized (V, U, r) triple with scale tags; a value, maps compared exactly."""

    umaps: tuple
    utags: tuple
    vpos: tuple
    rmap: Similitude

    @property
    def vmaps(self):
        return tuple(self.umaps[i] for i in self.vpos)

    @property
    def v_size(self):
        return len(self.vpos)

    @property
    def u_size(self):
        return len(self.umaps)

    def label(self) -> str:
        return f"(|V|={self.v_size},|U|={self.u_size},r={self.rmap})"

    def __repr__(self):
        return f"AtomState{self.label()}"


@dataclass
class Edge:
    child: int
    tnum: tuple  # ints over IFS.den; rows: parent V entries, cols: child V entries (star in measure)


def root_state(ifs: IFS) -> AtomState:
    ident = ifs.identity_map()
    return AtomState((ident,), (0,), (0,), ident)


class _ChildRec:
    __slots__ = ("map", "tag", "item", "vweight", "forbidden")

    def __init__(self, smap, tag):
        self.map = smap
        self.tag = tag
        self.item = None  # (map id, tag) for the decider's id-level queries
        self.vweight = {}  # V position of a parent -> summed bridge weight
        self.forbidden = False  # below a touching cylinder that is not in V


def _child_records(state: AtomState, ifs: IFS, decider: NeighborDecider):
    """All next-level cylinder maps below the state's U, with bookkeeping.

    The order follows the concatenation rule: the canonical word of a
    child is the canonical word of its smallest U-parent extended by the
    smallest bridge word, so (parent position, bridge letters) sorts the
    children in the global order.  U parents are visited in order and
    each parent's bridges in letter order, so the first pair that makes
    a child is its least, and the records are made in sorted order.
    Each record sums its bridge weights per V parent, the entries of the
    transition matrix over `IFS.den`.
    """
    recs: dict = {}
    vset = set(state.vpos)
    for j, (psi, tag) in enumerate(zip(state.umaps, state.utags)):
        in_v = j in vset
        for br in ifs.bridges(tag):
            h = decider.compose(psi, br.map)  # interned: equal maps are one object
            rec = recs.get(h)
            if rec is None:
                rec = _ChildRec(h, br.new_tag)
                recs[h] = rec
            elif rec.tag != br.new_tag:
                raise MapError("inconsistent scale tag for a child map")
            if in_v:
                rec.vweight[j] = rec.vweight.get(j, 0) + br.weight
            else:
                rec.forbidden = True
    out = list(recs.values())
    for rec, i in zip(out, decider.ids([r.map for r in out])):
        rec.item = (i, rec.tag)
    return out


def children(state: AtomState, ifs: IFS, decider: NeighborDecider):
    """Child states with their transition data, in deterministic order.

    Enumerates candidate covering signatures (subsets of allowed child
    maps that cover every V entry and pass the exact tuple-intersection
    test), then reads off the child's touching set, and the transition
    matrix from the records' weights per V parent.  Every
    intersection query goes to the decider as (map id, tag) items.
    """
    recs = _child_records(state, ifs, decider)
    allowed = [r for r in recs if r.vweight and not r.forbidden]
    # covers[i]: bit k set when allowed[i] lies below the k-th V entry
    covers = [sum(1 << k for k, vp in enumerate(state.vpos) if vp in r.vweight)
              for r in allowed]
    if functools.reduce(operator.or_, covers, 0) != (1 << state.v_size) - 1:
        return []  # provably no children: the state carries no mass

    out = []
    for members in _signatures(allowed, covers, decider):
        member_recs = {allowed[i] for i in members}
        mitems = sorted(r.item for r in member_recs)
        h1 = allowed[members[0]].map
        h1_inv = h1.inverse()
        umaps, utags, vpos = [], [], []
        for r in recs:
            if r in member_recs:
                vpos.append(len(umaps))
            else:
                k = bisect.bisect(mitems, r.item)
                if not decider.tuple_ids(tuple(mitems[:k] + [r.item] + mitems[k:])):
                    continue
            umaps.append(decider.compose(h1_inv, r.map))
            utags.append(r.tag)
        tmat = tuple(tuple(allowed[i].vweight.get(vp, 0) for i in members)
                     for vp in state.vpos)
        out.append((AtomState(tuple(umaps), tuple(utags), tuple(vpos), h1), tmat))
    return out


def _signatures(allowed, covers, decider: NeighborDecider):
    """The covering signatures of a state, as index tuples into allowed.

    A depth-first search over subsets on an explicit stack, taking each
    map before leaving it out, so the tuples come in lexicographic order
    of their membership vectors (member before non-member).  It prunes on
    pairwise and running tuple intersection (both exact and monotone under
    adding maps) and on coverability: covers[i] is the bitmask of V
    entries below allowed[i] (together they cover every V entry), and
    need[i] the entries that no map from index i on covers, so a branch
    whose covered mask misses a bit of need[i] is cut.
    """
    n = len(allowed)
    items = [r.item for r in allowed]
    suffix = [0] * (n + 1)  # suffix[i]: the V entries below some map from i on
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | covers[i]
    need = [suffix[0] & ~x for x in suffix]
    tested = [0] * n  # tested[i]: bit c set once the pair (c, i) is decided
    meets = [0] * n  # meets[i]: bit c set when that pair meets
    out = []
    stack = [(0, (), 0, [], 0)]  # (index, chosen, chosen bits, sorted items, covered)
    while stack:
        i, chosen, bits, citems, covered = stack.pop()
        if need[i] & ~covered:
            continue
        if i == n:
            if chosen:
                out.append(chosen)
            continue
        stack.append((i + 1, chosen, bits, citems, covered))  # leave i out, after
        cur = items[i]
        fresh = bits & ~tested[i]
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            tested[i] |= low
            if decider.pair_ids(items[low.bit_length() - 1], cur):
                meets[i] |= low
        if bits & ~meets[i]:
            continue
        k = bisect.bisect(citems, cur)
        grown = citems[:k] + [cur] + citems[k:]
        if len(grown) > 2 and not decider.tuple_ids(tuple(grown)):
            continue
        stack.append((i + 1, chosen + (i,), bits | 1 << i, grown, covered | covers[i]))
    return out


def _rooted(address):
    """The address as a list; NotAdmissible unless it starts at the root state 0."""
    address = list(address)
    if not address or address[0] != 0:
        raise NotAdmissible("address must start at the root state 0")
    return address


def walk_addresses(edges, depth: int):
    """All paths of depth steps from the root state 0 over per-state edge lists.

    Paths are state-id tuples in depth-first order: prefixes in order,
    each extended by its edges in list order.
    """
    paths = [(0,)]
    for _ in range(depth):
        paths = [p + (e.child,) for p in paths for e in edges[p[-1]]]
    return paths


class Automaton:
    """BFS closure of the child relation from the root state."""

    def __init__(self, ifs: IFS, decider: NeighborDecider):
        self.ifs = ifs
        self.decider = decider
        self.states: list[AtomState] = []
        self.edges: list[list[Edge]] = []
        self.index: dict = {}
        self.anomalies: list[str] = []

    def resolve(self, address):
        """Follow a state-id address from the root; raise NotAdmissible."""
        address = _rooted(address)
        cur = 0
        for nxt in address[1:]:
            for e in self.edges[cur]:
                if e.child == nxt:
                    cur = nxt
                    break
            else:
                raise NotAdmissible(f"no edge {cur} -> {nxt}")
        return self.states[cur]

    def addresses(self, depth: int):
        """All admissible addresses of the given depth from the root."""
        return walk_addresses(self.edges, depth)

    # -- exports ------------------------------------------------------------
    def to_dot(self) -> str:
        lines = ["digraph atoms {"]
        for i, st in enumerate(self.states):
            label = st.label().replace('"', "'")
            lines.append(f'  s{i} [label="{i}:{label}"];')
        for i, es in enumerate(self.edges):
            for e in es:
                lines.append(f"  s{i} -> s{e.child};")
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        name = functools.cache(str)  # one string per distinct map
        entry = functools.cache(lambda n: format_rational(Fraction(n, self.ifs.den)))
        states = []
        for st in self.states:
            states.append({
                "U": [name(m) for m in st.umaps],
                "tags": list(st.utags),
                "vpos": list(st.vpos),
                "r": name(st.rmap),
            })
        edges = []
        for i, es in enumerate(self.edges):
            for e in es:
                edges.append({
                    "src": i, "dst": e.child,
                    "T": [[entry(n) for n in row] for row in e.tnum],
                })
        return {"states": states, "edges": edges}


def build(ifs: IFS, decider: NeighborDecider,
          max_states: int = BUDGETS["max_states"].default) -> Automaton:
    """Construct the full candidate automaton from the root, or raise BudgetExceeded."""
    auto = Automaton(ifs, decider)
    root = root_state(ifs)
    auto.states.append(root)
    auto.edges.append([])
    auto.index[root] = 0
    sid = 0  # states are numbered in discovery order, so the table is the BFS queue
    while sid < len(auto.states):
        kids = children(auto.states[sid], ifs, decider)
        if not kids:
            auto.anomalies.append(f"state {sid} has no candidate children")
        seen_here = set()
        for child, tmat in kids:
            if child in seen_here:
                raise MapError("distinct signatures produced identical child states")
            seen_here.add(child)
            cid = auto.index.get(child)
            if cid is None:
                if len(auto.states) >= max_states:
                    raise BudgetExceeded(f"automaton exceeded {max_states} states",
                                         frontier_size=len(auto.states) - sid,
                                         node_count=len(auto.states))
                cid = len(auto.states)
                auto.states.append(child)
                auto.edges.append([])
                auto.index[child] = cid
            auto.edges[sid].append(Edge(cid, tmat))
        sid += 1
    return auto


# ----------------------------------------------------------------------
# best-effort nonemptiness witnesses
# ----------------------------------------------------------------------

@dataclass
class Witness:
    """A point of a state's atom: inside every V cylinder, certified apart
    from every other touching cylinder (`witness` returns no other kind)."""

    point: tuple            # absolute coordinates, exact field elements


def witness(auto: Automaton, sid: int):
    """A point certified inside the state's atom, or None (unknown).

    The point is the limit of the nested first-cylinder chain along an
    eventually periodic admissible continuation, so membership in all
    covering cylinders is structural.  Separation from the touching
    non-covering cylinders is checked by ball subdivision to depth
    _WITNESS_DEPTH; unless every one is certified, the result is None
    rather than a guess.
    """
    state = auto.states[sid]
    path_r, cycle_r = _periodic_continuation(auto, sid)
    if cycle_r is None:
        return None
    # limit point of P C^inf = P(fix(C)) in the state's local frame
    x_local = (path_r.apply(cycle_r.fixed_point()) if path_r is not None
               else cycle_r.fixed_point())
    if not all(_point_separated(auto.ifs, x_local, psi, state.utags[j], _WITNESS_DEPTH)
               for j, psi in enumerate(state.umaps) if j not in state.vpos):
        return None
    abs_frame = _frame(auto, _bfs_tree(auto, 0)[sid])
    return Witness(abs_frame.apply(x_local) if abs_frame is not None else x_local)


def _periodic_continuation(auto: Automaton, sid: int):
    """Step maps for a path sid -> s* and a cycle at s*, shortest-first."""
    for s, path in _bfs_tree(auto, sid).items():
        cyc = _cycle_at(auto, s)
        if cyc is not None:
            return _frame(auto, path), cyc
    return None, None


def _bfs_tree(auto, start):
    """A shortest state path from start to each reachable state, in BFS order."""
    paths = {start: [start]}
    order = [start]
    for cur in order:
        for e in auto.edges[cur]:
            if e.child not in paths:
                paths[e.child] = paths[cur] + [e.child]
                order.append(e.child)
    return paths


def _frame(auto, path):
    """The step maps r composed along a state path; None for a single state."""
    frame = None
    for sid in path[1:]:
        r = auto.states[sid].rmap
        frame = r if frame is None else frame.compose(r)
    return frame


def _cycle_at(auto, sid):
    """Composed step map of a shortest cycle through sid, if one exists."""
    for cur, path in _bfs_tree(auto, sid).items():
        if any(e.child == sid for e in auto.edges[cur]):
            frame = _frame(auto, path + [sid])
            if frame.exponent > 0:
                return frame
    return None


def _point_separated(ifs: IFS, x, smap: Similitude, tag: int, depth: int) -> bool:
    """Certified dist(x, smap(K)) > 0 by recursive ball subdivision."""
    ball = ifs.ball
    center = smap.apply(ball.center)
    d2 = dist_sq_interval(x, center)
    rad = ifs.base.ratio_interval(smap.exponent, 96) * RatInterval.point(ball.radius)
    if d2.strictly_greater(rad.square()):
        return True
    if depth <= 0:
        return False
    return all(_point_separated(ifs, x, smap.compose(br.map), br.new_tag, depth - 1)
               for br in ifs.bridges(tag))
