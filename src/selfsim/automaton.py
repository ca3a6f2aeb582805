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

from dataclasses import dataclass
from fractions import Fraction

from .intervals import RatInterval
from .maps import IFS, Similitude, MapError, dist_sq_interval
from .neighbors import NeighborDecider


class NotAdmissible(KeyError):
    """Address walks an edge that does not exist."""


class AtomState:
    """Normalized (V, U, r) triple with scale tags; hashable automaton state."""

    __slots__ = ("umaps", "utags", "vpos", "rmap", "_key")

    def __init__(self, umaps, utags, vpos, rmap):
        self.umaps = tuple(umaps)
        self.utags = tuple(utags)
        self.vpos = tuple(vpos)
        self.rmap = rmap
        self._key = (tuple(m.key() for m in self.umaps), self.utags,
                     self.vpos, rmap.key())

    @property
    def vmaps(self):
        return tuple(self.umaps[i] for i in self.vpos)

    @property
    def v_size(self):
        return len(self.vpos)

    @property
    def u_size(self):
        return len(self.umaps)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, AtomState) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def label(self) -> str:
        return f"(|V|={self.v_size},|U|={self.u_size},r={self.rmap})"

    def __repr__(self):
        return f"AtomState{self.label()}"


@dataclass
class Edge:
    child: int
    tmatrix: tuple  # Fractions; rows: parent V entries, cols: child V entries (star in measure)


def root_state(ifs: IFS) -> AtomState:
    ident = ifs.identity_map()
    return AtomState((ident,), (0,), (0,), ident)


class _ChildRec:
    __slots__ = ("map", "tag", "order_key", "parents", "has_v", "forbidden")

    def __init__(self, smap, tag, order_key):
        self.map = smap
        self.tag = tag
        self.order_key = order_key
        self.parents = []  # (u_position, letters, probability)
        self.has_v = False
        self.forbidden = False


def _child_records(state: AtomState, ifs: IFS, decider: NeighborDecider):
    """All next-level cylinder maps below the state's U, with bookkeeping.

    Order keys follow the concatenation rule: the canonical word of a
    child is the canonical word of its smallest U-parent extended by the
    smallest bridge word, so (parent position, bridge letters) sorts the
    children in the global order.
    """
    recs: dict = {}
    vset = set(state.vpos)
    for j, (psi, tag) in enumerate(zip(state.umaps, state.utags)):
        for br in ifs.bridges(tag):
            h = decider.compose(psi, br.map)  # interned: equal maps are one object
            rec = recs.get(h)
            if rec is None:
                rec = _ChildRec(h, br.new_tag, (j, br.letters))
                recs[h] = rec
            else:
                if rec.tag != br.new_tag:
                    raise MapError("inconsistent scale tag for a child map")
                if (j, br.letters) < rec.order_key:
                    rec.order_key = (j, br.letters)
            rec.parents.append((j, br.letters, br.probability))
            if j in vset:
                rec.has_v = True
            else:
                rec.forbidden = True
    out = sorted(recs.values(), key=lambda r: r.order_key)
    return out


def children(state: AtomState, ifs: IFS, decider: NeighborDecider):
    """Child states with their transition data, in deterministic order.

    Enumerates candidate covering signatures (subsets of allowed child
    maps that cover every V entry and pass the exact tuple-intersection
    test), then reads off the child's touching set and the transition
    matrix from the recorded (parent, bridge) pairs.
    """
    recs = _child_records(state, ifs, decider)
    allowed = [r for r in recs if r.has_v and not r.forbidden]
    vlist = list(state.vpos)
    cover_sets = []
    for vp in vlist:
        s = frozenset(i for i, r in enumerate(allowed)
                      if any(p[0] == vp for p in r.parents))
        cover_sets.append(s)
    out = []
    if not allowed or any(not s for s in cover_sets):
        return out  # provably no children: the state carries no mass

    for members in _signatures(allowed, cover_sets, decider):
        mmaps = [allowed[i].map for i in members]
        mtags = [allowed[i].tag for i in members]
        nlist = []
        for idx, rec in enumerate(recs):
            if rec.has_v and not rec.forbidden and any(allowed[i] is rec for i in members):
                nlist.append(rec)
            elif decider.tuple_intersects(mmaps + [rec.map], mtags + [rec.tag]):
                nlist.append(rec)
        h1 = mmaps[0]
        h1_inv = h1.inverse()
        umaps = tuple(decider.compose(h1_inv, r.map) for r in nlist)
        utags = tuple(r.tag for r in nlist)
        member_maps = {allowed[i].map for i in members}
        vpos = tuple(i for i, r in enumerate(nlist) if r.map in member_maps)
        child = AtomState(umaps, utags, vpos, h1)
        tmat = _edge_matrix(state, allowed, members)
        out.append((child, tmat))
    return out


def _signatures(allowed, cover_sets, decider: NeighborDecider):
    """DFS over subsets of the allowed child maps.

    Prunes on pairwise and running tuple intersection (both exact and
    monotone under adding maps) and on coverability of the remaining V
    entries; yields index tuples in lexicographic order.
    """
    n = len(allowed)
    nv = len(cover_sets)
    covers = [[k for k, s in enumerate(cover_sets) if i in s] for i in range(n)]
    # missing[i]: the V entries no allowed map from index i on can cover
    missing = [list(range(nv))]
    for i in range(n - 1, -1, -1):
        missing.append([k for k in missing[-1] if k not in covers[i]])
    missing.reverse()

    chosen: list[int] = []
    count = [0] * nv  # chosen maps covering each V entry

    def uncovered_after(i):
        return any(not count[k] for k in missing[i])

    def rec(i):
        if i == n:
            if chosen and not uncovered_after(n):
                yield tuple(chosen)
            return
        if uncovered_after(i):
            return
        # include allowed[i] if the running tuple still intersects
        ok = True
        cur = allowed[i]
        for c in chosen:
            prev = allowed[c]
            if not decider.pair_of(prev.map, prev.tag, cur.map, cur.tag):
                ok = False
                break
        if ok and chosen:
            maps = [allowed[c].map for c in chosen] + [cur.map]
            tags = [allowed[c].tag for c in chosen] + [cur.tag]
            ok = decider.tuple_intersects(maps, tags)
        if ok:
            chosen.append(i)
            for k in covers[i]:
                count[k] += 1
            yield from rec(i + 1)
            for k in covers[i]:
                count[k] -= 1
            chosen.pop()
        yield from rec(i + 1)

    yield from rec(0)


def _edge_matrix(state: AtomState, allowed, members):
    rows = []
    for vp in state.vpos:
        row = []
        for i in members:
            t = Fraction(0)
            for (j, _letters, prob) in allowed[i].parents:
                if j == vp:
                    t += prob
            row.append(t)
        rows.append(tuple(row))
    return tuple(rows)


def walk_addresses(edges, depth: int, start: int = 0):
    """All paths of depth steps from start over per-state edge lists.

    Paths are state-id tuples in depth-first order: prefixes in order,
    each extended by its edges in list order.
    """
    paths = [(start,)]
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

    @property
    def root(self) -> int:
        return 0

    def successors(self, sid: int):
        return self.edges[sid]

    def resolve(self, address):
        """Follow a state-id address from the root; raise NotAdmissible."""
        address = list(address)
        if not address or address[0] != 0:
            raise NotAdmissible("address must start at the root state 0")
        cur = 0
        for nxt in address[1:]:
            for e in self.edges[cur]:
                if e.child == nxt:
                    cur = nxt
                    break
            else:
                raise NotAdmissible(f"no edge {cur} -> {nxt}")
        return self.states[cur]

    def addresses(self, depth: int, start: int = 0):
        """All admissible addresses of the given depth from start."""
        return walk_addresses(self.edges, depth, start)

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
        states = []
        for st in self.states:
            states.append({
                "U": [str(m) for m in st.umaps],
                "tags": list(st.utags),
                "vpos": list(st.vpos),
                "r": str(st.rmap),
            })
        edges = []
        for i, es in enumerate(self.edges):
            for e in es:
                edges.append({
                    "src": i, "dst": e.child,
                    "T": [[f"{t.numerator}/{t.denominator}" for t in row]
                          for row in e.tmatrix],
                })
        return {"states": states, "edges": edges}


def build(ifs: IFS, decider: NeighborDecider | None = None,
          max_states: int = 20000) -> Automaton:
    """Construct the full candidate automaton from the root."""
    if decider is None:
        decider = NeighborDecider(ifs)
    auto = Automaton(ifs, decider)
    root = root_state(ifs)
    auto.states.append(root)
    auto.edges.append([])
    auto.index[root.key()] = 0
    queue = [0]
    head = 0
    while head < len(queue):
        sid = queue[head]
        head += 1
        state = auto.states[sid]
        kids = children(state, ifs, decider)
        if not kids:
            auto.anomalies.append(f"state {sid} has no candidate children")
        seen_here = set()
        for child, tmat in kids:
            ck = child.key()
            if ck in seen_here:
                raise MapError("distinct signatures produced identical child states")
            seen_here.add(ck)
            cid = auto.index.get(ck)
            if cid is None:
                if len(auto.states) >= max_states:
                    raise MapError(f"automaton exceeded {max_states} states; "
                                   "check the finite type verification")
                cid = len(auto.states)
                auto.states.append(child)
                auto.edges.append([])
                auto.index[ck] = cid
                queue.append(cid)
            auto.edges[sid].append(Edge(cid, tmat))
    return auto


# ----------------------------------------------------------------------
# best-effort nonemptiness witnesses
# ----------------------------------------------------------------------

@dataclass
class Witness:
    point: tuple            # absolute coordinates, exact field elements
    separation_certified: bool


def witness(auto: Automaton, sid: int, depth: int = 10):
    """A point certified inside every V cylinder of the state's atom.

    The point is the limit of the nested first-cylinder chain along an
    eventually periodic admissible continuation, so membership in all
    covering cylinders is structural.  Separation from the touching
    non-covering cylinders is checked by ball subdivision to the given
    depth; on failure returns None (unknown) rather than guessing.
    """
    state = auto.states[sid]
    path_r, cycle_r = _periodic_continuation(auto, sid)
    if cycle_r is None:
        return None
    # limit point of P C^inf = P(fix(C)) in the state's local frame
    x_local = (path_r.apply(cycle_r.fixed_point()) if path_r is not None
               else cycle_r.fixed_point())
    certified = True
    for j, psi in enumerate(state.umaps):
        if j in state.vpos:
            continue
        if not _point_separated(auto.ifs, auto.decider, x_local, psi,
                                state.utags[j], depth):
            certified = False
            break
    if not certified:
        return None
    abs_frame = _frame(auto, _bfs_tree(auto, 0)[sid])
    x_abs = abs_frame.apply(x_local) if abs_frame is not None else x_local
    return Witness(point=x_abs, separation_certified=True)


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


def _point_separated(ifs: IFS, decider, x, smap: Similitude, tag: int, depth: int) -> bool:
    """Certified dist(x, smap(K)) > 0 by recursive ball subdivision."""
    ball = decider.ball
    center = smap.apply(ball.center)
    d2 = dist_sq_interval(x, center)
    rad = ifs.base.ratio_interval(smap.exponent, 96) * RatInterval.point(ball.radius)
    if d2.strictly_greater(rad.square()):
        return True
    if depth <= 0:
        return False
    return all(_point_separated(ifs, decider, x, smap.compose(br.map),
                                br.new_tag, depth - 1)
               for br in ifs.bridges(tag))
