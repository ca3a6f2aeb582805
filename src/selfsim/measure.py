"""Exact atom masses through transition matrices.

Each state carries a vector v with one entry per covering cylinder, the
mass of the atom pulled back through that cylinder.  The vectors solve
the linear self-consistency system given by the edge matrices (a parent
atom decomposes into its children), together with mass 1 at the root.
Which components carry mass follows from the component graph alone: its
strongly connected classes are solved exactly over the rationals in one
pass, successors first, and a class without inflow keeps mass only when
its block has spectral radius exactly 1 (Frobenius-Victory); all other
null components get exact zeros.  The edge matrices are ints over the
IFS's one denominator D (`Edge.tnum`), so the rows of the system are
those ints, over D, and every class is solved by fraction-free sparse
elimination with Markowitz pivots taken from a heap (`_nullspace_dim1`).
No float enters the solve, and the normalized result is verified entry
by entry against the full system, on ints over one common denominator.

Every exact read of the solved measure (`mass`, `u_vector`,
`product_matrix`, `total_mass` and `GlobalSystem.mass_global`) is one walk
of row vectors over one edge table, a child -> T dict per state, stepped
by `_row_times`.  Its T are Fraction views, one per distinct int matrix.
"""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction
from math import gcd, lcm

from .automaton import Automaton, Edge, NotAdmissible, _frame, _rooted, walk_addresses
from .field import format_rational


class MeasureError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# component graph helpers
# ----------------------------------------------------------------------

def _component_edges(auto: Automaton):
    """Sparse rows of the self-consistency operator over (state, V-index).

    Row c is [(j, a), ...] with int a: F[c, j] = a / D, D = `IFS.den`.
    State sid owns the components from base[sid] on, so the root's is 0.
    """
    comps = []
    base = []  # per state: its first component
    for sid, st in enumerate(auto.states):
        base.append(len(comps))
        comps.extend((sid, i) for i in range(st.v_size))
    rows = [[] for _ in comps]
    for sid, es in enumerate(auto.edges):
        for e in es:
            cb = base[e.child]
            for i, trow in enumerate(e.tnum, base[sid]):
                rows[i].extend((cb + j, a) for j, a in enumerate(trow) if a)
    return comps, base, rows


def _tarjan_scc(n, succ):
    """Strongly connected components, iterative Tarjan; returns (comp_of, the component count).

    Components are numbered in reverse topological order (a component's
    successors have smaller numbers).
    """
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp_of = [None] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            edges = succ[v]
            for k in range(pi, len(edges)):
                w = edges[k]
                if index[w] is None:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp_of, ncomp


def _nullspace_dim1(rows, n):
    """The nullspace vector of a sparse integer matrix, or None.

    rows: list of dicts {col: int}.  The elimination is fraction-free: a
    row with entry b in the pivot column of pivot a becomes (a/g) row -
    (b/g) pivot row, g = gcd(a, b), and is then divided by the gcd of its
    entries, which keeps the ints small where Bareiss divides by the
    previous pivot.  Pivots come from a lazy Markowitz heap of
    (cost, row, col), cost = (row length - 1) * (column count - 1): an
    entry popped with a stale cost that has since risen goes back with its
    current cost, and every fill entry is pushed when it appears.  Returns
    None unless the nullspace is one-dimensional; the vector is of ints,
    up to scale, signed so that it has no negative entry when that is
    possible.
    """
    rows = [dict(r) for r in rows]
    col_rows: dict = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    heap = [((len(r) - 1) * (len(col_rows[c]) - 1), i, c)
            for i, r in enumerate(rows) for c in r]
    heapq.heapify(heap)
    pivot_order = []  # (col, row dict) in elimination order

    while heap:
        cost, pr, pc = heapq.heappop(heap)
        prow = rows[pr]
        if pc not in prow:
            continue  # the row was pivoted, or the entry cancelled
        now = (len(prow) - 1) * (len(col_rows[pc]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, pr, pc))
            continue
        rows[pr] = {}
        for c in prow:
            col_rows[c].discard(pr)
        p = prow[pc]
        for i in col_rows.pop(pc):
            row = rows[i]
            g = gcd(p, row[pc])
            a, b = p // g, row.pop(pc) // g
            if a != 1:
                for c in row:
                    row[c] *= a
            fill = []
            for c, x in prow.items():
                if c == pc:
                    continue
                y = row.get(c, 0) - b * x
                if y:
                    if c not in row:
                        col_rows[c].add(i)
                        fill.append(c)
                    row[c] = y
                elif c in row:
                    del row[c]
                    col_rows[c].discard(i)
            if row:
                content = gcd(*row.values())
                if content != 1:
                    for c in row:
                        row[c] //= content
            for c in fill:
                heapq.heappush(heap, ((len(row) - 1) * (len(col_rows[c]) - 1), i, c))
        pivot_order.append((pc, prow))

    pivot_cols = {c for c, _ in pivot_order}
    free = [c for c in range(n) if c not in pivot_cols]
    if len(free) != 1:
        return None
    # back-substitution on ints: vec is rescaled whenever a pivot does not
    # divide its right-hand side
    vec = [0] * n
    vec[free[0]] = 1
    for pc, prow in reversed(pivot_order):
        s = sum(x * vec[c] for c, x in prow.items())  # vec[pc] is still 0
        if s:
            p = prow[pc]
            g = gcd(s, p)
            num, den = -s // g, p // g
            if den < 0:
                num, den = -num, -den
            if den != 1:
                vec = [x * den for x in vec]
            vec[pc] = num
    if any(x < 0 for x in vec):
        vec = [-x for x in vec]
    return vec


# ----------------------------------------------------------------------
# the solve
# ----------------------------------------------------------------------

class MeasureModel:
    """Mass vectors and the pruned, mass-positive automaton."""

    def __init__(self, auto: Automaton, v, star, kept, edges):
        self.automaton = auto
        self.v = v                    # per state: tuple of Fractions over V positions
        self.star = star              # per state: tuple of V-indices with positive mass
        self.kept = kept              # sorted state ids with nonzero mass
        self.edges = edges            # per state id: list[Edge] over star entries (kept only)
        view = functools.cache(lambda t: tuple(tuple(Fraction(a, auto.ifs.den) for a in row)
                                               for row in t))
        self._table = [{e.child: view(e.tnum) for e in es} for es in edges]  # child -> T

    # -- basic accessors ----------------------------------------------------
    def v_star(self, sid: int):
        return tuple(self.v[sid][i] for i in self.star[sid])

    def star_dim(self, sid: int) -> int:
        return len(self.star[sid])

    def transition_matrix(self, a: int, b: int):
        t = self._table[a].get(b) if 0 <= a < len(self._table) else None
        if t is None:
            raise NotAdmissible(f"no mass-positive edge {a} -> {b}")
        return t

    def successors(self, sid: int):
        return self.edges[sid]

    # -- measures -------------------------------------------------------------
    def mass(self, address) -> Fraction:
        """Exact mass of the atom addressed by a root-based state path."""
        address = list(address)
        return _dot(self.u_vector(address), self.v_star(address[-1]))

    def u_vector(self, address):
        """The exact row vector of word-weight sums along an address."""
        address = _rooted(address)
        vec = [Fraction(1)] * self.star_dim(0)
        for cur, nxt in zip(address, address[1:]):
            vec = _row_times(vec, self.transition_matrix(cur, nxt))
        return tuple(vec)

    def addresses(self, depth: int):
        return walk_addresses(self.edges, depth)

    def total_mass(self, depth: int) -> Fraction:
        """Sum of mass over all depth-n admissible addresses, exactly.

        Walks forward level by level, summing the u-vectors of the paths
        that end in each state, which gives the same rational as adding
        the individual masses.
        """
        level = {0: [Fraction(1)] * self.star_dim(0)}
        for _ in range(depth):
            nxt = {}
            for sid, vec in level.items():
                for child, t in self._table[sid].items():
                    u = _row_times(vec, t)
                    acc = nxt.get(child)
                    nxt[child] = u if acc is None else [x + y for x, y in zip(acc, u)]
            level = nxt
        return sum((_dot(vec, self.v_star(sid)) for sid, vec in level.items()), Fraction(0))

    def product_matrix(self, address):
        """Product of the restricted edge matrices along an address.

        The address may start at any mass-positive state; NotAdmissible
        off the pruned model, as for `u_vector`.
        """
        address = list(address)
        if not address or not 0 <= address[0] < len(self.star) or not self.star[address[0]]:
            raise NotAdmissible("address must start at a mass-positive state")
        d = self.star_dim(address[0])
        rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        for cur, nxt in zip(address, address[1:]):
            t = self.transition_matrix(cur, nxt)
            rows = [_row_times(r, t) for r in rows]
        return tuple(tuple(r) for r in rows)

    def star_maps_absolute(self, address):
        """Absolute covering maps (star entries) at the end of an address."""
        address = _rooted(address)
        for cur, nxt in zip(address, address[1:]):
            self.transition_matrix(cur, nxt)  # NotAdmissible off the pruned model, as u_vector
        frame = _frame(self.automaton, address)
        st = self.automaton.states[address[-1]]
        out = []
        for i in self.star[address[-1]]:
            phi = st.umaps[st.vpos[i]]
            out.append(phi if frame is None else frame.compose(phi))
        return out


def _row_times(vec, t):
    """The row vector vec . T over Fractions, skipping zero entries."""
    out = [Fraction(0)] * len(t[0])
    for x, row in zip(vec, t):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return out


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def compute_mass_vectors(auto: Automaton) -> MeasureModel:
    """Solve the mass self-consistency system exactly.

    The classes are solved in one pass (`_solve_components`), normalized
    to mass 1 at the root, and the full system is verified entry by entry.
    """
    comps, base, rows = _component_edges(auto)
    den = auto.ifs.den
    v = _solve_components(comps, rows, den)
    root_val = v[0]
    if root_val <= 0:
        raise MeasureError("root received non-positive mass")
    v = [x / root_val for x in v]

    # exact verification of the full system, on ints over one denominator
    common = lcm(*(x.denominator for x in v))
    iv = [x.numerator * (common // x.denominator) for x in v]
    for i, row in enumerate(rows):
        if sum(a * iv[j] for j, a in row) != den * iv[i]:
            raise MeasureError(f"mass self-consistency violated at component {comps[i]}")

    return _assemble(auto, base, v)


def _solve_components(comps, rows, den):
    """A nonnegative solution of v = F v, up to scale, decided exactly.

    rows are `_component_edges` rows, over den.  The strongly connected
    classes of the component graph are walked in reverse topological
    order, so every edge leaving a class C points at solved values.  With
    nonzero inflow, (I - F_C) x = inflow has a unique positive solution or
    the system is refused.  Without inflow, C carries mass iff I - F_C has
    a positive null vector, i.e. the spectral radius of F_C is exactly 1,
    and only one such class can be scaled by the root normalization; every
    other class gets exact zeros (Frobenius-Victory).
    """
    comp_of, ncomp = _tarjan_scc(len(comps), [[j for j, _a in r] for r in rows])
    groups = [[] for _ in range(ncomp)]
    for c, cid in enumerate(comp_of):
        groups[cid].append(c)

    v = [Fraction(0)] * len(comps)
    carrier = None
    for group in groups:  # reverse topological: successors first
        gidx = {c: i for i, c in enumerate(group)}
        g = len(group)
        # int rows of (I - F_C), inflow from solved successors in column g,
        # each scaled by den and by its inflow's denominator
        srows = []
        has_inflow = False
        for gi, c in enumerate(group):
            row = {gi: den}
            inflow = []
            for j, a in rows[c]:
                gj = gidx.get(j)
                if gj is None:
                    if v[j]:
                        inflow.append((a, v[j]))
                else:
                    row[gj] = row.get(gj, 0) - a
            row = {k: x for k, x in row.items() if x}
            if inflow:
                vden = lcm(*(x.denominator for _a, x in inflow))
                total = sum(a * x.numerator * (vden // x.denominator) for a, x in inflow)
                if total:
                    row = {k: x * vden for k, x in row.items()}
                    row[g] = -total
                    has_inflow = True
            srows.append(row)
        if has_inflow:
            # augmented nullspace: (x, 1) spans it iff (I-F)x = inflow uniquely
            vec = _nullspace_dim1(srows, g + 1)
            if vec is None or vec[g] == 0:
                raise MeasureError("singular transient block in the mass solve")
            sol = [Fraction(x, vec[g]) for x in vec[:g]]
            if any(x <= 0 for x in sol):
                raise MeasureError("non-positive mass in back-substitution")
        else:
            sol = _nullspace_dim1(srows, g)
            if sol is None or any(x <= 0 for x in sol):
                continue  # spectral radius of F_C is not 1: exact zeros
            if carrier is not None:
                states = sorted({comps[c][0] for c in group})
                raise MeasureError(
                    "mass system underdetermined: a second mass-carrying "
                    f"class without inflow exists (states {states}); the "
                    "self-consistency equations plus the root normalization "
                    "cannot fix the relative scale of independent classes")
            carrier = group
            sol = [Fraction(x) for x in sol]
        for c, x in zip(group, sol):
            v[c] = x
    if carrier is None:
        raise MeasureError("no mass-carrying class found")
    return v


def _assemble(auto: Automaton, base, v) -> MeasureModel:
    """The model of solved component values v: each state's vector, its star
    (the positive entries), the states with a nonempty star, and the edges
    between them restricted to the star entries."""
    nstates = len(auto.states)
    vvecs = []
    star = []
    for sid in range(nstates):
        vec = tuple(v[base[sid]:base[sid] + auto.states[sid].v_size])
        vvecs.append(vec)
        star.append(tuple(i for i, x in enumerate(vec) if x > 0))
    kept = [sid for sid in range(nstates) if star[sid]]
    kept_set = set(kept)
    edges = [[] for _ in range(nstates)]
    for sid in kept:
        for e in auto.edges[sid]:
            if e.child not in kept_set:
                continue
            rs = star[sid]
            cs = star[e.child]
            tm = tuple(tuple(e.tnum[i][j] for j in cs) for i in rs)
            for col in range(len(cs)):
                if all(tm[r][col] == 0 for r in range(len(rs))):
                    raise MeasureError(
                        f"edge {sid}->{e.child}: column {col} of the restricted "
                        "matrix is zero")
            edges[sid].append(Edge(e.child, tm))
    if 0 not in kept_set:
        raise MeasureError("root state pruned")
    return MeasureModel(auto, vvecs, star, kept, edges)


# ----------------------------------------------------------------------
# global block matrices
# ----------------------------------------------------------------------

class GlobalSystem:
    """Block matrices M_i and weight vectors w_i over a state alphabet.

    M_i carries the transition matrices T(.,eta_i) in block column i;
    w_i holds the mass vector of eta_i in block i and ones elsewhere.
    Products against the first unit vector evaluate atom masses exactly.
    The blocks are held as ints over `den`, the IFS's one denominator.
    """

    def __init__(self, model: MeasureModel, alphabet=None):
        if alphabet is None:
            alphabet = list(model.kept)
        self.model = model
        self.alphabet = list(alphabet)
        self.position = {sid: k for k, sid in enumerate(self.alphabet)}
        self.dims = [model.star_dim(sid) for sid in self.alphabet]
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += d
        self.size = off
        self.den = model.automaton.ifs.den
        # admissible block pairs: position j -> list of (position k, int T)
        self.blocks_into: list[list] = [[] for _ in self.alphabet]
        for k, sid in enumerate(self.alphabet):
            for e in model.successors(sid):
                j = self.position.get(e.child)
                if j is not None:
                    self.blocks_into[j].append((k, e.tnum))

    def matrix_dense(self, i: int):
        """M_i as a dense tuple-of-tuples of Fractions (for export/tests)."""
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for k, t in self.blocks_into[i]:
            ro, co = self.offsets[k], self.offsets[i]
            for a, row in enumerate(t):
                rows[ro + a][co:co + len(row)] = [Fraction(n, self.den) for n in row]
        return tuple(tuple(r) for r in rows)

    def weight_vector(self, i: int):
        out = []
        for j, sid in enumerate(self.alphabet):
            if j == i:
                out.extend(self.model.v_star(sid))
            else:
                out.extend([Fraction(1)] * self.dims[j])
        return tuple(out)

    def to_json_dict(self) -> dict:
        """Alphabet, star dimensions, block structure and weights, exact."""
        entry = functools.cache(lambda n: format_rational(Fraction(n, self.den)))
        blocks = []
        for i, sid in enumerate(self.alphabet):
            into = [{"from_position": k, "T": [[entry(n) for n in row] for row in tm]}
                    for k, tm in self.blocks_into[i]]
            blocks.append({"state": sid, "dim": self.dims[i], "column_blocks": into,
                           "mass_vector": [format_rational(x)
                                           for x in self.model.v_star(sid)]})
        return {
            "alphabet": list(self.alphabet),
            "total_dimension": self.size,
            "blocks": blocks,
            "weight_vectors": "block i of w_i is the state's mass vector; "
                              "all other blocks are ones",
        }

    def mass_global(self, address) -> Fraction:
        """e1 . M_{i1} ... M_{in} . w_{in}^T for a root-based address.

        Only the live block is carried: after a step by M_i the vector
        lives in block i, where w_i holds the mass vector of the state.  A
        step with no block (k, i) leaves the zero vector, so the mass is 0.
        """
        address = list(address)
        if not address or address[0] != self.alphabet[0]:
            raise NotAdmissible("address must start at the first alphabet state")
        vec = [Fraction(1)] + [Fraction(0)] * (self.dims[0] - 1)
        last = 0
        for sid in address[1:]:
            i = self.position.get(sid)
            if i is None:
                raise NotAdmissible(f"state {sid} not in the alphabet")
            t = self.model._table[self.alphabet[last]].get(sid)
            vec = [Fraction(0)] * self.dims[i] if t is None else _row_times(vec, t)
            last = i
        return _dot(vec, self.model.v_star(self.alphabet[last]))
