"""Independent brute-force verification of the bound theorems.

The maximum bounded-diameter family problem is a maximum clique problem on
the graph whose vertices are all subspaces and whose edges join pairs at
distance at most d.  The engine keeps one non-neighbour mask per vertex,
the complement of its radius-d ball mask in the lattice index, built when
the search first reads it, so no step loops over vertex pairs in Python.
The engine branches over one representative per layer pair at the root
(every vertex, pair by pair, when every maximum family is wanted) and uses
greedy-coloring upper bounds inside (San Segundo et al. 2011): coloring a
vertex is one AND with its non-neighbour mask, and a vertex colored below
k_min = need - |clique| is cut before it becomes a node (Konc and Janezic
2007), by the branch loop, as |clique| counts the vertices the coloring
forces.  It adds domain caps, one per complementary layer pair (k, n-k):
when d < n a partial solution together with its candidates can never
place more than [n k] members on a pair, and a layer holds at most the
Frankl-Wilson EKR bound (see __init__).  The caps keep the 374-vertex
lattice of F_2^5 tractable, and the EKR cap on the middle layer is what
proves the boundary n = d+1 at (2, 6, 5); generic coloring alone stalls
there.

Admissibility ("not contained in any forbidden configuration") is not
hereditary, so it cannot be folded into the graph.  Every class is instead
a list of exclusion clauses, the vertex masks of its forbidden
configurations, built from the index's ball masks before the search: a
clique inside a clause must leave it.  A clause can prune a subtree only
while the partial clique lies inside it, so a node checks its candidates
against its live clauses alone: a root's are those centred within t of its
vertex, and a node below keeps those of its parent that hold what it adds.

One driver, max_admissible_family, runs every search: index, seed,
engine, search, witness re-verification, formula and report.  Class None
is the plain search against the Kleitman bound; max_diameter_family is
that call.  A class adds only data and checks: its parity of d, its
clauses, its seed, the is_admissible re-check of its witnesses and its
row of _FORMULAS.  Seeds, like clauses, are vertex masks of ball unions
and layers in the search's index.

A node that passes the clause check and the group bound moves its
universal candidates, those adjacent to every other candidate, into the
clique at once: every maximum family below it holds them all
(docs/decisions.md).  They are found in the coloring pass, by testing
each color class's leader.  Forced vertices are not counted in
nodes_explored.

The search is one branch per root, each one loop over an explicit stack
of frames, so a clique of 1332 members at (3, 5, 4) is not bounded by
Python's recursion limit.  An optimum search roots the first k-space of
each layer pair (k, n-k), middle pair first, and settles the whole pair
once its branch is done: GL(n, q) and perp preserve distance, the caps
and every class's clauses, so some maximum family holds the
representative of the first pair it meets (orbital branching, Ostrowski
et al. 2011; docs/decisions.md).  With enumerate_all every vertex is a
root, pair by pair in the same order, each settling itself; every vertex
of a pair has the same degree, so this is also the ascending-degree order.

Recorded witnesses are always re-verified by the families' own diameter
scan, ``diameter_at_most``, which meets member pairs by vector masks, not
by the line incidence the search adjacency came from; a member keeps its
mask, so one held by several witnesses is masked once.  The characterization
census is the A-class clauses' configurations, as vertex masks of ball
unions in the search's own index, and every witness's vertex mask is
classified by one lookup; at the boundary n = d+1 only the middle layer
is keyed, after a full/empty test of each complementary layer pair.
The timeout runs from the entry of the driver, so the index, the seed and
the masks count against it; elapsed_ms runs on to the report.

Everything is deterministic: vertex order, branching, tie-breaks, and the
final canonical sort of witnesses.
"""

from __future__ import annotations

import functools
import io
import operator
import time
from dataclasses import dataclass

from .errors import BudgetExceeded, ParameterOutOfRange
from .families import (SubspaceFamily, diameter_at_most, is_admissible,
                       write_family)
from .gfq import field_new
from .grassmann import DEFAULT_DISTANCE_CELL_BUDGET, build_index
from .qcount import (ekr_bound, gauss_binom, hilton_milner_bound,
                     kleitman_bound, kleitman_in_range, odd_stability_bound,
                     odd_stability_in_range, small_s_nontrivial_bound,
                     type_a_even_bound, type_a_even_in_range,
                     type_b_even_bound, type_b_even_in_range)

DEFAULT_SEARCH_LATTICE_BUDGET = 3000
DEFAULT_TIMEOUT_SECS = 600.0
DEFAULT_WITNESS_CAP = 1000


@dataclass
class SearchReport:
    """Outcome of one exhaustive (or capped) search."""

    q: int
    n: int
    d: int
    family_class: str | None
    optimum: int
    witness_count: int
    witnesses: list
    nodes_explored: int
    elapsed_ms: int
    proven_optimal: bool
    exhaustive: bool
    timed_out: bool = False
    infeasible: bool = False
    bound_match: bool | None = None
    characterization_match: bool | None = None
    characterization_diagnostics: list | None = None
    formula_value: int | None = None
    in_hypothesis_range: bool | None = None
    greedy_seed_size: int = 0
    witness_cap: int = DEFAULT_WITNESS_CAP

    def to_json_dict(self) -> dict:
        """JSON form: optimum and formula_value are decimal strings, the
        other counts integers, and witnesses family files;
        characterization_diagnostics is a key only when set.  The witnesses
        hold the lattice index's own subspaces, each of which keeps its
        token, so a vertex shared by many witnesses is formatted once."""
        witness_files = []
        for fam in self.witnesses:
            buf = io.StringIO()
            write_family(fam, buf)
            witness_files.append(buf.getvalue())
        doc = {
            "schema": "qdiam.search_report/1",
            "parameters": {"q": self.q, "n": self.n, "d": self.d,
                           "family_class": self.family_class},
            "optimum": str(self.optimum),
            "witness_count": self.witness_count,
            "witnesses": witness_files,
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": self.elapsed_ms,
            "proven_optimal": self.proven_optimal,
            "exhaustive": self.exhaustive,
            "timed_out": self.timed_out,
            "infeasible": self.infeasible,
            "bound_match": self.bound_match,
            "characterization_match": self.characterization_match,
            "formula_value": (None if self.formula_value is None
                              else str(self.formula_value)),
            "in_hypothesis_range": self.in_hypothesis_range,
            "greedy_seed_size": self.greedy_seed_size,
            "witness_cap": self.witness_cap,
        }
        diagnostics = self.characterization_diagnostics
        if diagnostics is not None:
            doc["characterization_diagnostics"] = diagnostics
        return doc


# each byte value's set bits, and a table that marks the nonzero bytes
_BYTE_BITS = [[i for i in range(8) if b >> i & 1] for b in range(256)]
_NONZERO = bytes(1) + b"\1" * 255


def _bits(mask):
    """The set bits of mask, lowest first, in time linear in its length:
    one translate marks its nonzero bytes, and bytes.find finds them."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    nonzero = data.translate(_NONZERO)
    j = nonzero.find(1)
    while j >= 0:
        for i in _BYTE_BITS[data[j]]:
            yield 8 * j + i
        j = nonzero.find(1, j + 1)


def _canonical_centres(index, odd):
    """Centre tuples of the canonical extremal configurations, each the
    union of the radius-t balls around its centres: for even d, (0,) for
    layers 0..t and (F_q^n,) for layers n-t..n; for odd d, for each line x
    in canonical order, (0, x), the canonical double ball at x, then
    (F_q^n, x-perp), its perp.  The A-class clauses and the census of
    verify_characterization list them all; the plain seed takes the
    first."""
    top = index.size - 1  # F_q^n
    if not odd:
        yield from ((0,), (top,))
        return
    for x in range(*index.layer_bounds.get(1, (0, 0))):  # F_q^0 has none
        yield 0, x
        yield top, index.position(index.subspace(x).perp())


def _union(index, centres, t):
    """Vertex mask of the union of the radius-t balls around the centres."""
    return functools.reduce(operator.or_, (index.ball(u, t) for u in centres))


class _CliqueEngine:
    """Branch-and-bound maximum clique over a lattice distance graph.

    With a family_class, the forbidden configurations of that admissibility
    class become exclusion clauses.
    """

    def __init__(self, index, d, family_class=None):
        self.index = index
        self.d = d
        nv = index.size
        n = index.n
        q = index.field.q
        self.nv = nv
        lines, covers = gauss_binom(n, 1, q), sum(
            gauss_binom(n, k, q) * gauss_binom(n - k, 1, q) for k in range(n))
        # Bits for the rows, clauses and centre balls that are no clause, and
        # bytes for the clause lists (an entry per centre) and the incidence.
        clauses, balls, entries = {
            "A_even": (2, 0, 2), "A_odd": (2 * lines, 2 + 2 * lines, 4 * lines),
            "B_even": (nv, 0, nv), "B_odd": (covers, nv, 2 * covers),
        }.get(family_class, (0, 0, 0))
        need = ((nv * (nv + clauses + balls) + 7) // 8 + 8 * entries
                + index.incidence_bytes())
        if need > DEFAULT_DISTANCE_CELL_BUDGET:
            raise BudgetExceeded(
                f"adjacency of (q={q}, n={n}) needs {need} bytes, budget is "
                f"{DEFAULT_DISTANCE_CELL_BUDGET}", would_be_count=need)
        # Non-neighbour masks, vertices farther than d with v itself
        # excluded; row v is built on first use (_build), bit v of built.
        self.non = [0] * nv
        self.built = 0
        # One entry per complementary layer pair (k, n-k), k = 0..n//2: its
        # vertex mask and its cap.  Two j-spaces at distance <= d meet in
        # >= j-t dimensions, so for j > t and n >= j+t layer j is
        # (j-t)-intersecting and holds at most e[j] = ekr_bound(n, j, j-t)
        # members (Frankl-Wilson); elsewhere, and when d >= n, e[j] = [n j].
        # A pair holds at most e[k] + e[n-k], and when d < n at most [n k].
        t = d // 2
        e = [ekr_bound(n, j, j - t, q) if t < j <= n - t and d < n
             else gauss_binom(n, j, q) for j in range(n + 1)]
        self.groups = []
        for k in range(n // 2 + 1):
            cap = e[k] if 2 * k == n else e[k] + e[n - k]
            if d < n:
                cap = min(cap, gauss_binom(n, k, q))
            self.groups.append((index.layer_mask(k) | index.layer_mask(n - k),
                                cap))
        self.forbidden, self.centred = self._clauses(family_class, t)

    def _clauses(self, family_class, t):
        """Vertex masks of the forbidden configurations of family_class, and
        centred: each centre u -> (ball(u, t), the masks of the clauses
        centred at u).  Without a class there are no clauses.

        The A classes forbid the canonical extremal configurations
        (_canonical_centres).  B_even forbids every radius-t ball, and B_odd
        the union of the balls around c1 and c2 for every cover pair
        c1 < c2.  Every clause is the union of the radius-t balls around its
        centres; a one-centre clause is its centre's ball itself.
        """
        index = self.index
        centres = []
        if family_class in ("A_even", "A_odd"):
            centres = list(_canonical_centres(index, family_class == "A_odd"))
        elif family_class == "B_even":
            centres = [(v,) for v in range(self.nv)]
        elif family_class == "B_odd":
            for c1 in range(self.nv):
                centres += [(c1, c2) for c2 in _bits(index.covers(c1))]
        balls = {u: index.ball(u, t) for u in {u for cs in centres for u in cs}}
        centred = {u: (ball, []) for u, ball in balls.items()}
        clauses = [balls[cs[0]] if len(cs) == 1 else balls[cs[0]] | balls[cs[1]]
                   for cs in centres]
        for cs, mask in zip(centres, clauses):
            for u in cs:
                centred[u][1].append(mask)
        return clauses, centred

    def _clauses_at(self, v):
        """The masks of the clauses that hold v: those centred within t of v,
        as v is in ball(c, t) iff c is in ball(v, t) (a clause may come twice);
        a vertex that is no centre, in the A classes, is tested in each ball."""
        centred = self.centred
        near = (_bits(centred[v][0]) if v in centred else
                [u for u, (ball, _) in centred.items() if ball >> v & 1])
        return [m for u in near if u in centred for m in centred[u][1]]

    def _build(self, mask):
        """Fill the non-neighbour rows of the vertices in mask not built yet."""
        rest = mask & ~self.built
        self.built |= rest
        full = (1 << self.nv) - 1
        for v in _bits(rest):
            self.non[v] = full ^ self.index.ball(v, self.d)

    def _degeneracy_order(self):
        """Every vertex, by layer pair (k, n-k) for k = n//2 down to 0, layer
        k first, each layer in canonical order; builds no row.  Every vertex
        of a pair has the same degree (docs/decisions.md).  perfbench/spans.py
        times this method by name."""
        n = self.index.n
        order = []
        for k in range(n // 2, -1, -1):
            for j in sorted({k, n - k}):
                order += range(*self.index.layer_range(j))
        return order

    def _roots(self, collect_all):
        """The roots, tried from the end, and their settle masks:
        with collect_all every vertex in _degeneracy_order, settling itself;
        else the first k-space of each pair, settling the pair."""
        if collect_all:
            order = self._degeneracy_order()
            order.reverse()
            return order, [1 << v for v in order]
        return ([self.index.layer_range(k)[0]
                 for k in range(len(self.groups))],
                [mask for mask, _ in self.groups])

    def _color_force(self, cand):
        """Greedy coloring of cand, and its universal candidates, those
        adjacent to every other candidate; returns (the other candidates in
        class order, their ascending color bounds, the universal mask).

        Coloring a vertex v keeps, of the vertices still free for its class,
        only its non-neighbours: one AND with non[v], which also drops v.
        Only a class's leader is tested for universality: a universal vertex
        is in no candidate's row, so it only ever leads, alone, and its
        class is dropped uncounted, which leaves the coloring of cand minus
        the universal ones.  The rows of cand must be built.
        """
        non = self.non
        order = []
        bounds = []
        forced = 0
        color = 0
        uncolored = cand
        while uncolored:
            b = uncolored & -uncolored
            v = b.bit_length() - 1
            avail = non[v]
            uncolored ^= b
            if not avail & cand:
                forced |= b
                continue
            color += 1
            order.append(v)
            bounds.append(color)
            avail &= uncolored
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail &= non[v]
                uncolored ^= b
                order.append(v)
                bounds.append(color)
        return order, bounds, forced

    def _group_bound(self, mask):
        """The most members a clique inside mask can place, each layer pair
        counted up to its cap.  A node passes cand | clique: the two are
        disjoint, and min(a + u, cap) = u + min(a, cap - u).  A plain loop:
        sum() of min() over a generator is three times slower per call."""
        total = 0
        for g, cap in self.groups:
            a = (mask & g).bit_count()
            total += a if a < cap else cap
        return total

    def _record(self, members):
        """Count a clique of the best size, members being a fresh vertex
        list of a leaf's clique mask, and keep that list while the cap (one
        without collect_all) allows: the kept cliques are the first the
        search reaches, so a capped subset follows the root and branch
        order, while collected_count stays exact."""
        size = len(members)
        if size < self.best:
            return
        if size > self.best:
            self.best = size
            self.collected = []
            self.collected_count = 0
        self.collected_count += 1
        if len(self.collected) < (self.witness_cap if self.collect_all else 1):
            self.collected.append(members)

    def search(self, *, seed_vertices=None, collect_all=False,
               witness_cap=DEFAULT_WITNESS_CAP, deadline=None):
        """Run the search; returns (best, collected, count, nodes, timed_out).

        Each root (see _roots), tried from the end, builds its row and runs
        _subsearch over its untried neighbours; its settle mask then leaves
        the untried set, and self.best and the recorded cliques carry over.
        deadline, a time.monotonic() value, is checked before each root's
        row is built and inside each branch.
        """
        self.collect_all = collect_all
        self.witness_cap = witness_cap
        self.best = len(seed_vertices) if seed_vertices else 0
        # Without collect_all the seed is the witness until a larger clique
        # is found; with it, only the cliques the search reaches count.
        self.collected = ([list(seed_vertices)]
                          if seed_vertices and not collect_all else [])
        self.collected_count = len(self.collected)
        roots, settle = self._roots(collect_all)
        untried = (1 << self.nv) - 1
        nodes = 0
        for v, settled in zip(reversed(roots), reversed(settle)):
            timed_out = deadline is not None and time.monotonic() > deadline
            if timed_out:
                break
            self._build(1 << v)
            branch, timed_out = self._subsearch(
                v, untried & ~(self.non[v] | 1 << v), self._clauses_at(v),
                deadline)
            nodes += branch
            if timed_out:
                break
            untried &= ~settled
        if collect_all and seed_vertices and not self.collected_count:
            # Nothing at the seed size was enumerated (timeout before any
            # leaf); fall back to the seed itself.
            self.collected = [list(seed_vertices)][:witness_cap]
            self.collected_count = 1
        return self.best, self.collected, self.collected_count, nodes, timed_out

    def _subsearch(self, v0, cand, clauses, deadline):
        """Explore the branch of clique {v0} over cand, v0's untried
        neighbours, with clauses, those that hold v0 (v0's row built);
        returns (nodes, timed_out).

        A frame is [vertices still to try, their color bounds, next
        position, untried candidates, live clauses, clique mask]; the first
        holds v0 alone, with a bound that never cuts.  A node that passes
        both checks builds its candidates' rows, and _color_force colors
        them and forces the universal ones into its clique.  Low colors are
        returned too: best only rises, so the frame's bound check cuts them
        before they count as nodes.  deadline is checked at the first node,
        every 1024th node and after every node that built rows.
        """
        slack = 0 if self.collect_all else 1  # a clique must reach best + slack
        non = self.non
        stack = [[[v0], [float("inf")], 1, cand | 1 << v0, clauses, 0]]
        nodes = 0
        while stack:
            frame = stack[-1]
            order, bounds, i, cur, alive, clique = frame
            i -= 1
            if i < 0 or clique.bit_count() + bounds[i] < self.best + slack:
                stack.pop()
                continue
            v = order[i]
            # The child node: clique plus v, over the untried neighbours of v.
            cur ^= 1 << v
            cand = cur ^ (cur & non[v])
            frame[2] = i
            frame[3] = cur
            if nodes & 1023 == 0 and deadline is not None:
                if time.monotonic() > deadline:
                    return nodes, True
            nodes += 1
            bit = 1 << v
            clique |= bit
            # The live clauses, those that hold the clique: the parent's that
            # hold v.  One that holds every candidate prunes.
            live = []
            pruned = False
            for m in alive:
                if m & bit:
                    if cand & m == cand:
                        pruned = True
                        break
                    live.append(m)
            if pruned or self._group_bound(cand | clique) < self.best + slack:
                continue
            if cand & self.built != cand:
                self._build(cand)
                if deadline is not None and time.monotonic() > deadline:
                    return nodes, True
            order, bounds, forced = self._color_force(cand)
            cand ^= forced
            clique |= forced
            if live:
                live = [m for m in live if m & forced == forced]
            if cand:
                stack.append([order, bounds, len(order), cand, live, clique])
                continue
            self._record(list(_bits(clique)))
        return nodes, False


def _seed_family(index, d):
    """Largest known-by-construction family of diameter <= d, as a sorted
    vertex list.  It is reported only when the search does not beat it,
    and every reported family is re-verified, so it is not checked here."""
    if d >= index.n:
        # no two subspaces are farther apart than n: the whole lattice
        return list(range(index.size))
    return list(_bits(_union(index, next(_canonical_centres(index, d % 2)),
                             d // 2)))


def _search_index(q, n, d, witness_cap, lattice_budget):
    """The lattice index of a search, after refusing negative n, d or
    witness cap; build_index refuses a lattice larger than the budget."""
    for name, value in (("n", n), ("d", d), ("witness cap", witness_cap)):
        if value < 0:
            raise ParameterOutOfRange(f"{name} must be >= 0, got {value}")
    budget = (DEFAULT_SEARCH_LATTICE_BUDGET if lattice_budget is None
              else lattice_budget)
    return build_index(field_new(q), n, budget=budget)


def _materialize_witnesses(index, collected, d):
    """Vertex lists -> families in the same order, each re-verified by
    diameter_at_most.

    It meets pairs by vector masks, not by the line incidence the search
    adjacency came from.  Each member keeps its mask while the report holds
    the witnesses, so their union is masked once, in at most |union| * q^n
    / 8 bytes: for n >= 4, [n 2]_q >= q^n, so below the n_v^2 / 8 the
    engine already charged; for n <= 3, at most about 280 KB (q = 16).
    """
    field, n = index.field, index.n
    witnesses = []
    for vertices in collected:
        fam = SubspaceFamily(field, n, [index.subspace(v) for v in vertices])
        ok, pair = diameter_at_most(fam, d)
        if not ok:
            raise AssertionError(
                "search produced a witness violating the diameter bound: "
                f"{pair}")
        witnesses.append(fam)
    return witnesses


# ---------------------------------------------------------------------------
# the search driver

def _admissible_seed(index, d, family_class):
    """Best known-by-construction admissible family, as a sorted vertex
    list, if any; each candidate is a vertex mask of layers and balls of
    index (docs/decisions.md)."""
    n, t, ball, layer = index.n, d // 2, index.ball, index.layer_mask
    x = 1  # the first line, <e_0>, follows the zero space
    candidates = []
    if d % 2 == 0 and 1 <= t and t + 1 <= n:
        candidates.append(ball(x, t))
    if d % 2 == 1 and t + 2 <= n:
        # K(x, y), y = <e_1, ..., e_(t+1)>: layers 0..t and the (t+1)-spaces
        # through x (within t of x) meeting y (within 2t-1 of z = x + y, the
        # first (t+2)-space) or in z (within 1 of z)
        z = index.layer_range(t + 2)[0]
        candidates.append(ball(0, t) | layer(t + 1) & (
            ball(x, t) & ball(z, 2 * t - 1) | ball(z, 1)))
    if n == d + 1 and t >= 1:
        # mixed complementary split: lower layers below t, top layer n-t,
        # and for odd d the star of x in layer t+1
        candidates.append(ball(0, t - 1) | layer(n - t) | (
            ball(x, t) & layer(t + 1) if d % 2 else 0))
    if d % 2 == 0 and 2 * t < n <= 3 * t:
        # a t-space is n-t <= 2t from F_q^n, so layer t with F_q^n has
        # diameter <= d; so does its perp, layer n-t with 0
        candidates += [layer(t) | layer(n), layer(n - t) | layer(0)]
    best = None
    for mask in candidates:
        # is_admissible checks the diameter first; a candidate no larger
        # than the best so far needs no check.
        vertices = list(_bits(mask))
        if (best is None or len(vertices) > len(best)) and is_admissible(
                SubspaceFamily(index.field, n, map(index.subspace, vertices)),
                family_class, t, budget=None).admissible:
            best = vertices
    return best


# family class -> (bound formula, its hypothesis range, the relation the
# optimum must bear to the formula).  The plain search (class None) meets
# the exact Kleitman bound in (n, d); a class stays within its stability
# bound in (n, t).  Each formula raises ParameterOutOfRange where it is
# undefined, which is never inside its hypothesis range.
_FORMULAS = {
    None: (kleitman_bound, kleitman_in_range, operator.eq),
    "A_even": (type_a_even_bound, type_a_even_in_range, operator.le),
    "B_even": (type_b_even_bound, type_b_even_in_range, operator.le),
    "A_odd": (odd_stability_bound, odd_stability_in_range, operator.le),
    "B_odd": (odd_stability_bound, odd_stability_in_range, operator.le),
}


def max_admissible_family(q, n, d, family_class, enumerate_all=False, *,
                          lattice_budget=None,
                          timeout_secs=DEFAULT_TIMEOUT_SECS,
                          witness_cap=DEFAULT_WITNESS_CAP) -> SearchReport:
    """Exact maximum size of an admissible diameter-<= d family, by
    exhaustive search; the one driver of every oracle search.

    family_class None is the plain search, checked against the Kleitman
    bound.  A_even, B_even (even d) and A_odd, B_odd (odd d) make every
    forbidden configuration of the class an exclusion clause of the search,
    and each witness is re-verified by is_admissible.  Below a theorem's
    hypothesis threshold the optimum is reported as an observation, never
    asserted against the formula.

    With enumerate_all, every maximum family is collected (up to the witness
    cap; the true count is always reported).  A plain enumeration whose
    optimum matched the bound is characterized on the search's own index
    (verify_characterization), unless the cap cut it short: then its one
    diagnostics line names the cap.  The search is sequential and
    deterministic.  timeout_secs runs from this call's entry, so building
    the index, the seed and the adjacency count against it; elapsed_ms
    runs from the entry to the report, the post-search checks included.
    """
    start = time.monotonic()
    deadline = None if timeout_secs is None else start + timeout_secs
    if family_class not in _FORMULAS:
        raise ValueError(f"unknown admissibility class {family_class!r}")
    t = d // 2
    if family_class is not None and family_class.endswith("even") != (d % 2 == 0):
        raise ParameterOutOfRange(
            f"class {family_class} needs {'odd' if d % 2 == 0 else 'even'} d, "
            f"got {d}")
    index = _search_index(q, n, d, witness_cap, lattice_budget)
    seed_vertices = (_seed_family(index, d) if family_class is None
                     else _admissible_seed(index, d, family_class))
    engine = _CliqueEngine(index, d, family_class)
    best, collected, count, nodes, timed_out = engine.search(
        seed_vertices=seed_vertices, collect_all=enumerate_all,
        witness_cap=witness_cap, deadline=deadline)
    # index order is canonical order, so this sorts by the member tuples
    collected = sorted(sorted(c) for c in collected)
    witnesses = _materialize_witnesses(index, collected, d)
    if family_class is not None:
        for fam in witnesses:
            if not is_admissible(fam, family_class, t, budget=None).admissible:
                raise AssertionError("search returned an inadmissible witness")

    bound, in_range_of, relation = _FORMULAS[family_class]
    arg = d if family_class is None else t
    try:
        formula, in_range = bound(n, arg, q), in_range_of(n, arg)
    except ParameterOutOfRange:
        formula, in_range = None, False
    bound_match = (relation(best, formula)
                   if formula is not None and in_range and not timed_out
                   else None)
    characterized = diagnostics = None
    if family_class is None and enumerate_all and bound_match:
        if count == len(collected):
            characterized, diagnostics = verify_characterization(
                index, d, collected)
        else:
            diagnostics = [
                f"not characterized: witness cap {witness_cap} kept "
                f"{len(collected)} of {count} witnesses"]
    return SearchReport(
        q=q, n=n, d=d, family_class=family_class, optimum=best,
        witness_count=count, witnesses=witnesses, nodes_explored=nodes,
        elapsed_ms=int((time.monotonic() - start) * 1000),
        proven_optimal=not timed_out,
        exhaustive=enumerate_all and not timed_out, timed_out=timed_out,
        infeasible=(best == 0), bound_match=bound_match,
        characterization_match=characterized,
        characterization_diagnostics=diagnostics,
        formula_value=formula, in_hypothesis_range=in_range,
        greedy_seed_size=len(seed_vertices or ()),
        witness_cap=witness_cap)


def max_diameter_family(q, n, d, enumerate_all=False, *, lattice_budget=None,
                        timeout_secs=DEFAULT_TIMEOUT_SECS,
                        witness_cap=DEFAULT_WITNESS_CAP) -> SearchReport:
    """Exact maximum size of a diameter-<= d family: max_admissible_family
    with no class."""
    return max_admissible_family(
        q, n, d, None, enumerate_all, lattice_budget=lattice_budget,
        timeout_secs=timeout_secs, witness_cap=witness_cap)


# ---------------------------------------------------------------------------
# characterization of equality families

def _split_violation(mask, index, t):
    """At the boundary n = 2t+1 or 2t+2: why the vertex mask is not full on
    one side and empty on the other of every complementary layer pair
    (k, n-k), k <= t, or None when it is."""
    n = index.n
    for k in range(t + 1):
        full_size = gauss_binom(n, k, index.field.q)
        a, b = ((mask & index.layer_mask(j)).bit_count() for j in (k, n - k))
        if not ((a == full_size and b == 0) or (a == 0 and b == full_size)):
            return (f"layer pair ({k},{n - k}): sizes ({a},{b}) are not "
                    f"a full/empty split of {full_size}")
    return None


def verify_characterization(index, d, witnesses):
    """Check that the witnesses, vertex lists of index in report order, are
    exactly the census of maximum families of diameter <= d.

    The driver calls it on a complete enumeration whose optimum matched the
    bound formula.  Returns (ok, diagnostics); diagnostics name the violated
    clause for any witness that fits no case, and the census mismatch if one
    side lost a family.

    Each witness is classified by one lookup of its vertex mask in a census
    of ball unions built once from the centres of the A-class clauses
    (_canonical_centres): for n >= d+2 the unions of layers 0..t and
    n-t..n for even d, every canonical double ball and its perp for odd d,
    a ball's own label first.  At the boundary n = d+1 a witness must first
    split every complementary layer pair full/empty; only the bits of its
    middle layer t+1 (none for odd n) are then keyed.  For odd d those keys
    are the point-stars and hyperplane duals, the maximum intersecting
    families of (t+1)-spaces in F_q^(2t+2) (Newman 2004; Tanaka 2006), so
    the boundary census holds 2^(t+1) witnesses per middle layer.
    """
    n = index.n
    t = d // 2
    boundary = n == d + 1
    centres = list(_canonical_centres(index, d % 2))
    keyed = -1  # the bits of a family that make its key: all of them
    if boundary:
        # a full/empty split leaves the middle layer n/2 (none for odd n)
        keyed = 0 if n % 2 else index.layer_mask(n // 2)
        case = (("boundary_split_odd",
                 "complementary split + intersecting middle") if d % 2
                else ("boundary_split_even", "complementary split"))
        cases = [case] * len(centres)
        # for even d never read: the empty key is always found
        miss = (f"middle layer {t + 1} is not a point-star or a "
                f"hyperplane dual")
    elif d % 2:
        cases = []
        for _, x in centres[::2]:
            reason = f"double ball at {index.subspace(x).to_token()}"
            cases += [("canonical_double_ball", reason),
                      ("canonical_double_ball_perp", reason)]
        miss = "not a canonical double ball or its perp"
    else:
        cases = [("full_lower_layers", "union of layers 0..t"),
                 ("full_upper_layers", "union of layers n-t..n")]
        miss = "not a full lower/upper layer union"
    census = {}
    for cs, case in zip(centres, cases):
        census.setdefault(_union(index, cs, t) & keyed, case)
    expected = len(census) * 2 ** (t + 1) if boundary else len(census)
    ok = True
    diagnostics = []
    masks = [sum(1 << v for v in vertices)  # the OR of distinct bits
             for vertices in witnesses]
    for i, mask in enumerate(masks):
        split = _split_violation(mask, index, t) if boundary else None
        label, reason = ((None, split) if split
                         else census.get(mask & keyed, (None, miss)))
        if label is None:
            ok = False
            diagnostics.append(f"witness {i}: VIOLATION: {reason}")
        else:
            diagnostics.append(f"witness {i}: {label} ({reason})")
    found = len(set(masks))
    if not ok or found != expected:
        ok = False
        diagnostics.append(
            f"census mismatch: expected {expected} canonical extremal "
            f"families, witness set has {found}")
    elif boundary:
        # every witness carries the one boundary label
        diagnostics.append(f"census at n = d+1: {label}={found}")
    else:
        diagnostics.append(
            f"census: all {expected} canonical extremal families found")
    return ok, diagnostics


# ---------------------------------------------------------------------------
# exact inequality sweeps

@dataclass(frozen=True)
class SweepRow:
    params: tuple
    lhs: int
    rhs: int
    relation: str

    @property
    def margin(self) -> int:
        """Exact slack: how far the strict/weak inequality is from failing."""
        if self.relation == "<=":
            return self.rhs - self.lhs
        if self.relation == "<":
            return self.rhs - self.lhs - 1
        return self.lhs - self.rhs - 1  # ">"

    @property
    def passed(self) -> bool:
        return self.margin >= 0


@dataclass
class SweepReport:
    name: str
    rows: list

    @property
    def tuple_count(self):
        return len(self.rows)

    @property
    def all_pass(self):
        return all(r.passed for r in self.rows)

    def failures(self):
        return [r for r in self.rows if not r.passed]


def sweep_lemma26(q_values=(2, 3, 4), k_max=12, n_max=40) -> SweepReport:
    """Small-s nontrivial bound <= [k-s+1 1][n-s-1 k-s-1] on the full grid."""
    rows = []
    for q in q_values:
        for k in range(4, k_max + 1):
            for s in range(1, k - 2):
                for n in range(2 * k, n_max + 1):
                    lhs = small_s_nontrivial_bound(n, k, s, q)
                    rhs = (gauss_binom(k - s + 1, 1, q)
                           * gauss_binom(n - s - 1, k - s - 1, q))
                    params = (("q", q), ("k", k), ("s", s), ("n", n))
                    rows.append(SweepRow(params, lhs, rhs, "<="))
    return SweepReport("lemma26", rows)


def sweep_hm_positive(q_values=(2, 3), t_values=(2, 3, 4), n_max=40) -> SweepReport:
    """Positivity of the Hilton-Milner excess on its hypothesis range."""
    rows = []
    for q in q_values:
        for t in t_values:
            for n in range(5 * t + 3, n_max + 1):
                lhs = hilton_milner_bound(n, t + 1, q)
                params = (("q", q), ("t", t), ("n", n))
                rows.append(SweepRow(params, lhs, 0, ">"))
    return SweepReport("hm_positive", rows)


def sweep_type_compare(q_values=(2, 3), t_values=(2, 3)) -> SweepReport:
    """Global even bound strictly below the canonical even bound, 6t<=n<=12t.

    Note: this pointwise comparison genuinely fails on the low-n part of the
    grid (e.g. q=2, t=2, n=12); the bounds only compare this way once n is
    large enough.  The sweep reports the exact margins either way; the
    exact inequality that does hold on the whole grid is sweep_type_ratio.
    """
    rows = []
    for q in q_values:
        for t in t_values:
            for n in range(6 * t, 12 * t + 1):
                lhs = type_b_even_bound(n, t, q)
                rhs = type_a_even_bound(n, t, q)
                params = (("q", q), ("t", t), ("n", n))
                rows.append(SweepRow(params, lhs, rhs, "<"))
    return SweepReport("type_compare", rows)


def sweep_type_ratio(q_values=(2, 3), t_values=(2, 3)) -> SweepReport:
    """Exact form of the remainder-ratio estimate behind the type comparison.

    ([n-1 t-1] + [n-1 t]) (q^n - 1)(q^t - 1)
        >= [n t-1] (q^(n-t+1) - 1)(q^(n-t) - 1)

    cleared of denominators; this is the step that makes the type-A/type-B
    remainder ratio grow like q^n.
    """
    rows = []
    for q in q_values:
        for t in t_values:
            for n in range(6 * t, 12 * t + 1):
                lhs = (gauss_binom(n, t - 1, q)
                       * (q**(n - t + 1) - 1) * (q**(n - t) - 1))
                rhs = ((gauss_binom(n - 1, t - 1, q) + gauss_binom(n - 1, t, q))
                       * (q**n - 1) * (q**t - 1))
                params = (("q", q), ("t", t), ("n", n))
                rows.append(SweepRow(params, lhs, rhs, "<="))
    return SweepReport("type_ratio", rows)


SWEEPS = {
    "lemma26": sweep_lemma26,
    "hm-positive": sweep_hm_positive,
    "type-compare": sweep_type_compare,
    "type-ratio": sweep_type_ratio,
}
