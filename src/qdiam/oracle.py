"""Independent brute-force verification of the bound theorems.

The maximum bounded-diameter family problem is a maximum clique problem on
the graph whose vertices are all subspaces and whose edges join pairs at
distance at most d.  The engine branches in degeneracy order at the root
with canonical tie-breaking, uses greedy-coloring upper bounds inside, and
adds a domain cap: a partial solution together with its candidates can
never place more than [n k] members on a complementary layer pair (k, n-k),
so branches violating that die early.  The cap is what keeps the 374-vertex
lattice of F_2^5 tractable; generic coloring alone stalls there.

Admissibility ("not contained in any forbidden configuration") is not
hereditary, so it cannot be folded into the graph.  Every class is instead
a list of exclusion clauses, the vertex masks of its forbidden
configurations, built from the index's ball masks before the search: a
clique inside a clause must leave it.  A clause can prune a subtree only
while the partial clique lies inside it, and the partial clique only grows
on the way down, so the engine keeps a per-vertex index of the clauses
containing each vertex: a node inherits its parent's live clauses narrowed
by the vertex it adds and checks its candidates against the live ones
alone.

Recorded witnesses are always re-verified by row elimination
(``Subspace.distance``), a code path independent of the vector masks the
adjacency came from; each distinct member pair is met once across all
witnesses.  The timeout runs from the entry of the search functions, so
the index, the seed and the adjacency count against it.

Everything is deterministic: vertex order, branching, tie-breaks, and the
final canonical sort of witnesses.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, NotExhaustive, ParameterOutOfRange
from .families import (SubspaceFamily, _common_subspace, _first_line,
                       _line_inside, canonical_double_ball, diameter_at_most,
                       extremal_odd_family, is_admissible, is_s_intersecting,
                       lower_layers, perp_family, star, upper_layers)
from .gfq import field_new
from .grassmann import (DEFAULT_DISTANCE_CELL_BUDGET, build_index,
                        enumerate_layer, lattice_size)
from .qcount import (gauss_binom, hilton_milner_bound, kleitman_bound,
                     kleitman_in_range, odd_stability_bound,
                     odd_stability_in_range, small_s_nontrivial_bound,
                     type_a_even_bound, type_a_even_in_range,
                     type_b_even_bound, type_b_even_in_range)
from .subspace import Subspace

DEFAULT_SEARCH_LATTICE_BUDGET = 400
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
    formula_value: int | None = None
    in_hypothesis_range: bool | None = None
    greedy_seed_size: int = 0
    witness_cap: int = DEFAULT_WITNESS_CAP

    def to_json_dict(self) -> dict:
        """JSON form; all counts are decimal strings, witnesses family files."""
        witness_files = []
        for fam in self.witnesses:
            lines = [f"family {self.q} {self.n} {len(fam)}"]
            lines.extend(s.to_token() for s in fam)
            witness_files.append("\n".join(lines) + "\n")
        return {
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


class _Timeout(Exception):
    pass


class _CliqueEngine:
    """Branch-and-bound maximum clique over a lattice distance graph.

    With a family_class, the forbidden configurations of that admissibility
    class become exclusion clauses.
    """

    def __init__(self, index, d, family_class=None, structural_cap=True):
        self.index = index
        self.d = d
        nv = index.size
        n = index.n
        q = index.field.q
        self.nv = nv
        clauses = {"A_even": 2, "A_odd": 2 * gauss_binom(n, 1, q), "B_even": nv,
                   "B_odd": sum(gauss_binom(n, k, q) * gauss_binom(n - k, 1, q)
                                for k in range(n))}.get(family_class, 0)
        # Adjacency bitsets, the index's vector masks, and the clauses with
        # their per-vertex index, in bytes.
        need = (nv * nv + nv * q ** n + 2 * clauses * nv + 7) // 8
        if need > DEFAULT_DISTANCE_CELL_BUDGET:
            raise BudgetExceeded(
                f"adjacency of (q={q}, n={n}) needs {need} bytes, budget is "
                f"{DEFAULT_DISTANCE_CELL_BUDGET}", would_be_count=need)
        self.adj = [index.ball(i, d) ^ (1 << i) for i in range(nv)]
        self.layer_of = [s.dim for s in index.subspaces]
        layer_mask = [0] * (n + 1)
        for i, k in enumerate(self.layer_of):
            layer_mask[k] |= 1 << i
        self.layer_mask = layer_mask
        # Complementary-pair caps: |F(k)| + |F(n-k)| <= [n k] whenever the
        # whole family has diameter <= d < n.  Layers are grouped so every
        # vertex belongs to exactly one group.
        self.groups = []
        self.group_of_layer = [0] * (n + 1)
        if structural_cap and n >= d + 1:
            for k in range(n // 2 + 1):
                if k != n - k:
                    mask = layer_mask[k] | layer_mask[n - k]
                else:
                    mask = layer_mask[k]
                cap = gauss_binom(n, k, q)
                self.group_of_layer[k] = len(self.groups)
                self.group_of_layer[n - k] = len(self.groups)
                self.groups.append((mask, cap))
        else:
            self.groups.append(((1 << nv) - 1, nv))
        self.forbidden = self._clauses(family_class, d // 2)
        # clause_of[v]: bit j set when clause j contains vertex v; built by
        # search() only when there are clauses.
        self.clause_of = None
        self.reset_counters()

    def _clauses(self, family_class, t):
        """Vertex masks of the forbidden configurations of family_class.

        A_even forbids the radius-t balls around 0 and F_q^n.  A_odd forbids,
        for every line x, the union of the balls around 0 and x and the union
        of those around F_q^n and x-perp.  B_even forbids every radius-t ball,
        and B_odd the union of the balls around c1 and c2 for every cover
        pair c1 < c2.
        """
        if family_class is None:
            return []
        index = self.index
        top = self.nv - 1  # F_q^n
        if family_class == "A_even":
            return [index.ball(0, t), index.ball(top, t)]
        if family_class == "A_odd":
            zero, full = index.ball(0, t), index.ball(top, t)
            clauses = []
            for x in range(*index.layer_range(1)):
                perp = index.position(index.subspaces[x].perp())
                clauses.append(zero | index.ball(x, t))
                clauses.append(full | index.ball(perp, t))
            return clauses
        balls = [index.ball(v, t) for v in range(self.nv)]
        if family_class == "B_even":
            return balls
        clauses = []
        for c1, k in enumerate(self.layer_of[:top]):  # F_q^n has no cover
            covers = index.ball(c1, 1) & self.layer_mask[k + 1]
            while covers:
                b = covers & -covers
                clauses.append(balls[c1] | balls[b.bit_length() - 1])
                covers ^= b
        return clauses

    def reset_counters(self):
        self.nodes = 0
        self.best = 0
        self.collected: list[list[int]] = []
        self.collected_count = 0
        self.collect_all = False
        self.witness_cap = DEFAULT_WITNESS_CAP
        self.deadline = None

    def _degeneracy_order(self):
        """Peel minimum-degree vertices, canonical index as tie-break.

        Alive vertices sit in per-degree bitmask buckets; the next vertex is
        the lowest bit of the lowest non-empty bucket.  A removal lowers the
        minimum degree by at most one, so the bucket scan resumes there.
        """
        nv = self.nv
        adj = self.adj
        alive = (1 << nv) - 1
        degree = [adj[v].bit_count() for v in range(nv)]
        buckets = [0] * (nv + 1)
        for v, k in enumerate(degree):
            buckets[k] |= 1 << v
        order = []
        low = 0
        for _ in range(nv):
            while not buckets[low]:
                low += 1
            bucket = buckets[low]
            b = bucket & -bucket
            v = b.bit_length() - 1
            buckets[low] = bucket ^ b
            order.append(v)
            alive ^= b
            neigh = adj[v] & alive
            while neigh:
                b = neigh & -neigh
                u = b.bit_length() - 1
                neigh ^= b
                k = degree[u]
                buckets[k] ^= b
                buckets[k - 1] |= b
                degree[u] = k - 1
            if low:
                low -= 1
        return order

    def _color_order(self, cand):
        """Greedy coloring; returns vertices with ascending color bounds."""
        adj = self.adj
        order = []
        bounds = []
        color = 0
        uncolored = cand
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail &= ~adj[v]
                avail ^= b
                uncolored ^= b
                order.append(v)
                bounds.append(color)
        return order, bounds

    def _group_bound(self, psize, used, cand):
        total = psize
        for gi, (mask, cap) in enumerate(self.groups):
            avail = (cand & mask).bit_count()
            room = cap - used[gi]
            total += avail if avail < room else room
        return total

    def _record(self, plist):
        size = len(plist)
        if size < self.best:
            return
        if size > self.best:
            self.best = size
            self.collected = [list(plist)]
            self.collected_count = 1
        elif self.collect_all:
            self.collected_count += 1
            if len(self.collected) < self.witness_cap:
                self.collected.append(list(plist))

    def _expand(self, plist, cand, used, alive):
        """Search below the partial clique plist.

        alive holds the clauses that contain the partial clique; one that
        also contains every candidate prunes the node.
        """
        if self.deadline is not None and self.nodes & 1023 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout
        self.nodes += 1
        forbidden = self.forbidden
        rest = alive
        while rest:
            b = rest & -rest
            if cand & ~forbidden[b.bit_length() - 1] == 0:
                return
            rest ^= b
        need = self.best if self.collect_all else self.best + 1
        if self._group_bound(len(plist), used, cand) < need:
            return
        if not cand:
            self._record(plist)
            return
        order, bounds = self._color_order(cand)
        cur = cand
        psize = len(plist)
        group_of_layer = self.group_of_layer
        layer_of = self.layer_of
        clause_of = self.clause_of
        for i in range(len(order) - 1, -1, -1):
            need = self.best if self.collect_all else self.best + 1
            if psize + bounds[i] < need:
                return
            v = order[i]
            gi = group_of_layer[layer_of[v]]
            plist.append(v)
            used[gi] += 1
            self._expand(plist, cur & self.adj[v], used,
                         alive and alive & clause_of[v])
            used[gi] -= 1
            plist.pop()
            cur ^= 1 << v

    def search(self, *, seed_vertices=None, collect_all=False,
               witness_cap=DEFAULT_WITNESS_CAP, deadline=None):
        """Run the search; returns (best, collected, count, nodes, timed_out).

        deadline is a time.monotonic() value, checked at the first node and
        at every 1024th after it.
        """
        self.reset_counters()
        self.collect_all = collect_all
        self.witness_cap = witness_cap
        self.deadline = deadline
        if self.forbidden:
            clause_of = [0] * self.nv
            for j, rest in enumerate(self.forbidden):
                bj = 1 << j
                while rest:
                    b = rest & -rest
                    clause_of[b.bit_length() - 1] |= bj
                    rest ^= b
            self.clause_of = clause_of
        if seed_vertices:
            self.best = len(seed_vertices)
            if not collect_all:
                self.collected = [list(seed_vertices)]
                self.collected_count = 1
        timed_out = False
        order = self._degeneracy_order()
        later = (1 << self.nv) - 1
        try:
            for v in order:
                bv = 1 << v
                later ^= bv
                gi = self.group_of_layer[self.layer_of[v]]
                used = [0] * len(self.groups)
                used[gi] = 1
                alive = self.clause_of[v] if self.clause_of else 0
                self._expand([v], self.adj[v] & later, used, alive)
        except _Timeout:
            timed_out = True
        if collect_all and seed_vertices and not self.collected:
            # Nothing at the seed size was enumerated (timeout before any
            # leaf); fall back to the seed itself.
            self.collected = [list(seed_vertices)]
            self.collected_count = 1
        return self.best, self.collected, self.collected_count, self.nodes, timed_out


def _resolve_budget(lattice_budget):
    return DEFAULT_SEARCH_LATTICE_BUDGET if lattice_budget is None else lattice_budget


def _seed_family(field, n, d, budget):
    """Largest known-by-construction family of diameter <= d (verified)."""
    t = d // 2
    if d % 2 == 0 or t + 1 > n or n < 1:
        fam = lower_layers(field, n, min(t, n), budget=budget)
    else:
        fam = canonical_double_ball(_first_line(field, n), t, budget=budget)
    ok, _ = diameter_at_most(fam, d)
    if not ok:
        raise AssertionError("seed construction violates the diameter bound")
    return fam


def max_diameter_family(q, n, d, enumerate_all=False, *, lattice_budget=None,
                        timeout_secs=DEFAULT_TIMEOUT_SECS,
                        witness_cap=DEFAULT_WITNESS_CAP,
                        structural_cap=True) -> SearchReport:
    """Exact maximum size of a diameter-<= d family, by exhaustive search.

    With enumerate_all, every maximum family is collected (up to the witness
    cap; the true count is always reported).  The search is sequential and
    deterministic.  timeout_secs runs from this call's entry, so building
    the index, the seed and the adjacency count against it.
    """
    start = time.monotonic()
    deadline = None if timeout_secs is None else start + timeout_secs
    budget = _resolve_budget(lattice_budget)
    total = lattice_size(q, n)
    if total > budget:
        raise BudgetExceeded(
            f"lattice (q={q}, n={n}) has {total} subspaces, search budget is "
            f"{budget}", would_be_count=total)
    field = field_new(q)
    index = build_index(field, n, budget=budget)
    seed = _seed_family(field, n, d, budget=None)
    seed_vertices = sorted(index.position(s) for s in seed)
    engine = _CliqueEngine(index, d, structural_cap=structural_cap)
    best, collected, count, nodes, timed_out = engine.search(
        seed_vertices=seed_vertices, collect_all=enumerate_all,
        witness_cap=witness_cap, deadline=deadline)
    elapsed_ms = int((time.monotonic() - start) * 1000)

    witnesses = _materialize_witnesses(index, collected, d)
    formula = None
    in_range = kleitman_in_range(n, d)
    if in_range:
        formula = kleitman_bound(n, d, q)
    bound_match = None if (formula is None or timed_out) else best == formula
    return SearchReport(
        q=q, n=n, d=d, family_class=None, optimum=best,
        witness_count=count, witnesses=witnesses, nodes_explored=nodes,
        elapsed_ms=elapsed_ms, proven_optimal=not timed_out,
        exhaustive=enumerate_all and not timed_out, timed_out=timed_out,
        bound_match=bound_match, formula_value=formula,
        in_hypothesis_range=in_range, greedy_seed_size=len(seed),
        witness_cap=witness_cap)


def _materialize_witnesses(index, collected, d):
    """Vertex lists -> families, each member pair re-verified by row elimination.

    Subspace.distance does not use the vector masks the search adjacency
    came from.  Witnesses share most of their pairs, so each distinct pair
    is met once; pairs whose dimension sum is at most d cannot be farther
    apart than d and are skipped.
    """
    field, n = index.field, index.n
    subspaces = index.subspaces
    slot = {v: i for i, v in enumerate(sorted(set().union(*collected)))}
    m = len(slot)
    verified = bytearray(m * m)
    witnesses = []
    for vertices in collected:
        # Index positions run layer by layer, so in descending order the
        # dimension sum only falls along each row of pairs.
        vertices = sorted(vertices, reverse=True)
        members = [subspaces[v] for v in vertices]
        slots = [slot[v] for v in vertices]
        for i, a in enumerate(members):
            row = slots[i] * m
            for b, col in zip(members[i + 1:], slots[i + 1:]):
                if a.dim + b.dim <= d:
                    break
                key = row + col
                if verified[key]:
                    continue
                if a.distance(b) > d:
                    raise AssertionError(
                        "search produced a witness violating the diameter "
                        f"bound: {(a, b)}")
                verified[key] = 1
        witnesses.append(SubspaceFamily(field, n, members))
    witnesses.sort(key=lambda f: tuple(s.sort_key() for s in f.members))
    return witnesses


# ---------------------------------------------------------------------------
# admissible search

def _admissible_seed(field, n, d, family_class, budget):
    """Best known-by-construction admissible family, if any."""
    t = d // 2
    if n < 1:
        return None
    x = _first_line(field, n)
    candidates = []
    if d % 2 == 0:
        if 1 <= t and t + 1 <= n:
            # radius-t ball around the line x
            candidates.append(
                lower_layers(field, n, t - 1, budget=None)
                .union(star(x, t, budget=None))
                .union(star(x, t + 1, budget=None)))
        if n == d + 1 and t >= 1:
            # mixed complementary split: lower layers below t, top layer n-t
            top = SubspaceFamily(field, n,
                                 list(enumerate_layer(field, n, n - t, budget=None)))
            candidates.append(lower_layers(field, n, t - 1, budget=None).union(top))
    else:
        if t + 2 <= n:
            gens = [[1 if j == i else 0 for j in range(n)]
                    for i in range(1, t + 2)]
            y = Subspace.from_generators(field, n, gens)
            candidates.append(extremal_odd_family(x, y, budget=None))
        if n == d + 1 and t >= 1:
            top = SubspaceFamily(field, n,
                                 list(enumerate_layer(field, n, n - t, budget=None)))
            candidates.append(lower_layers(field, n, t - 1, budget=None)
                              .union(top).union(star(x, t + 1, budget=None)))
    best = None
    for fam in candidates:
        ok, _ = diameter_at_most(fam, d)
        if not ok:
            continue
        rep = is_admissible(fam, family_class, t, budget=budget)
        if rep.admissible and (best is None or len(fam) > len(best)):
            best = fam
    return best


def max_admissible_family(q, n, d, family_class, enumerate_all=False, *,
                          lattice_budget=None,
                          timeout_secs=DEFAULT_TIMEOUT_SECS,
                          witness_cap=DEFAULT_WITNESS_CAP,
                          structural_cap=True) -> SearchReport:
    """Exact maximum size of an admissible diameter-bounded family.

    family_class is one of A_even, B_even (even d) or A_odd, B_odd (odd d).
    Every forbidden configuration of the class is an exclusion clause of
    the search; each witness is re-verified by is_admissible.  Below the
    stability theorems' hypothesis thresholds the result is reported as an
    observation, never asserted against the formulas.  timeout_secs runs
    from this call's entry, as in max_diameter_family.
    """
    start = time.monotonic()
    deadline = None if timeout_secs is None else start + timeout_secs
    even_class = family_class.endswith("even")
    if even_class != (d % 2 == 0):
        raise ParameterOutOfRange(
            f"class {family_class} needs {'even' if even_class else 'odd'} d, got {d}")
    t = d // 2
    budget = _resolve_budget(lattice_budget)
    total = lattice_size(q, n)
    if total > budget:
        raise BudgetExceeded(
            f"lattice (q={q}, n={n}) has {total} subspaces, search budget is "
            f"{budget}", would_be_count=total)
    field = field_new(q)
    index = build_index(field, n, budget=budget)
    engine = _CliqueEngine(index, d, family_class,
                           structural_cap=structural_cap)

    seed = _admissible_seed(field, n, d, family_class, budget=None)
    seed_vertices = None
    if seed is not None:
        seed_vertices = sorted(index.position(s) for s in seed)
    best, collected, count, nodes, timed_out = engine.search(
        seed_vertices=seed_vertices, collect_all=enumerate_all,
        witness_cap=witness_cap, deadline=deadline)
    elapsed_ms = int((time.monotonic() - start) * 1000)

    witnesses = _materialize_witnesses(index, collected, d)
    for fam in witnesses:
        rep = is_admissible(fam, family_class, t, budget=None)
        if not rep.admissible:
            raise AssertionError("search returned an inadmissible witness")

    formula = None
    in_range = None
    try:
        if family_class == "A_even":
            formula = type_a_even_bound(n, t, q)
            in_range = type_a_even_in_range(n, t)
        elif family_class == "B_even":
            formula = type_b_even_bound(n, t, q)
            in_range = type_b_even_in_range(n, t)
        else:
            formula = odd_stability_bound(n, t, q)
            in_range = odd_stability_in_range(n, t)
    except ParameterOutOfRange:
        formula = None
        in_range = False
    # Below the hypothesis threshold the optimum may legitimately exceed the
    # formula, so bound_match stays unset there; it is only recorded when
    # the tuple satisfies the theorem hypotheses.
    bound_match = None
    if formula is not None and in_range and not timed_out:
        bound_match = best <= formula
    return SearchReport(
        q=q, n=n, d=d, family_class=family_class, optimum=best,
        witness_count=count, witnesses=witnesses, nodes_explored=nodes,
        elapsed_ms=elapsed_ms, proven_optimal=not timed_out,
        exhaustive=enumerate_all and not timed_out, timed_out=timed_out,
        infeasible=(best == 0), bound_match=bound_match,
        formula_value=formula, in_hypothesis_range=in_range,
        greedy_seed_size=0 if seed is None else len(seed),
        witness_cap=witness_cap)


# ---------------------------------------------------------------------------
# characterization of equality families

def _classify_witness(fam, q, n, d, field):
    """Match one maximum family against the equality cases; None + reason
    when no case fits."""
    t = d // 2
    if n >= d + 2:
        if d % 2 == 0:
            if fam == lower_layers(field, n, t, budget=None):
                return "full_lower_layers", "union of layers 0..t"
            if fam == upper_layers(field, n, t, budget=None):
                return "full_upper_layers", "union of layers n-t..n"
            return None, "not a full lower/upper layer union"
        for label, probe in (("canonical_double_ball", fam),
                             ("canonical_double_ball_perp", perp_family(fam))):
            supp = probe.support
            if supp[0] == 0 and supp[-1] == t + 1:
                common = _common_subspace(probe.layer(t + 1))
                if common.dim >= 1:
                    x = _line_inside(common)
                    if probe == canonical_double_ball(x, t, budget=None):
                        return label, f"double ball at {x.to_token()}"
        return None, "not a canonical double ball or its perp"
    # boundary n = d + 1
    for k in range(t + 1):
        full_size = gauss_binom(n, k, q)
        a = len(fam.layer(k))
        b = len(fam.layer(n - k))
        if not ((a == full_size and b == 0) or (a == 0 and b == full_size)):
            return None, (f"layer pair ({k},{n - k}): sizes ({a},{b}) are not "
                          f"a full/empty split of {full_size}")
    if d % 2 == 1:
        mid = fam.layer(t + 1)
        expected = gauss_binom(n - 1, t, q)
        if len(mid) != expected:
            return None, (f"middle layer {t + 1} has size {len(mid)}, "
                          f"expected {expected}")
        if not is_s_intersecting(mid, 1):
            return None, f"middle layer {t + 1} is not 1-intersecting"
        return "boundary_split_odd", "complementary split + intersecting middle"
    return "boundary_split_even", "complementary split"


def verify_characterization(report: SearchReport):
    """Check that the witness set matches the equality characterization.

    Requires a complete enumeration whose optimum matched the bound formula.
    Returns (ok, diagnostics); diagnostics name the violated clause for any
    witness that fits no case, and the census mismatch if one side lost a
    family.
    """
    if not report.exhaustive:
        raise NotExhaustive("characterization needs an enumerate_all run")
    if report.witness_count != len(report.witnesses):
        raise NotExhaustive(
            f"witness cap truncated the enumeration "
            f"({report.witness_count} found, {len(report.witnesses)} kept)")
    if not report.bound_match:
        raise NotExhaustive("optimum does not match the bound formula")
    q, n, d = report.q, report.n, report.d
    field = field_new(q)
    t = d // 2
    ok = True
    diagnostics = []
    labels = []
    for i, fam in enumerate(report.witnesses):
        label, reason = _classify_witness(fam, q, n, d, field)
        labels.append(label)
        if label is None:
            ok = False
            diagnostics.append(f"witness {i}: VIOLATION: {reason}")
        else:
            diagnostics.append(f"witness {i}: {label} ({reason})")
    # census of the closed cases
    if n >= d + 2:
        if d % 2 == 0:
            expected = {lower_layers(field, n, t, budget=None),
                        upper_layers(field, n, t, budget=None)}
        else:
            expected = set()
            for x in enumerate_layer(field, n, 1, budget=None):
                fam = canonical_double_ball(x, t, budget=None)
                expected.add(fam)
                expected.add(perp_family(fam))
        found = set(report.witnesses)
        if found != expected:
            ok = False
            diagnostics.append(
                f"census mismatch: expected {len(expected)} canonical extremal "
                f"families, witness set has {len(found)}")
        else:
            diagnostics.append(
                f"census: all {len(expected)} canonical extremal families found")
    else:
        counts = Counter(label for label in labels if label)
        diagnostics.append("census at n = d+1: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
    return ok, diagnostics


# ---------------------------------------------------------------------------
# exact inequality sweeps

@dataclass(frozen=True)
class SweepRow:
    params: tuple
    lhs: int
    rhs: int
    relation: str
    passed: bool

    @property
    def margin(self) -> int:
        """Exact slack: how far the strict/weak inequality is from failing."""
        if self.relation == "<=":
            return self.rhs - self.lhs
        if self.relation == "<":
            return self.rhs - self.lhs - 1
        return self.lhs - self.rhs - 1  # ">"


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


def _compare(relation, lhs, rhs):
    if relation == "<=":
        return lhs <= rhs
    if relation == "<":
        return lhs < rhs
    return lhs > rhs


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
                    rows.append(SweepRow(params, lhs, rhs, "<=",
                                         _compare("<=", lhs, rhs)))
    return SweepReport("lemma26", rows)


def sweep_hm_positive(q_values=(2, 3), t_values=(2, 3, 4), n_max=40) -> SweepReport:
    """Positivity of the Hilton-Milner excess on its hypothesis range."""
    rows = []
    for q in q_values:
        for t in t_values:
            for n in range(5 * t + 3, n_max + 1):
                lhs = hilton_milner_bound(n, t + 1, q)
                params = (("q", q), ("t", t), ("n", n))
                rows.append(SweepRow(params, lhs, 0, ">",
                                     _compare(">", lhs, 0)))
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
                rows.append(SweepRow(params, lhs, rhs, "<",
                                     _compare("<", lhs, rhs)))
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
                rows.append(SweepRow(params, lhs, rhs, "<=",
                                     _compare("<=", lhs, rhs)))
    return SweepReport("type_ratio", rows)


SWEEPS = {
    "lemma26": sweep_lemma26,
    "hm-positive": sweep_hm_positive,
    "type-compare": sweep_type_compare,
    "type-ratio": sweep_type_ratio,
}


def run_sweep(name, **kwargs) -> SweepReport:
    if name not in SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; choose from {sorted(SWEEPS)}")
    return SWEEPS[name](**kwargs)
