import json
from types import SimpleNamespace

import pytest

import qdiam.oracle as oracle
from qdiam.errors import BudgetExceeded, NotExhaustive
from qdiam.families import (SubspaceFamily, diameter_at_most,
                            is_admissible, lower_layers, upper_layers)
from qdiam.gfq import SUPPORTED_ORDERS, field_new
from qdiam.grassmann import build_index, enumerate_layer
from qdiam.oracle import (_CliqueEngine, max_admissible_family,
                          max_diameter_family, run_sweep, sweep_hm_positive,
                          sweep_lemma26, sweep_type_compare, sweep_type_ratio,
                          verify_characterization)
from qdiam.qcount import kleitman_bound, type_a_even_bound
from qdiam.subspace import Subspace

F2 = field_new(2)


# -- maximum diameter families --------------------------------------------------

@pytest.mark.parametrize("q,n,d", [(2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2)])
def test_optimum_matches_kleitman(q, n, d):
    rep = max_diameter_family(q, n, d)
    assert rep.optimum == kleitman_bound(n, d, q)
    assert rep.bound_match is True
    assert rep.proven_optimal and not rep.timed_out
    assert rep.greedy_seed_size <= rep.optimum


def test_complete_graph_when_d_equals_n():
    rep = max_diameter_family(2, 3, 3)
    assert rep.optimum == 16
    assert rep.bound_match is None  # no formula applies at n = d


def test_witnesses_verified_independently():
    rep = max_diameter_family(2, 4, 3, enumerate_all=True)
    assert rep.witness_count == len(rep.witnesses) == 120
    for fam in rep.witnesses:
        assert len(fam) == rep.optimum
        ok, _ = diameter_at_most(fam, 3)
        assert ok


def test_enumerate_all_census_n_d_plus_2_even():
    rep = max_diameter_family(2, 4, 2, enumerate_all=True)
    assert rep.witness_count == 2
    expected = {lower_layers(F2, 4, 1), upper_layers(F2, 4, 1)}
    assert set(rep.witnesses) == expected


def test_enumerate_all_census_boundary():
    rep = max_diameter_family(2, 3, 2, enumerate_all=True)
    assert rep.witness_count == 4  # one side choice per complementary pair


def test_determinism():
    rep1 = max_diameter_family(2, 4, 3, enumerate_all=True)
    rep2 = max_diameter_family(2, 4, 3, enumerate_all=True)
    assert rep1.optimum == rep2.optimum
    assert rep1.nodes_explored == rep2.nodes_explored
    assert rep1.witnesses == rep2.witnesses


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded) as exc:
        max_diameter_family(2, 9, 2)
    assert exc.value.would_be_count is not None
    with pytest.raises(BudgetExceeded):
        max_diameter_family(2, 5, 2, lattice_budget=100)


def test_structural_cap_off_same_answer():
    for (q, n, d) in [(2, 3, 2), (2, 4, 3)]:
        with_cap = max_diameter_family(q, n, d, enumerate_all=True)
        without = max_diameter_family(q, n, d, enumerate_all=True,
                                      structural_cap=False)
        assert with_cap.optimum == without.optimum
        assert with_cap.witnesses == without.witnesses


def test_timeout_counts_setup(monkeypatch):
    # The fake clock moves only while the lattice index is built, so a
    # search whose budget setup has used up stops at its first node.
    now = [0.0]
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: now[0]))
    build = oracle.build_index

    def slow_build(*args, **kwargs):
        now[0] += 5.0
        return build(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_index", slow_build)
    for run in (lambda: max_diameter_family(2, 4, 3, timeout_secs=4.0),
                lambda: max_admissible_family(2, 4, 3, "A_odd", timeout_secs=4.0)):
        rep = run()
        assert rep.timed_out and not rep.proven_optimal
        assert rep.nodes_explored == 0
        assert rep.optimum == rep.greedy_seed_size
        assert rep.elapsed_ms == 5000
    rep = max_diameter_family(2, 4, 3, timeout_secs=6.0)
    assert not rep.timed_out and rep.optimum == 23


def test_timeout_reports_lower_bound():
    rep = max_diameter_family(2, 5, 3, enumerate_all=True, timeout_secs=0.0)
    assert rep.timed_out
    assert not rep.proven_optimal
    assert not rep.exhaustive
    assert rep.optimum >= 1  # seeded lower bound survives
    assert rep.bound_match is None


# -- characterization --------------------------------------------------------------

def test_characterization_all_four_tuples():
    for (q, n, d) in [(2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2)]:
        rep = max_diameter_family(q, n, d, enumerate_all=True)
        ok, diag = verify_characterization(rep)
        assert ok, diag


def test_characterization_census_n5():
    rep = max_diameter_family(2, 5, 2, enumerate_all=True)
    ok, diag = verify_characterization(rep)
    assert ok
    assert set(rep.witnesses) == {lower_layers(F2, 5, 1), upper_layers(F2, 5, 1)}


def test_characterization_requires_exhaustive():
    rep = max_diameter_family(2, 3, 2, enumerate_all=False)
    with pytest.raises(NotExhaustive):
        verify_characterization(rep)


def test_characterization_negative_control():
    rep = max_diameter_family(2, 4, 2, enumerate_all=True)
    # corrupt one witness: swap a member for one outside the family
    fam = rep.witnesses[0]
    outsider = next(s for s in enumerate_layer(F2, 4, 2)
                    if s not in fam)
    members = list(fam.members[:-1]) + [outsider]
    corrupted = SubspaceFamily(F2, 4, members)
    rep.witnesses[0] = corrupted
    ok, diag = verify_characterization(rep)
    assert not ok
    assert any("VIOLATION" in line for line in diag)


def test_characterization_witness_cap_truncation_detected():
    rep = max_diameter_family(2, 4, 3, enumerate_all=True, witness_cap=10)
    assert rep.witness_count == 120
    assert len(rep.witnesses) == 10
    with pytest.raises(NotExhaustive):
        verify_characterization(rep)


# -- admissible searches -------------------------------------------------------------

def test_admissible_a_odd_below_threshold():
    rep = max_admissible_family(2, 4, 3, "A_odd")
    assert rep.optimum == 23
    assert rep.formula_value == 23  # observation: equals the formula here
    assert rep.in_hypothesis_range is False
    assert rep.bound_match is None  # never asserted below threshold
    for fam in rep.witnesses:
        assert is_admissible(fam, "A_odd", 1).admissible


def test_admissible_a_even_below_threshold():
    rep = max_admissible_family(2, 5, 4, "A_even")
    assert rep.optimum == 187  # the mixed complementary splits are admissible
    assert rep.formula_value == type_a_even_bound(5, 2, 2)
    assert rep.optimum > rep.formula_value  # fine: n=5 is far below 7t+5
    assert rep.in_hypothesis_range is False


def test_admissible_b_even_small():
    rep = max_admissible_family(2, 4, 2, "B_even")
    assert rep.optimum == 8
    assert not rep.infeasible
    for fam in rep.witnesses:
        assert is_admissible(fam, "B_even", 1).admissible


def test_admissible_infeasible_class():
    # at n=2 every family lies inside B(0, line, 1): nothing is admissible
    rep = max_admissible_family(2, 2, 3, "B_odd")
    assert rep.optimum == 0
    assert rep.infeasible


def test_admissible_class_parity_checked():
    with pytest.raises(Exception):
        max_admissible_family(2, 4, 3, "A_even")


def test_admissible_enumerate_all_deterministic():
    rep1 = max_admissible_family(2, 4, 3, "A_odd", enumerate_all=True)
    rep2 = max_admissible_family(2, 4, 3, "A_odd", enumerate_all=True)
    assert rep1.witnesses == rep2.witnesses
    assert rep1.witness_count == rep2.witness_count
    # none of the witnesses is a canonical double ball or its perp
    for fam in rep1.witnesses:
        assert is_admissible(fam, "A_odd", 1).admissible


# -- report serialization --------------------------------------------------------------

def test_report_json_schema_fields():
    rep = max_diameter_family(2, 3, 2, enumerate_all=True)
    doc = json.loads(json.dumps(rep.to_json_dict()))
    assert doc["schema"] == "qdiam.search_report/1"
    assert doc["optimum"] == "8"
    assert isinstance(doc["optimum"], str)
    assert doc["parameters"] == {"q": 2, "n": 3, "d": 2, "family_class": None}
    assert doc["witness_count"] == 4
    assert len(doc["witnesses"]) == 4
    for w in doc["witnesses"]:
        assert w.startswith("family 2 3 8\n")
    assert doc["bound_match"] is True
    assert doc["proven_optimal"] is True
    assert isinstance(doc["nodes_explored"], int)
    assert isinstance(doc["elapsed_ms"], int)


# -- sweeps ------------------------------------------------------------------------------

def test_sweep_lemma26_reduced():
    rep = sweep_lemma26(q_values=(2, 3), k_max=8, n_max=24)
    assert rep.all_pass
    assert rep.tuple_count > 0
    assert all(r.margin >= 0 for r in rep.rows)


def test_sweep_hm_positive():
    rep = sweep_hm_positive(q_values=(2, 3), t_values=(2, 3, 4), n_max=40)
    assert rep.all_pass


def test_sweep_type_ratio_full_grid():
    rep = sweep_type_ratio(q_values=(2, 3), t_values=(2, 3))
    assert rep.all_pass


def test_sweep_type_compare_documents_low_n_failures():
    rep = sweep_type_compare(q_values=(2, 3), t_values=(2, 3))
    assert not rep.all_pass
    failing = {(dict(r.params)["q"], dict(r.params)["t"], dict(r.params)["n"])
               for r in rep.failures()}
    assert (2, 2, 12) in failing       # typeB(12,2,2) = 53320996 > 704170
    assert (2, 2, 19) not in failing   # large n: comparison holds
    # every row carries exact integer margins
    assert all(isinstance(r.lhs, int) and isinstance(r.rhs, int)
               for r in rep.rows)


def test_sweep_empty_grid_vacuous_pass():
    rep = sweep_lemma26(q_values=(), k_max=8, n_max=24)
    assert rep.all_pass
    assert rep.tuple_count == 0


def test_run_sweep_dispatch():
    assert run_sweep("hm-positive", q_values=(2,), t_values=(2,),
                     n_max=20).all_pass
    with pytest.raises(ValueError):
        run_sweep("unknown-sweep")


# -- independent brute-force cross-check of the engine -----------------------------

def _bruteforce_max_cliques(adj, nv):
    """Plain recursive clique enumeration: no coloring, no caps, no seeds."""
    best = 0
    collected = []

    def extend(clique, mask, start):
        nonlocal best, collected
        size = len(clique)
        if size > best:
            best = size
            collected = [list(clique)]
        elif size == best:
            collected.append(list(clique))
        for v in range(start, nv):
            if (mask >> v) & 1:
                clique.append(v)
                extend(clique, mask & adj[v], v + 1)
                clique.pop()

    extend([], (1 << nv) - 1, 0)
    width = max(len(c) for c in collected)
    return width, sorted(c for c in collected if len(c) == width)


@pytest.mark.parametrize("q,n,d", [(2, 3, 2), (2, 3, 3), (3, 3, 2)])
def test_engine_matches_plain_bruteforce(q, n, d):
    from qdiam.grassmann import build_index

    field = field_new(q)
    index = build_index(field, n)
    nv = index.size
    table = index.distance_table()
    adj = []
    for i in range(nv):
        mask = 0
        for j in range(nv):
            if j != i and table[i * nv + j] <= d:
                mask |= 1 << j
        adj.append(mask)
    brute_opt, brute_cliques = _bruteforce_max_cliques(adj, nv)

    rep = max_diameter_family(q, n, d, enumerate_all=True)
    assert rep.optimum == brute_opt
    engine_sets = sorted(sorted(index.position(s) for s in fam)
                         for fam in rep.witnesses)
    assert engine_sets == brute_cliques


def test_characterization_census_negative_control():
    # dropping one witness from a complete enumeration must break the census
    rep = max_diameter_family(2, 4, 2, enumerate_all=True)
    rep.witnesses = rep.witnesses[:-1]
    rep.witness_count = 1
    ok, diag = verify_characterization(rep)
    assert not ok
    assert any("census mismatch" in line for line in diag)


def test_enumerate_all_census_n5_d4_boundary_splits():
    # n = d+1 = 5 with d = 4 even: the 8 maximum families are exactly the
    # per-pair complementary side choices (2^3 splits of pairs (0,5),(1,4),(2,3))
    rep = max_diameter_family(2, 5, 4, enumerate_all=True)
    assert rep.optimum == 187
    assert rep.witness_count == 8
    ok, _ = verify_characterization(rep)
    assert ok
    from qdiam.qcount import gauss_binom
    for fam in rep.witnesses:
        for k in range(3):
            sizes = (len(fam.layer(k)), len(fam.layer(5 - k)))
            full = gauss_binom(5, k, 2)
            assert sizes in ((full, 0), (0, full))
    # distinct side-choice patterns
    patterns = {tuple(bool(fam.layer(k)) for k in range(6)) for fam in rep.witnesses}
    assert len(patterns) == 8


def test_oracle_q3_n4_within_default_budget():
    # the q=3, n=4 lattice (212 subspaces) also fits the default budget
    rep = max_diameter_family(3, 4, 2, enumerate_all=True)
    assert rep.optimum == kleitman_bound(4, 2, 3) == 41
    ok, _ = verify_characterization(rep)
    assert ok and rep.witness_count == 2

    rep = max_diameter_family(3, 4, 3, enumerate_all=True)
    assert rep.optimum == kleitman_bound(4, 3, 3) == 54
    ok, _ = verify_characterization(rep)
    assert ok
    # boundary census: 4 complementary splits x 80 maximum 1-intersecting
    # middle layers (40 stars + 40 hyperplane families)
    assert rep.witness_count == 320
    stars = duals = 0
    for fam in rep.witnesses:
        mid = fam.layer(2)
        common = mid[0]
        hull = mid[0]
        for s in mid[1:]:
            common = common.intersect(s)
            hull = hull.sum(s)
        is_star = common.dim >= 1
        is_dual = hull.dim <= 3
        assert is_star != is_dual  # exactly one structure each, never both
        stars += is_star
        duals += is_dual
    assert stars == 160 and duals == 160


# -- meet kernel against the row-elimination distance table ------------------------

# Every lattice with q^n <= 243 and n <= 5; all but (3, 5) have at most 374
# vertices, few enough for the quadratic reference loops below.
SMALL_LATTICES = [(q, n) for q in SUPPORTED_ORDERS for n in range(6)
                  if q ** n <= 243]
DESK_LATTICES = [(q, n) for q, n in SMALL_LATTICES if (q, n) != (3, 5)]


def _ball_mask(index, center, radius):
    return index.ball(index.position(center), radius)


def _table_ball(table, nv, i, radius):
    """Vertex mask of row i of the byte distance table, thresholded at radius."""
    digits = bytes(ord("1") if x <= radius else ord("0") for x in range(256))
    return int(table[i * nv:(i + 1) * nv].translate(digits)[::-1], 2)


def _degeneracy_order_by_scan(adj, nv):
    """The full alive-set scan the bucket queue replaced, kept as reference."""
    alive = (1 << nv) - 1
    degree = [(adj[v] & alive).bit_count() for v in range(nv)]
    order = []
    for _ in range(nv):
        bestv = -1
        bestdeg = nv + 1
        rest = alive
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            if degree[v] < bestdeg:
                bestdeg = degree[v]
                bestv = v
        order.append(bestv)
        alive ^= 1 << bestv
        neigh = adj[bestv] & alive
        while neigh:
            b = neigh & -neigh
            u = b.bit_length() - 1
            neigh ^= b
            degree[u] -= 1
    return order


@pytest.mark.parametrize("q,n", SMALL_LATTICES)
def test_engine_adjacency_matches_distance_table(q, n):
    index = build_index(field_new(q), n, budget=None)
    nv = index.size
    table = index.distance_table()
    for d in range(n + 1):
        expected = [_table_ball(table, nv, i, d) ^ (1 << i) for i in range(nv)]
        assert _CliqueEngine(index, d).adj == expected


@pytest.mark.parametrize("q,n", DESK_LATTICES)
def test_degeneracy_order_matches_full_scan(q, n):
    index = build_index(field_new(q), n)
    for d in range(n + 1):
        engine = _CliqueEngine(index, d)
        assert engine._degeneracy_order() == _degeneracy_order_by_scan(engine.adj, index.size)


@pytest.mark.parametrize("q,n", DESK_LATTICES)
def test_ball_mask_matches_distance_table_rows(q, n):
    index = build_index(field_new(q), n)
    nv = index.size
    table = index.distance_table()
    for radius in range(-1, n + 2):
        for i, center in enumerate(index.subspaces):
            assert _ball_mask(index, center, radius) == _table_ball(table, nv, i, radius)


def test_engine_memory_budget_checked_before_allocation(monkeypatch):
    index = build_index(F2, 3)
    need = (16 * 16 + 16 * 2 ** 3 + 7) // 8
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded) as exc:
        _CliqueEngine(index, 2)
    assert exc.value.would_be_count == need
    assert index._masks is None
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need)
    assert len(_CliqueEngine(index, 2).adj) == 16


# Clauses of each class on F_2^3: the two canonical balls; two per line;
# one ball per subspace; and one double ball per cover pair, 7 lines over 0,
# 3 planes over each of the 7 lines and F_2^3 over each of the 7 planes.
@pytest.mark.parametrize("family_class,d,clauses",
                         [("A_even", 2, 2), ("A_odd", 3, 14),
                          ("B_even", 2, 16), ("B_odd", 1, 35)])
def test_clause_memory_budget_checked_before_allocation(monkeypatch, family_class,
                                                        d, clauses):
    index = build_index(F2, 3)
    need = (16 * 16 + 16 * 2 ** 3 + 2 * clauses * 16 + 7) // 8
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded) as exc:
        _CliqueEngine(index, d, family_class)
    assert exc.value.would_be_count == need
    assert index._masks is None
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need)
    assert len(_CliqueEngine(index, d, family_class).forbidden) == clauses


# -- per-vertex clause index against the full clause scan --------------------------

class _FullScanEngine(_CliqueEngine):
    """The engine with every node testing every clause, kept as reference."""

    def _expand(self, plist, cand, used, alive=0):
        self.nodes += 1
        union = cand
        for v in plist:
            union |= 1 << v
        for fm in self.forbidden:
            if union & ~fm == 0:
                return
        need = self.best if self.collect_all else self.best + 1
        if self._group_bound(len(plist), used, cand) < need:
            return
        if not cand:
            self._record(plist)
            return
        order, bounds = self._color_order(cand)
        cur = cand
        psize = len(plist)
        for i in range(len(order) - 1, -1, -1):
            need = self.best if self.collect_all else self.best + 1
            if psize + bounds[i] < need:
                return
            v = order[i]
            gi = self.group_of_layer[self.layer_of[v]]
            plist.append(v)
            used[gi] += 1
            self._expand(plist, cur & self.adj[v], used)
            used[gi] -= 1
            plist.pop()
            cur ^= 1 << v


def _search_with(monkeypatch, engine_cls, q, n, d, family_class, enumerate_all):
    """One search on an engine of engine_cls; returns the report and engine."""
    engines = []

    class Recording(engine_cls):
        def search(self, **kwargs):
            engines.append(self)
            return super().search(**kwargs)

    monkeypatch.setattr(oracle, "_CliqueEngine", Recording)
    if family_class is None:
        rep = max_diameter_family(q, n, d, enumerate_all)
    else:
        rep = max_admissible_family(q, n, d, family_class, enumerate_all)
    return rep, engines[0]


# --all doubles or more the nodes of these; they run without it.
_COSTLY_ALL = {(3, 4, 1, "B_odd"), (3, 4, 2, "A_even"), (3, 4, 2, "B_even"),
               (3, 4, 3, None), (3, 4, 3, "A_odd"), (3, 4, 3, "B_odd"),
               (2, 5, 2, "B_even")}
CLAUSE_CASES = [(q, n, d, cls) for q in (2, 3) for n in range(2, 5)
                for d in range(1, n)
                for cls in ((None, "A_even", "B_even") if d % 2 == 0
                            else (None, "A_odd", "B_odd"))] + [(2, 5, 2, "B_even")]


@pytest.mark.parametrize("q,n,d,family_class", CLAUSE_CASES)
def test_clause_index_matches_full_scan(monkeypatch, q, n, d, family_class):
    enumerate_all = (q, n, d, family_class) not in _COSTLY_ALL
    ref, ref_engine = _search_with(monkeypatch, _FullScanEngine, q, n, d,
                                   family_class, enumerate_all)
    rep, engine = _search_with(monkeypatch, _CliqueEngine, q, n, d,
                               family_class, enumerate_all)
    assert rep.optimum == ref.optimum
    assert rep.nodes_explored == ref.nodes_explored
    assert rep.witness_count == ref.witness_count
    assert rep.witnesses == ref.witnesses
    assert engine.forbidden == ref_engine.forbidden
    if family_class is None:
        assert engine.clause_of is None  # no clauses, no index


# -- static clauses against clauses learned at the leaves ---------------------------

def _forbidden_mask_from_report(index, report, t):
    """Vertex mask of the configuration named by an admissibility report."""
    field, n = index.field, index.n
    zero = Subspace.zero(field, n)
    full = Subspace.full(field, n)
    kind = report.witness_kind
    if kind == "lower_layers":
        return _ball_mask(index, zero, t)
    if kind == "upper_layers":
        return _ball_mask(index, full, t)
    if kind == "ball":
        return _ball_mask(index, report.witness_centers[0], t)
    if kind == "canonical_double_ball":
        x = report.witness_centers[0]
        return _ball_mask(index, zero, t) | _ball_mask(index, x, t)
    if kind == "canonical_double_ball_perp":
        x = report.witness_centers[0]
        return _ball_mask(index, full, t) | _ball_mask(index, x.perp(), t)
    if kind == "double_ball":
        c1, c2 = report.witness_centers
        return _ball_mask(index, c1, t) | _ball_mask(index, c2, t)
    raise AssertionError(f"unexpected witness kind {kind!r}")


class _LazyEngine(_FullScanEngine):
    """Clauses learned at the leaves, kept as reference for the static ones.

    Only the canonical A-class configurations start as clauses.  Every
    record candidate is rebuilt as a family and checked by is_admissible;
    a rejected one is not recorded, and the configuration that contains it
    becomes a new clause.
    """

    def __init__(self, index, d, family_class=None, structural_cap=True):
        static = family_class if family_class in ("A_even", "A_odd") else None
        super().__init__(index, d, static, structural_cap=structural_cap)
        self.family_class = family_class

    def _record(self, plist):
        if self.family_class is not None and len(plist) >= self.best:
            index, t = self.index, self.d // 2
            fam = SubspaceFamily(index.field, index.n,
                                 [index.subspaces[v] for v in plist])
            rep = is_admissible(fam, self.family_class, t, budget=None)
            if not rep.admissible:
                self.forbidden.append(_forbidden_mask_from_report(index, rep, t))
                return
        super()._record(plist)


@pytest.mark.parametrize("q,n,d,family_class", CLAUSE_CASES)
def test_static_clauses_match_lazy_learning(monkeypatch, q, n, d, family_class):
    enumerate_all = (q, n, d, family_class) not in _COSTLY_ALL
    ref, _ = _search_with(monkeypatch, _LazyEngine, q, n, d, family_class,
                          enumerate_all)
    rep, _ = _search_with(monkeypatch, _CliqueEngine, q, n, d, family_class,
                          enumerate_all)
    assert rep.optimum == ref.optimum
    assert rep.witness_count == ref.witness_count
    assert rep.witnesses == ref.witnesses
    assert rep.nodes_explored <= ref.nodes_explored


@pytest.mark.parametrize("q,n,d,family_class",
                         [(3, 4, 1, "B_odd"), (2, 4, 2, "B_even")])
def test_search_makes_no_admissibility_check(monkeypatch, q, n, d, family_class):
    # is_admissible runs on the seed candidates and on the reported
    # witnesses only; no search node builds a family.
    phase = ["setup"]
    calls = []

    def in_phase(name, fn):
        def run(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "after " + name
        return run

    def counted(name, fn):
        def run(*args, **kwargs):
            calls.append((name, phase[0]))
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(oracle, "_admissible_seed",
                        in_phase("seed", oracle._admissible_seed))
    monkeypatch.setattr(_CliqueEngine, "search",
                        in_phase("search", _CliqueEngine.search))
    monkeypatch.setattr(oracle, "is_admissible",
                        counted("is_admissible", oracle.is_admissible))
    monkeypatch.setattr(oracle, "SubspaceFamily",
                        counted("SubspaceFamily", oracle.SubspaceFamily))
    rep = max_admissible_family(q, n, d, family_class)
    assert ("is_admissible", "search") not in calls
    assert ("SubspaceFamily", "search") not in calls
    assert calls.count(("is_admissible", "after search")) == len(rep.witnesses)
    if family_class == "B_odd":
        assert rep.optimum == 0 and rep.infeasible
    else:
        assert rep.optimum == 8 and len(rep.witnesses) == 1


# -- witness re-verification ---------------------------------------------------------

def test_materialize_rejects_planted_far_pair():
    index = build_index(F2, 4)
    rep = max_diameter_family(2, 4, 3, enumerate_all=True)
    collected = [[index.position(s) for s in fam] for fam in rep.witnesses]
    assert oracle._materialize_witnesses(index, collected, 3) == rep.witnesses
    # Every outsider of a maximum family is farther than d from one of its
    # members; the pairs met for the 120 true witnesses must not hide that.
    first = collected[0]
    for v in range(index.size):
        if v not in first:
            with pytest.raises(AssertionError, match="violating the diameter bound"):
                oracle._materialize_witnesses(index, collected + [first + [v]], 3)


def test_materialize_skips_pairs_within_dimension_sum(monkeypatch):
    index = build_index(F2, 4)
    _, hi = index.layer_range(1)
    calls = []
    monkeypatch.setattr(Subspace, "rank_with",
                        lambda self, other: calls.append(other) or 0)
    (fam,) = oracle._materialize_witnesses(index, [list(range(hi))], 2)
    assert fam == lower_layers(F2, 4, 1)
    assert calls == []
