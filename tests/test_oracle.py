import json
import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

import qdiam.oracle as oracle
from qdiam.errors import BudgetExceeded
from qdiam.families import (SubspaceFamily, ball, canonical_double_ball,
                            diameter_at_most, extremal_odd_family,
                            is_admissible, is_s_intersecting, lower_layers,
                            perp_family, star, upper_layers)
from qdiam.gfq import SUPPORTED_ORDERS, field_new
from qdiam.grassmann import (LatticeIndex, build_index, enumerate_layer,
                             lattice_size)
from qdiam.oracle import (SearchReport, _CliqueEngine, max_admissible_family,
                          max_diameter_family, sweep_hm_positive,
                          sweep_lemma26, sweep_type_compare, sweep_type_ratio,
                          verify_characterization)
from qdiam.qcount import gauss_binom, kleitman_bound, type_a_even_bound
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


# Every (q, n, d) with n <= 4 and d < n in every class, and plain (2, 5, d);
# at d >= n the graph is complete and no cap applies.
CAP_CASES = [(q, n, d, cls) for q in (2, 3) for n in range(1, 5)
             for d in range(n)
             for cls in ((None, "A_even", "B_even") if d % 2 == 0
                         else (None, "A_odd", "B_odd"))] + [
    (2, 5, d, None) for d in range(5)]


class _NoCapEngine(_CliqueEngine):
    """The engine with every layer pair capped by its own size, so the
    group bound is the popcount of cand | clique and the search uses no
    theorem; kept as the reference the caps are tested against."""

    def __init__(self, index, d, family_class=None):
        super().__init__(index, d, family_class)
        self.groups = [(mask, mask.bit_count()) for mask, _ in self.groups]


def test_structural_cap_off_same_answer(monkeypatch):
    # The layer-pair caps must find the same optimum and witnesses as the
    # reference without caps, and never explore more nodes.
    for q, n, d, family_class in CAP_CASES:
        enumerate_all = (q, n, d, family_class) not in _COSTLY_ALL
        with_cap, without = (
            _search_with(monkeypatch, engine_cls, q, n, d, family_class,
                         enumerate_all)[0]
            for engine_cls in (_CliqueEngine, _NoCapEngine))
        case = (q, n, d, family_class)
        assert with_cap.optimum == without.optimum, case
        assert with_cap.witness_count == without.witness_count, case
        assert with_cap.witnesses == without.witnesses, case
        assert with_cap.nodes_explored <= without.nodes_explored, case


@pytest.mark.parametrize("q,n,d,caps", [
    (3, 4, 3, [1, 40, 13]),        # middle: ekr_bound(4, 2, 1, 3), not 130
    (2, 6, 3, [1, 63, 62, 15]),    # (2, 4): 31 + 31; middle: ekr_bound(6, 3, 2, 2)
    (2, 6, 5, [1, 63, 651, 155]),  # middle: ekr_bound(6, 3, 1, 2), not 1395
    (2, 4, 4, [2, 30, 35]),        # d >= n: no cap holds, each is its size
    (3, 3, 5, [2, 26]),
])
def test_group_caps_use_ekr_bound(q, n, d, caps):
    index = build_index(field_new(q), n, budget=None)
    engine = _CliqueEngine(index, d)
    assert [cap for _, cap in engine.groups] == caps
    assert sum(mask.bit_count() for mask, _ in engine.groups) == index.size
    for v, s in enumerate(index.subspaces):
        mask, _ = engine.groups[min(s.dim, n - s.dim)]
        assert mask >> v & 1
    reference = _NoCapEngine(index, d)
    assert ([mask for mask, _ in reference.groups]
            == [mask for mask, _ in engine.groups])
    assert all(cap == mask.bit_count() for mask, cap in reference.groups)


# The clique-search and lattice-frontier benchmark jobs, README's counts and
# three (2, 6) class searches whose time is mostly the clauses: (q, n, d,
# class, --all, optimum, witness_count, nodes_explored).  The
# reference engines in this file share _group_bound with the production
# search, so only fixed numbers catch a pruning slip they share.
PINNED_SEARCHES = [
    (3, 4, 3, None, True, 54, 320, 1550),
    (2, 5, 3, None, True, 47, 62, 687),
    (2, 5, 2, "B_even", False, 8, 1, 606),
    (3, 4, 2, "B_even", False, 14, 1, 4108),
    (3, 4, 2, "A_even", False, 15, 1, 3664),
    (2, 6, 3, None, False, 95, 1, 6),
    (3, 5, 2, None, False, 122, 1, 3),
    (2, 6, 2, "B_even", False, 8, 1, 13807),
    (2, 5, 3, "A_odd", False, 39, 1, 9009),
    (2, 5, 3, "B_odd", False, 39, 1, 9009),
    (3, 5, 2, "B_even", False, 14, 1, 15565),
    (3, 5, 4, None, True, 1332, 8, 2722),
    (2, 6, 5, "B_odd", False, 870, 1, 4),
    (2, 6, 1, "B_odd", False, 0, 0, 21),
    (2, 6, 3, "A_odd", False, 71, 1, 61426),
]


@pytest.mark.parametrize("q,n,d,family_class,enumerate_all,optimum,count,nodes",
                         PINNED_SEARCHES)
def test_search_counts_are_pinned(q, n, d, family_class, enumerate_all,
                                  optimum, count, nodes):
    rep = max_admissible_family(q, n, d, family_class, enumerate_all)
    assert rep.proven_optimal
    assert (rep.optimum, rep.witness_count, rep.nodes_explored) == (
        optimum, count, nodes)


# B_even at d = 2 (t = 1), where the paper states no bound: (q, n,
# nodes_explored).  Each proven optimum is q^2 + q + 2, an observation on
# these lattices, not a theorem (docs/decisions.md, "B_even at d = 2:
# every proven optimum is q² + q + 2").
B_EVEN_AT_D2 = [(2, 6, 13807), (3, 5, 15565), (4, 4, 47950), (5, 4, 341486)]


@pytest.mark.parametrize("q,n,nodes", B_EVEN_AT_D2)
def test_b_even_optimum_at_d2_is_q2_plus_q_plus_2(q, n, nodes):
    rep = max_admissible_family(q, n, 2, "B_even")
    assert rep.proven_optimal
    assert (rep.optimum, rep.nodes_explored) == (q * q + q + 2, nodes)


def test_ekr_caps_prove_the_boundary_at_the_root():
    # (2, 6, 5): the root bound 1 + 63 + 651 + 155 is the seed's 870, so
    # each of the 6//2 + 1 root subproblems dies at its first node.
    rep = max_diameter_family(2, 6, 5)
    assert rep.optimum == rep.greedy_seed_size == 870
    assert rep.proven_optimal and rep.bound_match
    assert rep.nodes_explored == 4


@pytest.mark.parametrize("q,n,d", [(2, 6, 6), (3, 5, 5)])
def test_whole_lattice_seed_at_d_at_least_n(q, n, d):
    # at d >= n every pair is within d, so the seed is the whole lattice
    # and the search proves it at once
    rep = max_diameter_family(q, n, d)
    assert rep.optimum == rep.greedy_seed_size == lattice_size(q, n)
    assert rep.proven_optimal


def test_search_deeper_than_the_recursion_limit():
    # (3, 5, 4) --all: each of the 8 maximum families has 1332 members, more
    # than Python's recursion limit.  The explicit stack holds one frame per
    # branching level: at every recorded clique the vertex each frame is
    # trying is a distinct member, and the forced members have no frame, so
    # the stack is at most 16 frames deep.
    index = build_index(field_new(3), 5)
    seed = oracle._seed_family(index, 4)
    depths = []

    class StackEngine(_CliqueEngine):
        def _record(self, plist):
            stack = sys._getframe(1).f_locals["stack"]  # the search's own
            branched = {order[i] for order, _, i, *_ in stack}
            assert len(branched) == len(stack) and branched <= set(plist)
            depths.append(len(stack))
            super()._record(plist)

    best, collected, count, _, timed_out = StackEngine(index, 4).search(
        seed_vertices=seed, collect_all=True)
    assert best == 1332 > sys.getrecursionlimit()
    assert count == len(collected) == 8 and not timed_out
    assert max(depths) == 16


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


def test_elapsed_counts_the_work_after_the_search(monkeypatch):
    # The fake clock moves only while the witnesses are re-verified, after
    # the search: the run is not timed out, but its elapsed time shows it.
    now = [0.0]
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: now[0]))
    materialize = oracle._materialize_witnesses

    def slow_materialize(*args, **kwargs):
        now[0] += 5.0
        return materialize(*args, **kwargs)

    monkeypatch.setattr(oracle, "_materialize_witnesses", slow_materialize)
    rep = max_diameter_family(2, 4, 3, timeout_secs=4.0)
    assert not rep.timed_out and rep.optimum == 23
    assert rep.elapsed_ms == 5000


def test_timeout_reports_lower_bound():
    rep = max_diameter_family(2, 5, 3, enumerate_all=True, timeout_secs=0.0)
    assert rep.timed_out
    assert not rep.proven_optimal
    assert not rep.exhaustive
    assert rep.optimum >= 1  # seeded lower bound survives
    assert rep.bound_match is None


# -- characterization --------------------------------------------------------------

def _characterize(report):
    """The characterization of any report on a fresh lattice index, one
    position lookup per member, then the core: the reference for the
    driver's own fields, and the path of synthetic and corrupted reports."""
    index = build_index(field_new(report.q), report.n)
    witnesses = [[index.position(s) for s in fam] for fam in report.witnesses]
    return verify_characterization(index, report.d, witnesses)


def test_characterization_all_four_tuples():
    for (q, n, d) in [(2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2)]:
        rep = max_diameter_family(q, n, d, enumerate_all=True)
        assert rep.characterization_match is True, rep.characterization_diagnostics


def test_characterization_census_n5():
    rep = max_diameter_family(2, 5, 2, enumerate_all=True)
    assert rep.characterization_match is True
    assert set(rep.witnesses) == {lower_layers(F2, 5, 1), upper_layers(F2, 5, 1)}


def test_characterization_requires_exhaustive():
    # neither an optimum search nor a timed-out enumeration is characterized
    for rep in (max_diameter_family(2, 3, 2, enumerate_all=False),
                max_diameter_family(2, 5, 3, enumerate_all=True,
                                    timeout_secs=0.0)):
        assert not rep.exhaustive
        assert rep.characterization_match is None
        assert rep.characterization_diagnostics is None


# The criterion-2 tuples and the two --all jobs of the clique-search workload.
DIFFERENTIAL = [(2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2), (2, 5, 3),
                (3, 4, 3)]


@pytest.mark.parametrize("q,n,d", DIFFERENTIAL)
def test_driver_characterization_matches_a_rebuilt_index(q, n, d):
    # The driver keys witnesses by the search's vertex lists; a rebuilt
    # index with one position lookup per member must read the same.
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    assert rep.characterization_match is True
    assert ((rep.characterization_match, rep.characterization_diagnostics)
            == _characterize(rep))


def test_characterization_negative_control():
    rep = max_diameter_family(2, 4, 2, enumerate_all=True)
    # corrupt one witness: swap a member for one outside the family
    fam = rep.witnesses[0]
    outsider = next(s for s in enumerate_layer(F2, 4, 2)
                    if s not in fam)
    members = list(fam.members[:-1]) + [outsider]
    corrupted = SubspaceFamily(F2, 4, members)
    rep.witnesses[0] = corrupted
    ok, diag = _characterize(rep)
    assert not ok
    assert any("VIOLATION" in line for line in diag)


def test_characterization_witness_cap_truncation_detected():
    rep = max_diameter_family(2, 4, 3, enumerate_all=True, witness_cap=10)
    assert rep.witness_count == 120
    assert len(rep.witnesses) == 10
    assert rep.bound_match is True
    assert rep.characterization_match is None
    assert rep.characterization_diagnostics == [
        "not characterized: witness cap 10 kept 10 of 120 witnesses"]


def test_capped_all_keeps_witnesses_of_the_full_set():
    full = max_diameter_family(2, 5, 3, enumerate_all=True)
    capped = max_diameter_family(2, 5, 3, enumerate_all=True, witness_cap=10)
    assert full.witness_count == len(full.witnesses) == 62
    assert capped.witness_count == 62
    assert len(set(capped.witnesses)) == len(capped.witnesses) == 10
    assert set(capped.witnesses) <= set(full.witnesses)


@pytest.mark.parametrize("q,n,d,family_class,count", [
    (2, 4, 3, None, 120),     # the seed is a maximum family
    (2, 5, 3, None, 62),
    (2, 4, 2, "B_even", 60),  # no seed: the search finds the first maximum
])
def test_witness_cap_zero_reports_true_count(q, n, d, family_class, count):
    rep = max_admissible_family(q, n, d, family_class, enumerate_all=True,
                                witness_cap=0)
    assert rep.exhaustive and rep.bound_match is not False
    assert rep.witness_count == count
    assert rep.witnesses == []


def test_witness_cap_zero_on_timeout_keeps_no_seed():
    rep = max_diameter_family(2, 5, 3, enumerate_all=True, timeout_secs=0.0,
                              witness_cap=0)
    assert rep.timed_out and rep.optimum == rep.greedy_seed_size
    assert rep.witness_count == 1 and rep.witnesses == []


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


@pytest.mark.parametrize("d,family_class,optimum",
                         [(1, "A_odd", 1), (1, "B_odd", 1),
                          (2, "A_even", 0), (2, "B_even", 0)])
def test_admissible_zero_ambient_dimension(d, family_class, optimum):
    # F_q^0 is the zero space alone: without lines or cover pairs A_odd and
    # B_odd forbid nothing, while {0} lies in the radius-1 ball around 0
    # that A_even and B_even forbid.
    rep = max_admissible_family(2, 0, d, family_class)
    assert rep.optimum == optimum
    assert rep.infeasible == (optimum == 0)
    for fam in rep.witnesses:
        assert is_admissible(fam, family_class, d // 2).admissible


@pytest.mark.parametrize("d,family_class,optimum,nodes",
                         [(5, "A_odd", 870, 4), (5, "B_odd", 870, 4),
                          (2, "A_even", 33, None)])
def test_admissible_boundary_proven(d, family_class, optimum, nodes):
    # n = d+1 at (2, 6): the EKR caps prove the admissible optimum; at d = 5
    # every root subproblem dies at its first node, as in the plain search.
    rep = max_admissible_family(2, 6, d, family_class)
    assert rep.optimum == optimum
    assert rep.proven_optimal and not rep.timed_out
    if nodes is not None:
        assert rep.nodes_explored == nodes
    for fam in rep.witnesses:
        assert is_admissible(fam, family_class, d // 2).admissible


@pytest.mark.parametrize("family_class", ["A_even", "B_even"])
def test_admissible_seed_takes_a_layer_with_the_whole_space(family_class):
    # 2t < n <= 3t: a t-space is n-t <= 2t from F_q^n, so layer t with
    # F_q^n has diameter <= 2t; at (2, 6, 4) it has 651 + 1 members, where
    # the one candidate before, the radius-2 ball around a line, has 250
    # and is not B_even-admissible
    index = build_index(F2, 6)
    seed = SubspaceFamily(F2, 6, map(index.subspace,
                                     oracle._admissible_seed(index, 4,
                                                             family_class)))
    assert len(seed) == 652
    assert seed == SubspaceFamily(
        F2, 6, list(enumerate_layer(F2, 6, 2)) + [Subspace.full(F2, 6)])
    assert is_admissible(seed, family_class, 2).admissible
    assert is_admissible(perp_family(seed), family_class, 2).admissible


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


def _token_from_rows(s):
    rows = ",".join("".join(format(e, "x") for e in row) for row in s.rows)
    return f"{s.field.q}:{s.n}:{len(s.rows)}:{rows}"


@pytest.mark.parametrize("q,n,d", [(3, 4, 3), (2, 5, 3)])
def test_witness_files_spell_each_member_from_its_rows(q, n, d):
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    files = rep.to_json_dict()["witnesses"]
    assert len(files) == len(rep.witnesses) == rep.witness_count
    for text, fam in zip(files, rep.witnesses):
        assert text.splitlines() == [f"family {q} {n} {len(fam)}"] + [
            _token_from_rows(s) for s in fam.members]


def test_report_formats_each_lattice_vertex_once(monkeypatch):
    # The witnesses hold the index's own subspaces, 17,280 members over
    # 320 witnesses of (3,4,3), but at most the 212 subspaces of the
    # lattice; each is formatted once, so every later call returns the
    # string object its first call made.
    rep = max_diameter_family(3, 4, 3, enumerate_all=True)
    tokens = []
    to_token = Subspace.to_token

    def kept(self):
        tokens.append(to_token(self))
        return tokens[-1]

    monkeypatch.setattr(Subspace, "to_token", kept)
    rep.to_json_dict()
    assert len(tokens) == sum(len(fam) for fam in rep.witnesses) == 17280
    assert len({id(t) for t in tokens}) <= lattice_size(3, 4)


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
    ok, diag = _characterize(rep)
    assert not ok
    assert any("census mismatch" in line for line in diag)


def test_enumerate_all_census_n5_d4_boundary_splits():
    # n = d+1 = 5 with d = 4 even: the 8 maximum families are exactly the
    # per-pair complementary side choices (2^3 splits of pairs (0,5),(1,4),(2,3))
    rep = max_diameter_family(2, 5, 4, enumerate_all=True)
    assert rep.optimum == 187
    assert rep.witness_count == 8
    assert rep.characterization_match is True
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
    assert rep.characterization_match is True and rep.witness_count == 2

    rep = max_diameter_family(3, 4, 3, enumerate_all=True)
    assert rep.optimum == kleitman_bound(4, 3, 3) == 54
    assert rep.nodes_explored < 10_000  # 61,826 without the EKR middle cap 13
    assert rep.characterization_match is True
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


def _build_every_row(engine):
    """Build every non-neighbour row of an engine, as its search may not."""
    full = (1 << engine.nv) - 1
    engine._build(full)
    assert engine.built == full


def _adjacency(engine):
    """Adjacency rows of an engine, from its non-neighbour masks, every row
    built first."""
    _build_every_row(engine)
    full = (1 << engine.nv) - 1
    return [full ^ m ^ (1 << i) for i, m in enumerate(engine.non)]


def _color_order_by_scan(adj, cand):
    """Greedy coloring of every candidate over adjacency rows, with no
    candidate forced: the kernel the non-neighbour masks replaced; kept as
    reference."""
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


def _popcount_ball(index, masks, i, radius):
    """The per-pair vector-mask popcount ball the line counters replaced;
    masks[v] is the vector mask of vertex v."""
    n = index.n
    q = index.field.q
    a = index.subspaces[i].dim
    mi = masks[i]
    out = 0
    for b, (lo, hi) in index.layer_bounds.items():
        s = (a + b - radius + 1) // 2
        if s <= max(0, a + b - n):
            out |= (1 << hi) - (1 << lo)
        elif s <= min(a, b):
            thr = q ** s
            bits = "".join(["1" if (mi & m).bit_count() >= thr else "0"
                            for m in masks[lo:hi]])
            out |= int(bits[::-1], 2) << lo
    return out


@pytest.mark.parametrize("q,n", SMALL_LATTICES + [(2, 6)])
def test_ball_matches_popcount_reference(q, n):
    index = build_index(field_new(q), n, budget=None)
    masks = [s.vector_mask() for s in index.subspaces]
    for radius in range(-1, n + 2):
        for i in range(index.size):
            assert index.ball(i, radius) == _popcount_ball(index, masks, i,
                                                           radius)


@pytest.mark.parametrize("q", [2, 3])
def test_b_even_clause_list_is_its_own_index(q):
    # B_even's clause v is the ball around v itself, the ball a root at v
    # gathers its clauses from, so the engine keeps no second copy of it.
    engine = _CliqueEngine(build_index(field_new(q), 4), 2, "B_even")
    assert len(engine.forbidden) == len(engine.centred) == engine.nv
    for v, clause in enumerate(engine.forbidden):
        ball, centred_here = engine.centred[v]
        assert clause is ball and centred_here == [clause]


# Every class at two values of d on (2, 4), (3, 4) and (2, 5).
@pytest.mark.parametrize("q,n,d,family_class",
                         [(q, n, d, cls) for q, n in ((2, 4), (3, 4), (2, 5))
                          for d in (1, 2, 3, 4)
                          for cls in (("A_even", "B_even") if d % 2 == 0
                                      else ("A_odd", "B_odd"))])
def test_clause_index_from_centres_matches_transposition(q, n, d, family_class):
    # The clauses a root gathers from the centres within t of its vertex are
    # the clauses whose mask holds the vertex, each once, or twice when both
    # of its centres lie within t.
    engine = _CliqueEngine(build_index(field_new(q), n), d, family_class)
    for v in range(engine.nv):
        holding = Counter(m for m in engine.forbidden if m >> v & 1)
        gathered = Counter(engine._clauses_at(v))
        assert gathered.keys() == holding.keys(), v
        assert all(holding[m] <= gathered[m] <= 2 * holding[m]
                   for m in holding), v


@pytest.mark.parametrize("q,n", SMALL_LATTICES)
def test_engine_adjacency_matches_distance_table(q, n):
    index = build_index(field_new(q), n, budget=None)
    nv = index.size
    table = index.distance_table()
    for d in range(n + 1):
        expected = [_table_ball(table, nv, i, d) ^ (1 << i) for i in range(nv)]
        assert _adjacency(_CliqueEngine(index, d)) == expected


@pytest.mark.parametrize("q,n", DESK_LATTICES)
def test_color_order_matches_full_coloring(q, n):
    # The fused kernel forces exactly the candidates adjacent to every other
    # one, and colors the rest as the reference colors cand minus them; in
    # the reference's coloring of all of cand each forced vertex is a class
    # of its own, so the kernel only drops those classes.
    index = build_index(field_new(q), n)
    nv = index.size
    full = (1 << nv) - 1
    rng = random.Random(f"color:{q}:{n}")
    mixed = 0  # candidate sets with vertices both forced and colored
    for d in range(n + 1):
        engine = _CliqueEngine(index, d)
        adj = _adjacency(engine)
        cands = [0, full] + [rng.getrandbits(nv) for _ in range(4)] + [
            rng.getrandbits(nv) & rng.getrandbits(nv) for _ in range(4)]
        for cand in cands:
            order, bounds, forced = engine._color_force(cand)
            mixed += bool(forced and order)
            assert forced == sum(1 << v for v in range(nv) if cand >> v & 1
                                 and cand & ~adj[v] == 1 << v), d
            assert (order, bounds) == _color_order_by_scan(
                adj, cand & ~forced), d
            every, colors = _color_order_by_scan(adj, cand)
            sizes = Counter(colors)
            assert all(sizes[k] == 1 for v, k in zip(every, colors)
                       if forced >> v & 1), d
    assert mixed or n < 2


@pytest.mark.parametrize("q,n", DESK_LATTICES)
def test_ball_mask_matches_distance_table_rows(q, n):
    index = build_index(field_new(q), n)
    nv = index.size
    table = index.distance_table()
    for radius in range(-1, n + 2):
        for i, center in enumerate(index.subspaces):
            assert _ball_mask(index, center, radius) == _table_ball(table, nv, i, radius)


# The line incidence of F_2^3, term by term.
_F2_3_INCIDENCE = (
    # 7 columns of 16 bits, each an int of one 4-byte digit and a 24-byte
    # header, and 100 bytes for its dict entry
    7 * (28 + 100)
    # the column in progress: three columns and 40 bytes for each of its
    # 4 blocks
    + 3 * 28 + 40 * 4
    # no scale table at q = 2; the addition rows, entries below 257: 100
    # bytes per row and 8 per entry.  The 2 rows of 2 entries led at column
    # 1 (f = 1), and the 3 of 4 entries led at column 0 that have a zero
    # after the 1 (f = 2: 4 rows, less the 1 without a zero)
    + 2 * (100 + 2 * 8) + 3 * (100 + 4 * 8)
    # per pivot of each pivot pattern (3 + 6 + 3 = 12 of them) 64 bytes,
    # and a prefix repunit of at most 30 bits where the prefix has more
    # than one place: row 1 of pivots (0, 1) and of (0, 2)
    + 12 * 64 + 2 * 28
    # per nonempty pattern as a suffix, 300 bytes and 8 per column after
    # its first pivot (2 + 1 + 0 + 2 + 2 + 1 + 2 = 10 columns), and for the
    # one later row with more than one option, row 1 of pivots (0, 1), 180
    # bytes and its repunit
    + 7 * 300 + 8 * 10 + (180 + 28)
    # the merge plans: 3 steps for the 4 blocks of a column, 64 bytes each
    # and 40 more for each of the 3 columns
    + 64 * 3 + 40 * 3 * 3
    # the dicts' and lists' own headers
    + 2048)


def test_engine_memory_budget_checked_before_allocation(monkeypatch):
    index = build_index(F2, 3)
    need = (16 * 16 + 7) // 8 + _F2_3_INCIDENCE
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded) as exc:
        _CliqueEngine(index, 2)
    assert exc.value.would_be_count == need
    assert not index._columns  # no column built
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need)
    assert len(_CliqueEngine(index, 2).non) == 16


def test_engine_memory_budget_counts_the_incidence_lookups(monkeypatch):
    index = build_index(field_new(3), 3)
    need = (
        # the adjacency bitsets of F_3^3's 28 subspaces
        (28 * 28 + 7) // 8
        # 13 columns of 28 bits, each an int of one 4-byte digit and a
        # 24-byte header, and 100 bytes for its dict entry
        + 13 * (28 + 100)
        # the column in progress: three columns and 40 bytes per block
        + 3 * 28 + 40 * 4
        # the lookups, all below 257: one scale table (c = 2) of 9
        # entries, the addition rows led at column 1 (f = 1), 3 rows of 3
        # entries, and the 9 - 2^2 = 5 rows of 9 entries led at column 0
        # with a zero after the 1; 100 bytes per table or row and 8 per
        # entry
        + (100 + 9 * 8) + 3 * (100 + 3 * 8) + 5 * (100 + 9 * 8)
        # the block tables, as for F_2^3: 12 pivots and 2 prefix repunits,
        # 7 suffixes over 10 columns, and the later row of pivots (0, 1),
        # now with 3 options
        + 12 * 64 + 2 * 28 + 7 * 300 + 8 * 10 + (180 + 28)
        # the merge plans and the dicts' and lists' own headers
        + 64 * 3 + 40 * 3 * 3 + 2048)
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded) as exc:
        _CliqueEngine(index, 2)
    assert exc.value.would_be_count == need
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need)
    assert len(_CliqueEngine(index, 2).non) == 28


@pytest.mark.parametrize("q,n", [(2, 6), (3, 5)])
def test_incidence_estimate_covers_its_peak(q, n):
    # The budget charges the columns, the block tables and the lookups;
    # building every column and listing every vertex's lines, as a search
    # may, allocates less than that, and not far less.  The traced window
    # runs in a fresh interpreter: run again in one process, it draws the
    # block tables' small tuples from CPython's free lists and traces less.
    code = f"""
import tracemalloc
from qdiam.gfq import field_new
from qdiam.grassmann import build_index
index = build_index(field_new({q}), {n})
lines = [index.keys[x][0] for x in range(*index.layer_range(1))]
tracemalloc.start()
for v in lines:
    index.column(v)
for i in range(index.size):
    index.lines(i)
print(tracemalloc.get_traced_memory()[1], index.incidence_bytes())
"""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak, estimate = map(int, proc.stdout.split())
    assert peak <= estimate <= 2 * peak


# Clauses of each class on F_2^3: the two canonical balls; two per line;
# one ball per subspace; and one double ball per cover pair, 7 lines over 0,
# 3 planes over each of the 7 lines and F_2^3 over each of the 7 planes.
# Each is a 16-bit mask with an 8-byte list entry per centre.  A one-centre
# clause is its centre's ball; the others keep their centres' balls besides:
# A_odd's 0, F_2^3, 7 lines and 7 planes, and every subspace for B_odd.
_CENTRE_BALLS_AND_ENTRIES = {"A_even": (0, 2), "A_odd": (16, 28),
                             "B_even": (0, 16), "B_odd": (16, 70)}


@pytest.mark.parametrize("family_class,d,clauses",
                         [("A_even", 2, 2), ("A_odd", 3, 14),
                          ("B_even", 2, 16), ("B_odd", 1, 35)])
def test_clause_memory_budget_checked_before_allocation(monkeypatch, family_class,
                                                        d, clauses):
    index = build_index(F2, 3)
    balls, entries = _CENTRE_BALLS_AND_ENTRIES[family_class]
    need = ((16 * (16 + clauses + balls) + 7) // 8 + 8 * entries
            + _F2_3_INCIDENCE)
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded) as exc:
        _CliqueEngine(index, d, family_class)
    assert exc.value.would_be_count == need
    assert not index._columns  # no column built
    monkeypatch.setattr(oracle, "DEFAULT_DISTANCE_CELL_BUDGET", need)
    engine = _CliqueEngine(index, d, family_class)
    assert len(engine.forbidden) == clauses
    # the charge counts what the engine keeps
    kept = {id(m) for m in engine.forbidden}
    assert sum(len(ms) for _, ms in engine.centred.values()) == entries
    assert sum(id(ball) not in kept
               for ball, _ in engine.centred.values()) == balls


# -- live clause lists against the full clause scan ---------------------------------

class _FullScanEngine(_CliqueEngine):
    """The engine with every node testing every clause and coloring every
    candidate over adjacency rows, kept as reference.  Its search is its
    own: a root loop over the engine's roots and a recursive expansion,
    sharing no loop with the production search.  A node that passes both
    checks takes every candidate adjacent to all the others, as the
    production search does, so the two explore the same nodes."""

    def __init__(self, index, d, family_class=None):
        super().__init__(index, d, family_class)
        self.adj = _adjacency(self)

    def search(self, *, seed_vertices=None, collect_all=False,
               witness_cap=oracle.DEFAULT_WITNESS_CAP, deadline=None):
        self.collect_all = collect_all
        self.witness_cap = witness_cap
        self.nodes = 0
        self.best = len(seed_vertices) if seed_vertices else 0
        self.collected = ([list(seed_vertices)]
                          if seed_vertices and not collect_all else [])
        self.collected_count = len(self.collected)
        later = (1 << self.nv) - 1
        roots, settle = self._roots(collect_all)
        for v, done in zip(reversed(roots), reversed(settle)):
            self._expand([v], later & self.adj[v])
            later &= ~done
        return self.best, self.collected, self.collected_count, self.nodes, False

    def _expand(self, plist, cand):
        self.nodes += 1
        union = cand
        for v in plist:
            union |= 1 << v
        for fm in self.forbidden:
            if union & ~fm == 0:
                return
        need = self.best if self.collect_all else self.best + 1
        if self._group_bound(union) < need:
            return
        forced = [u for u in range(self.nv)
                  if cand >> u & 1 and cand & ~self.adj[u] == 1 << u]
        for u in forced:
            cand ^= 1 << u
        self._branch(plist + forced, cand)

    def _branch(self, plist, cand):
        if not cand:
            self._record(plist)
            return
        order, bounds = _color_order_by_scan(self.adj, cand)
        cur = cand
        psize = len(plist)
        for i in range(len(order) - 1, -1, -1):
            need = self.best if self.collect_all else self.best + 1
            if psize + bounds[i] < need:
                return
            v = order[i]
            plist.append(v)
            self._expand(plist, cur & self.adj[v])
            plist.pop()
            cur ^= 1 << v


def _search_with(monkeypatch, engine_cls, q, n, d, family_class, enumerate_all,
                 **options):
    """One search on an engine of engine_cls, with the driver's keyword
    options; returns the report and engine."""
    engines = []

    class Recording(engine_cls):
        def search(self, **kwargs):
            engines.append(self)
            return super().search(**kwargs)

    monkeypatch.setattr(oracle, "_CliqueEngine", Recording)
    if family_class is None:
        rep = max_diameter_family(q, n, d, enumerate_all, **options)
    else:
        rep = max_admissible_family(q, n, d, family_class, enumerate_all,
                                    **options)
    return rep, engines[0]


# --all doubles or more the nodes of these; they run without it.
_COSTLY_ALL = {(3, 4, 1, "B_odd"), (3, 4, 2, "A_even"), (3, 4, 2, "B_even"),
               (3, 4, 3, None), (3, 4, 3, "A_odd"), (3, 4, 3, "B_odd"),
               (2, 5, 2, "B_even")}
CLAUSE_CASES = [(q, n, d, cls) for q in (2, 3) for n in range(2, 5)
                for d in range(1, n)
                for cls in ((None, "A_even", "B_even") if d % 2 == 0
                            else (None, "A_odd", "B_odd"))] + [
    (2, 5, 2, "B_even"), (2, 5, 1, "B_odd")]


# Each node's live clauses, gathered from the centres at its root and
# narrowed below it, must prune exactly as testing every clause does.
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


# -- forced candidates against one node per vertex ----------------------------------

class _UnforcedEngine(_CliqueEngine):
    """The production engine with no candidate forced, so every member of
    a clique is a node of its own, as before forcing; kept as reference.
    A node colors all of cand over adjacency rows, each universal vertex a
    class of its own."""

    def __init__(self, index, d, family_class=None):
        super().__init__(index, d, family_class)
        self.adj = _adjacency(self)

    def _color_force(self, cand):
        return (*_color_order_by_scan(self.adj, cand), 0)


# The clause grid, and the five jobs of the clique-search benchmark.
CLIQUE_SEARCH_JOBS = [(3, 4, 3, None, True), (2, 5, 3, None, True),
                      (2, 5, 2, "B_even", False), (3, 4, 2, "B_even", False),
                      (3, 4, 2, "A_even", False)]
FORCING_CASES = ([case + ((case not in _COSTLY_ALL),) for case in CLAUSE_CASES]
                 + CLIQUE_SEARCH_JOBS)


@pytest.mark.parametrize("q,n,d,family_class,enumerate_all", FORCING_CASES)
def test_forcing_matches_unforced_search(monkeypatch, q, n, d, family_class,
                                         enumerate_all):
    ref, _ = _search_with(monkeypatch, _UnforcedEngine, q, n, d, family_class,
                          enumerate_all)
    rep, _ = _search_with(monkeypatch, _CliqueEngine, q, n, d, family_class,
                          enumerate_all)
    assert rep.optimum == ref.optimum
    assert rep.witness_count == ref.witness_count
    assert rep.witnesses == ref.witnesses
    assert rep.nodes_explored <= ref.nodes_explored
    if (q, n, d, family_class, enumerate_all) in CLIQUE_SEARCH_JOBS:
        # forcing saves nodes on each, so a reference that forced too fails
        assert rep.nodes_explored < ref.nodes_explored


# -- each root branch on its own -----------------------------------------------------

class _BranchEngine(_CliqueEngine):
    """The production engine, logging each root branch as (v0, cand, best
    before it, its nodes, the cliques it passed to _record)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.branches = []

    def _subsearch(self, v0, cand, clauses, deadline):
        best, self.recorded = self.best, []
        nodes, timed_out = super()._subsearch(v0, cand, clauses, deadline)
        self.branches.append((v0, cand, best, nodes, self.recorded))
        return nodes, timed_out

    def _record(self, members):
        self.recorded.append(members)
        super()._record(members)


# A branch sees the branches before it only through best and its candidates,
# so run alone on a fresh engine primed with that best it explores the same
# nodes and records the same cliques.
@pytest.mark.parametrize("q,n,d,family_class,enumerate_all", FORCING_CASES)
def test_root_branches_are_independent(monkeypatch, q, n, d, family_class,
                                       enumerate_all):
    rep, engine = _search_with(monkeypatch, _BranchEngine, q, n, d,
                               family_class, enumerate_all)
    assert sum(nodes for _, _, _, nodes, _ in engine.branches) == (
        rep.nodes_explored)
    for branch in engine.branches:
        v0, cand, best, _, _ = branch
        fresh = _BranchEngine(engine.index, d, family_class)
        fresh.collect_all, fresh.witness_cap = enumerate_all, engine.witness_cap
        fresh.best, fresh.collected, fresh.collected_count = best, [], 0
        fresh._build(1 << v0)
        fresh._subsearch(v0, cand, fresh._clauses_at(v0), None)
        assert fresh.branches == [branch]


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

    def __init__(self, index, d, family_class=None):
        static = family_class if family_class in ("A_even", "A_odd") else None
        super().__init__(index, d, static)
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


# -- orbit-representative root against the full root --------------------------------

class _EagerEngine(_CliqueEngine):
    """The production engine with every non-neighbour row built before the
    search, as before rows were built on first use; kept as reference."""

    def __init__(self, index, d, family_class=None):
        super().__init__(index, d, family_class)
        _build_every_row(self)


class _FullRootEngine(_EagerEngine):
    """The production engine with the root every search had before the
    orbit representatives: each subspace, in the --all root order,
    settling itself alone; kept as reference for the optimum."""

    def _roots(self, collect_all):
        return super()._roots(True)


# Every (q, n, d) with 1 <= d < n, n <= 5 for q = 2 and n <= 4 for q = 3,
# plain and in each class of the parity of d: 46 searches.  The full root
# takes about 2 s at (2, 5, 3) in A_odd and B_odd (258,314 nodes); those
# two are proven by test_orbit_root_proves_admissible_optimum alone.
ORBIT_CASES = [(q, n, d, cls) for q, top in ((2, 5), (3, 4))
               for n in range(2, top + 1) for d in range(1, n)
               for cls in ((None, "A_even", "B_even") if d % 2 == 0
                           else (None, "A_odd", "B_odd"))
               if (q, n, d, cls) not in {(2, 5, 3, "A_odd"), (2, 5, 3, "B_odd")}]


@pytest.mark.parametrize("q,n,d,family_class", ORBIT_CASES)
def test_orbit_root_matches_full_root(monkeypatch, q, n, d, family_class):
    ref, _ = _search_with(monkeypatch, _FullRootEngine, q, n, d, family_class,
                          False)
    rep, _ = _search_with(monkeypatch, _CliqueEngine, q, n, d, family_class,
                          False)
    assert ref.proven_optimal and rep.proven_optimal
    assert rep.optimum == ref.optimum
    assert rep.witness_count == ref.witness_count
    assert rep.bound_match == ref.bound_match
    assert rep.nodes_explored <= ref.nodes_explored


# -- --all rooted by layer pair against canonical order -----------------------------

@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (2, 6)])
def test_all_roots_walk_the_layer_pairs_middle_first(q, n):
    # --all roots every vertex once, tried from the end: the pair nearest
    # the middle first, and within a pair canonical order, which puts layer
    # k before layer n-k.  GL(n, q) and perp preserve distance, so every
    # vertex of a pair has one degree, and this is the order of ascending
    # degree with canonical tie-break.
    index = build_index(field_new(q), n, budget=None)
    nv = index.size
    dims = [s.dim for s in index.subspaces]
    expected = sorted(range(nv), key=lambda v: (-min(dims[v], n - dims[v]), v))
    for d in range(1, n):
        engine = _CliqueEngine(index, d)
        roots, settle = engine._roots(True)
        assert roots[::-1] == expected, d
        assert settle == [1 << v for v in roots]
        assert engine.built == 0  # the order reads no row
        degree = [index.ball(v, d).bit_count() - 1 for v in range(nv)]
        for k in range(n + 1):
            lo, hi = index.layer_range(k)
            other = index.layer_range(n - k)[0]
            assert set(degree[lo:hi]) == {degree[other]}, (d, k)
        assert sorted(range(nv), key=lambda v: (degree[v], v)) == expected, d


class _CanonicalRootEngine(_CliqueEngine):
    """The production engine rooted at every subspace in canonical order,
    each settling itself alone; kept as reference for the layer-pair root
    order of --all."""

    def _roots(self, collect_all):
        order = list(range(self.nv - 1, -1, -1))
        return order, [1 << v for v in order]


@pytest.mark.parametrize("q,n,d,family_class",
                         [case for case in ORBIT_CASES if case not in _COSTLY_ALL])
def test_all_pair_order_matches_canonical_root(monkeypatch, q, n, d,
                                               family_class):
    # No witness cap, so the witness lists are compared whole.
    ref, _ = _search_with(monkeypatch, _CanonicalRootEngine, q, n, d,
                          family_class, True, witness_cap=10**6)
    rep, _ = _search_with(monkeypatch, _CliqueEngine, q, n, d, family_class,
                          True, witness_cap=10**6)
    assert ref.exhaustive and rep.exhaustive
    assert len(rep.witnesses) == rep.witness_count
    assert rep.optimum == ref.optimum
    assert rep.witness_count == ref.witness_count
    assert rep.witnesses == ref.witnesses


# -- non-neighbour rows built on first use against rows built up front -------------

# The orbit-root grid, and the --all jobs of the clique-search benchmark.
LAZY_ROW_CASES = ([case + (False,) for case in ORBIT_CASES]
                  + [(3, 4, 3, None, True), (2, 5, 3, None, True)])


@pytest.mark.parametrize("q,n,d,family_class,enumerate_all", LAZY_ROW_CASES)
def test_lazy_rows_match_eager_rows(monkeypatch, q, n, d, family_class,
                                    enumerate_all):
    ref, _ = _search_with(monkeypatch, _EagerEngine, q, n, d, family_class,
                          enumerate_all)
    rep, engine = _search_with(monkeypatch, _CliqueEngine, q, n, d,
                               family_class, enumerate_all)
    assert rep.optimum == ref.optimum
    assert rep.nodes_explored == ref.nodes_explored
    assert rep.witness_count == ref.witness_count
    assert rep.witnesses == ref.witnesses
    full = (1 << engine.nv) - 1
    for v in range(engine.nv):
        built = engine.built >> v & 1
        assert engine.non[v] == (full ^ engine.index.ball(v, d) if built else 0)


@pytest.mark.parametrize("q,n,d,enumerate_all,rows", [
    (3, 5, 2, False, 3), (2, 6, 3, False, 206), (2, 6, 5, False, 4),
    (2, 4, 3, True, 67)])
def test_search_builds_only_the_rows_it_reads(monkeypatch, q, n, d,
                                              enumerate_all, rows):
    # An optimum search on the frontier reads a few rows of thousands;
    # --all roots every vertex, and each root node builds its own row.
    rep, engine = _search_with(monkeypatch, _CliqueEngine, q, n, d, None,
                               enumerate_all)
    assert rep.proven_optimal and rep.optimum == kleitman_bound(n, d, q)
    assert engine.built.bit_count() == rows
    if enumerate_all:
        assert rows == engine.nv


@pytest.mark.parametrize("q,n,d,columns", [(3, 5, 2, 4), (2, 6, 3, 63)])
def test_search_builds_only_the_columns_it_reads(monkeypatch, q, n, d,
                                                 columns):
    # A plain search reads lines only for its balls, and builds the
    # columns of those lines and no other: 4 of (3, 5)'s 121 lines, and
    # every one of (2, 6)'s 63.
    lines = LatticeIndex.lines
    read = set()

    def recorded(self, i):
        out = lines(self, i)
        read.update(out)
        return out

    monkeypatch.setattr(LatticeIndex, "lines", recorded)
    rep, engine = _search_with(monkeypatch, _CliqueEngine, q, n, d, None,
                               False)
    assert rep.proven_optimal and rep.optimum == kleitman_bound(n, d, q)
    assert set(engine.index._columns) == read
    assert len(read) == columns


@pytest.mark.parametrize("steps,enumerate_all,nodes", [
    ([5.0], False, 0), ([0.0, 0.0, 5.0], False, 2), ([5.0], True, 0)])
def test_timeout_counts_row_building(monkeypatch, steps, enumerate_all, nodes):
    # The fake clock moves only while rows are built: the i-th build call
    # takes steps[i] seconds.  A deadline that passes during the first
    # build, the first root vertex's row, stops the search at its first
    # node; --all builds no other row before it.  At (2, 6, 3) the third build is
    # the coloring of the second root node, whose children would not reach
    # a 1024th node: a deadline that passes there stops the search at once.
    now = [0.0]
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: now[0]))
    build = _CliqueEngine._build
    calls = []

    def slow_build(self, mask):
        now[0] += steps[len(calls)] if len(calls) < len(steps) else 0.0
        calls.append(mask)
        build(self, mask)

    monkeypatch.setattr(_CliqueEngine, "_build", slow_build)
    n, d = (4, 3) if enumerate_all else (6, 3)
    rep = max_diameter_family(2, n, d, enumerate_all, timeout_secs=4.0)
    assert rep.timed_out and not rep.proven_optimal
    assert rep.nodes_explored == nodes
    assert rep.optimum == rep.greedy_seed_size
    if enumerate_all:
        # the first root is the first vertex of the middle layer
        first = build_index(field_new(2), n).layer_range(n // 2)[0]
        assert calls == [1 << first]
    monkeypatch.setattr(_CliqueEngine, "_build", build)
    rep = max_diameter_family(2, n, d, enumerate_all, timeout_secs=4.0)
    assert not rep.timed_out and rep.nodes_explored > 1


@pytest.mark.parametrize("q,n,d,family_class", [
    (2, 4, 3, None), (2, 5, 2, "B_even"), (3, 4, 2, "A_even")])
def test_timeout_between_root_branches(monkeypatch, q, n, d, family_class):
    # The fake clock passes the deadline once the first root branch returns:
    # the search stops with that branch's nodes and builds no row after it,
    # not even the next root's.
    now = [0.0]
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: now[0]))
    late_builds = []

    class FirstBranchEngine(_BranchEngine):
        def _subsearch(self, *args):
            result = super()._subsearch(*args)
            now[0] = 5.0
            return result

        def _build(self, mask):
            if now[0]:
                late_builds.append(mask)
            super()._build(mask)

    rep, engine = _search_with(monkeypatch, FirstBranchEngine, q, n, d,
                               family_class, False, timeout_secs=4.0)
    assert rep.timed_out and not rep.proven_optimal
    [(_, _, _, nodes, _)] = engine.branches
    assert rep.nodes_explored == nodes > 0
    assert late_builds == []
    assert len(engine._roots(False)[0]) > 1


@pytest.mark.parametrize("q,n,d,family_class,optimum", [
    (2, 5, 3, "A_odd", 39), (2, 5, 3, "B_odd", 39), (2, 6, 2, "B_even", 8)])
def test_orbit_root_proves_admissible_optimum(q, n, d, family_class, optimum):
    # Costly for the full root: 258,314 nodes at (2, 5, 3) in both odd
    # classes, and 3.2M nodes at (2, 6, 2) B_even.
    rep = max_admissible_family(q, n, d, family_class)
    assert rep.optimum == optimum
    assert rep.proven_optimal and not rep.timed_out
    assert len(rep.witnesses) == 1
    for fam in rep.witnesses:
        assert len(fam) == optimum
        assert is_admissible(fam, family_class, d // 2).admissible


@pytest.mark.parametrize("q,n", [(2, 5), (2, 6), (3, 4)])
def test_orbit_root_holds_one_representative_per_layer_pair(monkeypatch, q, n):
    def no_order(self):
        raise AssertionError("the optimum search computed a degeneracy order")

    index = build_index(field_new(q), n)
    engine = _CliqueEngine(index, 2)
    roots, settle = engine._roots(False)
    # the first k-space for k = 0 .. n//2, tried from the end, each
    # settling the pair (k, n-k); the pairs partition the lattice
    layer = [sum(1 << v for v in range(*index.layer_range(k)))
             for k in range(n + 1)]
    assert roots == [index.layer_range(k)[0] for k in range(n // 2 + 1)]
    assert settle == [layer[k] | layer[n - k] for k in range(n // 2 + 1)]
    assert sum(settle) == (1 << index.size) - 1
    monkeypatch.setattr(_CliqueEngine, "_degeneracy_order", no_order)
    assert max_diameter_family(q, n, 2).optimum == kleitman_bound(n, 2, q)


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


# -- seeds ---------------------------------------------------------------------

def _seed_by_constructors(field, n, d):
    """Reference: the plain seed built by the family constructors."""
    t = d // 2
    if d >= n:
        return lower_layers(field, n, n, budget=None)
    if d % 2 == 0:
        return lower_layers(field, n, t, budget=None)
    x = next(enumerate_layer(field, n, 1, budget=None))
    return canonical_double_ball(x, t, budget=None)


def _admissible_seed_by_constructors(field, n, d, family_class):
    """Reference: the class seed built by the family constructors, from the
    first line x and y = <e_1, ..., e_(t+1)>, candidate by candidate."""
    t = d // 2
    if n < 1:
        return None
    x = next(enumerate_layer(field, n, 1, budget=None))
    candidates = []
    if d % 2 == 0 and 1 <= t and t + 1 <= n:
        candidates.append(ball(x, t, budget=None))
    if d % 2 == 1 and t + 2 <= n:
        gens = [[1 if j == i else 0 for j in range(n)]
                for i in range(1, t + 2)]
        y = Subspace.from_generators(field, n, gens)
        candidates.append(extremal_odd_family(x, y, budget=None))
    if n == d + 1 and t >= 1:
        split = [*lower_layers(field, n, t - 1, budget=None),
                 *enumerate_layer(field, n, n - t, budget=None)]
        if d % 2 == 1:
            split += star(x, t + 1, budget=None)
        candidates.append(SubspaceFamily(field, n, split))
    if d % 2 == 0 and 2 * t < n <= 3 * t:
        layer_top = SubspaceFamily(field, n, list(enumerate_layer(
            field, n, t, budget=None)) + [Subspace.full(field, n)])
        candidates += [layer_top, perp_family(layer_top)]
    best = None
    for fam in candidates:
        if (best is None or len(fam) > len(best)) and is_admissible(
                fam, family_class, t, budget=None).admissible:
            best = fam
    return best


@pytest.mark.parametrize("q,n", [(q, n) for q, top in ((2, 6), (3, 5), (4, 4),
                                                       (5, 4))
                                 for n in range(top + 1)])
def test_index_seeds_match_the_constructors(q, n):
    # Every seed is read off the search's own index as ball unions and
    # layers; it is the constructors' family, vertex for vertex, for the
    # plain search and both classes of d's parity at every d <= n.
    field = field_new(q)
    index = build_index(field, n, budget=None)
    for d in range(n + 1):
        classes = ("A_even", "B_even") if d % 2 == 0 else ("A_odd", "B_odd")
        for family_class in (None, *classes):
            if family_class is None:
                fam = _seed_by_constructors(field, n, d)
                seed = oracle._seed_family(index, d)
            else:
                fam = _admissible_seed_by_constructors(field, n, d,
                                                       family_class)
                seed = oracle._admissible_seed(index, d, family_class)
            expected = (None if fam is None
                        else sorted(map(index.position, fam)))
            assert seed == expected, (d, family_class)


@pytest.mark.parametrize("q,n", [(2, 6), (3, 5), (4, 4)])
def test_plain_seed_builds_no_subspace_by_elimination(monkeypatch, q, n):
    # The plain seed is the first canonical configuration's ball union, read
    # off the index: no perp, no row elimination.
    def no_elimination(*args):
        raise AssertionError("the plain seed ran from_generators")

    index = build_index(field_new(q), n)
    monkeypatch.setattr(Subspace, "from_generators", no_elimination)
    for d in range(2, n + 1):
        assert len(oracle._seed_family(index, d)) == (
            kleitman_bound(n, d, q) if d < n else lattice_size(q, n))


def _bits_by_peeling(mask):
    """Reference: the set bits of mask, the lowest peeled off each time."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@pytest.mark.parametrize("size,ands,ors", [
    (1, 0, 0), (3, 0, 2), (2825, 8, 0), (2825, 0, 0), (2825, 0, 12),
    (29212, 3, 0), (29212, 0, 3), (417199, 8, 0), (417199, 12, 0)])
def test_bits_match_lowest_bit_peeling(size, ands, ors):
    # A seeded random mask with about one bit in 2^(1+ands) set, or all but
    # one in 2^(1+ors); and zero, the lowest and the top bit alone.  Dense
    # masks stop at 29,212 bits: peeling one of 417,199 bits takes seconds.
    rng = random.Random(size * 31 + ands * 7 + ors)
    mask = rng.getrandbits(size)
    for _ in range(ands):
        mask &= rng.getrandbits(size)
    for _ in range(ors):
        mask |= rng.getrandbits(size)
    for m in (mask, 0, 1, 1 << size - 1):
        assert list(oracle._bits(m)) == list(_bits_by_peeling(m))


# -- witness re-verification ---------------------------------------------------------

def _materialize_by_rows(index, collected, d):
    """Reference: vertex lists -> families, the member pairs walked once over
    the union of the witnesses and met by row elimination.

    Bit w of holds[v] is set when witness w holds v, and a pair is met only
    when some witness holds both.  An a-space and a b-space are at most
    min(a + b, 2n - a - b) apart, so pairs where that is at most d are
    skipped; in descending index order the dimension sum only falls along
    each row of pairs, and the pairs to meet are one slice of it.
    """
    field, n = index.field, index.n
    subspaces = index.subspaces
    holds = {}
    for w, vertices in enumerate(collected):
        for v in vertices:
            holds[v] = holds.get(v, 0) | 1 << w
    union = sorted(holds, reverse=True)
    members = [subspaces[v] for v in union]
    neg_dims = [-s.dim for s in members]
    for i, a in enumerate(members):
        lo = max(i + 1, bisect_right(neg_dims, a.dim + d - 2 * n))
        hi = bisect_left(neg_dims, a.dim - d)
        for j in range(lo, hi):
            b = members[j]
            if holds[union[i]] & holds[union[j]] and a.distance(b) > d:
                raise AssertionError(
                    "search produced a witness violating the diameter "
                    f"bound: {(a, b)}")
    witnesses = [SubspaceFamily(field, n, [subspaces[v] for v in vertices])
                 for vertices in collected]
    witnesses.sort(key=lambda f: tuple(s.sort_key() for s in f.members))
    return witnesses


@pytest.mark.parametrize("q,n,d", [(q, n, d) for q, top in ((2, 5), (3, 4))
                                   for n in range(top + 1)
                                   for d in range(n + 1)])
def test_materialize_matches_row_elimination(q, n, d):
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    assert rep.exhaustive
    index = build_index(field_new(q), n)
    collected = [[index.position(s) for s in fam] for fam in rep.witnesses]
    assert (oracle._materialize_witnesses(index, collected, d)
            == _materialize_by_rows(index, collected, d) == rep.witnesses)


def test_materialize_rejects_planted_far_pair():
    index = build_index(F2, 4)
    rep = max_diameter_family(2, 4, 3, enumerate_all=True)
    collected = [[index.position(s) for s in fam] for fam in rep.witnesses]
    # Every outsider of a maximum family is farther than d from one of its
    # members; the members checked for the 120 true witnesses must not
    # hide that, in the check or in its row-elimination reference.
    first = collected[0]
    for materialize in (oracle._materialize_witnesses, _materialize_by_rows):
        assert materialize(index, collected, 3) == rep.witnesses
        for v in range(index.size):
            if v not in first:
                with pytest.raises(AssertionError,
                                   match="violating the diameter bound"):
                    materialize(index, collected + [first + [v]], 3)


@pytest.mark.parametrize("enumerate_all", [False, True])
def test_oversized_seed_breaking_the_diameter_bound_raises(monkeypatch,
                                                           enumerate_all):
    # The seed is not checked on its own.  Layers 0..2 of F_2^4 (51
    # members, diameter 4) outgrow the optimum 16 at d = 2, so no search
    # beats them; they are reported, and the re-verification rejects them.
    monkeypatch.setattr(oracle, "_seed_family", lambda index, d: sorted(
        map(index.position, lower_layers(index.field, index.n, 2))))
    with pytest.raises(AssertionError, match="violating the diameter bound"):
        max_diameter_family(2, 4, 2, enumerate_all=enumerate_all)


def test_materialize_skips_pairs_within_dimension_sum(monkeypatch):
    index = build_index(F2, 4)
    _, hi = index.layer_range(1)

    def no_mask(self):
        raise AssertionError("masked a member of a pair within d")

    monkeypatch.setattr(Subspace, "vector_mask", no_mask)
    (fam,) = oracle._materialize_witnesses(index, [list(range(hi))], 2)
    assert fam == lower_layers(F2, 4, 1)


@pytest.mark.parametrize("q,n,d", [(2, 4, 3), (2, 5, 3), (3, 4, 3)])
def test_materialize_masks_each_member_once(monkeypatch, q, n, d):
    # Each member keeps its mask, so a member held by several witnesses is
    # masked once; a second re-check and is_admissible's diameter test mask
    # nothing, and no pair of the re-checks is met by row elimination.
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    index = build_index(field_new(q), n)
    collected = [[index.position(s) for s in fam] for fam in rep.witnesses]
    built = []
    vector_mask = Subspace.vector_mask

    def counted(self):
        if not hasattr(self, "_mask"):
            built.append(self)
        return vector_mask(self)

    def no_rows(self, other):
        raise AssertionError("met a pair by row elimination")

    monkeypatch.setattr(Subspace, "vector_mask", counted)
    with monkeypatch.context() as m:
        m.setattr(Subspace, "distance", no_rows)
        m.setattr(Subspace, "rank_with", no_rows)
        for _ in range(2):
            witnesses = oracle._materialize_witnesses(index, collected, d)
            assert witnesses == rep.witnesses
    assert built and len(built) == len(set(built))
    built.clear()
    for fam in witnesses:
        is_admissible(fam, "B_odd", d // 2)
    assert built == []


# -- characterization against per-witness classification -------------------------

def _classify_witness(fam, q, n, d, field):
    """Match one maximum family against the equality cases by case analysis;
    None + reason when no case fits.  At the boundary the middle layer is
    checked by its size and a pairwise intersection scan, not a census."""
    t = d // 2
    if n >= d + 2:
        if d % 2 == 0:
            if fam == lower_layers(field, n, t, budget=None):
                return "full_lower_layers", "union of layers 0..t"
            if fam == upper_layers(field, n, t, budget=None):
                return "full_upper_layers", "union of layers n-t..n"
            return None, "not a full lower/upper layer union"
        # A family inside a canonical double ball (or its perp) that is not
        # that ball is smaller than every canonical double ball.
        rep = is_admissible(fam, "A_odd", t, budget=None)
        if rep.witness_centers:
            (x,) = rep.witness_centers
            label = rep.witness_kind
            probe = fam if label == "canonical_double_ball" else perp_family(fam)
            if probe == canonical_double_ball(x, t, budget=None):
                return label, f"double ball at {x.to_token()}"
        return None, "not a canonical double ball or its perp"
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


def _characterization_by_classify(report):
    """The characterization's diagnostics with every witness classified
    by _classify_witness and the census rebuilt per call, kept as reference.
    The boundary census is not counted here."""
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
    if n >= d + 2:
        if d % 2 == 0:
            expected = {lower_layers(field, n, t, budget=None),
                        upper_layers(field, n, t, budget=None)}
        else:
            expected = set()
            for x in enumerate_layer(field, n, 1, budget=None):
                fam = canonical_double_ball(x, t, budget=None)
                expected |= {fam, perp_family(fam)}
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


# Plain --all tuples with 2 <= d < n, where the optimum is checked against
# the Kleitman bound: q <= 3 and n <= 4 outside _COSTLY_ALL, and (2, 5, d).
CHARACTERIZED = [(q, n, d) for q in (2, 3) for n in range(3, 5)
                 for d in range(2, n) if (q, n, d, None) not in _COSTLY_ALL] + [
    (2, 5, d) for d in range(2, 5)]


@pytest.mark.parametrize("q,n,d", CHARACTERIZED)
def test_characterization_matches_per_witness_classification(q, n, d):
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    assert rep.bound_match
    assert ((rep.characterization_match, rep.characterization_diagnostics)
            == _characterization_by_classify(rep))


@pytest.mark.parametrize("n,d", [(4, 2), (5, 3)])
def test_characterization_matches_per_witness_classification_when_corrupted(n, d):
    # the negative control: one member swapped for an outsider
    rep = max_diameter_family(2, n, d, enumerate_all=True)
    fam = rep.witnesses[0]
    outsider = next(s for s in enumerate_layer(F2, n, 2) if s not in fam)
    rep.witnesses[0] = SubspaceFamily(F2, n, list(fam.members[:-1]) + [outsider])
    ok, diag = _characterize(rep)
    assert not ok and "VIOLATION" in diag[0]
    assert (ok, diag) == _characterization_by_classify(rep)


@pytest.mark.parametrize("q,n,d", [(2, 4, 3), (3, 5, 4)])
def test_boundary_census_counts_the_witnesses(q, n, d):
    # every witness left still fits a boundary case, but the witness set
    # has one family fewer than the 2^(t+1) splits times the middle census
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    diag = rep.characterization_diagnostics
    assert rep.characterization_match and diag[-1].startswith(
        "census at n = d+1: ")
    rep.witnesses = rep.witnesses[:-1]
    rep.witness_count -= 1
    ok, diag = _characterize(rep)
    assert not ok
    assert not any("VIOLATION" in line for line in diag)
    assert diag[-1] == (f"census mismatch: expected {rep.witness_count + 1} "
                        f"canonical extremal families, witness set has "
                        f"{rep.witness_count}")


def test_boundary_middle_layer_outside_the_census_is_a_violation():
    # (2, 4, 3): one plane of a witness's point-star or hyperplane-dual
    # middle layer swapped for a plane outside it; the split still holds
    rep = max_diameter_family(2, 4, 3, enumerate_all=True)
    fam = rep.witnesses[0]
    middle = fam.layer(2)
    outsider = next(s for s in enumerate_layer(F2, 4, 2) if s not in fam)
    rep.witnesses[0] = SubspaceFamily(
        F2, 4, [s for s in fam if s != middle[-1]] + [outsider])
    ok, diag = _characterize(rep)
    assert not ok
    assert diag[0] == ("witness 0: VIOLATION: middle layer 2 is not a "
                       "point-star or a hyperplane dual")
    assert not any("VIOLATION" in line for line in diag[1:-1])
    assert diag[-1].startswith("census mismatch")


# -- the census and the A-class clauses against the family constructors ----------

# No --all search reaches these lattices in tier-1.
BEYOND_ALL = [(q, n, d) for q, n in ((2, 6), (3, 5)) for d in range(2, n)]


def _canonical_configurations(field, n, d):
    """The canonical extremal configurations from the constructors, in the
    A-class clause order: L then U for even d; for odd d, for each line x
    in canonical order, its canonical double ball, then that ball's perp."""
    t = d // 2
    if d % 2 == 0:
        return [lower_layers(field, n, t), upper_layers(field, n, t)]
    configurations = []
    for x in enumerate_layer(field, n, 1):
        fam = canonical_double_ball(x, t)
        configurations += [fam, perp_family(fam)]
    return configurations


def _maximum_families(field, n, d):
    """Every maximum family of diameter <= d, from the constructors: the
    canonical configurations for n >= d+2; at n = d+1 every full/empty
    split of the layer pairs (k, n-k), k <= t, joined for odd d with the
    star of a line x in layer t+1 or that star's perp."""
    if n >= d + 2:
        return _canonical_configurations(field, n, d)
    t = d // 2
    middles = [[]]
    if d % 2:
        middles = []
        for x in enumerate_layer(field, n, 1):
            through = star(x, t + 1)
            middles += [through.members, perp_family(through).members]
    families = []
    for upper in product((False, True), repeat=t + 1):
        split = [s for k, up in enumerate(upper)
                 for s in enumerate_layer(field, n, n - k if up else k)]
        families += [SubspaceFamily(field, n, split + list(middle))
                     for middle in middles]
    return families


def _exhaustive_report(q, n, d, witnesses):
    return SearchReport(
        q=q, n=n, d=d, family_class=None, optimum=len(witnesses[0]),
        witness_count=len(witnesses), witnesses=witnesses, nodes_explored=0,
        elapsed_ms=0, proven_optimal=True, exhaustive=True, bound_match=True)


@pytest.mark.parametrize("q,n,d", BEYOND_ALL)
def test_census_accepts_the_constructed_maximum_families(q, n, d):
    families = _maximum_families(field_new(q), n, d)
    assert {len(fam) for fam in families} == {kleitman_bound(n, d, q)}
    assert len(set(families)) == len(families)
    ok, diag = _characterize(_exhaustive_report(q, n, d, families))
    assert ok and not any("VIOLATION" in line for line in diag)
    if n == d + 1:
        parity = "odd" if d % 2 else "even"
        assert diag[-1] == (f"census at n = d+1: boundary_split_{parity}="
                            f"{len(families)}")
    else:
        assert diag[-1] == (f"census: all {len(families)} canonical "
                            f"extremal families found")
    # one family dropped: every witness left fits, the census does not
    ok, diag = _characterize(_exhaustive_report(q, n, d, families[1:]))
    assert not ok and not any("VIOLATION" in line for line in diag)
    assert diag[-1] == (f"census mismatch: expected {len(families)} "
                        f"canonical extremal families, witness set has "
                        f"{len(families) - 1}")


@pytest.mark.parametrize("q,n,d", BEYOND_ALL)
def test_a_class_clauses_are_the_constructed_configurations(q, n, d):
    # The A-class clauses and the census read one centre listing; its
    # clauses are the constructors' configurations, in their order.
    index = build_index(field_new(q), n)
    engine = _CliqueEngine(index, d, "A_odd" if d % 2 else "A_even")
    assert engine.forbidden == [
        sum(1 << index.position(s) for s in fam)
        for fam in _canonical_configurations(index.field, n, d)]
