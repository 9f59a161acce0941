"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances (all exact) and runtime caps.

Criterion 7 includes a comparison that is stated pointwise over a grid but
genuinely fails on the low-n part of that grid (the underlying estimate is
asymptotic); the corresponding test is expected to stay red and the exact
counterexamples are asserted alongside in the companion test.  See
test_criterion7_type_compare_as_stated.
"""

import random
import time

import pytest

from qdiam.errors import BudgetExceeded
from qdiam.families import (SubspaceFamily, ball, canonical_double_ball,
                            diameter, dim_spread, extremal_odd_family,
                            extremal_odd_triple, hilton_milner_family,
                            hilton_milner_triple, is_admissible,
                            is_cross_intersecting, lower_layers,
                            min_supp_norm, perp_family, star, upper_layers)
from qdiam.gfq import field_new
from qdiam.grassmann import build_index, enumerate_layer, lattice_size
from qdiam.oracle import (max_admissible_family, max_diameter_family,
                          sweep_hm_positive, sweep_lemma26,
                          sweep_type_compare, sweep_type_ratio)
from qdiam.qcount import (count_profile, gauss_binom, hilton_milner_bound,
                          kleitman_bound, layer_sum, odd_stability_bound,
                          type_a_even_bound, type_b_even_bound)
from qdiam.subspace import Subspace

F2 = field_new(2)
F3 = field_new(3)


def axis_line(field, n):
    return Subspace.from_generators(field, n, [[1] + [0] * (n - 1)])


def axis_subspace(field, n, indices):
    return Subspace.from_generators(
        field, n, [[1 if j == i else 0 for j in range(n)] for i in indices])


def _report(criterion, text):
    print(f"ACCEPTANCE criterion {criterion}: {text}: PASS")


# -- criterion 1: main-theorem oracle match ------------------------------------

MAIN_TUPLES = [(2, 3, 2, 8), (2, 4, 2, 16), (2, 4, 3, 23), (3, 3, 2, 14)]


@pytest.mark.parametrize("q,n,d,expected", MAIN_TUPLES)
def test_criterion1_oracle_matches_kleitman(q, n, d, expected):
    start = time.monotonic()
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    elapsed = time.monotonic() - start
    assert rep.optimum == expected
    assert rep.optimum == kleitman_bound(n, d, q)
    assert rep.bound_match is True
    assert rep.proven_optimal and rep.exhaustive
    # greedy construction lower bound is attained at the verified parameters
    assert rep.greedy_seed_size == rep.optimum
    assert elapsed < 60.0
    _report(1, f"oracle (q={q}, n={n}, d={d}) optimum {rep.optimum} "
               f"= formula, {elapsed:.2f}s")


def test_criterion1_stretch_n5():
    # non-blocking stretch tier: exact optima at q=2, n=5 under a 10-minute
    # cap; the d=3 value is the formula value 47 (= 1 + 31 + [4 1]_2)
    for d, expected in ((2, 32), (3, 47), (4, 187)):
        start = time.monotonic()
        rep = max_diameter_family(2, 5, d, timeout_secs=600.0)
        elapsed = time.monotonic() - start
        assert not rep.timed_out
        assert rep.optimum == expected == kleitman_bound(5, d, 2)
        assert elapsed < 600.0
        _report(1, f"stretch oracle (q=2, n=5, d={d}) optimum {rep.optimum}, "
                   f"{elapsed:.2f}s")


# The frontier: every (2, 6, d) and (3, 5, d) with 2 <= d <= n-1, inside the
# default search budget and criterion 1's per-tuple time cap.
FRONTIER_TUPLES = [(2, 6, d) for d in range(2, 6)] + [(3, 5, d) for d in range(2, 5)]


@pytest.mark.parametrize("q,n,d", FRONTIER_TUPLES)
def test_criterion1_frontier_proven(q, n, d):
    start = time.monotonic()
    rep = max_diameter_family(q, n, d, timeout_secs=60.0)
    elapsed = time.monotonic() - start
    assert not rep.timed_out and rep.proven_optimal
    assert rep.optimum == kleitman_bound(n, d, q)
    assert rep.bound_match is True
    assert elapsed < 60.0
    _report(1, f"frontier oracle (q={q}, n={n}, d={d}) optimum {rep.optimum} "
               f"= formula, {elapsed:.2f}s")


# -- criterion 2: equality characterization ------------------------------------

@pytest.mark.parametrize("q,n,d,expected_count", [
    (2, 3, 2, 4), (2, 4, 2, 2), (2, 4, 3, 120), (3, 3, 2, 4)])
def test_criterion2_characterization(q, n, d, expected_count):
    rep = max_diameter_family(q, n, d, enumerate_all=True)
    assert rep.characterization_match, rep.characterization_diagnostics
    assert rep.witness_count == expected_count
    field = field_new(q)
    t = d // 2
    if n >= d + 2:
        if d % 2 == 0:
            assert set(rep.witnesses) == {lower_layers(field, n, t),
                                          upper_layers(field, n, t)}
    else:
        # boundary: every witness is a per-pair complementary split
        for fam in rep.witnesses:
            for k in range(t + 1):
                sizes = (len(fam.layer(k)), len(fam.layer(n - k)))
                full = gauss_binom(n, k, q)
                assert sizes in ((full, 0), (0, full))
    _report(2, f"(q={q}, n={n}, d={d}) all {rep.witness_count} witnesses "
               f"match the equality cases")


def test_criterion2_census_independent_middle_count():
    # the 120 maximum families at (2,4,3) are 4 complementary splits times
    # the 30 maximum 1-intersecting middle layers; count the middles by an
    # independent clique search over the 35 planes of F_2^4
    layer = list(enumerate_layer(F2, 4, 2))
    target = gauss_binom(3, 1, 2)  # 7
    n_found = 0
    found = []

    def extend(chosen, start):
        nonlocal n_found
        if len(chosen) == target:
            n_found += 1
            return
        for i in range(start, len(layer)):
            cand = layer[i]
            if all(c.dim + cand.dim - c.rank_with(cand) >= 1 for c in chosen):
                chosen.append(cand)
                extend(chosen, i + 1)
                chosen.pop()

    extend([], 0)
    assert n_found == 30
    rep = max_diameter_family(2, 4, 3, enumerate_all=True)
    assert rep.witness_count == 4 * n_found == 120
    _report(2, "witness census at (2,4,3): 4 splits x 30 middles = 120")


def test_criterion2_stretch_n_d_plus_2_odd_census():
    # n = d+2 odd at (q=2, n=5, d=3): exactly the 31 canonical double balls
    # and their 31 perps
    rep = max_diameter_family(2, 5, 3, enumerate_all=True, timeout_secs=600.0)
    assert not rep.timed_out
    assert rep.characterization_match, rep.characterization_diagnostics
    assert rep.witness_count == 2 * gauss_binom(5, 1, 2) == 62
    expected = set()
    for x in enumerate_layer(F2, 5, 1):
        fam = canonical_double_ball(x, 1)
        expected.add(fam)
        expected.add(perp_family(fam))
    assert set(rep.witnesses) == expected
    _report(2, "stretch (2,5,3): witness set is exactly the 62 canonical "
               "double balls and perps")


# -- criterion 3: counting-formula oracle ---------------------------------------

def test_criterion3_profile_histograms_exact():
    start = time.monotonic()
    for q in (2, 3):
        field = field_new(q)
        for n in range(6):
            idx = build_index(field, n)
            layers = {k: idx.layer(k) for k in range(n + 1)}
            for k in range(n + 1):
                for a in layers[k]:
                    hists = {l: {} for l in range(n + 1)}
                    for l in range(n + 1):
                        h = hists[l]
                        for b in layers[l]:
                            j = a.dim + b.dim - a.rank_with(b)
                            h[j] = h.get(j, 0) + 1
                    for l in range(n + 1):
                        for j in range(min(k, l) + 1):
                            assert hists[l].get(j, 0) == count_profile(n, k, l, j, q), \
                                (q, n, k, l, j)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(3, f"profile histograms exact for every center, q in {{2,3}}, "
               f"n <= 5, {elapsed:.1f}s")


def test_criterion3_profile_sum_identity_symbolic():
    start = time.monotonic()
    for n in range(11):
        for k in range(n + 1):
            for l in range(n + 1):
                degree = l * (n - l)
                for q in range(2, degree + 4):
                    total = sum(count_profile(n, k, l, j, q)
                                for j in range(min(k, l) + 1))
                    assert total == gauss_binom(n, l, q)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(3, f"profile sum identity pinned symbolically up to n = 10, "
               f"{elapsed:.1f}s")


# -- criterion 4: construction size identities -----------------------------------

def test_criterion4_sizes_q2():
    start = time.monotonic()
    assert len(lower_layers(F2, 5, 2)) == layer_sum(5, 2, 2) == 187
    assert len(upper_layers(F2, 5, 2)) == 187
    x4 = axis_line(F2, 4)
    assert len(canonical_double_ball(x4, 1)) == kleitman_bound(4, 3, 2) == 23
    x7 = axis_line(F2, 7)
    y7 = axis_subspace(F2, 7, [1, 2, 3])
    assert len(ball(x7, 2)) == type_a_even_bound(7, 2, 2) == 842
    assert len(hilton_milner_family(x7, y7)) == 211
    assert len(extremal_odd_family(x7, y7)) == odd_stability_bound(7, 2, 2) == 3006
    assert len(hilton_milner_triple(y7)) == 211
    assert len(extremal_odd_triple(y7)) == 3006
    assert len(star(x7, 3)) == gauss_binom(6, 2, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(4, f"q=2 size identities (211/842/3006/23/187), {elapsed:.1f}s")


def test_criterion4_sizes_q3():
    start = time.monotonic()
    assert len(lower_layers(F3, 5, 2)) == layer_sum(5, 2, 3)
    assert len(upper_layers(F3, 5, 2)) == layer_sum(5, 2, 3)
    x4 = axis_line(F3, 4)
    assert len(canonical_double_ball(x4, 1)) == kleitman_bound(4, 3, 3) == 54
    x6 = axis_line(F3, 6)
    assert len(ball(x6, 2)) == type_a_even_bound(6, 2, 3) == 1696
    x5 = axis_line(F3, 5)
    y5 = axis_subspace(F3, 5, [1, 2, 3])
    assert len(hilton_milner_family(x5, y5)) == hilton_milner_bound(5, 3, 3) == 157
    assert len(extremal_odd_family(x5, y5)) == odd_stability_bound(5, 2, 3)
    assert len(hilton_milner_triple(y5)) == 157
    assert len(extremal_odd_triple(y5)) == odd_stability_bound(5, 2, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(4, f"q=3 size identities at the smallest defined n, {elapsed:.1f}s")


# -- criterion 5: diameters and admissibility of the extremal families ------------

def test_criterion5_diameters_and_admissibility():
    start = time.monotonic()
    n, t = 7, 2
    x = axis_line(F2, n)
    y = axis_subspace(F2, n, [1, 2, 3])

    dball = canonical_double_ball(x, t)
    assert diameter(dball) == 2 * t + 1
    b = ball(x, t)
    assert diameter(b) <= 2 * t
    k_fam = extremal_odd_family(x, y)
    assert diameter(k_fam) <= 2 * t + 1
    k3_fam = extremal_odd_triple(y)
    assert diameter(k3_fam) <= 2 * t + 1

    rep = is_admissible(b, "A_even", t)
    assert rep.admissible
    rep = is_admissible(b, "B_even", t)
    assert not rep.admissible and rep.witness_kind == "ball"

    for fam, name in ((k_fam, "K"), (k3_fam, "K*")):
        rep = is_admissible(fam, "A_odd", t)
        assert rep.admissible, name
        rep = is_admissible(fam, "B_odd", t)   # exhaustive center-pair scan
        assert rep.admissible, name

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(5, f"extremal family diameters and admissibility at (2,7,2), "
               f"{elapsed:.1f}s")


# -- criterion 6: metric and isometry suite ----------------------------------------

def test_criterion6_exhaustive_small():
    start = time.monotonic()
    for n in range(5):
        idx = build_index(F2, n)
        subs = idx.subspaces
        nv = len(subs)
        table = idx.distance_table()
        perp_pos = [idx.position(s.perp()) for s in subs]
        for i in range(nv):
            assert table[i * nv + i] == 0
            assert perp_pos[perp_pos[i]] == i
            for j in range(nv):
                dij = table[i * nv + j]
                assert dij == table[j * nv + i]
                if i != j:
                    assert dij > 0
                assert abs(subs[i].dim - subs[j].dim) <= dij
                assert table[perp_pos[i] * nv + perp_pos[j]] == dij
                if subs[i].contains(subs[j]):
                    assert dij == subs[i].dim - subs[j].dim
        for i in range(nv):
            row_i = i * nv
            for j in range(nv):
                dij = table[row_i + j]
                row_j = j * nv
                for k in range(nv):
                    assert dij <= table[row_i + k] + table[row_j + k]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(6, f"exhaustive metric/isometry suite at q=2, n <= 4, {elapsed:.1f}s")


def test_criterion6_randomized():
    start = time.monotonic()
    rng = random.Random(20250809)
    samples = 10_000

    def rand_sub(field, n):
        rows = rng.randrange(0, n + 1)
        return Subspace.from_generators(
            field, n, [[rng.randrange(field.q) for _ in range(n)]
                       for _ in range(rows)])

    for _ in range(samples):
        q = rng.choice((2, 3))
        field = field_new(q)
        n = rng.randrange(1, 9)
        a, b, c = rand_sub(field, n), rand_sub(field, n), rand_sub(field, n)
        dab = a.distance(b)
        assert dab == b.distance(a)
        assert (dab == 0) == (a == b)
        assert dab <= a.distance(c) + c.distance(b)
        assert abs(a.dim - b.dim) <= dab
        assert a.perp().distance(b.perp()) == dab
        assert a.perp().perp() == a
        j = a.sum(b)
        assert j.distance(a) == j.dim - a.dim

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(6, f"randomized metric suite, {samples} samples, {elapsed:.1f}s")


def test_criterion6_cross_intersection_and_support_norm():
    # bounded-diameter subfamilies: layer pairs (i, j) must be
    # cross-ceil((i+j-d)/2)-intersecting; support norm <= (n - spread)/2
    start = time.monotonic()
    rng = random.Random(20250810)

    def rand_sub_near(field, n, center):
        keep = [row for row in center.rows if rng.randrange(2)]
        extra = [[rng.randrange(field.q) for _ in range(n)]
                 for _ in range(rng.randrange(0, 3))]
        return Subspace.from_generators(field, n, keep + extra)

    families = 400
    for _ in range(families):
        q = rng.choice((2, 3))
        field = field_new(q)
        n = rng.randrange(2, 9)
        center = Subspace.from_generators(
            field, n, [[rng.randrange(q) for _ in range(n)]
                       for _ in range(rng.randrange(0, n + 1))])
        members = [rand_sub_near(field, n, center) for _ in range(rng.randrange(2, 9))]
        fam = SubspaceFamily(field, n, members)
        d = diameter(fam)
        supp = fam.support
        for ii, i in enumerate(supp):
            for j in supp[ii:]:
                required = max(0, -((d - i - j) // 2))
                if required:
                    assert is_cross_intersecting(fam.layer(i), fam.layer(j),
                                                 required), (q, n, d, i, j)
        assert 2 * min_supp_norm(fam) <= n - dim_spread(fam)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(6, f"cross-intersection levels + support norm on {families} "
               f"random families, {elapsed:.1f}s")


# -- criterion 7: exact inequality sweeps --------------------------------------------

def test_criterion7_lemma26_full_grid():
    start = time.monotonic()
    rep = sweep_lemma26(q_values=(2, 3, 4), k_max=20, n_max=40)
    elapsed = time.monotonic() - start
    assert rep.all_pass, rep.failures()[:3]
    assert rep.tuple_count > 3000
    assert elapsed < 60.0
    _report(7, f"small-s comparison holds on all {rep.tuple_count} tuples, "
               f"{elapsed:.1f}s")


def test_criterion7_hm_positive_full_grid():
    start = time.monotonic()
    rep = sweep_hm_positive(q_values=(2, 3), t_values=(2, 3, 4), n_max=40)
    elapsed = time.monotonic() - start
    assert rep.all_pass
    assert elapsed < 60.0
    _report(7, f"Hilton-Milner excess positive on all {rep.tuple_count} "
               f"tuples, {elapsed:.1f}s")


def test_criterion7_type_compare_as_stated():
    # Stated criterion: type-B bound < type-A bound for q in {2,3},
    # t in {2,3}, 6t <= n <= 12t.  This is genuinely false at the low-n end
    # (first failure: q=2, t=2, n=12, where the type-B value exceeds the
    # type-A value by a factor of about 75); the underlying estimate is
    # asymptotic.  Kept as stated so the defect stays visible; see
    # docs/decisions.md and the exact counterexamples in the companion
    # test below.
    start = time.monotonic()
    rep = sweep_type_compare(q_values=(2, 3), t_values=(2, 3))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert rep.all_pass, (
        f"{len(rep.failures())} of {rep.tuple_count} grid tuples fail the "
        f"pointwise comparison; first: {rep.failures()[0]}")
    _report(7, "type-B < type-A pointwise on the stated grid")


def test_criterion7_type_comparison_exact_facts():
    # The exact facts that do hold: the cleared-denominator ratio estimate
    # on the whole grid, and the pointwise comparison on the top part.
    start = time.monotonic()
    rep = sweep_type_ratio(q_values=(2, 3), t_values=(2, 3))
    assert rep.all_pass
    assert type_b_even_bound(12, 2, 2) == 4096 + 20 * 651 * 4095  # not < typeA
    assert type_b_even_bound(12, 2, 2) > type_a_even_bound(12, 2, 2)
    for q in (2, 3):
        for t in (2, 3):
            n = 12 * t
            assert type_b_even_bound(n, t, q) < type_a_even_bound(n, t, q)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(7, f"exact ratio estimate holds on the full grid, {elapsed:.1f}s")


# -- criterion 8: not desk-reproducible, declared --------------------------------------

def test_criterion8_thresholds_beyond_enumeration():
    # the stability theorems' hypothesis ranges start at n = 7t+5 = 19
    # (even, t=2) and n = 5t+3 = 13 (odd, t=2); those lattices are
    # astronomically large and the oracle must refuse them up front
    assert lattice_size(2, 19) > 10**28
    with pytest.raises(BudgetExceeded):
        max_diameter_family(2, 19, 4)
    with pytest.raises(BudgetExceeded):
        max_admissible_family(2, 13, 5, "A_odd")
    _report(8, "hypothesis-range parameters refused with exact would-be counts")


def test_criterion8_below_threshold_observations():
    # substitute acceptance: exact below-threshold optima recorded as
    # observations, never asserted against the stability theorems
    rep = max_admissible_family(2, 5, 4, "A_even")
    assert rep.proven_optimal
    assert rep.optimum == 187            # observed: exceeds g(5,2) = 82
    assert rep.formula_value == 82
    assert rep.in_hypothesis_range is False
    assert rep.bound_match is None       # no theorem assertion below range

    rep = max_admissible_family(2, 4, 3, "A_odd")
    assert rep.proven_optimal
    assert rep.optimum == 23             # observed: equals the formula value
    assert rep.formula_value == 23
    assert rep.in_hypothesis_range is False
    assert rep.bound_match is None

    rep = max_admissible_family(2, 2, 3, "B_odd")
    assert rep.infeasible and rep.optimum == 0
    _report(8, "below-threshold observations recorded (187 vs 82; 23 = 23; "
               "infeasible case flagged)")
