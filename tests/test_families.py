import io
import random
from itertools import combinations, product

import pytest

from qdiam.errors import (AmbientMismatch, BudgetExceeded, EmptyFamily,
                          InvalidConfiguration, ParameterOutOfRange,
                          ParseError)
from qdiam import families
from qdiam.cli import main
from qdiam.families import (ADMISSIBILITY_CLASSES, SubspaceFamily,
                            _covers_of, _min_meet, ball,
                            canonical_double_ball, canonical_family,
                            cross_intersection_profile, diameter,
                            diameter_at_most, dim_spread, double_ball,
                            extremal_odd_family, extremal_odd_triple,
                            hilton_milner_family, hilton_milner_triple,
                            is_admissible, is_cross_intersecting,
                            is_s_intersecting, lower_layers, min_supp_norm,
                            perp_family, read_family, star, upper_layers,
                            write_family)
from qdiam.gfq import SUPPORTED_ORDERS, field_new
from qdiam.grassmann import build_index, enumerate_layer, lattice_size
from qdiam.qcount import (gauss_binom, hilton_milner_bound, kleitman_bound,
                          layer_sum, odd_stability_bound, type_a_even_bound)
from qdiam.subspace import Subspace

F2 = field_new(2)
F3 = field_new(3)


def span(field, n, *gens):
    return Subspace.from_generators(field, n, list(gens))


def axis_line(field, n):
    return span(field, n, [1] + [0] * (n - 1))


def axis_subspace(field, n, indices):
    return span(field, n, *[[1 if j == i else 0 for j in range(n)] for i in indices])


def random_family(field, n, rng, size):
    members = []
    for _ in range(size):
        rows = rng.randrange(0, n + 1)
        members.append(Subspace.from_generators(
            field, n, [[rng.randrange(field.q) for _ in range(n)]
                       for _ in range(rows)]))
    return SubspaceFamily(field, n, members)


# -- families as containers ---------------------------------------------------

def test_family_dedupes_and_sorts():
    a = span(F2, 3, [1, 0, 0])
    b = span(F2, 3, [1, 0, 0], [1, 0, 0])
    fam = SubspaceFamily(F2, 3, [a, b, Subspace.zero(F2, 3)])
    assert len(fam) == 2
    assert fam.members == tuple(sorted(fam.members, key=Subspace.sort_key))
    assert fam.support == (0, 1)
    assert fam.layer_sizes() == {0: 1, 1: 1}


def test_family_rejects_mixed_ambient():
    with pytest.raises(AmbientMismatch):
        SubspaceFamily(F2, 3, [span(F2, 4, [1, 0, 0, 0])])


# -- balls and canonical families ----------------------------------------------

def test_ball_radius_zero():
    c = span(F2, 4, [1, 1, 0, 0], [0, 0, 1, 1])
    fam = ball(c, 0)
    assert fam.members == (c,)


def test_ball_around_zero_is_lower_layers():
    for t in range(4):
        assert ball(Subspace.zero(F2, 4), t) == lower_layers(F2, 4, t)


def test_ball_size_matches_even_stability_formula():
    x = axis_line(F2, 6)
    fam = ball(x, 2)
    assert len(fam) == type_a_even_bound(6, 2, 2)


def test_ball_membership_characterization_exhaustive():
    # line-centered radius-t ball: members are exactly the subspaces of
    # dimension < t, plus those of dimension t or t+1 containing the line
    n, t = 6, 2
    x = axis_line(F2, n)
    fam = ball(x, t)
    idx = build_index(F2, n)
    for a in idx.subspaces:
        expected = a.dim <= t - 1 or (a.dim in (t, t + 1) and a.contains(x))
        assert (a in fam) == expected


def test_double_ball_examples():
    c = span(F2, 4, [1, 0, 0, 0])
    assert double_ball(c, c, 1) == ball(c, 1)
    d = double_ball(Subspace.zero(F2, 4), c, 1)
    assert d == canonical_double_ball(c, 1)
    assert len(d) == kleitman_bound(4, 3, 2) == 23
    assert len(star(c, 2)) == gauss_binom(3, 1, 2) == 7


def test_lower_upper_layer_sizes():
    assert len(lower_layers(F2, 5, 2)) == layer_sum(5, 2, 2) == 187
    assert len(upper_layers(F2, 5, 2)) == 187
    assert upper_layers(F2, 5, 2) == perp_family(lower_layers(F2, 5, 2))
    assert canonical_family(F2, 5, 2, "L") == lower_layers(F2, 5, 2)
    assert canonical_family(F2, 5, 2, "U") == upper_layers(F2, 5, 2)


@pytest.mark.parametrize("n,t", [(-1, 1), (3, -2), (-1, -1)])
def test_lower_upper_layers_refuse_negative_parameters(n, t):
    for build in (lower_layers, upper_layers):
        with pytest.raises(ParameterOutOfRange):
            build(F2, n, t)


def test_lower_upper_disjoint_when_room():
    lo = lower_layers(F2, 5, 2)
    up = upper_layers(F2, 5, 2)
    assert not (lo.member_set & up.member_set)


def test_star_extremes():
    x = axis_line(F2, 4)
    assert star(x, 1).members == (x,)
    assert star(x, 4).members == (Subspace.full(F2, 4),)
    assert len(star(x, 2)) == gauss_binom(3, 1, 2)
    assert is_s_intersecting(star(x, 2).members, 1)


def test_whole_layer_not_intersecting():
    layer = list(enumerate_layer(F2, 4, 2))
    assert not is_s_intersecting(layer, 1)


# -- Hilton-Milner shapes -------------------------------------------------------

def test_hilton_milner_size_and_intersecting():
    n = 7
    x = axis_line(F2, n)
    y = axis_subspace(F2, n, [1, 2, 3])
    hm = hilton_milner_family(x, y)
    assert len(hm) == hilton_milner_bound(n, 3, 2) == 211
    assert is_s_intersecting(hm.members, 1)
    # nontrivial: no common line
    common = hm.members[0]
    for s in hm.members[1:]:
        common = common.intersect(s)
        if common.dim == 0:
            break
    assert common.dim == 0


def test_hilton_milner_rejects_x_inside_y():
    y = axis_subspace(F2, 7, [0, 1, 2])
    with pytest.raises(InvalidConfiguration):
        hilton_milner_family(axis_line(F2, 7), y)


def test_hilton_milner_triple_contains_center():
    y = axis_subspace(F2, 7, [1, 2, 3])
    fam = hilton_milner_triple(y)
    assert y in fam
    assert len(fam) == 211


def test_extremal_odd_families():
    n = 7
    x = axis_line(F2, n)
    y = axis_subspace(F2, n, [1, 2, 3])
    k = extremal_odd_family(x, y)
    assert len(k) == odd_stability_bound(n, 2, 2) == 3006
    assert k.layer(0) and k.layer(1) and k.layer(2)
    k3 = extremal_odd_triple(y)
    assert len(k3) == 3006
    assert set(k3.layer(0)) == {Subspace.zero(F2, n)}
    # lower layers are complete
    for i in range(3):
        assert len(k3.layer(i)) == gauss_binom(n, i, 2)


def test_q3_construction_sizes_smallest_n():
    # lower/upper layers at (q=3, n=5, t=2)
    assert len(lower_layers(F3, 5, 2)) == layer_sum(5, 2, 3)
    # canonical double ball at (q=3, n=4, t=1)
    x = axis_line(F3, 4)
    assert len(canonical_double_ball(x, 1)) == kleitman_bound(4, 3, 3)
    # line-centered ball at (q=3, n=6, t=2)
    x6 = axis_line(F3, 6)
    assert len(ball(x6, 2)) == type_a_even_bound(6, 2, 3)
    # Hilton-Milner shapes at (q=3, n=5, k=3)
    x5 = axis_line(F3, 5)
    y5 = axis_subspace(F3, 5, [1, 2, 3])
    assert len(hilton_milner_family(x5, y5)) == hilton_milner_bound(5, 3, 3)
    assert len(hilton_milner_triple(y5)) == hilton_milner_bound(5, 3, 3)
    assert len(extremal_odd_family(x5, y5)) == odd_stability_bound(5, 2, 3)
    assert len(extremal_odd_triple(y5)) == odd_stability_bound(5, 2, 3)


# -- direct construction against the layer scan ------------------------------

def _scan_ball(center, radius):
    """Reference: every subspace of the layers within radius of dim(center),
    kept when its distance to the center is at most radius."""
    field, n = center.field, center.n
    members = []
    for k in range(max(0, center.dim - radius),
                   min(n, center.dim + radius) + 1):
        for s in enumerate_layer(field, n, k, budget=None):
            if center.distance(s) <= radius:
                members.append(s)
    return SubspaceFamily(field, n, members)


def _scan_star(x, k):
    """Reference: the k-spaces of the whole layer that contain x."""
    return SubspaceFamily(x.field, x.n, [
        s for s in enumerate_layer(x.field, x.n, k, budget=None)
        if s.contains(x)])


def _scan_hilton_milner(x, y):
    """Reference: the k-spaces (k = dim y) through x meeting y, and those
    inside x + y, from a scan of the whole layer."""
    hull = x.sum(y)
    members = []
    for s in enumerate_layer(x.field, x.n, y.dim, budget=None):
        if s.contains(x):
            if _meet_dim(s, y) >= 1:
                members.append(s)
        elif hull.contains(s):
            members.append(s)
    return SubspaceFamily(x.field, x.n, members)


def _scan_hilton_milner_triple(y):
    """Reference: the 3-spaces of the whole layer meeting y in dim >= 2."""
    return SubspaceFamily(y.field, y.n, [
        s for s in enumerate_layer(y.field, y.n, 3, budget=None)
        if _meet_dim(s, y) >= 2])


def _meet_dim(a, b):
    return a.dim + b.dim - a.rank_with(b)


def _meet_centres(field, n, rng):
    """Every subspace of a lattice of at most 250; above that, random
    subspaces, 3000 // (lattice size) of each dimension (at least one)."""
    size = lattice_size(field.q, n)
    if size <= 250:
        for k in range(n + 1):
            yield from enumerate_layer(field, n, k)
        return
    for k in range(n + 1):
        picked = set()
        want = min(max(1, 3000 // size), gauss_binom(n, k, field.q))
        while len(picked) < want:
            s = Subspace.from_generators(
                field, n, [[rng.randrange(field.q) for _ in range(n)]
                           for _ in range(k)])
            if s.dim == k:
                picked.add(s)
        yield from sorted(picked)


def test_meeting_matches_layer_scan():
    # the k-spaces meeting c in exactly j dimensions, each once, the layer
    # scan's set, and [m j]_q [n-m k-j]_q q^((k-j)(m-j)) of them (m = dim c),
    # for every q and every n with q^n <= 256 whose lattice has at most
    # 3,000 subspaces; (2,7) and (2,8), 29,212 and 417,199, take tens of
    # seconds, and test_constructors_match_layer_scan covers (2,7)
    rng = random.Random(47)
    for q in SUPPORTED_ORDERS:
        field = field_new(q)
        n = 1
        while q ** n <= 256 and lattice_size(q, n) <= 3000:
            for c in _meet_centres(field, n, rng):
                m = c.dim
                for k in range(n + 1):
                    by_meet = {}
                    for s in enumerate_layer(field, n, k):
                        by_meet.setdefault(_meet_dim(s, c), set()).add(s)
                    for j in range(min(k, m) + 1):
                        built = list(families._meeting(c, k, j))
                        if k == j == 1:  # the lines of c, in canonical order
                            assert built == sorted(built)
                        assert len(set(built)) == len(built)
                        assert set(built) == by_meet.get(j, set())
                        assert len(built) == (
                            gauss_binom(m, j, q) * gauss_binom(n - m, k - j, q)
                            * q ** ((k - j) * (m - j)))
            n += 1


def _moved_axes(field, n, rng):
    """g<e0> and g<e1, e2, e3> for a random invertible g."""
    while True:
        g = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        if Subspace.from_generators(field, n, g).dim == n:
            return span(field, n, g[0]), span(field, n, *g[1:4])


@pytest.mark.parametrize("q,n", [(2, 7), (3, 5)])
def test_constructors_match_layer_scan(q, n):
    field = field_new(q)
    x, y = _moved_axes(field, n, random.Random(f"{q}:{n}"))
    t = 2

    def layers(ks):  # reference: every subspace of the layers ks
        return [s for k in ks for s in enumerate_layer(field, n, k)]
    assert lower_layers(field, n, t) == SubspaceFamily(field, n,
                                                       layers(range(t + 1)))
    assert upper_layers(field, n, t) == SubspaceFamily(
        field, n, layers(range(n - t, n + 1)))
    # at (2,7) the balls of radius >= 4 hold most of the lattice, and each
    # scan takes about 0.3 s
    for c in (x, y):
        for r in range(n + 1 if lattice_size(q, n) <= 3000 else 4):
            assert ball(c, r) == _scan_ball(c, r)
    assert double_ball(x, y, t) == SubspaceFamily(
        field, n, _scan_ball(x, t).members + _scan_ball(y, t).members)
    for k in range(1, n + 1):
        assert star(x, k) == _scan_star(x, k)
    assert star(y, 4) == _scan_star(y, 4)
    hm, hm3 = _scan_hilton_milner(x, y), _scan_hilton_milner_triple(y)
    assert hilton_milner_family(x, y) == hm
    assert hilton_milner_triple(y) == hm3
    assert canonical_double_ball(x, t - 1) == SubspaceFamily(
        field, n, layers(range(t)) + list(_scan_star(x, t)))
    assert extremal_odd_family(x, y) == SubspaceFamily(
        field, n, layers(range(t + 1)) + list(hm))
    assert extremal_odd_triple(y) == SubspaceFamily(
        field, n, layers(range(t + 1)) + list(hm3))


def test_construction_budget_bounds_the_subspaces_built(monkeypatch):
    # the r=2 ball around a line of F_2^7 builds 651 subspaces in its
    # largest layer, its 3-spaces through the line; the budget is checked
    # before any is built
    x = axis_line(F2, 7)
    assert len(ball(x, 2, budget=651)) == type_a_even_bound(7, 2, 2)

    def refuse(*args):
        raise AssertionError("built a subspace over the budget")
    for build in ("from_generators", "_from_rref"):
        monkeypatch.setattr(Subspace, build, classmethod(refuse))
    with pytest.raises(BudgetExceeded) as exc:
        ball(x, 2, budget=650)
    assert exc.value.would_be_count == 651


def test_odd_and_even_extremal_families_at_n8():
    # K(x, y) at (2, 8, t=2) and the radius-2 ball around a line: the
    # stability bounds, diameters 2t + 1 and 2t
    x = axis_line(F2, 8)
    k = extremal_odd_family(x, axis_subspace(F2, 8, [1, 2, 3]))
    assert len(k) == odd_stability_bound(8, 2, 2)
    assert diameter(k) == 5
    b = ball(x, 2)
    assert len(b) == type_a_even_bound(8, 2, 2)
    assert diameter(b) == 4
    # every 2- and 3-member holds x, so no scan meets them pair by pair
    assert diameter_at_most(b, 4) == (True, None)
    assert cross_intersection_profile(b)[0] == 4
    rep = is_admissible(b, "B_even", 2)
    assert (rep.witness_kind, rep.witness_centers) == ("ball", (x,))


# -- statistics -----------------------------------------------------------------

def test_diameter_examples():
    single = SubspaceFamily(F2, 3, [span(F2, 3, [1, 0, 0])])
    assert diameter(single) == 0
    assert diameter_at_most(single, 0) == (True, None)
    assert diameter_at_most(single, -1) == (False, single.members * 2)
    both_ends = SubspaceFamily(F2, 3, [Subspace.zero(F2, 3), Subspace.full(F2, 3)])
    assert diameter(both_ends) == 3
    assert diameter(lower_layers(F2, 5, 2)) == 4
    assert diameter(lower_layers(F2, 4, 2)) == 4
    with pytest.raises(EmptyFamily):
        diameter(SubspaceFamily(F2, 3, []))


def mask_builds(monkeypatch):
    """The list of subspaces whose vector mask is built from here on, one
    entry per build; a kept mask read back is not a build."""
    vector_mask = Subspace.vector_mask
    built = []

    def counted(self):
        if not hasattr(self, "_mask"):
            built.append(self)
        return vector_mask(self)

    monkeypatch.setattr(Subspace, "vector_mask", counted)
    return built


def test_diameter_matches_bruteforce(monkeypatch):
    # every statistic built on the member-pair meet scan, against all pairs;
    # meets come from intersect(), which does not go through rank_with.
    # Across all those scans each member builds its vector mask at most
    # once, and the mask it keeps is the one a fresh copy builds.
    built = mask_builds(monkeypatch)
    rng = random.Random(31)
    for field in (F2, F3, field_new(4)):
        for _ in range(60):
            n = rng.randrange(1, 6)
            fam = random_family(field, n, rng, rng.randrange(1, 8))
            mem = fam.members
            pairs = [(a, b) for i, a in enumerate(mem) for b in mem[i + 1:]]
            brute = max(a.distance(b) for a in fam for b in fam)
            built.clear()
            assert diameter(fam) == brute
            profile_d, rows = cross_intersection_profile(fam)
            assert profile_d == brute
            for d in range(n + 1):
                ok, pair = diameter_at_most(fam, d)
                assert diameter_at_most(fam, d) == (ok, pair)
                assert ok == (brute <= d)
                if not ok:
                    assert pair[0] in fam and pair[1] in fam
                    assert pair[0].distance(pair[1]) > d
                    # layer pairs are scanned by decreasing dimension sum
                    assert pair[0].dim + pair[1].dim == max(
                        a.dim + b.dim for a, b in pairs if a.distance(b) > d)
            for (i, j, _, got, _) in rows:
                meets = [a.intersect(b).dim for a, b in pairs
                         if {a.dim, b.dim} == {i, j}]
                assert got == min(meets, default=min(i, j))
            xs, ys = mem[::2], mem[1::2] or mem
            for s in range(n + 2):
                assert is_s_intersecting(mem, s) == (
                    min(a.dim for a in mem) >= s
                    and all(a.intersect(b).dim >= s for a, b in pairs))
                assert is_cross_intersecting(xs, ys, s) == all(
                    a.intersect(b).dim >= s for a in xs for b in ys)
            assert len(built) == len(set(built)) and set(built) <= set(mem)
            for a in set(built):
                fresh = Subspace.from_generators(field, n, a.rows)
                assert a.vector_mask() == fresh.vector_mask()


def _diameter_at_most_every_pair(fam, d):
    """diameter_at_most scanning every layer pair whose dimension sum
    exceeds d, however high the meets' floor; kept as reference."""
    for dimsum, a, b in families._layer_pairs_by_dimsum(fam):
        if dimsum <= d:
            break
        stop = (dimsum - d - 1) // 2
        m, pair = families._layer_pair_min_meet(fam, a, b, stop)
        if m is not None and m <= stop:
            return False, pair
    return True, None


def test_diameter_at_most_skips_pairs_that_cannot_exceed_d(monkeypatch):
    # An a-space and a b-space are at most 2n - a - b apart, so upper
    # layers, the perp of lower layers, need no member-pair scan either.
    rng = random.Random(47)
    cases = []
    for field, top in ((F2, 5), (F3, 4)):
        for n in range(1, top + 1):
            for t in range(n + 1):
                lower = lower_layers(field, n, t)
                cases += [lower, upper_layers(field, n, t)]
                cases.append(perp_family(SubspaceFamily(field, n, (
                    lower.members + random_family(field, n, rng, 4).members))))
            if n >= 2:
                dball = canonical_double_ball(axis_line(field, n), n // 2 - 1)
                cases += [dball, perp_family(dball)]
    for fam in cases:
        for d in range(fam.n + 1):
            assert (diameter_at_most(fam, d)
                    == _diameter_at_most_every_pair(fam, d)), (fam, d)
    calls = []
    min_meet = families._min_meet

    def counted(xs, ys, stop):
        calls.append(stop)
        return min_meet(xs, ys, stop)

    monkeypatch.setattr(families, "_min_meet", counted)
    for t in range(3):
        assert diameter_at_most(upper_layers(F2, 7, t), 2 * t) == (True, None)
    assert calls == []
    fam = upper_layers(F2, 7, 2)
    assert is_admissible(fam, "A_even", 2).witness_kind == "upper_layers"
    assert calls == []


def _structured_families(field, n, rng):
    """Families whose layers share a common subspace or a span: balls
    around a random centre of every dimension at every radius, the stars
    of those centres, the Hilton-Milner families and their extensions, the
    canonical double balls of a random line; then the perp of each, then a
    random half of each.  Families of more than 250 members are left out."""
    centres = [rng.choice(list(enumerate_layer(field, n, k)))
               for k in range(n + 1)]
    x = axis_line(field, n)
    fams = [ball(c, r) for c in centres for r in range(n + 1)]
    fams += [star(c, k) for c in centres for k in range(c.dim, n + 1)]
    fams += [canonical_double_ball(centres[1], t) for t in range(n)]
    for k in range(1, n):
        y = axis_subspace(field, n, range(1, k + 1))
        fams += [hilton_milner_family(x, y), extremal_odd_family(x, y)]
    if n >= 3:
        y = axis_subspace(field, n, range(n - 3, n))
        fams += [hilton_milner_triple(y), extremal_odd_triple(y)]
    fams = [f for f in fams if len(f) <= 250]
    fams += [perp_family(f) for f in fams]
    fams += [SubspaceFamily(field, n, rng.sample(f.members, (len(f) + 1) // 2))
             for f in fams if len(f) > 1]
    return list(dict.fromkeys(fams))


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3),
                                 (4, 4)])
def test_scans_at_the_layer_floor_match_every_pair(q, n):
    # diameter, cross_intersection_profile and diameter_at_most stop at the
    # floor the layers prove (_meet_floor); against the scans of every pair.
    # The floor is either max(0, a + b - n) or the one from each layer's
    # hull, its common subspace C and span S, which every meet respects.
    field = field_new(q)
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    for fam in _structured_families(field, n, random.Random(100 * q + n)):
        hulls = {}
        for k in fam.support:
            layer = fam.layer(k)
            c, s = full, zero
            for member in layer:  # every member, past 0 and F_q^n
                if not member.contains(c):
                    c = c.intersect(member)
                if not s.contains(member):
                    s = s.sum(member)
            assert families._hull(layer, field, n) == (c, s)
            hulls[k] = c, s
        meets = {}
        for _, a, b in families._layer_pairs_by_dimsum(fam):
            m, _ = _min_meet_by_rows(fam.layer(a),
                                     None if a == b else fam.layer(b), -1)
            (ca, sa), (cb, sb) = hulls[a], hulls[b]
            f = max(0, a + b - sa.sum(sb).dim, ca.intersect(cb).dim)
            assert families._meet_floor(fam, a, b) in (max(0, a + b - n), f)
            assert m is None or f <= m, (fam, a, b)
            meets[a, b] = min(a, b) if m is None else m
        brute = max(a + b - 2 * m for (a, b), m in meets.items())
        assert diameter(fam) == brute, fam
        profile_d, rows = cross_intersection_profile(fam)
        assert profile_d == brute
        assert {(i, j): got for i, j, _, got, _ in rows} == meets
        for d in range(n + 1):
            assert (diameter_at_most(fam, d)
                    == _diameter_at_most_every_pair(fam, d)), (fam, d)
        for k in fam.support:  # the hulls the scans kept are the walked ones
            assert fam.hull(k) == hulls[k]


def test_ball_scan_stops_at_the_centre(monkeypatch):
    # every 3-space of the r=2 ball around a line of F_2^7 holds the line,
    # so the (3, 3) layer pair stops at meet 1, after at most 651 of its
    # 211,575 pairs; pairs are met in combinations order (_min_meet).  The
    # profile's scans read the masks the diameter's scans built.
    x = axis_line(F2, 7)
    fam = ball(x, 2)
    assert len(fam.layer(3)) == 651
    scans = []
    min_meet = families._min_meet
    built = mask_builds(monkeypatch)

    def recorded(xs, ys, stop):
        scans.append((xs, ys, stop))
        return min_meet(xs, ys, stop)

    def pairs_met(xs, ys, stop):
        pairs = combinations(xs, 2) if ys is None else product(xs, ys)
        for met, (a, b) in enumerate(pairs, 1):
            if a.dim + b.dim - a.rank_with(b) <= stop:
                return met
        return met

    monkeypatch.setattr(families, "_min_meet", recorded)
    assert diameter(fam) == 4
    assert cross_intersection_profile(fam)[0] == 4
    for xs, ys, stop in scans:
        if len(xs) == 651 and ys is None:
            assert stop == 1
            assert pairs_met(xs, ys, stop) <= 651
    assert sum(len(xs) == 651 and ys is None for xs, ys, _ in scans) == 2
    assert len(built) == len(set(built))
    scans.clear()
    assert diameter_at_most(fam, 4) == (True, None)
    assert scans == []


def test_each_layer_hull_is_walked_once(tmp_path, monkeypatch, capsys):
    # the check's profile, is_admissible's diameter test and the A_odd
    # listing all read a layer's hull from the family, which walks it once
    walks = []
    hull = families._hull

    def recorded(members, field, n):
        walks.append(members)
        return hull(members, field, n)

    monkeypatch.setattr(families, "_hull", recorded)
    x = axis_line(F2, 7)
    path = tmp_path / "k.fam"
    with open(path, "w") as fh:
        write_family(extremal_odd_family(x, axis_subspace(F2, 7, [1, 2, 3])),
                     fh)
    assert main(["check", str(path), "--class", "B_odd", "--t", "2"]) == 0
    assert "admissibility[B_odd, t=2]: admissible" in capsys.readouterr().out
    assert sorted(members[0].dim for members in walks) == [1, 2, 3]
    walks.clear()
    x = axis_line(F2, 6)
    rep = is_admissible(canonical_double_ball(x, 2), "A_odd", 2)
    assert (rep.witness_kind, rep.witness_centers) == (
        "canonical_double_ball", (x,))
    assert [members[0].dim for members in walks] == [3]


def test_class_check_masks_each_member_once(tmp_path, monkeypatch, capsys):
    # the check's profile masks the members, and is_admissible's diameter
    # test reads those masks back; the B_odd centres meet by row elimination
    x = axis_line(F2, 7)
    fam = extremal_odd_family(x, axis_subspace(F2, 7, [1, 2, 3]))
    path = tmp_path / "k.fam"
    with open(path, "w") as fh:
        write_family(fam, fh)
    built = mask_builds(monkeypatch)
    assert main(["check", str(path), "--class", "B_odd", "--t", "2"]) == 0
    assert "admissibility[B_odd, t=2]: admissible" in capsys.readouterr().out
    assert built and len(built) == len(set(built))
    assert set(built) <= fam.member_set


@pytest.mark.parametrize("family_class", ADMISSIBILITY_CLASSES)
def test_is_admissible_refuses_negative_t(family_class):
    fam = lower_layers(F2, 3, 1)
    with pytest.raises(ParameterOutOfRange, match="t must be >= 0, got -1"):
        is_admissible(fam, family_class, -1)


def _min_meet_by_rows(xs, ys, stop):
    """Reference: the member-pair scan meeting each pair by row elimination."""
    best, pair = None, None
    for a, b in combinations(xs, 2) if ys is None else product(xs, ys):
        m = a.dim + b.dim - a.rank_with(b)
        if best is None or m < best:
            best, pair = m, (a, b)
            if m <= stop:
                break
    return best, pair


def _random_layer(field, n, k, rng, size):
    layer = []
    while len(layer) < size:
        s = Subspace.from_generators(
            field, n, [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)])
        if s.dim == k:
            layer.append(s)
    return layer


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_min_meet_matches_row_elimination(q):
    # same (meet, pair) as the pair-by-pair row-elimination scan, for both
    # shapes and for a stop that never fires, one at the floor and one at n
    field = field_new(q)
    rng = random.Random(q)
    n = max(n for n in range(2, 6) if q ** n <= 256)
    for a in range(n + 1):
        for b in range(a, n + 1):
            xs = _random_layer(field, n, a, rng, 6)
            ys = _random_layer(field, n, b, rng, 5)
            for stop in (-1, max(0, a + b - n), n):
                assert _min_meet(xs, None, stop) == _min_meet_by_rows(xs, None, stop)
                assert _min_meet(xs, ys, stop) == _min_meet_by_rows(xs, ys, stop)
    assert _min_meet(xs[:1], None, -1) == (None, None)
    assert _min_meet(xs, [], -1) == (None, None)


def test_min_meet_matches_row_elimination_at_n13():
    # masks of 2^13 bits, where row elimination is cheap
    n = 13
    rng = random.Random(13)
    layers = [_random_layer(F2, n, k, rng, 4) for k in (3, 6, 9)]
    for xs in layers:
        for ys in [None] + layers:
            for stop in (-1, 0, n):
                assert _min_meet(xs, ys, stop) == _min_meet_by_rows(xs, ys, stop)


def test_min_meet_refuses_masks_over_the_byte_budget(monkeypatch):
    xs = list(enumerate_layer(F2, 4, 2))  # 35 masks of 16 bits: 70 bytes
    monkeypatch.setattr(families, "DEFAULT_DISTANCE_CELL_BUDGET", 69)

    def no_mask(self):
        raise AssertionError("built a mask over the budget")

    monkeypatch.setattr(Subspace, "vector_mask", no_mask)
    with pytest.raises(BudgetExceeded) as exc:
        _min_meet(xs, None, -1)
    assert exc.value.would_be_count == 70


def test_cross_layer_min_meet_charges_both_sides(monkeypatch):
    # a cross-layer scan may leave both sides masked, so it charges both:
    # 15 lines and 35 planes of F_2^4 take 50 masks of 16 bits, 100 bytes,
    # where the planes alone take 70
    xs = list(enumerate_layer(F2, 4, 1))
    ys = list(enumerate_layer(F2, 4, 2))
    monkeypatch.setattr(families, "DEFAULT_DISTANCE_CELL_BUDGET", 99)

    def no_mask(self):
        raise AssertionError("built a mask over the budget")

    with monkeypatch.context() as m:
        m.setattr(Subspace, "vector_mask", no_mask)
        with pytest.raises(BudgetExceeded) as exc:
            _min_meet(xs, ys, -1)
    assert exc.value.would_be_count == 100
    monkeypatch.setattr(families, "DEFAULT_DISTANCE_CELL_BUDGET", 100)
    assert _min_meet(xs, ys, -1) == _min_meet_by_rows(xs, ys, -1)


def test_one_member_needs_no_masks(tmp_path, capsys):
    # One member of F_2^40 has no pair to meet, so no mask of 2^40 bits
    # is asked for and the byte budget does not apply.
    zero = Subspace.zero(F2, 40)
    assert _min_meet([zero], None, -1) == (None, None)
    assert is_s_intersecting([Subspace.full(F2, 40)], 40)
    path = tmp_path / "one.fam"
    path.write_text("family 2 40 1\n2:40:0:\n")
    assert main(["check", str(path)]) == 0
    assert "diameter 0 " in capsys.readouterr().out


def test_dim_spread_and_min_supp_norm():
    fam = lower_layers(F2, 5, 2)
    assert dim_spread(fam) == 2
    assert min_supp_norm(fam) == 0
    up = upper_layers(F2, 5, 2)
    assert min_supp_norm(up) == 0
    mid = SubspaceFamily(F2, 5, list(enumerate_layer(F2, 5, 2)))
    assert dim_spread(mid) == 0
    assert min_supp_norm(mid) == 2


def test_perp_family_properties():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randrange(1, 6)
        fam = random_family(F3, n, rng, rng.randrange(1, 7))
        pf = perp_family(fam)
        assert len(pf) == len(fam)
        assert diameter(pf) == diameter(fam)
        assert pf.support == tuple(n - k for k in reversed(fam.support))
        assert perp_family(pf) == fam
        assert 2 * min_supp_norm(fam) <= n - dim_spread(fam)


def test_perp_family_of_lower_is_upper():
    assert perp_family(lower_layers(F3, 4, 1)) == upper_layers(F3, 4, 1)


def test_cross_intersection_profile_on_double_ball():
    fam = canonical_double_ball(axis_line(F2, 4), 1)
    d, rows = cross_intersection_profile(fam)
    assert d == 3
    assert all(ok for (_, _, _, _, ok) in rows)
    # the (2,2) layer pair of the star is 1-intersecting
    row22 = [r for r in rows if r[0] == 2 and r[1] == 2][0]
    assert row22[2] == 1 and row22[3] >= 1


def test_cross_intersecting_predicate():
    x = axis_line(F2, 4)
    a = star(x, 2).members
    b = star(x, 3).members
    assert is_cross_intersecting(a, b, 1)
    # two 2-spaces of F_2^4 can be disjoint, so layer vs star fails at s=1
    assert not is_cross_intersecting(list(enumerate_layer(F2, 4, 2)), a, 1)
    with pytest.raises(EmptyFamily):
        is_cross_intersecting([], b, 1)


def test_min_supp_norm_bound_random():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randrange(1, 7)
        fam = random_family(F2, n, rng, rng.randrange(1, 8))
        assert 2 * min_supp_norm(fam) <= n - dim_spread(fam)


# -- admissibility ----------------------------------------------------------------

def test_lower_layers_not_a_even_admissible():
    rep = is_admissible(lower_layers(F2, 5, 2), "A_even", 2)
    assert not rep.admissible
    assert rep.witness_kind == "lower_layers"
    rep = is_admissible(upper_layers(F2, 5, 2), "A_even", 2)
    assert rep.witness_kind == "upper_layers"


def test_ball_a_even_admissible_not_b_even():
    x = axis_line(F2, 5)
    fam = ball(x, 2)
    rep = is_admissible(fam, "A_even", 2)
    assert rep.admissible
    rep = is_admissible(fam, "B_even", 2)
    assert not rep.admissible
    assert rep.witness_kind == "ball"
    assert rep.witness_centers[0] == x


def test_canonical_double_ball_not_a_odd_admissible():
    x = axis_line(F2, 4)
    fam = canonical_double_ball(x, 1)
    rep = is_admissible(fam, "A_odd", 1)
    assert not rep.admissible
    assert rep.witness_kind == "canonical_double_ball"
    assert rep.witness_centers[0] == x
    rep = is_admissible(perp_family(fam), "A_odd", 1)
    assert not rep.admissible
    assert rep.witness_kind == "canonical_double_ball_perp"


def test_a_odd_answers_beyond_the_line_budget():
    # F_2^24 has [24 1]_2 > DEFAULT_ENUM_BUDGET lines; A_odd lists only the
    # lines its members allow, so a small family is decided at once.
    n = 24
    planes = [axis_subspace(F2, n, ij) for ij in ((1, 2), (1, 3), (2, 3))]
    fam = SubspaceFamily(F2, n, planes[:2])
    x = axis_subspace(F2, n, [1])
    rep = is_admissible(fam, "A_odd", 1)
    assert rep.witness_kind == "canonical_double_ball"
    assert rep.witness_centers == (x,)
    assert is_admissible(SubspaceFamily(F2, n, planes), "A_odd", 1).admissible
    lines = SubspaceFamily(F2, n, [axis_subspace(F2, n, [3])])
    rep = is_admissible(lines, "A_odd", 1)
    assert rep.witness_centers == (axis_line(F2, n),)


def test_diameter_violation_reported():
    fam = SubspaceFamily(F2, 4, [Subspace.zero(F2, 4), Subspace.full(F2, 4)])
    rep = is_admissible(fam, "A_even", 1)
    assert not rep.admissible
    assert not rep.diameter_ok
    assert rep.witness_kind is None


def test_b_odd_admissibility_small():
    # K(5,3,X,Y) escapes every adjacent double ball at (q=2, n=5, t=2)
    x = axis_line(F2, 5)
    y = axis_subspace(F2, 5, [1, 2, 3])
    fam = extremal_odd_family(x, y)
    rep = is_admissible(fam, "A_odd", 2)
    assert rep.admissible
    rep = is_admissible(fam, "B_odd", 2)
    assert rep.admissible
    # while the canonical double ball itself is contained (in itself)
    dd = canonical_double_ball(x, 2)
    _assert_double_ball_witness(dd, 2)
    # and so is a q = 3 double ball around a line and a plane through it
    c1 = axis_line(F3, 4)
    c2 = axis_subspace(F3, 4, [0, 2])
    _assert_double_ball_witness(double_ball(c1, c2, 1), 1)


def _assert_double_ball_witness(fam, t):
    rep = is_admissible(fam, "B_odd", t)
    assert not rep.admissible
    assert rep.witness_kind == "double_ball"
    c1, c2 = rep.witness_centers
    assert c2.contains(c1) and c2.dim == c1.dim + 1
    assert all(min(c1.distance(m), c2.distance(m)) <= t for m in fam)


def _covers_by_scan(s):
    """Reference: scan all q^n vectors in base-q order, coordinate n-1 most
    significant, and keep each new span s + <v> of a v outside s."""
    field, n = s.field, s.n
    covers, seen = [], set()
    for digits in product(range(field.q), repeat=n):
        v = digits[::-1]
        if any(v) and not s.contains(Subspace.from_generators(field, n, [v])):
            cover = Subspace.from_generators(field, n, list(s.rows) + [v])
            if cover not in seen:
                seen.add(cover)
                covers.append(cover)
    return covers


def _subspaces_to_cover(field, n, rng):
    """Every subspace of a lattice of at most 400; above that, where the
    reference scan gets slow, up to 6 random subspaces per dimension."""
    if lattice_size(field.q, n) <= 400:
        for k in range(n + 1):
            yield from enumerate_layer(field, n, k)
        return
    for k in range(n + 1):
        picked = set()
        while len(picked) < min(6, gauss_binom(n, k, field.q)):
            s = Subspace.from_generators(
                field, n, [[rng.randrange(field.q) for _ in range(n)]
                           for _ in range(k)])
            if s.dim == k and s not in picked:
                picked.add(s)
                yield s


def test_covers_match_vector_scan():
    # same covers, in the same order and the same canonical form, as the
    # q^n scan, for every q and every n with q^n <= 256
    rng = random.Random(43)
    for q in SUPPORTED_ORDERS:
        field = field_new(q)
        n = 1
        while q ** n <= 256:
            for s in _subspaces_to_cover(field, n, rng):
                covers = list(_covers_of(s))
                assert covers == _covers_by_scan(s)
                assert len(covers) == gauss_binom(n - s.dim, 1, q)
                for c in covers:
                    canon = Subspace.from_generators(field, n, c.rows)
                    assert (c.pivots, c.key) == (canon.pivots, canon.key)
            n += 1


def _probes_left_unpruned(c1, probes, t):
    """Reference: the probes farther than t from c1, never None, so the
    B_odd scan enumerates the covers of every centre."""
    return [p for p in probes if c1.distance(p) > t]


def _b_odd_cases(field, n, rng):
    """Random families, balls, double balls around a cover pair, random
    halves of those double balls and, where n >= t + 2, the admissible
    Hilton-Milner family K(x, y) and a random half of it, for t = 0, 1, 2."""
    for t in range(min(2, n) + 1):
        yield random_family(field, n, rng, rng.randrange(1, 6)), t
        c1 = _random_layer(field, n, rng.randrange(n), rng, 1)[0]
        c2 = rng.choice(list(_covers_of(c1)))
        yield ball(c1, t), t
        for fam in (double_ball(c1, c2, t), _random_k_family(field, n, t, rng)):
            if fam is not None:
                yield fam, t
                half = rng.sample(fam.members, (len(fam) + 1) // 2)
                yield SubspaceFamily(field, n, half), t


def _random_k_family(field, n, t, rng):
    if t == 0 or n < t + 2:
        return None
    y = _random_layer(field, n, t + 1, rng, 1)[0]
    while True:
        x = _random_layer(field, n, 1, rng, 1)[0]
        if not y.contains(x):
            return extremal_odd_family(x, y)


# The unpruned reference takes 8 s at (3,5) and 3 s at (4,4); both stay out.
@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3),
                                 (3, 4), (4, 2), (4, 3)])
def test_b_odd_prune_matches_unpruned_scan(monkeypatch, q, n):
    field = field_new(q)
    rng = random.Random(100 * q + n)
    cases = [case for _ in range(3) for case in _b_odd_cases(field, n, rng)]
    pruned = [is_admissible(fam, "B_odd", t) for fam, t in cases]
    monkeypatch.setattr(families, "_probes_left_to_cover", _probes_left_unpruned)
    assert pruned == [is_admissible(fam, "B_odd", t) for fam, t in cases]


def test_b_odd_scan_expands_no_centre_with_a_far_probe(monkeypatch):
    # an admissible family: the scan visits every centre of its window and
    # enumerates covers for exactly those with every probe within t + 1
    n, t = 5, 2
    fam = extremal_odd_family(axis_line(F2, n), axis_subspace(F2, n, [1, 2, 3]))
    expanded = []
    covers_of = families._covers_of

    def counted_covers_of(c1):
        expanded.append(c1)
        return covers_of(c1)

    monkeypatch.setattr(families, "_covers_of", counted_covers_of)
    assert is_admissible(fam, "B_odd", t).admissible
    probes = families._probe_members(fam)
    window = [c1 for k in range(max(fam.support) - t - 1, min(fam.support) + t + 1)
              for c1 in enumerate_layer(F2, n, k)]
    near = [c1 for c1 in window if all(c1.distance(p) <= t + 1 for p in probes)]
    assert expanded == near
    assert 0 < len(near) < len(window)


def _centre_pairs_by_brute_force(field, n, family_class):
    """Reference: every centre pair of the class over the whole lattice, in
    the documented order, with its witness kind and reported centres; no
    dimension window, no probes, and covers from the q^n vector scan."""
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    lattice = [s for k in range(n + 1) for s in enumerate_layer(field, n, k)]
    lines = list(enumerate_layer(field, n, 1))
    if family_class == "A_even":
        return [(zero, zero, "lower_layers", ()),
                (full, full, "upper_layers", ())]
    if family_class == "A_odd":
        return ([(zero, x, "canonical_double_ball", (x,)) for x in lines]
                + [(full, x.perp(), "canonical_double_ball_perp", (x,))
                   for x in lines])
    if family_class == "B_even":
        return [(c, c, "ball", (c,)) for c in lattice]
    return [(c1, c2, "double_ball", (c1, c2))
            for c1 in lattice for c2 in _covers_by_scan(c1)]


def _admissibility_by_brute_force(fam, family_class, t, pairs):
    d = 2 * t if family_class.endswith("even") else 2 * t + 1
    if max(a.distance(b) for a in fam for b in fam) > d:
        return False, None, ()
    for c1, c2, kind, shown in pairs:
        if all(min(c1.distance(s), c2.distance(s)) <= t for s in fam):
            return False, kind, shown
    return True, None, ()


def _admissibility_cases(field, n, rng):
    """Random families, and for each t <= 2 a random ball, the canonical
    double ball of a random line and its perp, the layer unions, a double
    ball around a random cover pair, and a random half of each."""
    lattice = [s for k in range(n + 1) for s in enumerate_layer(field, n, k)]
    fams = [random_family(field, n, rng, size) for size in (1, 2, 3, 5, 8)]
    for t in range(3):
        fams += [ball(rng.choice(lattice), min(t, n)),
                 lower_layers(field, n, t), upper_layers(field, n, t)]
        if t + 1 <= n:
            cdb = canonical_double_ball(
                rng.choice(list(enumerate_layer(field, n, 1))), t)
            fams += [cdb, perp_family(cdb)]
        c1 = rng.choice([s for s in lattice if s.dim < n])
        fams.append(double_ball(c1, rng.choice(_covers_by_scan(c1)), min(t, n)))
    halves = [SubspaceFamily(field, n, rng.sample(f.members, (len(f) + 1) // 2))
              for f in fams if len(f) > 1]
    return fams + halves


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (3, 3), (4, 1), (4, 2)])
def test_admissibility_matches_brute_force_centre_scan(q, n):
    field = field_new(q)
    fams = _admissibility_cases(field, n, random.Random(10 * q + n))
    for family_class in ADMISSIBILITY_CLASSES:
        pairs = _centre_pairs_by_brute_force(field, n, family_class)
        for fam in fams:
            for t in range(3):
                rep = is_admissible(fam, family_class, t)
                assert (rep.admissible, rep.witness_kind, rep.witness_centers) \
                    == _admissibility_by_brute_force(fam, family_class, t,
                                                     pairs), (fam, family_class, t)


def test_is_admissible_validates_class():
    with pytest.raises(ValueError):
        is_admissible(lower_layers(F2, 4, 1), "C_even", 1)
    with pytest.raises(EmptyFamily):
        is_admissible(SubspaceFamily(F2, 4, []), "A_even", 1)


# -- family files ------------------------------------------------------------------

def test_family_file_round_trip():
    fam = canonical_double_ball(axis_line(F2, 4), 1)
    buf = io.StringIO()
    write_family(fam, buf)
    text = buf.getvalue()
    assert text.startswith("family 2 4 23\n")
    assert read_family(io.StringIO(text)) == fam


def test_family_file_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        read_family(io.StringIO("familia 2 4 1\n2:4:1:1000\n"))
    assert exc.value.line == 1
    bad_row = "family 2 4 2\n2:4:1:1000\n2:4:2:1100,1100\n"
    with pytest.raises(ParseError) as exc:
        read_family(io.StringIO(bad_row))
    assert exc.value.line == 3
    wrong_count = "family 2 4 3\n2:4:1:1000\n"
    with pytest.raises(ParseError):
        read_family(io.StringIO(wrong_count))
    mixed = "family 2 4 1\n3:4:1:1000\n"
    with pytest.raises(ParseError) as exc:
        read_family(io.StringIO(mixed))
    assert exc.value.line == 2
    for text, line, message in (
            ("family 2 3 1\n6:3:1:100\n", 2,
             "6 is not a prime power in '6:3:1:100'"),
            ("family 6 3 1\n2:3:1:100\n", 1, "6 is not a prime power"),
            ("family 2 3 2\n2:3:1:100\n\n2:3:1:100\n", 4,
             "member 2:3:1:100 repeats line 2"),
            ("family 2 3 2\n2:3:1:100\n2:3:2:110,010\n", 3,
             "rows of '2:3:2:110,010' are not in canonical RREF"),
            ("family 3 3 2\n3:3:1:100\n\n3:3:1:013\n", 4,
             "digit '3' invalid over GF(3)"),
            ("family 2 3 1\n2:3:01:100\n", 2,
             "non-canonical header in '2:3:01:100'")):
        with pytest.raises(ParseError) as exc:
            read_family(io.StringIO(text))
        assert (exc.value.line, str(exc.value)) == (
            line, f"line {line}: {message}")


def test_b_odd_admissibility_implies_a_odd():
    # the canonical double balls are unions of two adjacent radius-t balls,
    # so escaping all double balls implies escaping the canonical ones
    x = axis_line(F2, 5)
    y = axis_subspace(F2, 5, [1, 2, 3])
    candidates = [
        extremal_odd_family(x, y),
        canonical_double_ball(x, 2),
        canonical_double_ball(x, 1),
        ball(x, 1),
        SubspaceFamily(F2, 5, lower_layers(F2, 5, 1).members
                       + star(x, 2).members),
    ]
    for fam in candidates:
        for t in (1, 2):
            if max(fam.support) > 2 * t + 1:
                continue
            rep_b = is_admissible(fam, "B_odd", t)
            rep_a = is_admissible(fam, "A_odd", t)
            if rep_b.admissible:
                assert rep_a.admissible


def test_cross_intersection_required_levels():
    # required level for layers (i, j) under diameter d is ceil((i+j-d)/2)
    import math
    fam = canonical_double_ball(axis_line(F2, 5), 2)
    d, rows = cross_intersection_profile(fam)
    assert d == diameter(fam)
    for (i, j, required, got, ok) in rows:
        assert required == max(0, math.ceil((i + j - d) / 2))
        assert ok == (got >= required)
        assert ok
