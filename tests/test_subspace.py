import random

import pytest

from qdiam.errors import AmbientMismatch, DimensionMismatch, ParseError
from qdiam.gfq import SUPPORTED_ORDERS, field_new
from qdiam.grassmann import build_index
from qdiam.subspace import Subspace, _rref_table

F2 = field_new(2)
F3 = field_new(3)


def span(field, n, *gens):
    return Subspace.from_generators(field, n, list(gens))


def random_subspace(field, n, rng, rows=None):
    if rows is None:
        rows = rng.randrange(0, n + 1)
    return Subspace.from_generators(
        field, n, [[rng.randrange(field.q) for _ in range(n)] for _ in range(rows)])


# -- construction ------------------------------------------------------------

def test_empty_span_is_zero():
    z = span(F2, 3)
    assert z.dim == 0
    assert z == Subspace.zero(F2, 3)


def test_dependent_generators_gf2():
    s = span(F2, 3, [1, 1, 0], [0, 1, 1], [1, 0, 1])
    assert s.dim == 2


def test_rank_two_gf3():
    # [2,1] = 2*[1,2] over GF(3), so that pair is dependent; [1,1] is not
    assert span(F3, 2, [1, 2], [2, 1]).dim == 1
    assert span(F3, 2, [1, 2], [1, 1]).dim == 2


def test_ragged_input_rejected():
    with pytest.raises(DimensionMismatch):
        Subspace.from_generators(F2, 3, [[1, 0, 0], [1, 0]])


def test_entry_out_of_range_rejected():
    with pytest.raises(ValueError):
        Subspace.from_generators(F2, 3, [[0, 2, 0]])


def test_rref_canonical_equality():
    a = span(F2, 4, [1, 1, 0, 0], [0, 0, 1, 1])
    b = span(F2, 4, [1, 1, 1, 1], [0, 0, 1, 1])
    assert a == b
    assert a.rows == b.rows
    assert hash(a) == hash(b)


# -- lattice operations ------------------------------------------------------

def test_sum_neutral_and_idempotent():
    s = span(F2, 3, [1, 1, 0])
    assert s.sum(Subspace.zero(F2, 3)) == s
    assert s.sum(s) == s


def test_sum_of_two_lines_is_plane():
    a = span(F2, 3, [1, 0, 0])
    b = span(F2, 3, [0, 1, 0])
    assert a.sum(b).dim == 2


def test_intersect_neutral():
    s = span(F3, 3, [1, 0, 2])
    assert s.intersect(Subspace.full(F3, 3)) == s
    a = span(F2, 3, [1, 0, 0])
    b = span(F2, 3, [0, 1, 0])
    assert a.intersect(b).dim == 0


def test_two_planes_meet_in_line():
    a = span(F2, 3, [1, 0, 0], [0, 1, 0])
    b = span(F2, 3, [0, 1, 0], [0, 0, 1])
    meet = a.intersect(b)
    assert meet.dim == 1
    assert meet == span(F2, 3, [0, 1, 0])


def test_contains():
    plane = span(F2, 3, [1, 0, 0], [0, 1, 0])
    line = span(F2, 3, [1, 1, 0])
    assert plane.contains(Subspace.zero(F2, 3))
    assert not Subspace.zero(F2, 3).contains(line)
    assert plane.contains(line)
    assert not line.contains(plane)
    assert plane.contains(line) == (plane.sum(line) == plane)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        span(F2, 3, [1, 0, 0]).sum(span(F2, 4, [1, 0, 0, 0]))
    with pytest.raises(AmbientMismatch):
        span(F2, 3, [1, 0, 0]).distance(span(F3, 3, [1, 0, 0]))


# -- the metric --------------------------------------------------------------

def test_distance_examples():
    z = Subspace.zero(F2, 3)
    v = Subspace.full(F2, 3)
    a = span(F2, 3, [1, 0, 0])
    b = span(F2, 3, [0, 1, 0])
    assert a.distance(a) == 0
    assert z.distance(v) == 3
    assert a.distance(b) == 2


def test_distance_closed_forms_agree():
    rng = random.Random(7)
    for field in (F2, F3):
        for _ in range(200):
            n = rng.randrange(1, 6)
            a = random_subspace(field, n, rng)
            b = random_subspace(field, n, rng)
            join = a.sum(b)
            meet = a.intersect(b)
            d = a.distance(b)
            assert d == join.dim - meet.dim
            assert d == a.dim + b.dim - 2 * meet.dim


def test_metric_axioms_exhaustive_n3():
    idx = build_index(F2, 3)
    subs = idx.subspaces
    for a in subs:
        for b in subs:
            dab = a.distance(b)
            assert dab == b.distance(a)
            assert (dab == 0) == (a == b)
            assert abs(a.dim - b.dim) <= dab
            for c in subs:
                assert dab <= a.distance(c) + c.distance(b)


def test_containment_gives_dim_difference():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 7)
        a = random_subspace(F2, n, rng)
        b = random_subspace(F2, n, rng)
        s = a.sum(b)
        assert s.distance(a) == s.dim - a.dim


# -- perp ---------------------------------------------------------------------

def test_perp_extremes():
    assert Subspace.zero(F2, 4).perp() == Subspace.full(F2, 4)
    assert Subspace.full(F2, 4).perp() == Subspace.zero(F2, 4)


def test_perp_of_axis_line():
    line = span(F2, 3, [1, 0, 0])
    assert line.perp() == span(F2, 3, [0, 1, 0], [0, 0, 1])


def test_perp_dimension_and_involution():
    rng = random.Random(13)
    for field in (F2, F3, field_new(4)):
        for _ in range(100):
            n = rng.randrange(0, 6)
            s = random_subspace(field, n, rng)
            p = s.perp()
            assert p.dim == n - s.dim
            assert p.perp() == s


def test_perp_isometry_random():
    rng = random.Random(17)
    for field in (F2, F3):
        for _ in range(200):
            n = rng.randrange(1, 6)
            a = random_subspace(field, n, rng)
            b = random_subspace(field, n, rng)
            assert a.perp().distance(b.perp()) == a.distance(b)


def _intersect_by_kernel(s: Subspace, t: Subspace) -> Subspace:
    """Intersection by matching coefficient vectors, independent of perp().

    Solves sum_i a_i s_i = sum_j b_j t_j: the kernel of the n x (ds+dt)
    matrix whose columns are the basis rows of s and the negated basis rows
    of t gives the coefficient pairs spanning the intersection.
    """
    s._check_ambient(t)
    field = s.field
    n = s.n
    ds, dt = s.dim, t.dim
    if ds == 0 or dt == 0:
        return Subspace.zero(field, n)
    neg = field.neg_table
    cols = ds + dt
    mat = []
    for r in range(n):
        row = [s.rows[i][r] for i in range(ds)]
        row += [neg[t.rows[j][r]] for j in range(dt)]
        mat.append(tuple(row))
    reduced, pivots = _rref_table(field, cols, mat)
    pivset = set(pivots)
    add = field.add_table
    mul = field.mul_table
    gens = []
    for f in range(cols):
        if f in pivset:
            continue
        coeff = [0] * cols
        coeff[f] = 1
        for i, p in enumerate(pivots):
            coeff[p] = neg[reduced[i][f]]
        vec = [0] * n
        for i in range(ds):
            c = coeff[i]
            if c:
                mrow = mul[c]
                vec = [add[v][mrow[e]] for v, e in zip(vec, s.rows[i])]
        gens.append(vec)
    return Subspace.from_generators(field, n, gens)


def test_intersect_matches_kernel_route():
    rng = random.Random(19)
    for q in SUPPORTED_ORDERS:
        field = field_new(q)
        for _ in range(120):
            n = rng.randrange(1, 6 if q <= 4 else 4)
            a = random_subspace(field, n, rng)
            b = random_subspace(field, n, rng)
            assert a.intersect(b) == _intersect_by_kernel(a, b)


# -- order, vectors, serialization -------------------------------------------

def test_total_order_sorts_by_dim_pivots_rows():
    idx = build_index(F2, 4)
    subs = list(idx.subspaces)
    rng = random.Random(23)
    shuffled = subs[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled, key=Subspace.sort_key) == subs


def test_vectors_enumeration():
    s = span(F3, 3, [1, 0, 2], [0, 1, 1])
    vecs = list(s.vectors())
    assert len(vecs) == 9
    assert len(set(vecs)) == 9
    assert all(s.contains(span(F3, 3, v)) for v in vecs)


def test_token_round_trip():
    rng = random.Random(29)
    for field in (F2, F3, field_new(4)):
        for _ in range(60):
            n = rng.randrange(0, 6)
            s = random_subspace(field, n, rng)
            assert Subspace.from_token(s.to_token()) == s


def test_token_format_example():
    s = span(F2, 4, [1, 1, 0, 0], [0, 0, 1, 1])
    assert s.to_token() == "2:4:2:1100,0011"


def test_token_rejects_non_rref():
    with pytest.raises(ParseError):
        Subspace.from_token("2:3:2:110,110")      # dependent rows
    with pytest.raises(ParseError):
        Subspace.from_token("2:3:1:011,001")      # wrong declared dim
    with pytest.raises(ParseError):
        Subspace.from_token("2:3:2:111,001")      # pivot not isolated
    with pytest.raises(ParseError):
        Subspace.from_token("2:3:1:012")          # digit out of field
    with pytest.raises(ParseError):
        Subspace.from_token("2:3:1")              # missing rows section


def test_token_accepts_canonical_non_leading_pivot_rows():
    # rows like (0,1,0) whose pivot is not column 0
    s = Subspace.from_token("2:3:1:010")
    assert s == span(F2, 3, [0, 1, 0])


def test_token_uses_hex_digits_for_large_fields():
    f16 = field_new(16)
    s = span(f16, 2, [1, 10], [0, 0])
    token = s.to_token()
    assert token == "16:2:1:1a"
    assert Subspace.from_token(token) == s


def test_vectors_count_gf4():
    f4 = field_new(4)
    s = span(f4, 3, [1, 2, 0], [0, 0, 1])
    vecs = list(s.vectors())
    assert len(vecs) == 16 and len(set(vecs)) == 16


def test_token_ambient_dim_zero():
    z = Subspace.zero(F2, 0)
    assert z.to_token() == "2:0:0:"
    assert Subspace.from_token("2:0:0:") == z
    assert z.perp() == z == Subspace.full(F2, 0)
