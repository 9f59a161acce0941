import operator
import random
import re
import tracemalloc

import pytest

from qdiam.errors import AmbientMismatch, DimensionMismatch, ParseError
from qdiam.gfq import SUPPORTED_ORDERS, field_new
from qdiam.grassmann import build_index
from qdiam.subspace import (Subspace, _echelon_bits, _echelon_table, _rref_table,
                            vector_index)

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


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_non_integer_entry_rejected(q):
    field = field_new(q)
    for bad in (1.0, 0.0, "1"):
        with pytest.raises(ValueError):
            Subspace.from_generators(field, 3, [[1, 0, 1], [0, bad, 1]])
    assert span(field, 3, [True, False, True]) == span(field, 3, [1, 0, 1])


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


def _layer_ends(subs):
    """The first and last subspace of each layer of a canonical list."""
    ends = {}
    for s in subs:
        ends.setdefault(s.dim, [s, s])[1] = s
    return [s for pair in ends.values() for s in pair]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_nothing_contains_a_larger_subspace(q):
    field = field_new(q)
    for n in range(4):
        subs = build_index(field, n).subspaces
        for a in _layer_ends(subs):
            for b in subs:
                if b.dim > a.dim:
                    assert not a.contains(b)


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


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_perp_swaps_zero_and_full(q):
    field = field_new(q)
    for n in range(4):
        zero, full = Subspace.zero(field, n), Subspace.full(field, n)
        assert zero.perp() == full
        assert full.perp() == zero


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


# -- elimination cores ---------------------------------------------------------

def _sweep_echelon(field, n, rows):
    """Forward elimination by a column sweep with row swaps, kept as the
    reference for the pivot-dict core: the echelon rows (leading entries not
    normalised) and their pivots."""
    mat = [list(r) for r in rows]
    mul = field.mul_table
    sub = field.sub_table
    inv = field.inv_table
    pivots = []
    rank = 0
    nrows = len(mat)
    for col in range(n):
        sel = None
        for i in range(rank, nrows):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        row = mat[rank]
        ic = inv[row[col]]
        for i in range(rank + 1, nrows):
            ri = mat[i]
            if ri[col]:
                mrow = mul[mul[ri[col]][ic]]
                for j in range(col, n):
                    ri[j] = sub[ri[j]][mrow[row[j]]]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return mat[:rank], pivots


def _sweep_rref(field, n, rows):
    """The sweep's RREF: every row rescaled, then cleared above its pivot."""
    mat, pivots = _sweep_echelon(field, n, rows)
    mul = field.mul_table
    sub = field.sub_table
    inv = field.inv_table
    for i in range(len(mat) - 1, -1, -1):
        row = mat[i]
        col = pivots[i]
        c = row[col]
        if c != 1:
            mrow = mul[inv[c]]
            for j in range(col, n):
                row[j] = mrow[row[j]]
        for ri in mat[:i]:
            if ri[col]:
                mrow = mul[ri[col]]
                for j in range(col, n):
                    ri[j] = sub[ri[j]][mrow[row[j]]]
    return [tuple(r) for r in mat], pivots


def _assert_table_core_matches_sweep(field, n, rows):
    piv = _echelon_table(field, n, rows)
    for col, r in piv.items():
        assert r[col] == 1 and not any(r[:col])
    assert len(piv) == len(_sweep_echelon(field, n, rows)[1])
    assert _rref_table(field, n, rows) == _sweep_rref(field, n, rows)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (4, 3)])
def test_table_core_matches_sweep_on_stacked_pairs(q, n):
    field = field_new(q)
    subs = build_index(field, n, budget=None).subspaces
    for a in subs:
        for b in subs:
            _assert_table_core_matches_sweep(field, n, a.rows + b.rows)
            assert a.rank_with(b) == len(_sweep_echelon(field, n, a.rows + b.rows)[1])


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_table_core_matches_sweep_on_random_generators(q):
    # 5,600 lists per order, 56,000 over the ten orders: random, zero and
    # dependent rows (combinations of the rows drawn before)
    field = field_new(q)
    add, mul = field.add_table, field.mul_table
    rng = random.Random(q)
    for _ in range(5600):
        n = rng.randint(0, 6)
        rows = []
        for _ in range(rng.randint(0, n + 2)):
            kind = rng.randrange(6)
            if kind == 0:
                row = [0] * n
            elif kind < 3 and rows:
                row = [0] * n
                for r in rng.sample(rows, rng.randint(1, len(rows))):
                    m = mul[rng.randrange(q)]
                    row = [add[x][m[y]] for x, y in zip(row, r)]
            else:
                row = [rng.randrange(q) for _ in range(n)]
            rows.append(tuple(row))
        _assert_table_core_matches_sweep(field, n, rows)


def _assert_bit_core_matches_table_core(rows, n):
    packed = [vector_index(r, 2) for r in rows]
    sweep_rows, pivots = _sweep_rref(F2, n, rows)
    rank = len(_echelon_bits(packed))
    assert rank == len(_echelon_table(F2, n, rows)) == len(pivots)
    s = Subspace.from_generators(F2, n, rows)
    assert s.rows == tuple(sweep_rows) and s.pivots == tuple(pivots)
    assert s.key == tuple(vector_index(r, 2) for r in sweep_rows)


def test_bit_core_matches_table_core_on_stacked_pairs():
    for n in range(1, 5):
        subs = build_index(F2, n, budget=None).subspaces
        for a in subs:
            for b in subs:
                _assert_bit_core_matches_table_core(a.rows + b.rows, n)


@pytest.mark.parametrize("n", [7, 8])
def test_bit_core_matches_table_core_on_random_stacks(n):
    rng = random.Random(n)
    for _ in range(2000):
        rows = [tuple(rng.randrange(2) for _ in range(n))
                for _ in range(rng.randint(1, 2 * n))]
        _assert_bit_core_matches_table_core(rows, n)


# -- order, vectors, serialization -------------------------------------------

def test_total_order_sorts_by_dim_pivots_rows():
    idx = build_index(F2, 4)
    subs = list(idx.subspaces)
    rng = random.Random(23)
    shuffled = subs[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled, key=Subspace.sort_key) == subs


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_comparisons_follow_sort_key(q):
    field = field_new(q)
    for n in range(4):
        subs = build_index(field, n).subspaces
        for a in _layer_ends(subs):
            for b in subs:
                ka, kb = a.sort_key(), b.sort_key()
                assert (a < b, a <= b, a > b, a >= b) == (
                    ka < kb, ka <= kb, ka > kb, ka >= kb)
        other = F3 if q == 2 else F2
        for a, b in [(Subspace.zero(field, n), Subspace.zero(field, n + 1)),
                     (Subspace.full(field, n), Subspace.full(other, n))]:
            for compare in (operator.lt, operator.le, operator.gt,
                            operator.ge):
                with pytest.raises(AmbientMismatch):
                    compare(a, b)


def _vectors(field, n, rows):
    """Every combination of the rows as an entry tuple (q^len(rows) many):
    for a basis, every vector of its span once."""
    add, mul = field.add_table, field.mul_table
    combos = [tuple([0] * n)]
    for row in rows:
        combos = [tuple(add[a][mul[c][b]] for a, b in zip(base, row))
                  for c in range(field.q) for base in combos]
    return combos


def test_vectors_enumeration():
    s = span(F3, 3, [1, 0, 2], [0, 1, 1])
    vecs = _vectors(s.field, s.n, s.rows)
    assert len(vecs) == 9
    assert len(set(vecs)) == 9
    assert all(s.contains(span(F3, 3, v)) for v in vecs)


def _mask_by_parse(field, n, rows):
    """Reference: each vector of the span of the rows spelled as base-q
    digits and parsed as a base-q integer."""
    mask = 0
    for v in _vectors(field, n, rows):
        mask |= 1 << int("".join("0123456789abcdef"[e] for e in v) or "0", field.q)
    return mask


def test_vector_mask_matches_parsed_vectors():
    # every subspace of every lattice with q^n <= 256, q > 2
    for q in [q for q in SUPPORTED_ORDERS if q > 2]:
        field = field_new(q)
        n = 0
        while q ** n <= 256:
            for s in build_index(field, n, budget=None).subspaces:
                assert s.vector_mask() == _mask_by_parse(field, n, s.rows)
            n += 1


@pytest.mark.parametrize("q,n,k", [(2, 22, 11), (2, 24, 3), (2, 13, 13),
                                   (2, 16, 14), (3, 12, 6), (3, 9, 8),
                                   (4, 8, 4), (4, 7, 7), (5, 7, 3),
                                   (16, 4, 2)])
def test_vector_mask_bits_are_the_vectors_at_large_n(q, n, k):
    # the set bits of the mask, read off its binary numeral, are exactly
    # the parsed vectors of the span, both row formats, up to q^n = 2^24;
    # spans above 4096 vectors are listed in translated chunks
    field = field_new(q)
    s = random_subspace(field, n, random.Random(q * 100 + n), rows=k)
    bits = bin(s.vector_mask())[:1:-1]
    assert {i for i, c in enumerate(bits) if c == "1"} == {
        int("".join("0123456789abcdef"[e] for e in v), q)
        for v in _vectors(field, n, s.rows)}


def test_vector_mask_transient_is_bounded_by_the_numeral():
    # 2^18 vectors in F_2^20: the indices are listed 4096 at a time, so the
    # peak stays near the numeral's q^n bytes (about 11 q^n when the whole
    # index list was built first)
    rng = random.Random(18)
    s = span(F2, 20, *([int(i == j) for j in range(18)]
                       + [rng.randrange(2) for _ in range(2)]
                       for i in range(18)))
    tracemalloc.start()
    try:
        mask = s.vector_mask()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.dim == 18 and mask.bit_count() == 2 ** 18
    assert peak < 2 * 2 ** 20


def test_from_generators_is_reduced_and_spans_generators():
    rng = random.Random(41)
    for q in SUPPORTED_ORDERS:
        field = field_new(q)
        for _ in range(40):
            n = rng.randint(1, 4 if q <= 4 else 3)
            gens = [[rng.randrange(q) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 1 if q <= 4 else n))]
            s = Subspace.from_generators(field, n, gens)
            assert list(s.pivots) == sorted(set(s.pivots))
            for i, (row, p) in enumerate(zip(s.rows, s.pivots)):
                assert not any(row[:p]) and row[p] == 1
                assert all(r[p] == 0 for j, r in enumerate(s.rows) if j != i)
            assert s.key == tuple(vector_index(r, q) for r in s.rows)
            assert s.vector_mask() == _mask_by_parse(field, n, gens)


def test_token_round_trip():
    rng = random.Random(29)
    for field in (F2, F3, field_new(4)):
        for _ in range(60):
            n = rng.randrange(0, 6)
            s = random_subspace(field, n, rng)
            assert Subspace.from_token(s.to_token()) == s


def _token_from_rows(s):
    """The token format spelled out from the rows: hex digits serve every
    supported q <= 16."""
    rows = ",".join("".join(format(e, "x") for e in row) for row in s.rows)
    return f"{s.field.q}:{s.n}:{len(s.rows)}:{rows}"


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_kept_token_matches_the_rows_on_every_small_lattice(q):
    # to_token keeps its string; the kept string must be the one the rows
    # spell, on every call, and parse back (q >= 11 writes digits a-f)
    field = field_new(q)
    for n in range(4):
        for s in build_index(field, n, budget=None).subspaces:
            first = s.to_token()
            assert s.to_token() == first == _token_from_rows(s)
            # outer whitespace is stripped, as read_family lines need
            parsed = Subspace.from_token(f" {first}\n")
            assert parsed == s and parsed.to_token() == first


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
    with pytest.raises(ParseError):
        Subspace.from_token("6:3:1:100")          # no field of order 6
    # header fields that int() reads as 2:3:1 but that are not its spelling
    for token in ("+2:3:1:100", "2:03:1:100", "2:0_3:1:100", "2: 3:1:100",
                  "2:3:01:100", "\uff12:3:1:100", "2:3 :1:100"):
        with pytest.raises(ParseError, match="non-canonical header"):
            Subspace.from_token(token)
    # row characters outside the lowercase digits of the field
    for token, ch in (("16:2:1:1A", "A"), ("16:2:1:1\u0661", "\u0661"),
                      ("2:3:1:\uff11\uff10\uff10", "\uff11"),
                      ("2:3:1:1_0", "_"), ("2:3:1:+10", "+")):
        with pytest.raises(ParseError, match=re.escape(f"digit {ch!r} ")):
            Subspace.from_token(token)


def _perturbed(rows, q, rng):
    """rows with one of the faults a hand-edited token can have."""
    rows = [list(r) for r in rows]
    n = len(rows[0]) if rows else 0
    kind = rng.randrange(5)
    if kind == 0 and n:                          # one entry changed
        r = rng.randrange(len(rows))
        j = rng.randrange(n)
        rows[r][j] = (rows[r][j] + rng.randrange(1, q)) % q
    elif kind == 1 and len(rows) > 1:            # two rows swapped
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == 2 and q > 2:                    # a lead scaled
        r = rows[rng.randrange(len(rows))]
        c = rng.randrange(2, q)
        p = next(j for j, e in enumerate(r) if e)
        r[p] = c
    elif kind == 3:                              # a zero row inserted
        rows.insert(rng.randrange(len(rows) + 1), [0] * n)
    else:                                        # a dependent row inserted
        field = field_new(q)
        dep = [0] * n
        for r in rows:
            c = rng.randrange(q)
            dep = [field.add_table[x][field.mul_table[c][e]]
                   for x, e in zip(dep, r)]
        rows.insert(rng.randrange(len(rows) + 1), dep)
    return [tuple(r) for r in rows]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_token_check_agrees_with_elimination(q):
    # from_token checks canonical form on the rows as read; elimination is
    # the reference: a token parses iff from_generators leaves its rows
    # unchanged, and then to the same subspace, key included
    field = field_new(q)
    rng = random.Random(f"token-check:{q}")
    accepted = rejected = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        rows = random_subspace(field, n, rng).rows
        if rows and rng.randrange(3):
            rows = _perturbed(rows, q, rng)
        if len(rows) > n:
            continue
        token = "{}:{}:{}:{}".format(q, n, len(rows), ",".join(
            "".join(format(e, "x") for e in r) for r in rows))
        ref = Subspace.from_generators(field, n, rows)
        if ref.rows == tuple(rows):
            s = Subspace.from_token(token)
            assert s == ref and s.pivots == ref.pivots and s.key == ref.key
            accepted += 1
        else:
            with pytest.raises(ParseError, match="not in canonical RREF"):
                Subspace.from_token(token)
            rejected += 1
    assert accepted > 50 and rejected > 50


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
    vecs = _vectors(s.field, s.n, s.rows)
    assert len(vecs) == 16 and len(set(vecs)) == 16


def test_token_ambient_dim_zero():
    z = Subspace.zero(F2, 0)
    assert z.to_token() == "2:0:0:"
    assert Subspace.from_token("2:0:0:") == z
    assert z.perp() == z == Subspace.full(F2, 0)
