import io
import random
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiam.errors import AmbientMismatch, BudgetExceeded
from qdiam.families import _covers_of, _meeting
from qdiam.gfq import SUPPORTED_ORDERS, field_new
from qdiam.grassmann import (build_index, enumerate_layer, lattice_size,
                             write_subspaces)
from qdiam.qcount import count_profile, gauss_binom
from qdiam.subspace import Subspace, vector_index

F2 = field_new(2)
F3 = field_new(3)


def test_layer_examples():
    assert len(list(enumerate_layer(F2, 3, 1))) == 7
    assert [s.dim for s in enumerate_layer(F3, 4, 0)] == [0]
    layer = list(enumerate_layer(F2, 4, 2))
    assert len(layer) == 35
    assert len(set(layer)) == 35


def _stored(s):
    return s.rows, s.pivots, s.key


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_patterns_without_free_cells(q):
    """Layer 0 and the pivot pattern (n-k, ..., n-1) have no free cell, so
    the pattern loop fills each once, with the empty filling."""
    field = field_new(q)
    for n in range(4):
        zero = Subspace.zero(field, n)
        layer = list(enumerate_layer(field, n, 0))
        assert layer == [zero]
        assert _stored(layer[0]) == _stored(zero)
        for k in range(1, n + 1):
            pivots = tuple(range(n - k, n))
            found = [s for s in enumerate_layer(field, n, k)
                     if s.pivots == pivots]
            units = Subspace.from_generators(
                field, n, [[int(j == p) for j in range(n)] for p in pivots])
            assert found == [units]
            assert _stored(found[0]) == _stored(units)


def _enumerate_by_fill(field, n, k):
    """Reference: the k-subspaces of F_q^n, filling the free cells of each
    pivot pattern in row-major order, the first cell most significant."""
    q = field.q
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivset]
        base = []
        for i in range(k):
            row = [0] * n
            row[pivots[i]] = 1
            base.append(row)
        for fill in product(range(q), repeat=len(free)):
            for (i, j), v in zip(free, fill):
                base[i][j] = v
            rows = tuple(tuple(r) for r in base)
            yield Subspace._from_rref(field, n, rows, pivots)


def _full(s):
    return s.rows, s.pivots, s.key, hash(s)


# Every lattice of at most 3,000 subspaces, every supported q, and (2, 7).
SMALL_LATTICES = [(q, n) for q in SUPPORTED_ORDERS for n in range(9)
                  if lattice_size(q, n) <= 3000] + [(2, 7)]


@pytest.mark.parametrize("q,n", SMALL_LATTICES)
def test_row_option_walk_matches_fill_loop(q, n):
    field = field_new(q)
    expected = []
    for k in range(n + 1):
        layer = [_full(s) for s in _enumerate_by_fill(field, n, k)]
        assert [_full(s) for s in enumerate_layer(field, n, k)] == layer
        expected += layer
    # the index's keys are the packed rows, in the same order; a vertex
    # built alone and one of the whole tuple match the reference alike
    index = build_index(field, n, budget=None)
    assert list(index.keys) == [tuple(vector_index(r, q) for r in rows)
                                for rows, *_ in expected]
    assert [_full(s) for s in index.subspaces] == expected
    index = build_index(field, n, budget=None)
    assert [_full(index.subspace(i)) for i in range(index.size)] == expected


def _built_every_way(index, rng):
    """Subspaces of the index's lattice from every builder: the walk, the
    index, tokens and generators for every vertex; zero, full, perp, sum
    and intersect on a sample; covers and meeting spaces of a few centres."""
    field, n = index.field, index.n
    subs = list(index.subspaces)
    built = subs + [s for k in range(n + 1)
                    for s in enumerate_layer(field, n, k, budget=None)]
    built += [Subspace.from_token(s.to_token()) for s in subs]
    built += [Subspace.from_generators(field, n, s.rows) for s in subs]
    built += [Subspace.zero(field, n), Subspace.full(field, n)]
    sample = rng.sample(subs, min(len(subs), 200))
    for a, b in zip(sample, reversed(sample)):
        built += [a.perp(), a.sum(b), a.intersect(b)]
    for c in sample[:3]:
        built += _covers_of(c)
        k = rng.randint(0, n)
        j = rng.randint(max(0, k + c.dim - n), min(k, c.dim))
        built += islice(_meeting(c, k, j), 500)
    return built


@pytest.mark.parametrize("q,n", SMALL_LATTICES)
def test_every_builder_keeps_the_key(q, n):
    # the key is the rows' vector indices however a subspace is built, and
    # ==, hash and the order read it as they would read the rows
    index = build_index(field_new(q), n, budget=None)
    rng = random.Random(f"key:{q}:{n}")
    built = _built_every_way(index, rng)
    for s in built:
        assert s.key == tuple(vector_index(r, q) for r in s.rows)
        assert index.subspace(index.position(s)) == s
    by_subspace = {}
    for s in built:
        by_subspace.setdefault(s, set()).add((s.field.q, s.n, s.rows))
    assert all(len(rows) == 1 for rows in by_subspace.values())
    assert len(by_subspace) == len({(q, n, s.rows) for s in built})
    rng.shuffle(built)
    assert (sorted(built, key=Subspace.sort_key)
            == sorted(built, key=lambda s: (s.dim, s.pivots, s.rows)))
    # the key (1,) names the last axis of every F_q^n, each its own subspace
    axes = [Subspace.from_generators(index.field, m, [[0] * (m - 1) + [1]])
            for m in (n + 1, n + 2)]
    assert axes[0].key == axes[1].key and axes[0] != axes[1]


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (16, 2)])
def test_index_positions_and_shared_vertices(q, n):
    index = build_index(field_new(q), n)
    middle = index.size // 2
    early = index.subspace(middle)
    # the whole tuple keeps the vertices built before it and shares the rest
    subs = index.subspaces
    assert subs[middle] is early
    for i in range(index.size):
        s = index.subspace(i)
        assert s is subs[i]
        assert index.subspace(i) is s
        assert index.position(s) == i
        assert s in index
    # an equal subspace built elsewhere is found at the same position
    for i, s in enumerate(enumerate_layer(index.field, n, 1)):
        assert index.position(s) == index.layer_range(1)[0] + i


def test_build_index_and_incidence_build_no_subspace(monkeypatch):
    init = Subspace.__init__
    calls = []

    def counted_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Subspace, "__init__", counted_init)
    for q, n in ((2, 5), (3, 4)):
        index = build_index(field_new(q), n)
        _every_column(index)
        for i in range(index.size):
            index.covers(i)
            index.ball(i, 1)
    assert calls == []
    build_index(F2, 3).subspace(5)
    assert len(calls) == 1


def test_index_lookups_check_the_ambient_space():
    # The key (1,) is <e_4> in F_2^5 and <e_5> in F_2^6.
    def last_axis(field, n):
        return Subspace.from_generators(field, n, [[0] * (n - 1) + [1]])

    small, large = build_index(F2, 5), build_index(F2, 6)
    ternary = build_index(F3, 5)
    for index, s in ((small, last_axis(F2, 6)), (large, last_axis(F2, 5)),
                     (small, last_axis(F3, 5)), (ternary, last_axis(F2, 5))):
        assert s not in index
        with pytest.raises(AmbientMismatch):
            index.position(s)
    for index in (small, large, ternary):
        s = last_axis(index.field, index.n)
        assert s in index
        assert index.subspace(index.position(s)) == s
    assert (1,) not in small


@pytest.mark.parametrize("q,nmax", [(2, 6), (3, 6)])
def test_layer_counts_exhaustive(q, nmax):
    field = field_new(q)
    for n in range(nmax + 1):
        for k in range(n + 1):
            layer = list(enumerate_layer(field, n, k))
            assert len(layer) == gauss_binom(n, k, q)
            assert len(set(layer)) == len(layer)
            assert all(s.dim == k for s in layer)
            assert layer == sorted(layer, key=Subspace.sort_key)


def test_lattice_sizes():
    assert lattice_size(2, 3) == 16
    assert lattice_size(2, 5) == 374
    assert lattice_size(3, 4) == 212


def test_build_index_layers_and_positions():
    idx = build_index(F2, 4)
    assert idx.size == 67
    for k in range(5):
        lo, hi = idx.layer_range(k)
        assert hi - lo == gauss_binom(4, k, 2)
        assert all(s.dim == k for s in idx.layer(k))
    for i, s in enumerate(idx.subspaces):
        assert idx.position(s) == i
    # global canonical order
    subs = list(idx.subspaces)
    assert subs == sorted(subs, key=Subspace.sort_key)


def test_budget_exceeded_reports_exact_count():
    with pytest.raises(BudgetExceeded) as exc:
        list(enumerate_layer(F2, 9, 4, budget=1000))
    assert exc.value.would_be_count == gauss_binom(9, 4, 2)
    with pytest.raises(BudgetExceeded) as exc:
        build_index(F2, 9, budget=1000)
    assert exc.value.would_be_count == lattice_size(2, 9)


def test_profile_histogram_every_center_small():
    # intersection-dimension histogram check for every fixed A, q=2, n <= 4
    for n in range(5):
        idx = build_index(F2, n)
        for a in idx.subspaces:
            k = a.dim
            for l in range(n + 1):
                hist = {}
                for b in idx.layer(l):
                    j = a.dim + b.dim - a.rank_with(b)
                    hist[j] = hist.get(j, 0) + 1
                for j in range(min(k, l) + 1):
                    assert hist.get(j, 0) == count_profile(n, k, l, j, 2)


def test_perp_maps_layers_bijectively():
    for field, n in ((F2, 4), (F3, 3)):
        idx = build_index(field, n)
        for k in range(n + 1):
            images = {s.perp() for s in idx.layer(k)}
            assert len(images) == gauss_binom(n, k, field.q)
            assert all(s.dim == n - k for s in images)
            assert images == set(idx.layer(n - k))


def test_distance_table_symmetric():
    idx = build_index(F2, 3)
    table = idx.distance_table()
    nv = idx.size
    for i in range(nv):
        assert table[i * nv + i] == 0
        for j in range(nv):
            assert table[i * nv + j] == table[j * nv + i]
            assert table[i * nv + j] == idx.subspaces[i].distance(idx.subspaces[j])


def test_distance_table_budget():
    idx = build_index(F2, 3)
    with pytest.raises(BudgetExceeded):
        idx.distance_table(cell_budget=10)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_vector_mask_meet_matches_row_elimination(q):
    # popcount(m_U & m_W) = q^dim(U ∩ W) on every pair of the lattice, n <= 3
    field = field_new(q)
    for n in range(4):
        idx = build_index(field, n)
        subs = idx.subspaces
        masks = [s.vector_mask() for s in subs]
        for a, ma in zip(subs, masks):
            assert ma.bit_count() == q ** a.dim
            for b, mb in zip(subs, masks):
                meet = a.dim + b.dim - a.rank_with(b)
                assert (ma & mb).bit_count() == q ** meet


@settings(max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from((2, 3, 4, 5)))
def test_vector_mask_meet_random_pairs_n6(data, q):
    field = field_new(q)
    gens = st.lists(st.lists(st.integers(0, q - 1), min_size=6, max_size=6),
                    max_size=6)
    a = Subspace.from_generators(field, 6, data.draw(gens))
    b = Subspace.from_generators(field, 6, data.draw(gens))
    meet = a.dim + b.dim - a.rank_with(b)
    assert (a.vector_mask() & b.vector_mask()).bit_count() == q ** meet


# Every lattice with q^n <= 243 and n <= 5, as the oracle tests' small
# lattices, (3, 5) among them; with (2, 6), every q in SUPPORTED_ORDERS.
INCIDENCE_LATTICES = [(q, n) for q in SUPPORTED_ORDERS for n in range(6)
                      if q ** n <= 243] + [(2, 6)]


def _line_incidence_by_masks(index):
    """The line incidence read off vector masks: each vertex's lines as a
    set, and the columns, both keyed by each line's vector index.  A line's
    RREF row is its one vector with leading entry 1, so the vector indices
    of those rows pick the lines out of any vector mask."""
    q = index.field.q
    lo, hi = index.layer_bounds.get(1, (0, 0))
    reps = {vector_index(index.subspaces[x].rows[0], q) for x in range(lo, hi)}
    rep_mask = sum(1 << v for v in reps)
    nv = index.size
    digits = {v: bytearray(b"0" * nv) for v in reps}
    lines_of = []
    for w, s in enumerate(index.subspaces):
        m = s.vector_mask() & rep_mask
        lines = set()
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            lines.add(v)
            digits[v][nv - 1 - w] = 49  # ord("1")
        lines_of.append(lines)
    return lines_of, {v: int(col, 2) for v, col in digits.items()}


def _every_column(index, seed=0):
    """Every line's column, read in a seeded random order: line vector
    index -> column."""
    lo, hi = index.layer_bounds.get(1, (0, 0))
    lines = [index.keys[x][0] for x in range(lo, hi)]
    random.Random(seed).shuffle(lines)
    return {v: index.column(v) for v in lines}


def _incidence_as_sets(index, seed=0):
    columns = _every_column(index, seed)
    return [set(index.lines(i)) for i in range(index.size)], columns


@pytest.mark.parametrize("q,n", INCIDENCE_LATTICES)
def test_line_incidence_matches_vector_masks(q, n):
    # the columns are read first, on a fresh index, in a random order
    index = build_index(field_new(q), n)
    expected = _line_incidence_by_masks(build_index(field_new(q), n))
    assert _incidence_as_sets(index, seed=100 * q + n) == expected
    assert all(len(index.lines(i)) == len(set(index.lines(i)))
               for i in range(index.size))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_each_column_builds_alone(q, n):
    # Each line's column is the first one read on its own fresh index, so
    # it depends on no other column built before it.
    _, columns = _line_incidence_by_masks(build_index(field_new(q), n))
    for v, column in columns.items():
        index = build_index(field_new(q), n)
        assert not index._columns
        assert index.column(v) == column
        assert list(index._columns) == [v]


@pytest.mark.parametrize("q,n", INCIDENCE_LATTICES)
def test_covers_match_containment(q, n):
    index = build_index(field_new(q), n)
    for i in range(index.size):
        u = index.subspace(i)
        expected = 0
        if u.dim < n:
            for w in range(*index.layer_range(u.dim + 1)):
                if index.subspace(w).contains(u):
                    expected |= 1 << w
        assert index.covers(i) == expected


@pytest.mark.parametrize("q,n", [(3, 4), (2, 5)])
def test_line_incidence_builds_no_vector_mask(monkeypatch, q, n):
    expected = _line_incidence_by_masks(build_index(field_new(q), n))
    index = build_index(field_new(q), n)

    def no_mask(self):
        raise AssertionError("built a vector mask")

    monkeypatch.setattr(Subspace, "vector_mask", no_mask)
    assert _incidence_as_sets(index, seed=1) == expected
    for i in range(index.size):
        index.covers(i)
        index.ball(i, 1)


def test_write_subspaces_round_trip():
    buf = io.StringIO()
    count = write_subspaces(enumerate_layer(F2, 4, 2), buf)
    assert count == 35
    lines = buf.getvalue().strip().split("\n")
    parsed = [Subspace.from_token(line) for line in lines]
    assert parsed == list(enumerate_layer(F2, 4, 2))


def test_index_deterministic_across_builds():
    a = [s.to_token() for s in build_index(F3, 3).subspaces]
    b = [s.to_token() for s in build_index(F3, 3).subspaces]
    assert a == b
