"""Exhaustive enumeration of Grassmannian layers and the full lattice.

Enumeration walks RREF pivot patterns directly: a pattern's subspaces are
the product of its rows' option lists (``_pivot_patterns``).  Each matrix
produced is already canonical, so no deduplication pass is needed, and
the emission order coincides with the canonical total order on subspaces
(dimension, then pivot columns, then row entries).  The lattice index
keeps only each subspace's packed rows; a vertex's lines are listed from
its packed rows when read, and a line's incidence column is built from
the pivot-pattern blocks that can hold the line the first time it is
read, and kept.  Everything is deterministic across runs and platforms.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import AmbientMismatch, BudgetExceeded
from .gfq import FieldSpec
from .qcount import gauss_binom, layer_sum
from .subspace import Subspace, _entries, vector_index

DEFAULT_ENUM_BUDGET = 10**7
# Bytes: the distance table takes one per lattice pair; clique adjacency takes
# n_v^2 / 8 for its bitsets and LatticeIndex.incidence_bytes for the line
# incidence once every column is built: the columns, the block tables they
# are built from, and the addition rows and scale tables.  A member-pair
# scan charges q^n / 8 for the vector mask of each member it may mask, which
# the member then keeps.  The oracle's witnesses keep at most n_v q^n / 8:
# below n_v^2 / 8 for n >= 4, about 280 KB else.
DEFAULT_DISTANCE_CELL_BUDGET = 2 * 1024**3


def lattice_size(q: int, n: int) -> int:
    """Total number of subspaces of F_q^n."""
    return layer_sum(n, n, q)


def ripple_add(planes, mask):
    """Add one to the bit-sliced count of every vertex in mask, in place.

    planes[j] holds bit j of every vertex's count, one bit position per
    vertex, so each step updates all counts at once; a carry out of the top
    plane becomes a new plane.
    """
    for j, p in enumerate(planes):
        if not mask:
            return
        planes[j] = p ^ mask
        mask &= p
    if mask:
        planes.append(mask)


def _at_least(planes, t):
    """Vertex mask of the bit-sliced counts that are >= t (t >= 1)."""
    if t.bit_length() > len(planes):
        return 0
    above, equal = 0, -1  # -1: every vertex, until a plane narrows it
    for j in range(len(planes) - 1, -1, -1):
        if (t >> j) & 1:
            equal &= planes[j]
        else:
            above |= equal & planes[j]
            equal &= ~planes[j]
    return above | equal


def _pivot_patterns(q, n, k):
    """Yield (pivots, options) for each pivot pattern of a k-subspace of
    F_q^n, patterns in lexicographic order: options[i] lists what RREF row
    i can be, as tuples of entries in lexicographic order.

    Row i holds 1 at pivots[i], 0 left of it and at every other pivot, and
    anything in its free cells; the rows constrain each other in nothing
    else, so the pattern's subspaces are the product of the rows' options.
    The product varies the first row slowest, so the first free cell in
    row-major order is the most significant: canonical order.
    """
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        options = []
        for p in pivots:
            opts = [(0,) * p + (1,)]
            for j in range(p + 1, n):
                cells = (0,) if j in pivset else range(q)
                opts = [o + (v,) for o in opts for v in cells]
            options.append(opts)
        yield pivots, options


def _packed(options, q):
    return [[vector_index(r, q) for r in opts] for opts in options]


def _layer_keys(q, n, k):
    """The k-subspaces of F_q^n in canonical order, each as the tuple of
    its RREF rows' vector indices: its ``Subspace.key``."""
    for _, options in _pivot_patterns(q, n, k):
        yield from product(*_packed(options, q))


def enumerate_layer(field: FieldSpec, n: int, k: int, budget: int | None = DEFAULT_ENUM_BUDGET):
    """Yield every k-subspace of F_q^n exactly once, in canonical order."""
    if not 0 <= k <= n:
        return
    expected = gauss_binom(n, k, field.q)
    if budget is not None and expected > budget:
        raise BudgetExceeded(
            f"layer (q={field.q}, n={n}, k={k}) has {expected} subspaces, "
            f"budget is {budget}", would_be_count=expected)
    q = field.q
    from_rref = Subspace._from_rref
    for pivots, options in _pivot_patterns(q, n, k):
        for rows, key in zip(product(*options), product(*_packed(options, q))):
            yield from_rref(field, n, rows, pivots, key)


def _repunit(count, width):
    """Sum of 2^(j*width) over j < count: one bit every width positions."""
    r = a = 0
    for bit in bin(count)[2:]:
        r |= r << a * width
        a *= 2
        if bit == "1":
            r |= 1 << a * width
            a += 1
    return r


def _pattern_shapes(q, n):
    """Yield (offset, pivots, lens, strides) for each pivot pattern of
    F_q^n in canonical order: the position of its first subspace, and per
    RREF row i its number of options L_i = q^(free cells) and its stride
    s_i, the product of L over the rows after it (``_pivot_patterns``'s
    product varies the first row slowest)."""
    offset = 0
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            # row i has n - k - p_i + i free cells, after its pivot p_i
            lens = [q ** (n - k - p + i) for i, p in enumerate(pivots)]
            strides = [1] * k
            for i in range(k - 1, 0, -1):
                strides[i - 1] = strides[i] * lens[i]
            yield offset, pivots, lens, strides
            offset += lens[0] * strides[0] if k else 1


def _line_blocks(q, n):
    """The pivot-pattern blocks that can hold a line: the merge's pairs of
    block ranks, and for each leading column c, (the first block's offset,
    the shift of each merge pair, the suffix entries).

    A k-space with pivots p holds the line x led at p_m iff its RREF row m
    is x - sum over i > m of x[p_i] r_i, since x's entries at the pivots
    are its coordinates in the RREF rows.  The block's subspaces are the
    product of its rows' options (``_pivot_patterns``), so a subspace's
    place in it is the base-q number of its free cells, row by row: row i
    has L_i options and stride s_i, the product of L over the rows after
    it.  The rows before m are free, so the block's mask is a suffix mask
    over the rows from m on times the repunit of the prefix's places (one
    bit every L_m s_m), and the suffix mask depends on the suffix, the
    pattern's pivots from m on, alone.  A suffix entry holds s_m, L_m s_m,
    row m's free columns, each later row with more than one option as (its
    pivot, the places of its options, its repunit), and its blocks as
    (rank by offset, prefix repunit).
    """
    suffixes = [{} for _ in range(n)]
    offsets = [[] for _ in range(n)]  # ascending: patterns come in order
    for offset, pivots, lens, strides in _pattern_shapes(q, n):
        count = 1  # the number of prefix places
        for m, c in enumerate(pivots):
            lead = lens[m] * strides[m]
            entry = suffixes[c].get(pivots[m:])
            if entry is None:  # m = 0: the pattern is its own suffix
                free = tuple(j for j in range(c + 1, n) if j not in pivots)
                later = tuple(
                    (pivots[i], range(0, lens[i] * strides[i], strides[i]),
                     _repunit(lens[i], strides[i]))
                    for i in range(1, len(pivots)) if lens[i] > 1)
                entry = suffixes[c][pivots] = (strides[0], lead, free, later,
                                               [])
            entry[4].append((len(offsets[c]),
                             _repunit(count, lead) if count > 1 else 1))
            offsets[c].append(offset)
            count *= lens[m]
    # Each column has 2^(n-1) blocks, one per pattern that holds its leading
    # column.  The merge ORs their masks pairwise, neighbours by rank first,
    # so that each round shifts about as many bits as the column has.
    pairs = []
    step = 1
    while step < 2 ** n // 2:
        pairs += [(i, i + step) for i in range(0, 2 ** n // 2 - step, 2 * step)]
        step *= 2
    return pairs, [(starts[0], [starts[j] - starts[i] for i, j in pairs],
                    list(entries.values()))
                   for entries, starts in zip(suffixes, offsets)]


class _LineTables:
    """The key arithmetic of F_q^n's lines: a subspace's packed RREF rows
    -> the vector indices of its lines' RREF rows, which are the lines'
    keys, and a line's vector index -> its incidence column.

    ``mults[c][y]`` is c·y over the q^(n-1) vectors y whose column 0 is
    clear (``mults[1]`` is the identity, a range), and ``minus[x]`` is
    ``mults[-x]``.  An addition row, built on first use and keyed by a
    vector r with leading 1, holds r + v for each v over the columns after
    that 1 (for q = 2, r XOR v).  The pivot-pattern blocks
    (``_line_blocks``) are built on the first column.
    """

    __slots__ = ("q", "n", "add", "mults", "minus", "rows", "blocks")

    def __init__(self, field, n):
        q = self.q = field.q
        self.n = n
        self.add = field.add_table
        self.mults = [None, range(q ** n // q)]
        for c in range(2, q):
            mul = field.mul_table[c]
            table = [0]
            for _ in range(n - 1):
                table = [x * q + mul[y] for x in table for y in range(q)]
            self.mults.append(table)
        self.minus = [None] + [self.mults[field.neg_table[x]]
                               for x in range(1, q)]
        self.rows = {}
        self.blocks = None

    def addition_row(self, r):
        """Build r's addition row and keep it; callers read ``rows`` first."""
        q = self.q
        e = _entries(r, q, self.n)
        a = [1]
        for x in e[e.index(1) + 1:]:  # r's entries after its leading 1
            plus = self.add[x]
            a = [y * q + z for y in a for z in plus]
        self.rows[r] = a
        return a

    def lines(self, key):
        """The lines led by RREF row r_i are r_i + span(r_{i+1..k}), read
        off r_i's addition row.  Walking the rows from last to first, the
        span grows by those lines and their multiples c·v, c >= 2."""
        if not key:
            return []
        scales, rows = self.mults[2:], self.rows
        led = [key[-1]]
        out = led[:]
        span = [0]
        for r in key[-2::-1]:
            span += led
            for table in scales:
                span += [table[x] for x in led]
            a = rows.get(r) or self.addition_row(r)
            led = [a[v] for v in span]
            out += led
        return out

    def column(self, v):
        """The vertex mask of the subspaces that hold the line with vector
        index v, one block of ``_line_blocks`` at a time.

        In a suffix block, x's entries at row m's free columns give y, the
        vector 1 followed by them.  A later row with x[p_i] = 0 is free and
        multiplies the mask by its repunit; one with x[p_i] != 0 is walked:
        each of its options j moves row m from y to y - x[p_i]·j, read off
        y's addition row, and adds j's place.  Row m's place is then
        (y - q^f) s_m, with f its number of free columns."""
        q = self.q
        e = _entries(v, q, self.n)
        c = e.index(1)
        if self.blocks is None:
            self.blocks = _line_blocks(q, self.n)
        pairs, columns = self.blocks
        first, shifts, entries = columns[c]
        masks = [0] * (len(shifts) + 1)
        minus_of, rows = self.minus, self.rows
        for sm, lead, free, later, prefixes in entries:
            y = 1
            for j in free:
                y = y * q + e[j]
            mask = 1
            walked = []
            for p, places, rep in later:
                x = e[p]
                if x:
                    walked.append((minus_of[x], places))
                else:
                    mask *= rep
            if walked:
                minus, places = walked.pop()  # the last, walked into bits
                walk = [(y, -lead)]  # (row m, the walked rows' places)
                for step_minus, step_places in walked:
                    step = []
                    for z, u in walk:
                        a = rows.get(z) or self.addition_row(z)
                        step += [(a[t], u + o)
                                 for t, o in zip(step_minus, step_places)]
                    walk = step
                bits = 0
                for z, u in walk:
                    a = rows.get(z) or self.addition_row(z)
                    for t, o in zip(minus, places):
                        bits |= 1 << a[t] * sm + u + o
                mask *= bits
            else:
                mask <<= y * sm - lead
            for r, prefix in prefixes:
                masks[r] = mask * prefix
        for (i, j), shift in zip(pairs, shifts):
            masks[i] |= masks[j] << shift
        return masks[0] << first


class LatticeIndex:
    """All subspaces of F_q^n in canonical order, with layer offsets.

    The index holds each subspace as its ``Subspace.key``, the tuple of
    its RREF rows' vector indices, and a key -> position dict.  The keys
    carry no q or n, so lookups check the ambient space.
    ``subspace(i)`` builds vertex i's ``Subspace`` on first use and keeps
    it, so each vertex is one object however often it is asked for.

    Distances come from line incidence: U ∩ W holds [dim(U ∩ W) 1]_q
    lines, and those are the lines U and W share.  ``lines(i)`` lists
    vertex i's lines from its key each time it is read, and
    ``column(v)`` builds line v's incidence column the first time
    ``ball`` or ``covers`` reads it, from the pivot-pattern blocks that
    can hold the line, and keeps it; no other column is built.  The
    full pairwise byte table of row-elimination distances is kept as the
    reference the incidence is tested against.
    """

    __slots__ = ("field", "n", "keys", "layer_bounds", "_pos", "_built",
                 "_subspaces", "_tables", "_columns")

    def __init__(self, field, n, keys, layer_bounds):
        self.field = field
        self.n = n
        self.keys = keys
        self.layer_bounds = layer_bounds
        self._pos = {key: i for i, key in enumerate(keys)}
        self._built = [None] * len(keys)
        self._subspaces = None
        self._tables = _LineTables(field, n)
        self._columns = {}

    @property
    def size(self):
        return len(self.keys)

    def layer_range(self, k):
        """Index range [lo, hi) of the dimension-k layer."""
        return self.layer_bounds[k]

    def layer_mask(self, k):
        """Vertex mask of the dimension-k layer: its index range as bits."""
        lo, hi = self.layer_bounds[k]
        return (1 << hi) - (1 << lo)

    def subspace(self, i: int) -> Subspace:
        """Vertex i's subspace, built on first use and kept."""
        s = self._built[i]
        if s is None:
            s = self._built[i] = Subspace._from_key(self.field, self.n,
                                                    self.keys[i])
        return s

    @property
    def subspaces(self):
        """Every vertex's subspace, in index order, built on first use."""
        if self._subspaces is None:
            self._subspaces = tuple(map(self.subspace, range(self.size)))
        return self._subspaces

    def layer(self, k):
        lo, hi = self.layer_bounds[k]
        return self.subspaces[lo:hi]

    def _in_ambient(self, s):
        return s.field.q == self.field.q and s.n == self.n

    def position(self, s: Subspace) -> int:
        """Index of s; raises AmbientMismatch if s is not in F_q^n."""
        if not self._in_ambient(s):
            raise AmbientMismatch(
                f"subspace of GF({s.field.q})^{s.n} looked up in the lattice "
                f"of GF({self.field.q})^{self.n}")
        return self._pos[s.key]

    def __contains__(self, s):
        return (isinstance(s, Subspace) and self._in_ambient(s)
                and s.key in self._pos)

    def lines(self, i):
        """Vertex i's lines, each as the one entry of its key (a vector
        index), listed from vertex i's key on each call."""
        return self._tables.lines(self.keys[i])

    def column(self, v):
        """Line v's incidence column, the vertex mask of the subspaces that
        hold the line with vector index v; built on first use and kept."""
        col = self._columns.get(v)
        if col is None:
            col = self._columns[v] = self._tables.column(v)
        return col

    def covers(self, i):
        """Vertex mask of the (k+1)-spaces that hold the k-space i: the AND
        of its lines' columns within layer k+1 (none for F_q^n)."""
        k = len(self.keys[i]) + 1
        if k > self.n:
            return 0
        out = self.layer_mask(k)
        for v in self.lines(i):
            out &= self.column(v)
        return out

    def incidence_bytes(self):
        """Upper estimate of the bytes the incidence holds once every column
        is built, and at most while one is, known before any is.

        Per line its column (an int: 24 bytes and 4 per 30 bits) and 100
        for its dict entry; three columns and 40 per block for the column
        in progress.  Per entry of the scale tables (q - 2 of q^(n-1)
        entries) and of the addition rows (q^f entries each) 8 bytes, and
        32 more where its value can pass 256; 100 per row.  Reading every
        column builds the q^f rows led at column n-1-f for f = 1..n-2, and
        listing lines adds those led at column 0 with a zero after the 1.
        The block tables: per pivot of each pivot pattern 64, and its prefix
        repunit when it has more than one place; per pattern, as a suffix,
        300, 8 per column after its first pivot, and 180 and the repunit of
        each later row with more than one option; per merge step 64, and 40
        for each column.  And 2 KB."""
        q, n, nv = self.field.q, self.n, self.size

        def int_bytes(bits):
            return 24 + 4 * ((bits + 29) // 30)

        def lookups(count, size, top):  # count tables of size entries < top
            return count * (100 + size * (8 if top <= 257 else 40))

        column = int_bytes(nv)
        blocks = 2 ** n // 2  # per column
        total = (gauss_binom(n, 1, q) * (column + 100) + 3 * column
                 + 40 * blocks + lookups(q - 2, q ** n // q, q ** n // q)
                 + sum(lookups(q ** f - (f == n - 1) * (q - 1) ** f,
                               q ** f, 2 * q ** f) for f in range(1, n))
                 + (64 + 40 * n) * (blocks - 1) + 2048)
        for _, pivots, lens, strides in _pattern_shapes(q, n):
            count = 1
            for m in range(len(pivots)):
                lead = lens[m] * strides[m]
                total += 64 + (count > 1) * int_bytes((count - 1) * lead + 1)
                count *= lens[m]
            if pivots:
                total += 300 + 8 * (n - 1 - pivots[0]) + sum(
                    180 + int_bytes((L - 1) * s + 1)
                    for L, s in zip(lens[1:], strides[1:]) if L > 1)
        return total

    def ball(self, i: int, radius: int) -> int:
        """Vertex bitmask of the subspaces at distance <= radius from vertex i.

        With a = dim U_i and b the dimension of a layer, distance <= radius
        means dim(U_i ∩ W) >= s = ceil((a + b - radius) / 2).  Every pair
        meets in at least max(0, a + b - n) dimensions and at most min(a, b),
        so whole layers are taken or skipped without looking at a pair.  In
        between, the incidence columns of U_i's lines are ripple-added into
        bit planes that count, for every W at once, the [dim(U_i ∩ W) 1]_q
        lines the two share; dim(U_i ∩ W) >= s iff that count is >= [s 1]_q.
        """
        n = self.n
        q = self.field.q
        a = len(self.keys[i])
        planes = None
        at_least = {}
        out = 0
        for b in self.layer_bounds:
            s = (a + b - radius + 1) // 2
            layer = self.layer_mask(b)
            if s <= max(0, a + b - n):
                out |= layer
            elif s <= min(a, b):
                if planes is None:
                    planes = []
                    columns = self._columns
                    for v in self.lines(i):
                        ripple_add(planes, columns.get(v) or self.column(v))
                if s not in at_least:
                    at_least[s] = _at_least(planes, (q ** s - 1) // (q - 1))
                out |= at_least[s] & layer
        return out

    def distance_table(self, cell_budget: int = DEFAULT_DISTANCE_CELL_BUDGET) -> bytearray:
        """The full pairwise distance table, built by row elimination."""
        nv = self.size
        if nv * nv > cell_budget:
            raise BudgetExceeded(
                f"distance table needs {nv * nv} cells, budget is {cell_budget}",
                would_be_count=nv * nv)
        table = bytearray(nv * nv)
        subs = self.subspaces
        for i in range(nv):
            si = subs[i]
            row = i * nv
            for j in range(i + 1, nv):
                d = si.distance(subs[j])
                table[row + j] = d
                table[j * nv + i] = d
        return table


def check_lattice_budget(field: FieldSpec, n: int, budget: int | None) -> None:
    """Raise BudgetExceeded if the lattice of F_q^n exceeds the budget."""
    total = lattice_size(field.q, n)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"lattice (q={field.q}, n={n}) has {total} subspaces, budget is {budget}",
            would_be_count=total)


def build_index(field: FieldSpec, n: int, budget: int | None = DEFAULT_ENUM_BUDGET) -> LatticeIndex:
    """Enumerate the whole lattice of F_q^n into a LatticeIndex of keys;
    it builds no Subspace."""
    check_lattice_budget(field, n, budget)
    keys = []
    layer_bounds = {}
    for k in range(n + 1):
        lo = len(keys)
        keys.extend(_layer_keys(field.q, n, k))
        layer_bounds[k] = (lo, len(keys))
    return LatticeIndex(field, n, tuple(keys), layer_bounds)


def write_subspaces(subspaces, fileobj) -> int:
    """Dump subspaces one token per line; returns the number written."""
    count = 0
    for s in subspaces:
        fileobj.write(s.to_token() + "\n")
        count += 1
    return count
