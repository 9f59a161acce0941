"""Exhaustive enumeration of Grassmannian layers and the full lattice.

Enumeration walks RREF pivot patterns directly: a pattern's subspaces are
the product of its rows' option lists (``_pivot_patterns``).  Each matrix
produced is already canonical, so no deduplication pass is needed, and
the emission order coincides with the canonical total order on subspaces
(dimension, then pivot columns, then row entries).  The lattice index
keeps only each subspace's packed rows, and one incidence column per
line; a vertex's lines are listed from its packed rows when read.
Everything is deterministic across runs and platforms.
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
# incidence's columns and lister.  A member-pair scan charges q^n / 8 for the vector mask of each
# member it may mask, which the member then keeps.  The oracle's witnesses
# keep at most n_v q^n / 8: below n_v^2 / 8 for n >= 4, about 280 KB else.
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


def _table_lines(field, n):
    """The line lister of F_q^n: the packed RREF rows of a subspace -> the
    vector indices of the RREF rows of its lines, which are the lines' keys.

    The lines led by RREF row r_i are r_i + span(r_{i+1..k}), read off r_i's
    addition row (r_i + v for each v over the columns after its pivot, built
    on first use and keyed by r_i's vector index; for q = 2, r_i XOR v).
    Walking the rows from last to first, the span grows by those lines and
    their multiples from one scale table per c not in {0, 1} (none for
    q = 2), over the q^(n-1) vectors below r_1, whose column 0 is clear.
    """
    q = field.q
    add = field.add_table
    scales = []
    for c in range(2, q):
        mul = field.mul_table[c]
        table = [0]
        for _ in range(n - 1):
            table = [x * q + mul[y] for x in table for y in range(q)]
        scales.append(table)
    add_rows = {}

    def addition_row(r):
        e = _entries(r, q, n)
        a = [1]
        for x in e[e.index(1) + 1:]:  # r's entries after its leading 1
            plus = add[x]
            a = [y * q + z for y in a for z in plus]
        return a

    def lines(key):
        if not key:
            return []
        led = [key[-1]]
        out = led[:]
        span = [0]
        for r in key[-2::-1]:
            span += led
            for table in scales:
                span += [table[x] for x in led]
            a = add_rows.get(r)
            if a is None:
                a = add_rows[r] = addition_row(r)
            led = [a[v] for v in span]
            out += led
        return out

    return lines


class LatticeIndex:
    """All subspaces of F_q^n in canonical order, with layer offsets.

    The index holds each subspace as its ``Subspace.key``, the tuple of
    its RREF rows' vector indices, and a key -> position dict.  The keys
    carry no q or n, so lookups check the ambient space.
    ``subspace(i)`` builds vertex i's ``Subspace`` on first use and keeps
    it, so each vertex is one object however often it is asked for.

    Distances come from line incidence: U ∩ W holds [dim(U ∩ W) 1]_q
    lines, and those are the lines U and W share.  The index keeps one
    incidence column per line, listed from the keys once, on first use;
    ``lines(i)`` lists vertex i's lines from its key each time it is read,
    for ``ball`` and ``covers``.  The full pairwise byte table of
    row-elimination distances is kept as the reference the incidence is
    tested against.
    """

    __slots__ = ("field", "n", "keys", "layer_bounds", "_pos", "_built",
                 "_subspaces", "_lines_in", "_incidence")

    def __init__(self, field, n, keys, layer_bounds):
        self.field = field
        self.n = n
        self.keys = keys
        self.layer_bounds = layer_bounds
        self._pos = {key: i for i, key in enumerate(keys)}
        self._built = [None] * len(keys)
        self._subspaces = None
        self._lines_in = _table_lines(field, n)
        self._incidence = None

    @property
    def size(self):
        return len(self.keys)

    def layer_range(self, k):
        """Index range [lo, hi) of the dimension-k layer."""
        return self.layer_bounds[k]

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
        return self._lines_in(self.keys[i])

    def line_incidence(self):
        """Materialize (once) the incidence columns: each line's vector
        index -> the vertex mask of the subspaces that contain it.

        A line's RREF row is its one vector with leading entry 1, and its
        key is the 1-tuple of that row's vector index.  The columns are
        written as one digit string per line, a digit per vertex from the
        vertex's ``lines``.
        """
        if self._incidence is None:
            keys = self.keys
            lo, hi = self.layer_bounds.get(1, (0, 0))  # F_q^0 has no lines
            nv = len(keys)
            digits = {keys[x][0]: bytearray(b"0" * nv) for x in range(lo, hi)}
            lines_in = self._lines_in
            for w, key in enumerate(keys):
                for v in lines_in(key):
                    digits[v][nv - 1 - w] = 49  # ord("1")
            self._incidence = {v: int(col, 2) for v, col in digits.items()}
        return self._incidence

    def covers(self, i):
        """Vertex mask of the (k+1)-spaces that hold the k-space i: the AND
        of its lines' columns within layer k+1 (none for F_q^n)."""
        bounds = self.layer_bounds.get(len(self.keys[i]) + 1)
        if bounds is None:
            return 0
        columns = self.line_incidence()
        out = (1 << bounds[1]) - (1 << bounds[0])
        for v in self.lines(i):
            out &= columns[v]
        return out

    def incidence_bytes(self):
        """Upper estimate of line_incidence()'s peak bytes, known before it
        runs: per line an n_v-byte digit string, an n_v-bit column (4 bytes
        per 30 bits) and 200 for their headers and two dict entries; 40 per
        entry of _table_lines's scale tables and addition rows (q^m entries
        for each of the q^m - (q-1)^m rows led at column n-1-m with a zero
        after it); and 2 KB for the dicts' own headers."""
        q, n, nv = self.field.q, self.n, self.size
        lookups = (q - 2) * q ** n // q + sum(
            (q ** m - (q - 1) ** m) * q ** m for m in range(n))
        return (gauss_binom(n, 1, q) * (nv + 4 * ((nv + 29) // 30) + 200)
                + 40 * lookups + 2048)

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
        for b, (lo, hi) in self.layer_bounds.items():
            s = (a + b - radius + 1) // 2
            layer = (1 << hi) - (1 << lo)
            if s <= max(0, a + b - n):
                out |= layer
            elif s <= min(a, b):
                if planes is None:
                    columns = self.line_incidence()
                    planes = []
                    for v in self.lines(i):
                        ripple_add(planes, columns[v])
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
