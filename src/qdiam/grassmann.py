"""Exhaustive enumeration of Grassmannian layers and the full lattice.

Enumeration walks RREF pivot patterns directly: choose the pivot columns,
then run through every filling of the free cells.  Each matrix produced is
already canonical, so no deduplication pass is needed, and the emission
order coincides with the canonical total order on subspaces (dimension,
then pivot columns, then row entries).  Everything is deterministic across
runs and platforms.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import BudgetExceeded
from .gfq import FieldSpec
from .qcount import gauss_binom, layer_sum
from .subspace import Subspace, vector_index

DEFAULT_ENUM_BUDGET = 10**7
# Bytes: the distance table takes one per lattice pair; clique adjacency takes
# n_v^2 / 8 for its bitsets and LatticeIndex.incidence_bytes for the line
# incidence.  A member-pair scan charges q^n / 8 for the vector mask of each
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
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        # Free cells in row-major order; the first cell is the most
        # significant in the fill iteration, which keeps rows lexicographic.
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


def _bit_lines(s):
    """Vector indices of the lines of s, for q = 2: every nonzero vector of
    the span, which grows by XOR from the last packed row to the first."""
    span = [0]
    for r in reversed(s.bits):
        span += [r ^ v for v in span]
    return span[1:]


def _table_lines(field, n):
    """The line lister of F_q^n for q > 2: s -> the vector indices of the
    RREF rows of the lines of s.

    The lines led by RREF row r_i are r_i + span(r_{i+1..k}), read off r_i's
    addition row (r_i + v for each v over the columns after its pivot, built
    on first use).  Walking the rows from last to first, the span grows by
    those lines and their multiples from one scale table per c not in
    {0, 1}, over the q^(n-1) vectors below r_1, whose column 0 is clear.
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

    def lines(s):
        rows = s.rows
        if not rows:
            return []
        led = [vector_index(rows[-1], q)]
        out = led[:]
        span = [0]
        for i in range(len(rows) - 2, -1, -1):
            span += led
            for table in scales:
                span += [table[x] for x in led]
            r = rows[i]
            a = add_rows.get(r)
            if a is None:
                a = [1]
                for e in r[s.pivots[i] + 1:]:
                    plus = add[e]
                    a = [x * q + y for x in a for y in plus]
                add_rows[r] = a
            led = [a[v] for v in span]
            out += led
        return out

    return lines


class LatticeIndex:
    """All subspaces of F_q^n in canonical order, with layer offsets.

    Distances come from line incidence: U ∩ W holds [dim(U ∩ W) 1]_q
    lines, and those are the lines U and W share.  The incidence is listed
    from each subspace's RREF rows once, on first use.  The full pairwise
    byte table of row-elimination distances is kept as the reference the
    incidence is tested against.
    """

    __slots__ = ("field", "n", "subspaces", "layer_bounds", "_pos",
                 "_incidence")

    def __init__(self, field, n, subspaces, layer_bounds):
        self.field = field
        self.n = n
        self.subspaces = subspaces
        self.layer_bounds = layer_bounds
        self._pos = {s: i for i, s in enumerate(subspaces)}
        self._incidence = None

    @property
    def size(self):
        return len(self.subspaces)

    def layer_range(self, k):
        """Index range [lo, hi) of the dimension-k layer."""
        return self.layer_bounds[k]

    def layer(self, k):
        lo, hi = self.layer_bounds[k]
        return self.subspaces[lo:hi]

    def position(self, s: Subspace) -> int:
        return self._pos[s]

    def __contains__(self, s):
        return s in self._pos

    def line_incidence(self):
        """Materialize (once) the lines of every vertex and, per line, the
        vertex mask of the subspaces that contain it.

        A line's RREF row is its one vector with leading entry 1.  Each
        vertex lists the vector indices of its lines' rows from its own RREF
        rows (``_bit_lines``, ``_table_lines``), and a list of q^n entries
        maps each index to its line number.  The columns are the transpose
        of the per-vertex line lists, written as one digit string per line.
        """
        if self._incidence is None:
            q = self.field.q
            lo, hi = self.layer_bounds.get(1, (0, 0))  # F_q^0 has no lines
            line_at = [None] * q ** self.n
            for x in range(lo, hi):
                line_at[vector_index(self.subspaces[x].rows[0], q)] = x - lo
            lines_in = _bit_lines if q == 2 else _table_lines(self.field, self.n)
            nv = len(self.subspaces)
            digits = [bytearray(b"0" * nv) for _ in range(hi - lo)]
            lines_of = []
            for w, s in enumerate(self.subspaces):
                lines = [line_at[v] for v in lines_in(s)]
                for x in lines:
                    digits[x][nv - 1 - w] = 49  # ord("1")
                lines_of.append(lines)
            self._incidence = (lines_of, [int(col, 2) for col in digits])
        return self._incidence

    def incidence_bytes(self):
        """Upper estimate of line_incidence()'s peak bytes, known before it
        runs: per line an n_v-byte digit string and an n_v-bit column; per
        vertex a list, 16 bytes per line in it; 40 per entry of the line map
        and of _table_lines's scale tables and addition rows (q^m entries for
        each of the q^m - (q-1)^m rows led at column n-1-m with a zero after
        it); and the object headers."""
        q, n, nv = self.field.q, self.n, self.size
        held = sum(gauss_binom(n, k, q) * gauss_binom(k, 1, q)
                   for k in range(n + 1))
        lookups = q ** n + (q - 2) * q ** n // q + (sum(
            (q ** m - (q - 1) ** m) * q ** m for m in range(n)) if q > 2 else 0)
        return (gauss_binom(n, 1, q) * (nv + (nv + 7) // 8 + 100)
                + 96 * nv + 16 * held + 40 * lookups + 1024)

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
        a = self.subspaces[i].dim
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
                    lines_of, columns = self.line_incidence()
                    planes = []
                    for x in lines_of[i]:
                        ripple_add(planes, columns[x])
                if s not in at_least:
                    at_least[s] = _at_least(planes, (q ** s - 1) // (q - 1))
                out |= at_least[s] & layer
        return out

    def distance_table(self, cell_budget: int = DEFAULT_DISTANCE_CELL_BUDGET) -> bytearray:
        """The full pairwise distance table, built by row elimination."""
        nv = len(self.subspaces)
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


def build_index(field: FieldSpec, n: int, budget: int | None = DEFAULT_ENUM_BUDGET) -> LatticeIndex:
    """Enumerate the whole lattice of F_q^n into a LatticeIndex."""
    total = lattice_size(field.q, n)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"lattice (q={field.q}, n={n}) has {total} subspaces, budget is {budget}",
            would_be_count=total)
    subspaces = []
    layer_bounds = {}
    for k in range(n + 1):
        lo = len(subspaces)
        subspaces.extend(enumerate_layer(field, n, k, budget=None))
        layer_bounds[k] = (lo, len(subspaces))
    return LatticeIndex(field, n, tuple(subspaces), layer_bounds)


def write_subspaces(subspaces, fileobj) -> int:
    """Dump subspaces one token per line; returns the number written."""
    count = 0
    for s in subspaces:
        fileobj.write(s.to_token() + "\n")
        count += 1
    return count
