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
from .qcount import gauss_binom
from .subspace import Subspace

DEFAULT_ENUM_BUDGET = 10**7
# Bytes: the distance table takes one per lattice pair; clique adjacency takes
# n_v^2 / 8 for its bitsets plus n_v q^n / 8 for the vector masks.
DEFAULT_DISTANCE_CELL_BUDGET = 2 * 1024**3


def lattice_size(q: int, n: int) -> int:
    """Total number of subspaces of F_q^n."""
    return sum(gauss_binom(n, k, q) for k in range(n + 1))


def enumerate_layer(field: FieldSpec, n: int, k: int, budget: int | None = DEFAULT_ENUM_BUDGET):
    """Yield every k-subspace of F_q^n exactly once, in canonical order."""
    if not 0 <= k <= n:
        return
    expected = gauss_binom(n, k, field.q)
    if budget is not None and expected > budget:
        raise BudgetExceeded(
            f"layer (q={field.q}, n={n}, k={k}) has {expected} subspaces, "
            f"budget is {budget}", would_be_count=expected)
    if k == 0:
        yield Subspace.zero(field, n)
        return
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
        if not free:
            rows = tuple(tuple(r) for r in base)
            yield Subspace._from_rref(field, n, rows, pivots)
            continue
        for fill in product(range(q), repeat=len(free)):
            for (i, j), v in zip(free, fill):
                base[i][j] = v
            rows = tuple(tuple(r) for r in base)
            yield Subspace._from_rref(field, n, rows, pivots)


class LatticeIndex:
    """All subspaces of F_q^n in canonical order, with layer offsets.

    Distances come from the vector-set meet kernel: each subspace U carries
    a bitmask m_U of its q^dim U vectors (``Subspace.vector_mask``), so
    dim(U ∩ W) >= s iff popcount(m_U & m_W) >= q^s.  The masks are built
    once, on first use.  The full pairwise byte table of row-elimination
    distances is kept as the reference the kernel is tested against.
    """

    __slots__ = ("field", "n", "subspaces", "layer_bounds", "_pos", "_dist",
                 "_masks")

    def __init__(self, field, n, subspaces, layer_bounds):
        self.field = field
        self.n = n
        self.subspaces = subspaces
        self.layer_bounds = layer_bounds
        self._pos = {s: i for i, s in enumerate(subspaces)}
        self._dist = None
        self._masks = None

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

    def vector_masks(self) -> list:
        """Materialize (once) the vector-set bitmask of every subspace."""
        if self._masks is None:
            self._masks = [s.vector_mask() for s in self.subspaces]
        return self._masks

    def ball(self, i: int, radius: int) -> int:
        """Vertex bitmask of the subspaces at distance <= radius from vertex i.

        With a = dim U_i and b the dimension of a layer, distance <= radius
        means dim(U_i ∩ W) >= s = ceil((a + b - radius) / 2).  Every pair
        meets in at least max(0, a + b - n) dimensions and at most min(a, b),
        so whole layers are taken or skipped without looking at a pair.
        """
        masks = self.vector_masks()
        n = self.n
        q = self.field.q
        a = self.subspaces[i].dim
        mi = masks[i]
        out = 0
        for b, (lo, hi) in self.layer_bounds.items():
            s = (a + b - radius + 1) // 2
            if s <= max(0, a + b - n):
                out |= (1 << hi) - (1 << lo)
            elif s <= min(a, b):
                thr = q ** s
                bits = "".join(["1" if (mi & m).bit_count() >= thr else "0"
                                for m in masks[lo:hi]])
                out |= int(bits[::-1], 2) << lo
        return out

    def distance_table(self, cell_budget: int = DEFAULT_DISTANCE_CELL_BUDGET) -> bytearray:
        """Materialize (once) the full pairwise distance table."""
        if self._dist is not None:
            return self._dist
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
        self._dist = table
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
