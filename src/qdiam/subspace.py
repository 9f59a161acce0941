"""Canonical subspaces of F_q^n with lattice operations and the metric.

A subspace is stored as its reduced row echelon basis (RREF), which is the
unique canonical representative, so structural equality of the stored rows
is equality of subspaces and hashing is cheap.  Rows are tuples of field
elements; for q = 2 a bit-packed copy of each row (column j <-> bit n-1-j)
is kept alongside and all rank computations run word-parallel on ints.

The distance between subspaces U, W is

    dim(U + W) - dim(U ∩ W)  =  dim U + dim W - 2 dim(U ∩ W),

the subspace analogue of the Hamming distance.  The orthogonal complement is
taken with respect to the standard dot product; every quantity this package
counts is independent of that choice of nondegenerate form.
"""

from __future__ import annotations

from .errors import AmbientMismatch, DimensionMismatch, ParseError
from .gfq import FieldSpec, field_new

_DIGITS = "0123456789abcdef"
_DIGIT_VALUE = {c: i for i, c in enumerate(_DIGITS)}


# ---------------------------------------------------------------------------
# row reduction primitives

def _pack_row(row, n):
    v = 0
    for j, e in enumerate(row):
        if e:
            v |= 1 << (n - 1 - j)
    return v


def _unpack_row(v, n):
    return tuple((v >> (n - 1 - j)) & 1 for j in range(n))


def _rref_bits(vecs):
    """Full RREF over GF(2) on bit-packed rows; returns rows sorted by pivot."""
    piv = {}
    for v in vecs:
        for h, r in piv.items():
            if (v >> h) & 1:
                v ^= r
        if not v:
            continue
        h = v.bit_length() - 1
        for hb in list(piv):
            if (piv[hb] >> h) & 1:
                piv[hb] ^= v
        piv[h] = v
    return [piv[h] for h in sorted(piv, reverse=True)]


def _rank_bits(vecs):
    """Rank of bit-packed rows (forward elimination only)."""
    piv = {}
    for v in vecs:
        while v:
            h = v.bit_length() - 1
            r = piv.get(h)
            if r is None:
                piv[h] = v
                break
            v ^= r
    return len(piv)


def _rref_table(field, n, rows):
    """Full RREF over GF(q) via table arithmetic; returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    mul = field.mul_table
    sub = field.sub_table
    inv = field.inv_table
    pivots = []
    rank = 0
    for col in range(n):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        row = mat[rank]
        c = row[col]
        if c != 1:
            mrow = mul[inv[c]]
            for j in range(col, n):
                row[j] = mrow[row[j]]
        for i in range(len(mat)):
            ri = mat[i]
            if i != rank and ri[col]:
                mrow = mul[ri[col]]
                for j in range(col, n):
                    ri[j] = sub[ri[j]][mrow[row[j]]]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in mat[:rank]], pivots


def _rank_table(field, n, rows):
    """Rank over GF(q) by forward elimination on copies of the rows."""
    mat = [list(r) for r in rows]
    mul = field.mul_table
    sub = field.sub_table
    inv = field.inv_table
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
        rank += 1
        if rank == nrows:
            break
    return rank


# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of F_q^n in canonical reduced row echelon form.

    Instances are immutable and totally ordered by (dim, pivots, rows),
    which fixes a deterministic enumeration and branching order everywhere.
    """

    __slots__ = ("field", "n", "rows", "pivots", "bits", "_h")

    def __init__(self, field, n, rows, pivots, bits):
        # Internal: callers go through from_generators / _from_rref.
        self.field = field
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self.bits = bits
        self._h = hash((field.q, n, rows))

    @classmethod
    def _from_rref(cls, field, n, rows, pivots):
        bits = tuple(_pack_row(r, n) for r in rows) if field.q == 2 else None
        return cls(field, n, rows, pivots, bits)

    @classmethod
    def from_generators(cls, field: FieldSpec, n: int, gens) -> "Subspace":
        """Canonical RREF of the span of the given vectors.

        An empty generator list yields the zero subspace.  Raises
        DimensionMismatch on ragged input and ValueError on entries outside
        0..q-1.
        """
        q = field.q
        vecs = []
        for g in gens:
            row = tuple(g)
            if len(row) != n:
                raise DimensionMismatch(
                    f"vector of length {len(row)} in ambient dimension {n}")
            for e in row:
                if not 0 <= e < q:
                    raise ValueError(f"entry {e} out of range for GF({q})")
            vecs.append(row)
        if q == 2:
            packed = tuple(_rref_bits(_pack_row(v, n) for v in vecs))
            rows = tuple(_unpack_row(v, n) for v in packed)
            pivots = tuple(n - v.bit_length() for v in packed)
            return cls(field, n, rows, pivots, packed)
        rows, pivots = _rref_table(field, n, vecs)
        return cls(field, n, tuple(rows), tuple(pivots), None)

    @classmethod
    def zero(cls, field, n):
        return cls._from_rref(field, n, (), ())

    @classmethod
    def full(cls, field, n):
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return cls._from_rref(field, n, rows, tuple(range(n)))

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self):
        return len(self.rows)

    def sort_key(self):
        return (len(self.rows), self.pivots, self.rows)

    def _check_ambient(self, other):
        if self.field.q != other.field.q or self.n != other.n:
            raise AmbientMismatch(
                f"operands live in GF({self.field.q})^{self.n} and "
                f"GF({other.field.q})^{other.n}")

    # -- lattice operations and metric --------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        """Canonical form of self + other (the join)."""
        self._check_ambient(other)
        return Subspace.from_generators(self.field, self.n,
                                        self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Canonical form of self ∩ other, computed through complements."""
        self._check_ambient(other)
        return self.perp().sum(other.perp()).perp()

    def contains(self, other: "Subspace") -> bool:
        """True iff other is a subspace of self."""
        self._check_ambient(other)
        if other.dim > self.dim:
            return False
        return self.rank_with(other) == self.dim

    def rank_with(self, other: "Subspace") -> int:
        """dim(self + other) without building the canonical sum."""
        if self.bits is not None:
            return _rank_bits(self.bits + other.bits)
        return _rank_table(self.field, self.n, self.rows + other.rows)

    def distance(self, other: "Subspace") -> int:
        """The subspace metric dim(U+W) - dim(U∩W) = dimU + dimW - 2dim(U∩W)."""
        self._check_ambient(other)
        r = self.rank_with(other)
        return 2 * r - len(self.rows) - len(other.rows)

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product.

        dim(perp) = n - dim, and perp is an involution.
        """
        n = self.n
        field = self.field
        k = self.dim
        if k == 0:
            return Subspace.full(field, n)
        if k == n:
            return Subspace.zero(field, n)
        pivset = set(self.pivots)
        free = [j for j in range(n) if j not in pivset]
        neg = field.neg_table
        gens = []
        for f in free:
            v = [0] * n
            v[f] = 1
            for i, p in enumerate(self.pivots):
                v[p] = neg[self.rows[i][f]]
            gens.append(v)
        return Subspace.from_generators(field, n, gens)

    def vectors(self):
        """Yield every vector of the subspace as an entry tuple (q^dim many)."""
        field = self.field
        n = self.n
        q = field.q
        add = field.add_table
        mul = field.mul_table
        combos = [tuple([0] * n)]
        for row in self.rows:
            scaled = []
            for c in range(1, q):
                mrow = mul[c]
                scaled.append(tuple(mrow[e] for e in row))
            new = list(combos)
            for s in scaled:
                for base in combos:
                    new.append(tuple(add[a][b] for a, b in zip(base, s)))
            combos = new
        return iter(combos)

    def vector_mask(self) -> int:
        """Bitmask of the vectors of the subspace: bit i is set iff the vector
        whose base-q digits, most significant first, spell i lies in it.

        For q = 2 the index of a vector is its packed row.  Two masks meet in
        q^dim(U ∩ W) bits, so |U ∩ W| = popcount(mask(U) & mask(W)).
        """
        if self.bits is not None:
            vecs = [0]
            for r in self.bits:
                vecs += [v ^ r for v in vecs]
        else:
            q = self.field.q
            vecs = [int("".join([_DIGITS[e] for e in v]) or "0", q)
                    for v in self.vectors()]
        mask = 0
        for v in vecs:
            mask |= 1 << v
        return mask

    # -- serialization -------------------------------------------------------

    def to_token(self) -> str:
        """Render as ``q:n:d:`` followed by comma-separated base-q row digits."""
        rows = ",".join("".join(_DIGITS[e] for e in row) for row in self.rows)
        return f"{self.field.q}:{self.n}:{self.dim}:{rows}"

    @classmethod
    def from_token(cls, token: str) -> "Subspace":
        """Parse the serialization format, rejecting non-canonical input."""
        parts = token.strip().split(":")
        if len(parts) != 4:
            raise ParseError(f"expected 'q:n:d:rows', got {token!r}")
        try:
            q, n, d = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer header in {token!r}") from None
        field = field_new(q)
        if n < 0 or d < 0 or d > n:
            raise ParseError(f"invalid dimensions in {token!r}")
        row_part = parts[3]
        row_strs = row_part.split(",") if row_part else []
        if len(row_strs) != d:
            raise ParseError(
                f"declared dim {d} but {len(row_strs)} rows in {token!r}")
        rows = []
        for s in row_strs:
            if len(s) != n:
                raise ParseError(f"row {s!r} has length {len(s)}, expected {n}")
            row = []
            for ch in s:
                val = _DIGIT_VALUE.get(ch)
                if val is None or val >= q:
                    raise ParseError(f"digit {ch!r} invalid over GF({q})")
                row.append(val)
            rows.append(tuple(row))
        sub = cls.from_generators(field, n, rows)
        if sub.rows != tuple(rows):
            raise ParseError(f"rows of {token!r} are not in canonical RREF")
        return sub

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field.q == other.field.q and self.n == other.n
                and self.rows == other.rows)

    def __lt__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        self._check_ambient(other)
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"Subspace({self.to_token()!r})"

