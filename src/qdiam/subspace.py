"""Canonical subspaces of F_q^n with lattice operations and the metric.

A subspace is stored as its reduced row echelon basis (RREF), which is the
unique canonical representative, so structural equality of the stored rows
is equality of subspaces and hashing is cheap.  Rows are tuples of field
elements, and every subspace keeps its key, the tuple of its rows' vector
indices (for q = 2, the bit-packed rows).  Each row format has one
forward-elimination core, a dict from leading column to a row led by 1,
each generator reduced against it and inserted at its first free leading
column: a rank is the size of the dict.  For every q the RREF is the
table core's dict back-substituted in pivot order; the bit core serves
ranks only.

The distance between subspaces U, W is

    dim(U + W) - dim(U ∩ W)  =  dim U + dim W - 2 dim(U ∩ W),

the subspace analogue of the Hamming distance.  The orthogonal complement is
taken with respect to the standard dot product; every quantity this package
counts is independent of that choice of nondegenerate form.
"""

from __future__ import annotations

from functools import total_ordering

from .errors import (AmbientMismatch, DimensionMismatch, NonPrimePower,
                     ParseError)
from .gfq import FieldSpec, field_new

_DIGITS = "0123456789abcdef"
# a row's digit string <-> its entries as bytes, one translate per row
_DECODE = bytes.maketrans(_DIGITS.encode(), bytes(range(16)))
_ENCODE = bytes.maketrans(bytes(range(16)), _DIGITS.encode())
_MASK_CHUNK_BITS = 12  # vector_mask lists at most 2^12 indices at a time


# ---------------------------------------------------------------------------
# row reduction: one forward-elimination core per row format

def vector_index(row, q):
    """Index of a vector: its base-q digits, most significant first (for
    q = 2, the bit-packed row)."""
    v = 0
    for e in row:
        v = v * q + e
    return v


def _entries(v, q, n):
    """The n entries of the vector with index v (vector_index's inverse)."""
    out = [0] * n
    for j in range(n - 1, -1, -1):
        v, out[j] = divmod(v, q)
    return tuple(out)


def _echelon_bits(vecs):
    """Forward elimination of bit-packed rows: {leading bit: row}."""
    piv = {}
    for v in vecs:
        while v:
            h = v.bit_length() - 1
            r = piv.get(h)
            if r is None:
                piv[h] = v
                break
            v ^= r
    return piv


def _echelon_table(field, n, rows):
    """Forward elimination over GF(q): {leading column: row led by 1}."""
    mul = field.mul_table
    sub = field.sub_table
    inv = field.inv_table
    piv = {}
    for v in rows:
        col = 0
        while col < n:
            c = v[col]
            if not c:
                col += 1
                continue
            r = piv.get(col)
            if r is None:
                if c != 1:
                    m = mul[inv[c]]
                    v = [m[e] for e in v]
                piv[col] = v
                break
            m = mul[c]
            v = [sub[e][m[f]] for e, f in zip(v, r)]
            col += 1
    return piv


def _rref_table(field, n, rows):
    """Full RREF over GF(q) via table arithmetic; returns (rows, pivots)."""
    mul = field.mul_table
    sub = field.sub_table
    piv = _echelon_table(field, n, rows)
    pivots = sorted(piv)
    mat = [list(piv[col]) for col in pivots]
    for i in range(len(mat) - 1, 0, -1):
        row = mat[i]
        col = pivots[i]
        # row i is clear at every later pivot, so those columns stay clear
        for ri in mat[:i]:
            if ri[col]:
                mrow = mul[ri[col]]
                for j in range(col, n):
                    ri[j] = sub[ri[j]][mrow[row[j]]]
    return [tuple(r) for r in mat], pivots


def _rref_pivots(rows, n):
    """The pivots of rows (each a bytes of entries) if they are the RREF of
    their span, else None.  That holds iff each row is led by a 1 strictly
    right of the lead above it and each lead's column is clear in the rows
    above; the rows below are zero there, left of their own leads."""
    pivots = []
    for row in rows:
        p = n - len(row.lstrip(b"\0"))
        if p == n or row[p] != 1 or (pivots and p <= pivots[-1]):
            return None
        pivots.append(p)
    for i, row in enumerate(rows):
        for p in pivots[i + 1:]:
            if row[p]:
                return None
    return tuple(pivots)


# ---------------------------------------------------------------------------

@total_ordering
class Subspace:
    """A subspace of F_q^n in canonical reduced row echelon form.

    Instances are immutable and totally ordered by (dim, pivots, key),
    which is the order of (dim, pivots, rows) and fixes a deterministic
    enumeration and branching order everywhere.  The token and the vector
    mask are each built on first use and kept.
    """

    __slots__ = ("field", "n", "rows", "pivots", "key", "_h", "_token",
                 "_mask")

    def __init__(self, field, n, rows, pivots, key):
        # Internal: callers go through from_generators / _from_rref.
        self.field = field
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self.key = key
        self._h = hash((field.q, n, key))

    @classmethod
    def _from_rref(cls, field, n, rows, pivots, key=None):
        """The subspace of canonical rows; a caller that has their key
        passes it."""
        if key is None:
            q = field.q
            key = tuple(vector_index(r, q) for r in rows)
        return cls(field, n, rows, pivots, key)

    @classmethod
    def _from_key(cls, field, n, key):
        """The subspace whose canonical rows have the vector indices key."""
        q = field.q
        rows = tuple(_entries(r, q, n) for r in key)
        # an RREF row's first nonzero entry is its leading 1
        return cls._from_rref(field, n, rows, tuple(r.index(1) for r in rows),
                              key)

    @classmethod
    def from_generators(cls, field: FieldSpec, n: int, gens) -> "Subspace":
        """Canonical RREF of the span of the given vectors.

        An empty generator list yields the zero subspace.  Raises
        DimensionMismatch on ragged input and ValueError on entries that
        are not ints in 0..q-1.
        """
        q = field.q
        vecs = []
        for g in gens:
            row = tuple(g)
            if len(row) != n:
                raise DimensionMismatch(
                    f"vector of length {len(row)} in ambient dimension {n}")
            for e in row:
                if not (isinstance(e, int) and 0 <= e < q):
                    raise ValueError(f"entry {e!r} is not an element of GF({q})")
            vecs.append(row)
        rows, pivots = _rref_table(field, n, vecs)
        return cls._from_rref(field, n, tuple(rows), tuple(pivots))

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
        return (len(self.rows), self.pivots, self.key)

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
        return self.rank_with(other) == self.dim

    def rank_with(self, other: "Subspace") -> int:
        """dim(self + other) without building the canonical sum."""
        if self.field.q == 2:
            return len(_echelon_bits(self.key + other.key))
        return len(_echelon_table(self.field, self.n, self.rows + other.rows))

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

    def vector_mask(self) -> int:
        """Bitmask of the vectors of the subspace: bit i is set iff the vector
        with ``vector_index`` i lies in it.

        For q = 2 the index of a vector is its packed row.  For q > 2 the
        indices are built a column at a time: column j of the combination
        with coefficients c holds sum_i c_i r_ij, listed for every c in one
        fixed order, and each index takes the Horner step index * q + digit.
        Two masks meet in q^dim(U ∩ W) bits, so
        |U ∩ W| = popcount(mask(U) & mask(W)).

        The mask is written out as a binary numeral of q^n digits, vector i
        setting the i-th digit from the right, and parsed once: OR-ing the
        bits into an int one at a time would copy the q^n-bit int per vector.
        The indices are listed at most 2^_MASK_CHUNK_BITS at a time, so the
        numeral is the only transient of size q^n: the span of the first m
        rows is listed once per vector h of the span of the others, starting
        from h (each column from h's entry for q > 2) instead of 0.  The
        int is kept in ``_mask``, unset at construction, like ``_token``.
        """
        try:
            return self._mask
        except AttributeError:
            pass
        top = self.field.q ** self.n - 1
        numeral = bytearray(b"0") * (top + 1)
        if self.field.q != 2:
            self._mark_table_vectors(numeral)
        else:  # the digit of vector v is numeral[top - v] = numeral[top ^ v]
            offsets = [top]
            low = self.key[:_MASK_CHUNK_BITS]
            for r in self.key[_MASK_CHUNK_BITS:]:
                offsets += [h ^ r for h in offsets]
            for h in offsets:
                vecs = [h]
                for r in low:
                    vecs += [v ^ r for v in vecs]
                for v in vecs:
                    numeral[v] = 49  # ord("1")
        self._mask = mask = int(numeral, 2)
        return mask

    def _mark_table_vectors(self, numeral):
        """vector_mask's digits for q > 2: the Horner columns of the span of
        the first m rows, once per vector h of the span of the others."""
        q = self.field.q
        top = len(numeral) - 1
        add, mul = self.field.add_table, self.field.mul_table
        m = _MASK_CHUNK_BITS // (q - 1).bit_length()  # so q^m <= 2^12
        offsets = [(0,) * self.n]
        low = self.rows[:m]
        for r in self.rows[m:]:
            offsets += [tuple(add[x][mul[c][e]] for x, e in zip(h, r))
                        for c in range(1, q) for h in offsets]
        for h in offsets:
            vecs = None
            # low is empty only for the zero space, whose one vector is 0
            for x, col in zip(h, zip(*low)):
                digits = [x]
                for e in col:
                    if e:
                        digits += [add[mul[c][e]][y]
                                   for c in range(1, q) for y in digits]
                    else:
                        digits *= q
                vecs = (digits if vecs is None else
                        [v * q + y for v, y in zip(vecs, digits)])
            for v in vecs or (0,):
                numeral[top - v] = 49

    # -- serialization -------------------------------------------------------

    def to_token(self) -> str:
        """Render as ``q:n:d:`` followed by comma-separated base-q row digits.

        The string is formatted once per instance and kept in ``_token``,
        which construction leaves unset, so building a subspace costs no
        more and every writer formats each subspace at most once.
        """
        try:
            return self._token
        except AttributeError:
            pass
        rows = b",".join(map(bytes, self.rows)).translate(_ENCODE).decode()
        self._token = token = f"{self.field.q}:{self.n}:{self.dim}:{rows}"
        return token

    @classmethod
    def from_token(cls, token: str) -> "Subspace":
        """Parse the serialization format, rejecting non-canonical input.

        The rows must be the RREF of their span, checked on the rows as read
        (``_rref_pivots``), not by eliminating them again, and each header
        field must be its own decimal spelling (not ``+2``, ``02`` or
        `` 2``).  Outer whitespace is stripped.
        """
        parts = token.strip().split(":")
        if len(parts) != 4:
            raise ParseError(f"expected 'q:n:d:rows', got {token!r}")
        try:
            q, n, d = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer header in {token!r}") from None
        try:
            field = field_new(q)
        except NonPrimePower as exc:
            raise ParseError(f"{exc} in {token!r}") from None
        if n < 0 or d < 0 or d > n:
            raise ParseError(f"invalid dimensions in {token!r}")
        row_part = parts[3]
        row_strs = row_part.split(",") if row_part else []
        if len(row_strs) != d:
            raise ParseError(
                f"declared dim {d} but {len(row_strs)} rows in {token!r}")
        digits = _DIGITS[:q]
        rows = []
        for s in row_strs:
            if len(s) != n:
                raise ParseError(f"row {s!r} has length {len(s)}, expected {n}")
            if s.strip(digits):  # empty iff every character is a digit
                ch = next(ch for ch in s if ch not in digits)
                raise ParseError(f"digit {ch!r} invalid over GF({q})")
            rows.append(s.encode().translate(_DECODE))
        pivots = _rref_pivots(rows, n)
        if pivots is None:
            raise ParseError(f"rows of {token!r} are not in canonical RREF")
        # checked last, so a token with another fault keeps its message
        if parts[:3] != [str(q), str(n), str(d)]:
            raise ParseError(f"non-canonical header in {token!r}")
        key = tuple(int(s, q) for s in row_strs)
        return cls._from_rref(field, n, tuple(map(tuple, rows)), pivots, key)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field.q == other.field.q and self.n == other.n
                and self.key == other.key)

    def __lt__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        self._check_ambient(other)
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"Subspace({self.to_token()!r})"

