"""Named families of subspaces and the predicates that classify them.

Covers the canonical extremal families (full lower/upper layer unions and
the canonical double balls), metric balls around arbitrary centers,
Hilton-Milner configurations and their layered extensions, stars, the
diameter/support statistics, intersection predicates, and the admissibility
checkers that decide whether a family escapes every forbidden configuration
of a given class.

Constructors build their members from how they meet a centre c, scanning
no layer: the k-spaces meeting c in exactly j dimensions, [dim c, j]_q
[n - dim c, k - j]_q q^((k - j)(dim c - j)) of them, are each built once
(`_meeting`).  A radius-r ball takes j >= (k + dim c - r) / 2 in each layer
(the whole layer when every k-space qualifies), a star through x the meet
j = dim x, the Hilton-Milner family the star of x kept where it meets y
plus the k-spaces of x + y, and its 3-space variant j >= 2 on y.  The
enumeration budget bounds the subspaces built per layer, checked before
the first is built.

All member-pair statistics share one scan, `_min_meet`, which meets a
pair by the popcount of its two vector masks (|U ∩ W| = q^dim(U ∩ W)),
each member masked on its first meet and keeping the mask for later scans;
`cross_intersection_profile` takes the diameter from the same per-layer-pair
minimum meets it reports, so a check scans each layer pair once.  A layer
pair's scan stops at the floor its layers prove (`_meet_floor`): every
meet holds what the two layers' common subspaces share and is at least
a + b - dim(S_a + S_b), S_k the span of layer k; so a ball's members,
which all hold its centre, are not met pair by pair.  The family keeps
each layer's common subspace and span, its hull, from the one walk that
builds both, for every later scan and for the A_odd listing.
One-off subspaces (the candidate centers and their covers) meet the
members by row elimination, `Subspace.distance`.

Every admissibility class is its list of forbidden configurations, each
the union of two radius-t balls around centres c1 and c2 (c1 = c2 for a
single ball): A_even the balls around 0 and F_q^n, A_odd the pairs
(0, x) and (F_q^n, x⊥) over the lines x, B_even every ball and B_odd
every cover pair c1 ⊂ c2.  One scan tests each pair on a few extreme
members (the probes) and then on every member.  The ball classes list
only the centres of a dimension window, A_odd only the lines common to
one layer, or to its perps, and B_odd skips, unbuilt, the covers
of a c1 with a probe farther than t + 1 (a cover moves every distance by
exactly one); every pruning is by a provably necessary condition only,
so verdicts never depend on it.  The covers of c1 are built directly
from its row echelon form rather than by a scan of F_q^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product
from operator import attrgetter

from .errors import (AmbientMismatch, BudgetExceeded, EmptyFamily,
                     InvalidConfiguration, NonPrimePower, ParameterOutOfRange,
                     ParseError)
from .gfq import field_new
from .grassmann import (DEFAULT_DISTANCE_CELL_BUDGET, DEFAULT_ENUM_BUDGET,
                        enumerate_layer, write_subspaces)
from .qcount import count_profile, gauss_binom
from .subspace import Subspace


class SubspaceFamily:
    """Immutable, deduplicated set of subspaces of one ambient space.

    Members are kept as a canonically sorted tuple; the layer partition and
    the support are cached at construction, and each layer's hull (`hull`)
    on its first use.  Equality and hash are those of the member set.
    """

    __slots__ = ("field", "n", "members", "member_set", "_layers", "_hulls")

    def __init__(self, field, n, members):
        # sorting the input first costs one comparison per member when it
        # comes in canonical order, as witnesses and family files do
        members = sorted(members, key=Subspace.sort_key)
        q = field.q
        for s in members:
            if s.n != n or s.field.q != q:
                raise AmbientMismatch(f"member {s!r} not in GF({q})^{n}")
        self.field = field
        self.n = n
        self.member_set = frozenset(members)
        if len(self.member_set) < len(members):
            members = [s for s, _ in groupby(members)]
        self.members = tuple(members)
        self._layers = {k: tuple(layer) for k, layer
                        in groupby(self.members, attrgetter("dim"))}
        self._hulls = None

    @property
    def support(self):
        return tuple(sorted(self._layers))

    def layer(self, k):
        return self._layers.get(k, ())

    def hull(self, k):
        """(C_k, S_k): the common subspace and the span of layer k (F_q^n and
        0 for an empty layer), walked once, on the first call for k."""
        if self._hulls is None:
            self._hulls = {}
        if k not in self._hulls:
            self._hulls[k] = _hull(self.layer(k), self.field, self.n)
        return self._hulls[k]

    def layer_sizes(self):
        return {k: len(v) for k, v in sorted(self._layers.items())}

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, s):
        return s in self.member_set

    def __eq__(self, other):
        if not isinstance(other, SubspaceFamily):
            return NotImplemented
        return (self.field.q == other.field.q and self.n == other.n
                and self.member_set == other.member_set)

    def __hash__(self):
        return hash((self.field.q, self.n, self.member_set))

    def __repr__(self):
        return (f"SubspaceFamily(q={self.field.q}, n={self.n}, "
                f"size={len(self.members)}, support={self.support})")


# ---------------------------------------------------------------------------
# constructors

def _meeting(c: Subspace, k: int, j: int):
    """The k-spaces s with dim(s ∩ c) = j, each built once.

    F_q^n = c ⊕ D for D the coordinate space on the columns leading no row
    of c.  Such an s is u + {w + φ(w) : w in W'} for exactly one j-space
    u = s ∩ c, (k - j)-space W' of D (s projected along c) and linear map
    φ from W' into the span of the rows of c off the pivots of u's
    coordinates, a complement of u in c.  The u are the images of the
    j-spaces of F_q^dim(c) under c's rows, in canonical order; two images
    first differ where their coordinates do, so for k = j = 1 the lines
    of c come out in canonical order.
    """
    field, n, m = c.field, c.n, c.dim
    add, mul = field.add_table, field.mul_table

    def combine(coeffs, rows):
        v = [0] * n
        for e, row in zip(coeffs, rows):
            if e:
                v = [add[a][mul[e][b]] for a, b in zip(v, row)]
        return v

    unit = [[int(i == f) for i in range(n)]
            for f in range(n) if f not in c.pivots]
    spaces = [[combine(r, unit) for r in w.rows]
              for w in enumerate_layer(field, n - m, k - j, budget=None)]
    for y in enumerate_layer(field, m, j, budget=None):
        u = [combine(r, c.rows) for r in y.rows]
        off = [r for i, r in enumerate(c.rows) if i not in y.pivots]
        digits = product(range(field.q), repeat=m - j)
        images = [combine(e, off) for e in digits] if k > j else []
        for ws in spaces:
            for phi in product(images, repeat=k - j):
                yield Subspace.from_generators(field, n, u + [
                    [add[a][b] for a, b in zip(x, p)] for x, p in zip(ws, phi)])


def _meets(c: Subspace, k: int, lo: int):
    """(k, count, members): the k-spaces meeting c in at least lo
    dimensions, the whole layer when every k-space does."""
    q, n, m = c.field.q, c.n, c.dim
    if lo <= max(0, k + m - n):
        return k, gauss_binom(n, k, q), enumerate_layer(c.field, n, k, None)
    js = range(lo, min(k, m) + 1)
    count = sum(count_profile(n, m, k, j, q) for j in js)
    return k, count, (s for j in js for s in _meeting(c, k, j))


def _family(field, n, parts, budget) -> SubspaceFamily:
    """One family of the parts (k, count, members), members lazy.

    The budget bounds the subspaces built per layer, the counts of its
    parts summed, and is checked before any member is built.
    """
    for k in {k for k, _, _ in parts}:
        count = sum(count for layer, count, _ in parts if layer == k)
        if budget is not None and count > budget:
            raise BudgetExceeded(
                f"layer (q={field.q}, n={n}, k={k}) builds {count} subspaces, "
                f"budget is {budget}", would_be_count=count)
    return SubspaceFamily(field, n, (s for _, _, ms in parts for s in ms))


def _ball_parts(center, radius):
    if radius < 0 or radius > center.n:
        raise ParameterOutOfRange(f"radius {radius} out of range for n={center.n}")
    m = center.dim
    # an s of dimension k is within radius iff m + k - 2 dim(s ∩ center)
    # <= radius, so only |k - m| <= radius contributes
    return [_meets(center, k, -((radius - k - m) // 2))
            for k in range(max(0, m - radius), min(center.n, m + radius) + 1)]


def ball(center: Subspace, radius: int, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All subspaces within metric distance `radius` of the center."""
    return _family(center.field, center.n, _ball_parts(center, radius), budget)


def double_ball(c1: Subspace, c2: Subspace, radius: int,
                budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Union of the two radius-`radius` balls around c1 and c2."""
    c1._check_ambient(c2)
    return _family(c1.field, c1.n, _ball_parts(c1, radius)
                   + _ball_parts(c2, radius), budget)


def _lower_parts(field, n, t, centre=Subspace.zero):
    """The ball of radius min(t, n) around 0 (or F_q^n): whole layers."""
    for name, value in (("n", n), ("t", t)):
        if value < 0:
            raise ParameterOutOfRange(f"{name} must be >= 0, got {value}")
    return _ball_parts(centre(field, n), min(t, n))


def lower_layers(field, n, t, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All subspaces of dimension at most t (the ball of radius t around 0)."""
    return _family(field, n, _lower_parts(field, n, t), budget)


def upper_layers(field, n, t, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All subspaces of dimension at least n-t (the perp of lower_layers)."""
    return _family(field, n, _lower_parts(field, n, t, Subspace.full), budget)


def star(x: Subspace, k: int, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All k-subspaces containing x; for dim(x)=1 its size is [n-1 k-1]."""
    if not x.dim <= k <= x.n:
        raise ParameterOutOfRange(
            f"star needs dim(x) <= k <= n, got k={k}, dim={x.dim}")
    return _family(x.field, x.n, [_meets(x, k, x.dim)], budget)


def canonical_double_ball(x: Subspace, t: int,
                          budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Lower layers up to t together with the (t+1)-spaces through the line x."""
    if x.dim != 1:
        raise InvalidConfiguration(f"center must be a line, got dim {x.dim}")
    if t + 1 > x.n:
        raise ParameterOutOfRange(f"t={t} too large for n={x.n}")
    parts = _lower_parts(x.field, x.n, t)
    return _family(x.field, x.n, [_meets(x, t + 1, 1)] + parts, budget)


def canonical_family(field, n, t, which,
                     budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Dispatch for the canonical layer unions: 'L' or 'U'."""
    if which == "L":
        return lower_layers(field, n, t, budget)
    if which == "U":
        return upper_layers(field, n, t, budget)
    raise ValueError(f"unknown canonical family {which!r}")


def _hilton_milner_parts(x, y):
    if x.dim != 1:
        raise InvalidConfiguration(f"x must be a line, got dim {x.dim}")
    if y.contains(x):
        raise InvalidConfiguration("x must not lie inside y")
    x._check_ambient(y)
    k, count, through = _meets(x, y.dim, 1)
    return [(k, count, (s for s in through if _meet_dim(s, y) >= 1)),
            _meets(x.sum(y), k, k)]


def hilton_milner_family(x: Subspace, y: Subspace,
                         budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """The maximum nontrivial 1-intersecting family of k-spaces, k = dim(y).

    Members are the k-spaces through the line x that meet y, together with
    every k-space inside x + y.  Requires x a line not inside y.
    """
    return _family(x.field, x.n, _hilton_milner_parts(x, y), budget)


def _hilton_milner_triple_parts(y):
    if y.dim != 3:
        raise InvalidConfiguration(f"y must have dimension 3, got {y.dim}")
    return [_meets(y, 3, 2)]


def hilton_milner_triple(y: Subspace, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """The 3-space variant: all 3-spaces meeting a fixed 3-space y in dim >= 2."""
    return _family(y.field, y.n, _hilton_milner_triple_parts(y), budget)


def extremal_odd_family(x: Subspace, y: Subspace,
                        budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Lower layers below dim(y) united with the Hilton-Milner top layer."""
    top = _hilton_milner_parts(x, y)
    return _family(x.field, x.n, top + _lower_parts(x.field, x.n, y.dim - 1),
                   budget)


def extremal_odd_triple(y: Subspace, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Lower layers 0..2 united with the 3-space Hilton-Milner variant."""
    top = _hilton_milner_triple_parts(y)
    return _family(y.field, y.n, top + _lower_parts(y.field, y.n, 2), budget)


def perp_family(fam: SubspaceFamily) -> SubspaceFamily:
    """Member-wise orthogonal complement; an isometry, so sizes and the
    diameter are preserved and the support reflects to n - supp."""
    return SubspaceFamily(fam.field, fam.n, [s.perp() for s in fam.members])


# ---------------------------------------------------------------------------
# statistics

def _meet_dim(a: Subspace, b: Subspace) -> int:
    return a.dim + b.dim - a.rank_with(b)


def _min_meet(xs, ys, stop):
    """Smallest dim(a ∩ b) over the pairs a in xs, b in ys, and a pair that
    reaches it; ys=None means the pairs of distinct positions of xs.

    Pairs are met in the order of combinations(xs, 2) or product(xs, ys),
    and the scan stops at the first pair meeting in at most `stop`
    dimensions.  Returns (None, None) when there is no pair, whatever the
    byte budget.

    A pair meets by popcount: U ∩ W holds q^dim(U ∩ W) vectors, the bits
    the two vector masks share, so the scan compares counts and looks the
    dimension up at the end.  A member's mask is built on its first meet
    and kept (Subspace.vector_mask), so a scan that stops early masks only
    the members it reached.  A mask is q^n bits; before building any, the
    scan raises BudgetExceeded when the masks of xs and ys would take more
    than DEFAULT_DISTANCE_CELL_BUDGET bytes.
    """
    same = ys is None
    if same:
        ys = xs
    if not xs or not ys or same and len(xs) < 2:
        return None, None
    q, n = xs[0].field.q, xs[0].n
    kept = len(xs) if same else len(xs) + len(ys)
    if kept * q ** n > 8 * DEFAULT_DISTANCE_CELL_BUDGET:
        raise BudgetExceeded(
            f"vector masks of {kept} members of GF({q})^{n} exceed the "
            f"byte budget", would_be_count=kept * q ** n // 8)
    dim_of = {q ** m: m for m in range(n + 1)}
    limit = q ** stop if stop >= 0 else 0  # a count <= limit stops the scan
    best, pair = q ** n + 1, None
    ymasks = [None] * len(ys)
    for i, a in enumerate(xs):
        ma = a.vector_mask()
        for j in range(i + 1 if same else 0, len(ys)):
            mb = ymasks[j]
            if mb is None:
                mb = ymasks[j] = ys[j].vector_mask()
            c = (ma & mb).bit_count()
            if c < best:
                best, pair = c, (a, ys[j])
                if c <= limit:
                    return dim_of[c], pair
    return (None, None) if pair is None else (dim_of[best], pair)


def _layer_pairs_by_dimsum(fam):
    dims = fam.support
    pairs = []
    for i, a in enumerate(dims):
        for b in dims[i:]:
            pairs.append((a + b, a, b))
    pairs.sort(reverse=True)
    return pairs


def _layer_pair_min_meet(fam, a, b, stop):
    return _min_meet(fam.layer(a), None if a == b else fam.layer(b), stop)


def _hull(members, field, n):
    """(common subspace, span) of the members, F_q^n and 0 if there are
    none, in one walk with contains; each half stops moving at 0 or F_q^n,
    which no further member moves."""
    common, span = Subspace.full(field, n), Subspace.zero(field, n)
    for s in members:
        if common.dim and not s.contains(common):
            common = common.intersect(s)
        if span.dim < n and not span.contains(s):
            span = span.sum(s)
    return common, span


def _meet_floor(fam, a, b):
    """A dimension no meet of an a-member and a b-member goes below.

    With (C_k, S_k) the hull of layer k (`SubspaceFamily.hull`), such a
    pair A, B has C_a ∩ C_b ⊂ A ∩ B and A + B ⊂ S_a + S_b, so
    dim(A ∩ B) >= max(a + b - dim(S_a + S_b), dim(C_a ∩ C_b), 0).  A layer
    pair of at most 16 pairs per member gets max(0, a + b - n), which needs
    no walk: there the walks cost about as much as meeting every pair.
    """
    xs, ys = fam.layer(a), fam.layer(b)
    pairs, members = ((len(xs) * (len(xs) - 1) // 2, len(xs)) if a == b
                      else (len(xs) * len(ys), len(xs) + len(ys)))
    if pairs <= 16 * members:
        return max(0, a + b - fam.n)
    (ca, sa), (cb, sb) = fam.hull(a), fam.hull(b)
    return max(0, a + b - sa.rank_with(sb), _meet_dim(ca, cb))


def diameter(fam: SubspaceFamily) -> int:
    """Exact maximum pairwise distance, exhaustive over member pairs.

    An a-space and a b-space are at distance a + b - 2 dim(a ∩ b), so each
    layer pair contributes a + b minus twice its smallest meet; the scan of a
    layer pair stops at the floor its layers prove (_meet_floor), which no
    meet goes below, so a pair reaching it has the smallest meet.
    Layer pairs are visited in decreasing dimension-sum order and the scan
    stops as soon as no remaining pair can beat the running maximum.
    """
    if not fam.members:
        raise EmptyFamily("diameter of an empty family")
    best = 0
    for dimsum, a, b in _layer_pairs_by_dimsum(fam):
        if dimsum <= best:
            break
        m, _ = _layer_pair_min_meet(fam, a, b, _meet_floor(fam, a, b))
        if m is not None:
            best = max(best, dimsum - 2 * m)
    return best


def diameter_at_most(fam: SubspaceFamily, d: int):
    """(True, None) if every pairwise distance is <= d, else (False, pair).

    A pair of an a-space and a b-space is farther apart than d exactly when
    it meets in at most (a + b - d - 1) // 2 dimensions.  Layer pairs whose
    dimension sum is at most d are skipped outright, and so are layer pairs
    whose meets cannot go that low: none goes below a + b - n (so no pair
    is farther apart than 2n - a - b), checked first as it needs no walk,
    or below the floor the layers prove (_meet_floor).
    """
    if not fam.members:
        raise EmptyFamily("diameter of an empty family")
    if d < 0:  # a member is at distance 0 from itself
        top = fam.layer(fam.support[-1])[0]
        return False, (top, top)
    for dimsum, a, b in _layer_pairs_by_dimsum(fam):
        if dimsum <= d:
            break
        stop = (dimsum - d - 1) // 2
        if stop < dimsum - fam.n or stop < _meet_floor(fam, a, b):
            continue
        m, pair = _layer_pair_min_meet(fam, a, b, stop)
        if m is not None and m <= stop:
            return False, pair
    return True, None


def dim_spread(fam: SubspaceFamily) -> int:
    """Largest difference of member dimensions (never exceeds the diameter)."""
    if not fam.members:
        raise EmptyFamily("dimension spread of an empty family")
    supp = fam.support
    return supp[-1] - supp[0]


def min_supp_norm(fam: SubspaceFamily) -> int:
    """Smallest dimension over the family and its perp: min(m, n - M)."""
    if not fam.members:
        raise EmptyFamily("support of an empty family")
    supp = fam.support
    return min(supp[0], fam.n - supp[-1])


def is_s_intersecting(members, s: int) -> bool:
    """True iff every pair of the given subspaces meets in dimension >= s."""
    mem = list(members)
    if not mem:
        raise EmptyFamily("intersecting predicate on an empty collection")
    if min(a.dim for a in mem) < s:
        return False
    m, _ = _min_meet(mem, None, s - 1)
    return m is None or m >= s


def is_cross_intersecting(members_a, members_b, s: int) -> bool:
    """True iff every pair (a, b) meets in dimension >= s."""
    ma = list(members_a)
    mb = list(members_b)
    if not ma or not mb:
        raise EmptyFamily("cross-intersecting predicate on an empty side")
    m, _ = _min_meet(ma, mb, s - 1)
    return m >= s


def cross_intersection_profile(fam: SubspaceFamily):
    """The diameter d and, per layer pair (i, j), the minimum meet dimension
    with the level the diameter condition guarantees: ceil((i + j - d) / 2).

    Each layer pair is scanned once, down to the floor its layers prove
    (_meet_floor), and d is the largest i + j - 2 * meet over the layer
    pairs.  Returns (d, rows) with rows of (i, j, required, achieved, ok).
    """
    if not fam.members:
        raise EmptyFamily("cross-intersection profile of an empty family")
    meets = []
    supp = fam.support
    for ii, i in enumerate(supp):
        for j in supp[ii:]:
            got, _ = _layer_pair_min_meet(fam, i, j, _meet_floor(fam, i, j))
            if got is None:
                got = i  # a single member pairs with itself only
            meets.append((i, j, got))
    d = max(i + j - 2 * got for i, j, got in meets)
    rows = []
    for i, j, got in meets:
        required = max(0, -((d - i - j) // 2))
        rows.append((i, j, required, got, got >= required))
    return d, rows


# ---------------------------------------------------------------------------
# admissibility

ADMISSIBILITY_CLASSES = ("A_even", "B_even", "A_odd", "B_odd")


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    family_class: str
    t: int
    d: int
    diameter_ok: bool
    witness_kind: str | None = None
    witness_centers: tuple = ()
    detail: str = ""


def _probe_members(fam):
    """A few extreme members per layer; violations usually show up here."""
    probes = []
    for k in fam.support:
        layer = fam.layer(k)
        probes.append(layer[0])
        if len(layer) > 1:
            probes.append(layer[-1])
    probes.sort(key=lambda s: -s.dim)
    return probes


def _covers_of(s: Subspace):
    """The [n-k 1]_q subspaces covering the k-space s, each built once.

    Every cover is s + <v> for exactly one v that vanishes on the columns
    leading the rows of s with its columns reversed (in RREF) and whose
    highest-index nonzero entry is 1.  Ordering vectors by base-q value,
    coordinate n-1 most significant, that v is the smallest vector of the
    cover outside s, and the covers come out in increasing order of it.
    """
    field, n = s.field, s.n
    rev = Subspace.from_generators(field, n, [r[::-1] for r in s.rows])
    taken = {n - 1 - p for p in rev.pivots}
    free = [j for j in range(n) if j not in taken]
    for top, f in enumerate(free):
        below = free[:top][::-1]  # most significant first
        for digits in product(range(field.q), repeat=top):
            v = [0] * n
            v[f] = 1
            for j, e in zip(below, digits):
                v[j] = e
            yield Subspace.from_generators(field, n, s.rows + (tuple(v),))


def _probes_left_to_cover(c1, probes, t):
    """The probes farther than t from c1, which a cover c2 of c1 must bring
    within t; None when one is farther than t + 1.

    A cover moves every distance by exactly one, so such a probe is outside
    every double ball around c1 and c1 needs no cover enumerated at all.
    """
    left = []
    for p in probes:
        dist = c1.distance(p)
        if dist > t + 1:
            return None
        if dist > t:
            left.append(p)
    return left


# Each witness kind's detail, formatted with the tokens of its reported
# centres and the radius t.
_WITNESS_DETAIL = {
    "lower_layers": "contained in the union of layers 0..t",
    "upper_layers": "contained in the union of layers n-t..n",
    "canonical_double_ball": "contained in the canonical double ball of {0}",
    "canonical_double_ball_perp":
        "perp contained in the canonical double ball of {0}",
    "ball": "contained in the radius-{t} ball around {0}",
    "double_ball": "contained in the double ball around {0} and {1}",
}


def _centre_pairs(fam, family_class, t, probes, budget):
    """The forbidden configurations of the class, in scan order, each the
    union ball(c1, t) ∪ ball(c2, t): yields (c1, c2, p1, the probes still
    to check, witness kind, reported centres), where the probes need only
    be tested against p1 and c2.

    - A_even: (0, 0), then (F_q^n, F_q^n): the two canonical layer unions.
    - A_odd: (0, x), then (F_q^n, x⊥), over the lines x: the canonical
      double ball of x and its perp.  Listed are only the lines inside
      every (t + 1)-member (none if a member is larger), then only those
      inside the perp of the span of the (n - t - 1)-members (none if a
      member is smaller).
    - B_even: (c, c) for every c with M - t <= dim c <= m + t, where m and
      M are the lowest and highest member dimension.
    - B_odd: every cover pair c1 ⊂ c2 with M - t - 1 <= dim c1 <= m + t,
      the covers of c1 built only when _probes_left_to_cover allows, which
      also hands over just the probes c1 leaves to c2 (so p1 = c2).
    """
    field, n = fam.field, fam.n
    supp = fam.support
    m, big_m = supp[0], supp[-1]
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    if family_class == "A_even":
        yield zero, zero, zero, probes, "lower_layers", ()
        yield full, full, full, probes, "upper_layers", ()
    elif family_class == "A_odd":
        if big_m <= t + 1:
            for x in _meeting(fam.hull(t + 1)[0], 1, 1):
                yield zero, x, zero, probes, "canonical_double_ball", (x,)
        if m >= n - t - 1:
            for x in _meeting(fam.hull(n - t - 1)[1].perp(), 1, 1):
                yield (full, x.perp(), full, probes,
                       "canonical_double_ball_perp", (x,))
    elif family_class == "B_even":
        for k in range(max(0, big_m - t), min(n, m + t) + 1):
            for c in enumerate_layer(field, n, k, budget=budget):
                yield c, c, c, probes, "ball", (c,)
    else:
        for k in range(max(0, big_m - t - 1), min(n - 1, m + t) + 1):
            for c1 in enumerate_layer(field, n, k, budget=budget):
                left = _probes_left_to_cover(c1, probes, t)
                if left is not None:
                    for c2 in _covers_of(c1):
                        yield c1, c2, c2, left, "double_ball", (c1, c2)


def _inside(members, c1, c2, t):
    """True iff every member lies within t of c1 or of c2 (c2 tried first)."""
    for s in members:
        if c2.distance(s) > t and (c1 is c2 or c1.distance(s) > t):
            return False
    return True


def is_admissible(fam: SubspaceFamily, family_class: str, t: int,
                  budget=DEFAULT_ENUM_BUDGET) -> AdmissibilityReport:
    """Decide whether fam has the right diameter and escapes every forbidden
    configuration of the class; on containment failure the witness
    configuration (its kind and centers) is returned.

    Classes: A_even forbids the two canonical layer unions; B_even forbids
    every radius-t ball; A_odd forbids every canonical double ball and its
    perp; B_odd forbids every union of two adjacent radius-t balls.  Each
    configuration is a pair of radius-t balls (_centre_pairs), and one scan
    tests each pair on the probes, then on every member, by row elimination.
    """
    if family_class not in ADMISSIBILITY_CLASSES:
        raise ValueError(f"unknown admissibility class {family_class!r}")
    if t < 0:
        raise ParameterOutOfRange(f"t must be >= 0, got {t}")
    if not fam.members:
        raise EmptyFamily("admissibility of an empty family")
    d = 2 * t if family_class.endswith("even") else 2 * t + 1
    ok, pair = diameter_at_most(fam, d)
    if not ok:
        return AdmissibilityReport(
            False, family_class, t, d, diameter_ok=False,
            detail=f"diameter exceeds {d}: distance({pair[0].to_token()}, "
                   f"{pair[1].to_token()}) > {d}")
    members_desc = tuple(reversed(fam.members))
    probes = _probe_members(fam)
    for c1, c2, p1, left, kind, shown in _centre_pairs(fam, family_class, t,
                                                       probes, budget):
        if _inside(left, p1, c2, t) and _inside(members_desc, c1, c2, t):
            tokens = [c.to_token() for c in shown]
            return AdmissibilityReport(
                False, family_class, t, d, True, kind, shown,
                _WITNESS_DETAIL[kind].format(*tokens, t=t))
    return AdmissibilityReport(True, family_class, t, d, True)


# ---------------------------------------------------------------------------
# family files

def write_family(fam: SubspaceFamily, fileobj) -> None:
    """Write the family file: header ``family q n count`` then one token per line."""
    fileobj.write(f"family {fam.field.q} {fam.n} {len(fam.members)}\n")
    write_subspaces(fam.members, fileobj)


def read_family(fileobj) -> SubspaceFamily:
    """Parse a family file, reporting the offending line on any error."""
    header = fileobj.readline()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "family":
        raise ParseError(f"bad header {header!r}, expected 'family q n count'",
                         line=1)
    try:
        q, n, count = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"non-integer header fields in {header!r}", line=1) from None
    try:
        field = field_new(q)
    except NonPrimePower as exc:
        raise ParseError(str(exc), line=1) from None
    members = {}
    lineno = 1
    for raw in fileobj:
        lineno += 1
        text = raw.strip()
        if not text:
            continue
        try:
            s = Subspace.from_token(text)
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if s.field.q != q or s.n != n:
            raise ParseError(
                f"subspace over GF({s.field.q})^{s.n} in a GF({q})^{n} family",
                line=lineno)
        if s in members:
            raise ParseError(f"member {text} repeats line {members[s]}",
                             line=lineno)
        members[s] = lineno
    if len(members) != count:
        raise ParseError(
            f"header declares {count} members, file has {len(members)}",
            line=lineno)
    return SubspaceFamily(field, n, members)
