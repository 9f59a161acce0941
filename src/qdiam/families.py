"""Named families of subspaces and the predicates that classify them.

Covers the canonical extremal families (full lower/upper layer unions and
the canonical double balls), metric balls around arbitrary centers,
Hilton-Milner configurations and their layered extensions, stars, the
diameter/support statistics, intersection predicates, and the admissibility
checkers that decide whether a family escapes every forbidden configuration
of a given class.

All member-pair statistics share one scan, `_min_meet`;
`cross_intersection_profile` takes the diameter from the same per-layer-pair
minimum meets it reports, so a check scans each layer pair once.

Admissibility scans for the ball classes enumerate candidate centers but
prune by dimension windows and by probing a few extreme members first;
pruning is by provably necessary conditions only, so verdicts never depend
on it.  The adjacent center pairs of B_odd are a center c1 and each of its
covers c2, built directly from c1's row echelon form rather than by a scan
of F_q^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import (AmbientMismatch, EmptyFamily, InvalidConfiguration,
                     ParseError)
from .gfq import field_new
from .grassmann import DEFAULT_ENUM_BUDGET, enumerate_layer
from .subspace import Subspace, _rref_table


class SubspaceFamily:
    """Immutable, deduplicated set of subspaces of one ambient space.

    Members are kept as a canonically sorted tuple; the layer partition and
    the support are cached at construction.
    """

    __slots__ = ("field", "n", "members", "member_set", "_layers")

    def __init__(self, field, n, members):
        seen = set()
        for s in members:
            if s.field.q != field.q or s.n != n:
                raise AmbientMismatch(
                    f"member {s!r} not in GF({field.q})^{n}")
            seen.add(s)
        self.field = field
        self.n = n
        self.members = tuple(sorted(seen, key=Subspace.sort_key))
        self.member_set = frozenset(seen)
        layers = {}
        for s in self.members:
            layers.setdefault(s.dim, []).append(s)
        self._layers = {k: tuple(v) for k, v in layers.items()}

    @property
    def support(self):
        return tuple(sorted(self._layers))

    def layer(self, k):
        return self._layers.get(k, ())

    def layer_sizes(self):
        return {k: len(v) for k, v in sorted(self._layers.items())}

    def union(self, other: "SubspaceFamily") -> "SubspaceFamily":
        if other.field.q != self.field.q or other.n != self.n:
            raise AmbientMismatch("union of families over different spaces")
        return SubspaceFamily(self.field, self.n, self.members + other.members)

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

def ball(center: Subspace, radius: int, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All subspaces within metric distance `radius` of the center.

    Only layers with |dim - dim(center)| <= radius can contribute, so the
    enumeration is restricted to that window.
    """
    if radius < 0 or radius > center.n:
        raise ValueError(f"radius {radius} out of range for n={center.n}")
    field, n = center.field, center.n
    members = []
    lo = max(0, center.dim - radius)
    hi = min(n, center.dim + radius)
    for k in range(lo, hi + 1):
        for s in enumerate_layer(field, n, k, budget=budget):
            if center.distance(s) <= radius:
                members.append(s)
    return SubspaceFamily(field, n, members)


def double_ball(c1: Subspace, c2: Subspace, radius: int,
                budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Union of the two radius-`radius` balls around c1 and c2."""
    c1._check_ambient(c2)
    return ball(c1, radius, budget).union(ball(c2, radius, budget))


def lower_layers(field, n, t, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All subspaces of dimension at most t (the ball of radius t around 0)."""
    members = []
    for k in range(min(t, n) + 1):
        members.extend(enumerate_layer(field, n, k, budget=budget))
    return SubspaceFamily(field, n, members)


def upper_layers(field, n, t, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All subspaces of dimension at least n-t (the perp of lower_layers)."""
    members = []
    for k in range(max(0, n - t), n + 1):
        members.extend(enumerate_layer(field, n, k, budget=budget))
    return SubspaceFamily(field, n, members)


def star(x: Subspace, k: int, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """All k-subspaces containing x; for dim(x)=1 its size is [n-1 k-1]."""
    field, n = x.field, x.n
    if not x.dim <= k <= n:
        raise ValueError(f"star needs dim(x) <= k <= n, got k={k}, dim={x.dim}")
    members = [s for s in enumerate_layer(field, n, k, budget=budget)
               if s.contains(x)]
    return SubspaceFamily(field, n, members)


def canonical_double_ball(x: Subspace, t: int,
                          budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Lower layers up to t together with the (t+1)-spaces through the line x."""
    if x.dim != 1:
        raise InvalidConfiguration(f"center must be a line, got dim {x.dim}")
    if t + 1 > x.n:
        raise ValueError(f"t={t} too large for n={x.n}")
    return lower_layers(x.field, x.n, t, budget).union(star(x, t + 1, budget))


def canonical_family(field, n, t, which, x=None,
                     budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Dispatch for the canonical families: 'L', 'U', or 'D' (needs x)."""
    if which == "L":
        return lower_layers(field, n, t, budget)
    if which == "U":
        return upper_layers(field, n, t, budget)
    if which == "D":
        if x is None:
            raise InvalidConfiguration("canonical double ball needs a line x")
        return canonical_double_ball(x, t, budget)
    raise ValueError(f"unknown canonical family {which!r}")


def hilton_milner_family(x: Subspace, y: Subspace,
                         budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """The maximum nontrivial 1-intersecting family of k-spaces, k = dim(y).

    Members are the k-spaces through the line x that meet y, together with
    every k-space inside x + y.  Requires x a line not inside y.
    """
    if x.dim != 1:
        raise InvalidConfiguration(f"x must be a line, got dim {x.dim}")
    if y.contains(x):
        raise InvalidConfiguration("x must not lie inside y")
    x._check_ambient(y)
    field, n = x.field, x.n
    k = y.dim
    hull = x.sum(y)
    members = []
    for s in enumerate_layer(field, n, k, budget=budget):
        if s.contains(x):
            if _meet_dim(s, y) >= 1:
                members.append(s)
        elif hull.contains(s):
            members.append(s)
    return SubspaceFamily(field, n, members)


def hilton_milner_triple(y: Subspace, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """The 3-space variant: all 3-spaces meeting a fixed 3-space y in dim >= 2."""
    if y.dim != 3:
        raise InvalidConfiguration(f"y must have dimension 3, got {y.dim}")
    field, n = y.field, y.n
    members = [s for s in enumerate_layer(field, n, 3, budget=budget)
               if _meet_dim(s, y) >= 2]
    return SubspaceFamily(field, n, members)


def extremal_odd_family(x: Subspace, y: Subspace,
                        budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Lower layers below dim(y) united with the Hilton-Milner top layer."""
    top = hilton_milner_family(x, y, budget)
    return lower_layers(x.field, x.n, y.dim - 1, budget).union(top)


def extremal_odd_triple(y: Subspace, budget=DEFAULT_ENUM_BUDGET) -> SubspaceFamily:
    """Lower layers 0..2 united with the 3-space Hilton-Milner variant."""
    top = hilton_milner_triple(y, budget)
    return lower_layers(y.field, y.n, 2, budget).union(top)


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

    The scan stops at the first pair meeting in at most `stop` dimensions.
    Returns (None, None) when there is no pair.
    """
    best, pair = None, None
    for a, b in combinations(xs, 2) if ys is None else product(xs, ys):
        m = _meet_dim(a, b)
        if best is None or m < best:
            best, pair = m, (a, b)
            if m <= stop:
                break
    return best, pair


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


def diameter(fam: SubspaceFamily) -> int:
    """Exact maximum pairwise distance, exhaustive over member pairs.

    An a-space and a b-space are at distance a + b - 2 dim(a ∩ b), so each
    layer pair contributes a + b minus twice its smallest meet; the scan of a
    layer pair stops at the floor max(0, a + b - n) that no meet goes below.
    Layer pairs are visited in decreasing dimension-sum order and the scan
    stops as soon as no remaining pair can beat the running maximum.
    """
    if not fam.members:
        raise EmptyFamily("diameter of an empty family")
    best = 0
    for dimsum, a, b in _layer_pairs_by_dimsum(fam):
        if dimsum <= best:
            break
        m, _ = _layer_pair_min_meet(fam, a, b, max(0, dimsum - fam.n))
        if m is not None:
            best = max(best, dimsum - 2 * m)
    return best


def diameter_at_most(fam: SubspaceFamily, d: int):
    """(True, None) if every pairwise distance is <= d, else (False, pair).

    A pair of an a-space and a b-space is farther apart than d exactly when
    it meets in at most (a + b - d - 1) // 2 dimensions.  Pairs whose
    dimension sum is at most d are skipped outright.
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

    Each layer pair is scanned once, down to the floor max(0, i + j - n), and
    d is the largest i + j - 2 * meet over the layer pairs.  Returns
    (d, rows) with rows of (i, j, required, achieved, ok).
    """
    if not fam.members:
        raise EmptyFamily("cross-intersection profile of an empty family")
    meets = []
    supp = fam.support
    for ii, i in enumerate(supp):
        for j in supp[ii:]:
            got, _ = _layer_pair_min_meet(fam, i, j, max(0, i + j - fam.n))
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


def _family_in_ball(members_desc, center, t):
    for m in members_desc:
        if center.distance(m) > t:
            return False
    return True


def _family_in_double_ball(members_desc, c1, c2, t):
    for m in members_desc:
        if c1.distance(m) > t and c2.distance(m) > t:
            return False
    return True


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


def _common_subspace(members):
    """Intersection of all given subspaces (early exit at dimension 0)."""
    it = iter(members)
    common = next(it)
    for m in it:
        common = common.intersect(m)
        if common.dim == 0:
            break
    return common


def _line_inside(s: Subspace) -> Subspace:
    return Subspace.from_generators(s.field, s.n, [s.rows[0]])


def _first_line(field, n) -> Subspace:
    """The first line of F_q^n in canonical order."""
    return next(enumerate_layer(field, n, 1, budget=None))


def _contained_canonical_double_ball(fam, t):
    """A line x with fam inside the canonical double ball of x, if any."""
    supp = fam.support
    if supp[-1] > t + 1:
        return None
    field, n = fam.field, fam.n
    if n < 1:
        return None
    top = fam.layer(t + 1)
    if not top:
        return _first_line(field, n)
    common = _common_subspace(top)
    if common.dim >= 1:
        return _line_inside(common)
    return None


def _covers_of(s: Subspace):
    """The [n-k 1]_q subspaces covering the k-space s, each built once.

    Every cover is s + <v> for exactly one v that vanishes on the columns
    leading the rows of s with its columns reversed (in RREF) and whose
    highest-index nonzero entry is 1.  Ordering vectors by base-q value,
    coordinate n-1 most significant, that v is the smallest vector of the
    cover outside s, and the covers come out in increasing order of it.
    """
    field, n = s.field, s.n
    mul, sub, inv = field.mul_table, field.sub_table, field.inv_table
    _, rev_pivots = _rref_table(field, n, [r[::-1] for r in s.rows])
    taken = {n - 1 - p for p in rev_pivots}
    free = [j for j in range(n) if j not in taken]
    for top, f in enumerate(free):
        below = free[:top][::-1]  # most significant first
        for digits in product(range(field.q), repeat=top):
            v = [0] * n
            v[f] = 1
            for j, e in zip(below, digits):
                v[j] = e
            # RREF of s + <v>: reduce v by s, scale, clear its column from s.
            for r, p in zip(s.rows, s.pivots):
                c = v[p]
                if c:
                    mrow = mul[c]
                    v = [sub[a][mrow[b]] for a, b in zip(v, r)]
            lead = next(j for j, e in enumerate(v) if e)
            mrow = mul[inv[v[lead]]]
            v = tuple(mrow[e] for e in v)
            rows = []
            for r in s.rows:
                c = r[lead]
                if c:
                    mrow = mul[c]
                    r = tuple(sub[a][mrow[b]] for a, b in zip(r, v))
                rows.append(r)
            at = sum(1 for p in s.pivots if p < lead)
            rows.insert(at, v)
            pivots = s.pivots[:at] + (lead,) + s.pivots[at:]
            yield Subspace._from_rref(field, n, tuple(rows), pivots)


def is_admissible(fam: SubspaceFamily, family_class: str, t: int,
                  budget=DEFAULT_ENUM_BUDGET) -> AdmissibilityReport:
    """Decide whether fam has the right diameter and escapes every forbidden
    configuration of the class; on containment failure the witness
    configuration (its kind and centers) is returned.

    Classes: A_even forbids the two canonical layer unions; B_even forbids
    every radius-t ball; A_odd forbids every canonical double ball and its
    perp; B_odd forbids every union of two adjacent radius-t balls.
    """
    if family_class not in ADMISSIBILITY_CLASSES:
        raise ValueError(f"unknown admissibility class {family_class!r}")
    if not fam.members:
        raise EmptyFamily("admissibility of an empty family")
    d = 2 * t if family_class.endswith("even") else 2 * t + 1
    ok, pair = diameter_at_most(fam, d)
    if not ok:
        return AdmissibilityReport(
            False, family_class, t, d, diameter_ok=False,
            detail=f"diameter exceeds {d}: distance({pair[0].to_token()}, "
                   f"{pair[1].to_token()}) > {d}")

    field, n = fam.field, fam.n
    supp = fam.support
    m, big_m = supp[0], supp[-1]

    if family_class == "A_even":
        if big_m <= t:
            return AdmissibilityReport(
                False, family_class, t, d, True, "lower_layers", (),
                "contained in the union of layers 0..t")
        if m >= n - t:
            return AdmissibilityReport(
                False, family_class, t, d, True, "upper_layers", (),
                "contained in the union of layers n-t..n")
        return AdmissibilityReport(True, family_class, t, d, True)

    if family_class == "A_odd":
        x = _contained_canonical_double_ball(fam, t)
        if x is not None:
            return AdmissibilityReport(
                False, family_class, t, d, True, "canonical_double_ball", (x,),
                f"contained in the canonical double ball of {x.to_token()}")
        xp = _contained_canonical_double_ball(perp_family(fam), t)
        if xp is not None:
            return AdmissibilityReport(
                False, family_class, t, d, True, "canonical_double_ball_perp",
                (xp,),
                f"perp contained in the canonical double ball of {xp.to_token()}")
        return AdmissibilityReport(True, family_class, t, d, True)

    members_desc = tuple(reversed(fam.members))
    probes = _probe_members(fam)

    if family_class == "B_even":
        lo = max(0, big_m - t)
        hi = min(n, m + t)
        for k in range(lo, hi + 1):
            for center in enumerate_layer(field, n, k, budget=budget):
                if not _family_in_ball(probes, center, t):
                    continue
                if _family_in_ball(members_desc, center, t):
                    return AdmissibilityReport(
                        False, family_class, t, d, True, "ball", (center,),
                        f"contained in the radius-{t} ball around "
                        f"{center.to_token()}")
        return AdmissibilityReport(True, family_class, t, d, True)

    # B_odd: adjacent center pairs, enumerated as covering pairs c1 < c2.
    lo = max(0, big_m - t - 1)
    hi = min(n - 1, m + t)
    for k in range(lo, hi + 1):
        for c1 in enumerate_layer(field, n, k, budget=budget):
            # Probes not already covered by c1 must all be covered by c2.
            must_cover = [p for p in probes if c1.distance(p) > t]
            for c2 in _covers_of(c1):
                covered = True
                for p in must_cover:
                    if c2.distance(p) > t:
                        covered = False
                        break
                if not covered:
                    continue
                if _family_in_double_ball(members_desc, c1, c2, t):
                    return AdmissibilityReport(
                        False, family_class, t, d, True, "double_ball",
                        (c1, c2),
                        f"contained in the double ball around "
                        f"{c1.to_token()} and {c2.to_token()}")
    return AdmissibilityReport(True, family_class, t, d, True)


# ---------------------------------------------------------------------------
# family files

def write_family(fam: SubspaceFamily, fileobj) -> None:
    """Write the family file: header ``family q n count`` then one token per line."""
    fileobj.write(f"family {fam.field.q} {fam.n} {len(fam.members)}\n")
    for s in fam.members:
        fileobj.write(s.to_token() + "\n")


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
    field = field_new(q)
    members = []
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
        members.append(s)
    if len(members) != count:
        raise ParseError(
            f"header declares {count} members, file has {len(members)}",
            line=lineno)
    return SubspaceFamily(field, n, members)
