"""Exact big-integer evaluation of every closed-form count and bound.

All functions return plain Python ints (arbitrary precision, never negative)
and never touch floating point.  Gaussian binomials use the q-Pascal
recurrence, so no division is performed anywhere.

Each stability bound evaluates its formula on any parameter tuple where the
terms are defined; whether the tuple also satisfies the theorem's hypothesis
range is reported separately by the ``*_in_range`` companions, because the
enumerable desk-scale regime lies far below those thresholds.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterOutOfRange


@lru_cache(maxsize=None)
def gauss_binom(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n k]_q: the number of k-subspaces of F_q^n.

    Computed by the q-Pascal recurrence [n k] = [n-1 k-1] + q^k [n-1 k].
    Returns 0 for k < 0 or k > n.
    """
    if q < 2:
        raise ParameterOutOfRange(f"q must be at least 2, got {q}")
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gauss_binom(n - 1, k - 1, q) + q**k * gauss_binom(n - 1, k, q)


def count_profile(n: int, k: int, l: int, j: int, q: int) -> int:
    """Number of l-subspaces B with dim(A ∩ B) = j for a fixed k-subspace A.

    Equals q^((k-j)(l-j)) [n-k l-j]_q [k j]_q; zero when j is out of range.
    """
    if j < 0 or j > min(k, l):
        return 0
    return q**((k - j) * (l - j)) * gauss_binom(n - k, l - j, q) * gauss_binom(k, j, q)


def layer_sum(n: int, up_to: int, q: int) -> int:
    """Sum of Gaussian binomials [n 0] + ... + [n up_to]."""
    return sum(gauss_binom(n, i, q) for i in range(up_to + 1))


def kleitman_bound(n: int, d: int, q: int) -> int:
    """Maximum size of a family of diameter at most d in F_q^n (n >= d+1).

    Sum of the first t+1 layer sizes for d = 2t, plus [n-1 t] for d = 2t+1.
    """
    if d < 2:
        raise ParameterOutOfRange(f"d must be at least 2, got {d}")
    if n < d + 1:
        raise ParameterOutOfRange(f"requires n >= d+1, got n={n}, d={d}")
    t = d // 2
    total = layer_sum(n, t, q)
    if d % 2 == 1:
        total += gauss_binom(n - 1, t, q)
    return total


def ekr_bound(n: int, k: int, s: int, q: int) -> int:
    """Upper bound for s-intersecting families of k-spaces (n >= 2k-s)."""
    if not 0 <= s <= k:
        raise ParameterOutOfRange(f"requires 0 <= s <= k, got s={s}, k={k}")
    if n < 2 * k - s:
        raise ParameterOutOfRange(f"requires n >= 2k-s, got n={n}, k={k}, s={s}")
    return max(gauss_binom(n - s, k - s, q), gauss_binom(2 * k - s, k - s, q))


def hilton_milner_bound(n: int, k: int, q: int) -> int:
    """Maximum size of a nontrivial 1-intersecting family of k-spaces.

    [n-1 k-1] - q^(k(k-1)) [n-k-1 k-1] + q^k.  For k = t+1 this is the extra
    top-layer capacity of the odd-diameter stability bound.
    """
    if k < 2:
        raise ParameterOutOfRange(f"requires k >= 2, got k={k}")
    if n < k + 2:
        raise ParameterOutOfRange(f"requires n >= k+2, got n={n}, k={k}")
    return (gauss_binom(n - 1, k - 1, q)
            - q**(k * (k - 1)) * gauss_binom(n - k - 1, k - 1, q)
            + q**k)


def nontrivial_intersecting_bound(n: int, k: int, s: int, q: int) -> int:
    """Upper bound for nontrivial s-intersecting families of k-spaces.

    Dispatches between the two regimes (small s versus s close to k); the
    s = 1 case is the sharp Hilton-Milner value.  Requires s >= 1, k >= s+2;
    evaluable for n >= k+2, sharp as an extremal bound once n >= 2k+2.
    """
    if s < 1 or k < s + 2:
        raise ParameterOutOfRange(f"requires 1 <= s <= k-2, got s={s}, k={k}")
    if n < k + 2:
        raise ParameterOutOfRange(f"requires n >= k+2, got n={n}, k={k}")
    if s == 1:
        return hilton_milner_bound(n, k, q)
    if 2 * s <= k - 2:
        return small_s_nontrivial_bound(n, k, s, q)
    return (gauss_binom(s + 2, 1, q) * gauss_binom(n - s - 1, k - s - 1, q)
            - q * gauss_binom(s + 1, 1, q) * gauss_binom(n - s - 2, k - s - 2, q))


def small_s_nontrivial_bound(n: int, k: int, s: int, q: int) -> int:
    """The small-s regime expression, evaluable on any grid for sweeps."""
    return (gauss_binom(n - s, k - s, q)
            - q**((k + 1 - s) * (k - s)) * gauss_binom(n - k - 1, k - s, q)
            + q**(k + 1 - s) * gauss_binom(s, 1, q))


def cross_intersecting_sum_bound(n: int, a: int, b: int, t: int, q: int) -> int:
    """Sharp bound for |A| + |B| with A, B cross-t-intersecting layers.

    [n b] - sum_{i<t} q^((a-i)(b-i)) [a i] [n-a b-i] + 1, stated for
    [n a] <= [n b].  Exposed in full generality; the package only relies on
    the complementary instantiation a = k, b = n-k, t = 1.
    """
    if t < 1 or t >= min(a, b):
        raise ParameterOutOfRange(f"requires 1 <= t < min(a,b), got t={t}")
    if a < 2 or b < 2 or n < 4 or a + b >= n + t:
        raise ParameterOutOfRange(
            f"requires a,b >= 2, n >= 4, a+b < n+t; got n={n}, a={a}, b={b}, t={t}")
    if gauss_binom(n, a, q) > gauss_binom(n, b, q):
        raise ParameterOutOfRange("stated for [n a] <= [n b]; swap a and b")
    total = gauss_binom(n, b, q)
    for i in range(t):
        total -= (q**((a - i) * (b - i)) * gauss_binom(a, i, q)
                  * gauss_binom(n - a, b - i, q))
    return total + 1


def complementary_pair_bound(n: int, k: int, q: int) -> int:
    """Bound for |F(k)| + |F(n-k)| when both complementary layers are hit.

    [n k] - q^(k(n-k)) + 1, for 1 <= k < n-k.
    """
    if not 1 <= k < n - k:
        raise ParameterOutOfRange(f"requires 1 <= k < n-k, got n={n}, k={k}")
    return gauss_binom(n, k, q) - q**(k * (n - k)) + 1


# ---------------------------------------------------------------------------
# stability bounds

def type_a_even_bound(n: int, t: int, q: int) -> int:
    """Even-diameter canonical-stability bound g(n, t).

    Sum of layers 0..t-1 plus [n-1 t-1] + [n-1 t]; this is exactly the size
    of a radius-t ball around a 1-dimensional subspace once n >= 2t+2.
    """
    if t < 2:
        raise ParameterOutOfRange(f"requires t >= 2, got t={t}")
    if n < t + 1:
        raise ParameterOutOfRange(f"requires n >= t+1, got n={n}, t={t}")
    return (layer_sum(n, t - 1, q)
            + gauss_binom(n - 1, t - 1, q)
            + gauss_binom(n - 1, t, q))


def type_a_even_in_range(n: int, t: int) -> bool:
    """Whether (n, t) satisfies the even canonical-stability hypothesis."""
    return t >= 2 and n >= 7 * t + 5


def odd_stability_bound(n: int, t: int, q: int) -> int:
    """Odd-diameter stability bound: layers 0..t plus the Hilton-Milner top.

    Evaluable for t >= 1, n >= t+3; the theorem itself needs t >= 2 and
    n >= 5t+3 (see odd_stability_in_range).
    """
    if t < 1:
        raise ParameterOutOfRange(f"requires t >= 1, got t={t}")
    if n < t + 3:
        raise ParameterOutOfRange(f"requires n >= t+3, got n={n}, t={t}")
    return layer_sum(n, t, q) + hilton_milner_bound(n, t + 1, q)


def odd_stability_in_range(n: int, t: int) -> bool:
    """Whether (n, t) satisfies the odd stability hypothesis."""
    return t >= 2 and n >= 5 * t + 3


def type_b_even_bound(n: int, t: int, q: int) -> int:
    """Even-diameter global-stability bound (a strict upper bound).

    Sum of layers 0..t-1 plus (2t+1) q^2 [3t t] [n t-1].
    """
    if t < 2:
        raise ParameterOutOfRange(f"requires t >= 2, got t={t}")
    if n < t + 1:
        raise ParameterOutOfRange(f"requires n >= t+1, got n={n}, t={t}")
    return (layer_sum(n, t - 1, q)
            + (2 * t + 1) * q**2 * gauss_binom(3 * t, t, q)
            * gauss_binom(n, t - 1, q))


def type_b_even_in_range(n: int, t: int) -> bool:
    """Whether (n, t) satisfies the global even-stability hypothesis."""
    return t >= 2 and n >= 6 * t


def kleitman_in_range(n: int, d: int) -> bool:
    """Whether (n, d) satisfies the diameter-theorem hypothesis."""
    return d >= 2 and n >= d + 1
