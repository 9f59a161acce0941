"""The benchmark's workloads: fixed `qdiam` CLI jobs and what each must print.

A job is an argv list for ``qdiam.cli.main`` plus an expectation that the
parent process checks against the job's exit code, stdout and the files it
wrote.  ``{work}`` in an argv entry stands for the pass's scratch directory.

Expected values come from ``qdiam.qcount`` wherever a theorem gives them.
The admissible optima 8, 14 and 15 have no formula: they are values pinned
from the seed commit's own search, not theorems, and are labelled so.

Only family-check uses the seed: it moves the axis line and axis 3-space of
its constructions by a seeded element of GL(n, q).  Sizes, diameters and
admissibility verdicts are GL-invariant, so the expected values hold for
every seed.  The two oracle workloads search fixed (q, n, d) tuples and
ignore the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qdiam.qcount import (gauss_binom, kleitman_bound, odd_stability_bound,
                          type_a_even_bound)


@dataclass(frozen=True)
class OracleJob:
    """`oracle max` at (q, n, d); optional admissibility class and --all."""

    q: int
    n: int
    d: int
    optimum: int
    source: str  # where the expected optimum and witness count come from
    family_class: str | None = None
    enumerate_all: bool = False
    witness_count: int = 1
    budget: int | None = None

    @property
    def argv(self):
        argv = ["oracle", "max", "--q", str(self.q), "--n", str(self.n),
                "--d", str(self.d)]
        if self.family_class is not None:
            argv += ["--class", self.family_class]
        if self.enumerate_all:
            argv.append("--all")
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        return argv


@dataclass(frozen=True)
class ConstructJob:
    """`construct K` or `construct ball`, written to a family file."""

    family: str
    q: int
    n: int
    t: int
    tokens: dict
    path: str
    size: int
    source: str  # where the expected size comes from
    diameter: int
    layer_sizes: dict

    @property
    def argv(self):
        argv = ["construct", self.family, "--q", str(self.q), "--n", str(self.n)]
        if self.family == "K":
            argv += ["--x", self.tokens["x"], "--y", self.tokens["y"],
                     "--t", str(self.t)]
        else:
            argv += ["--center", self.tokens["x"], "--r", str(self.t)]
        return argv + ["--format", "json", "-o", self.path]


@dataclass(frozen=True)
class CheckJob:
    """`check FILE --class C --t T` on a family file built earlier."""

    family: ConstructJob
    family_class: str
    admissible: bool
    witness_kind: str | None = None
    witness_centers: tuple = ()
    source: str = "verdicts are GL-invariant"

    @property
    def argv(self):
        return ["check", self.family.path, "--class", self.family_class,
                "--t", str(self.family.t), "--format", "json"]


# ---------------------------------------------------------------------------
# GL(n, q) seeding.  The workload transforms its own inputs with modular
# arithmetic written here, so the tokens do not depend on the code under test.

def _rref_mod_p(rows, p):
    """Reduced row echelon form over the prime field GF(p)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            c = mat[i][col]
            if i != rank and c:
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return mat[:rank]


def _token(rows, q, n):
    rref = _rref_mod_p(rows, q)
    body = ",".join("".join(str(v) for v in row) for row in rref)
    return f"{q}:{n}:{len(rref)}:{body}"


def random_gl(rng, q, n):
    """A uniformly random invertible n x n matrix over the prime field GF(q)."""
    while True:
        g = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if len(_rref_mod_p(g, q)) == n:
            return g


def moved_axes(seed, q, n):
    """Tokens of g<e0> (a line) and g<e1, e2, e3> (a 3-space) for a seeded g.

    Row vectors transform as v -> v g, so g e_i is row i of g.
    """
    g = random_gl(random.Random(f"{seed}:{q}:{n}"), q, n)
    return {"x": _token(g[:1], q, n), "y": _token(g[1:4], q, n)}


# ---------------------------------------------------------------------------
# workloads

def lattice_frontier(seed):
    del seed  # fixed tuples: the ROADMAP frontier
    return [
        OracleJob(2, 6, 3, kleitman_bound(6, 3, 2), "optimum: qcount.kleitman_bound",
                  budget=3000),
        OracleJob(3, 5, 2, kleitman_bound(5, 2, 3), "optimum: qcount.kleitman_bound",
                  budget=3000),
    ]


def clique_search(seed):
    del seed  # fixed tuples
    return [
        # n = d + 1: 2^(t+1) full/empty splits of the complementary layer
        # pairs times the 2 [4 1]_3 maximum intersecting 2-space families
        # (stars and their duals) on the middle layer.
        OracleJob(3, 4, 3, kleitman_bound(4, 3, 3),
                  "optimum: qcount.kleitman_bound; witness count: "
                  "2^(t+1) * 2 * gauss_binom(4,1,3), also pinned from the seed commit",
                  enumerate_all=True,
                  witness_count=2 ** 2 * 2 * gauss_binom(4, 1, 3)),
        # n >= d + 2, d odd: the canonical double balls and their perps,
        # one pair per line.
        OracleJob(2, 5, 3, kleitman_bound(5, 3, 2),
                  "optimum: qcount.kleitman_bound; witness count: 2 * gauss_binom(5,1,2)",
                  enumerate_all=True, witness_count=2 * gauss_binom(5, 1, 2)),
        OracleJob(2, 5, 2, 8, "optimum: pinned from the seed commit, no formula",
                  family_class="B_even"),
        OracleJob(3, 4, 2, 14, "optimum: pinned from the seed commit, no formula",
                  family_class="B_even"),
        OracleJob(3, 4, 2, 15, "optimum: pinned from the seed commit, no formula",
                  family_class="A_even"),
    ]


def _k_layers(q, n, t, size):
    layers = {k: gauss_binom(n, k, q) for k in range(t + 1)}
    layers[t + 1] = size - sum(layers.values())
    return layers


def family_check(seed):
    t = 2
    ax2, ax3 = moved_axes(seed, 2, 7), moved_axes(seed, 3, 5)
    k27_size = odd_stability_bound(7, t, 2)
    k35_size = odd_stability_bound(5, t, 3)
    ball_size = type_a_even_bound(7, t, 2)
    k27 = ConstructJob("K", 2, 7, t, ax2, "{work}/K-2-7.fam", k27_size,
                       "size: qcount.odd_stability_bound", 2 * t + 1,
                       _k_layers(2, 7, t, k27_size))
    # radius-t ball around a line: every space of dim < t, the t- and
    # (t+1)-spaces through the line
    ball = ConstructJob("ball", 2, 7, t, ax2, "{work}/ball-2-7.fam", ball_size,
                        "size: qcount.type_a_even_bound", 2 * t,
                        {0: 1, 1: gauss_binom(7, 1, 2), 2: gauss_binom(6, 1, 2),
                         3: gauss_binom(6, 2, 2)})
    k35 = ConstructJob("K", 3, 5, t, ax3, "{work}/K-3-5.fam", k35_size,
                       "size: qcount.odd_stability_bound", 2 * t + 1,
                       _k_layers(3, 5, t, k35_size))
    return [
        k27, ball, k35,
        CheckJob(k27, "B_odd", admissible=True),
        CheckJob(k35, "B_odd", admissible=True),
        # the ball is its own forbidden configuration, found at its centre
        CheckJob(ball, "B_even", admissible=False, witness_kind="ball",
                 witness_centers=(ax2["x"],)),
    ]


WORKLOADS = {
    "lattice-frontier": lattice_frontier,
    "clique-search": clique_search,
    "family-check": family_check,
}
