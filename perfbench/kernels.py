"""Micro-timings of the subspace kernels over fixed, deterministic samples.

For q = 2 (bit rows) and q = 3 (table rows) in F_q^5, SAMPLE pairs of
subspaces are drawn once with a fixed seed from the whole lattice.
``rank_with_ns`` times ``a.rank_with(b)`` and ``canon_ns`` times
``Subspace.from_generators`` on the stacked rows of a and b (the canonical
sum).  Each is the median over REPEATS sweeps of the sample, per call, in
nanoseconds.  The samples never depend on the workload seed.
"""

from __future__ import annotations

import random
import statistics
import time

from qdiam.gfq import field_new
from qdiam.grassmann import build_index
from qdiam.subspace import Subspace

N = 5
SAMPLE = 4000
REPEATS = 7
SAMPLE_SEED = 20261017


def _per_call_ns(fn, items):
    sweeps = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for item in items:
            fn(*item)
        sweeps.append((time.perf_counter_ns() - t0) / len(items))
    return statistics.median(sweeps)


def measure():
    result = {}
    rank_with = Subspace.rank_with
    from_generators = Subspace.from_generators
    for q in (2, 3):
        field = field_new(q)
        subs = build_index(field, N).subspaces
        rng = random.Random(SAMPLE_SEED + q)
        pairs = [(rng.choice(subs), rng.choice(subs)) for _ in range(SAMPLE)]
        gens = [(field, N, a.rows + b.rows) for a, b in pairs]
        result[f"subspace.rank_with_ns.q{q}"] = _per_call_ns(rank_with, pairs)
        result[f"subspace.canon_ns.q{q}"] = _per_call_ns(from_generators, gens)
    return result
