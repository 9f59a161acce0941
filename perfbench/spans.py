"""Outside-in trace of one worker pass, and its reduction to per-layer metrics.

``Tracer.install`` replaces, in the worker only, the names that the CLI and
the oracle look up when they call into each layer: a module attribute such
as ``qdiam.oracle.build_index`` or a class attribute such as
``LatticeIndex.distance_table``.  Nothing under src/ changes.  Each wrapped
call records a span

    [name, job, parent, start_ns, end_ns, rank_with_calls_inside, note]

where ``job`` is the index of the job the span belongs to, ``parent`` the
index of the enclosing span (None for a job's root) and ``note`` a small
count read from the call's arguments or result.  ``gfq.field_new`` is
lru_cached; only its cache misses, the GF(q) constructions, get a span.
``Subspace.rank_with``,
``Subspace.from_generators`` and ``families._covers_of`` are too hot for
spans and only count their calls.  Spans stay in memory until the pass
ends; ``dump`` hands them to the parent, which writes them out and calls
``layer_metrics``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

# Constructors `construct` looks up in the cli namespace.
_CONSTRUCTORS = ("ball", "canonical_double_ball", "canonical_family",
                 "double_ball", "extremal_odd_family", "extremal_odd_triple",
                 "hilton_milner_family", "hilton_milner_triple", "star")


def _cross_pairs(args, result):
    """Member pairs cross_intersection_profile scans: all ordered pairs of
    distinct members within a layer, all pairs across two layers."""
    sizes = [len(args[0].layer(k)) for k in args[0].support]
    total = 0
    for i, a in enumerate(sizes):
        total += a * a - a
        total += sum(a * b for b in sizes[i + 1:])
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.current_job = None

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one CLI job; every span inside shares its id."""
        self.current_job = job_id
        sid = self._open("job")
        try:
            yield
        finally:
            self._close(sid)
            self.current_job = None

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.current_job, parent,
                           time.perf_counter_ns(), 0,
                           self.counters["rank_with"], None])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        rec = self.spans[sid]
        rec[4] = time.perf_counter_ns()
        rec[5] = self.counters["rank_with"] - rec[5]
        self.stack.pop()

    def install_field_new(self):
        """Span every GF(q) construction, i.e. every cache miss of field_new.

        Call before importing the modules that bind ``field_new`` by name,
        so they bind the wrapper and import-time constructions count too.
        """
        import qdiam.gfq as gfq
        field_new = gfq.field_new
        tracer = self

        @functools.wraps(field_new)
        def timed_field_new(q):
            misses = field_new.cache_info().misses
            start = time.perf_counter_ns()
            try:
                return field_new(q)
            finally:
                if field_new.cache_info().misses != misses:
                    parent = tracer.stack[-1] if tracer.stack else None
                    tracer.spans.append(["gfq.field_new", tracer.current_job,
                                         parent, start, time.perf_counter_ns(),
                                         0, None])
        gfq.field_new = timed_field_new

    def wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(sid)
                if note is not None and result is not None:
                    tracer.spans[sid][6] = note(args, result)
        return traced

    def _patch(self, owner, attr, name, note=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def install(self):
        # Imported here: the parent process only reduces traces and must not
        # wait for the import of the code under test.
        import qdiam.cli as cli
        import qdiam.families as families
        import qdiam.oracle as oracle
        from qdiam.grassmann import LatticeIndex
        from qdiam.subspace import Subspace

        counters = self.counters
        self._patch(oracle, "build_index", "grassmann.build_index")
        self._patch(LatticeIndex, "distance_table", "grassmann.distance_table",
                    lambda args, res: args[0].size ** 2)
        engine = oracle._CliqueEngine
        self._patch(engine, "__init__", "oracle.engine_init")
        self._patch(engine, "_degeneracy_order", "oracle.degeneracy")
        self._patch(engine, "search", "oracle.search", lambda args, res: res[3])
        self._patch(oracle, "_seed_family", "oracle.seed")
        self._patch(oracle, "_admissible_seed", "oracle.seed")
        self._patch(oracle, "_materialize_witnesses", "oracle.materialize",
                    lambda args, res: len(res))
        self._patch(oracle, "is_admissible", "oracle.is_admissible",
                    lambda args, res: int(res.admissible))
        self._patch(cli, "verify_characterization", "oracle.characterize")

        self._patch(cli, "is_admissible", "families.is_admissible")
        self._patch(cli, "diameter", "families.diameter")
        self._patch(cli, "cross_intersection_profile", "families.cross_profile",
                    _cross_pairs)
        self._patch(cli, "read_family", "families.read_family")
        for attr in _CONSTRUCTORS:
            self._patch(cli, attr, "families.construct")

        self._patch(cli, "_emit", "cli.emit")
        self._patch(oracle.SearchReport, "to_json_dict", "cli.emit")
        cli.json = _JsonProxy(self.wrap("cli.emit", json.dumps))

        rank_with = Subspace.rank_with

        def counted_rank_with(self, other):
            counters["rank_with"] += 1
            return rank_with(self, other)
        Subspace.rank_with = counted_rank_with

        from_generators = Subspace.from_generators.__func__

        def counted_from_generators(cls, field, n, gens):
            counters["from_generators"] += 1
            return from_generators(cls, field, n, gens)
        Subspace.from_generators = classmethod(counted_from_generators)

        covers_of = families._covers_of

        def counted_covers_of(s):
            counters["covers_calls"] += 1
            counters["covers_scanned"] += s.field.q ** s.n
            for cover in covers_of(s):
                counters["covers_yielded"] += 1
                yield cover
        families._covers_of = counted_covers_of

    def dump(self):
        return {"spans": self.spans, "counters": dict(self.counters)}


class _JsonProxy:
    """Stands in for the json module inside qdiam.cli with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


# ---------------------------------------------------------------------------
# reduction (runs in the parent)

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace):
    """Per-layer metrics of one traced pass.

    Times are in seconds.  A span's self time is its duration minus the
    durations of its direct children.  Metrics of a layer the workload never
    calls read 0, and so do ratios whose base is 0.
    """
    spans = trace["spans"]
    counters = trace["counters"]
    dur = [(s[4] - s[3]) / 1e9 for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[2] is not None:
            self_time[s[2]] -= dur[i]

    def parent_name(i):
        p = spans[i][2]
        return None if p is None else spans[p][0]

    total = Counter()
    own = Counter()
    notes = Counter()
    leaf_checks = leaf_accepts = 0
    leaf_s = verify_admissible_s = 0.0
    emit_s = 0.0
    pairs = 0
    for i, s in enumerate(spans):
        name = s[0]
        total[name] += dur[i]
        own[name] += self_time[i]
        if s[6] is not None and name != "grassmann.distance_table":
            notes[name] += s[6]
        if name == "grassmann.distance_table" and s[5]:
            pairs += s[5]
            notes[name] = max(notes[name], s[6])
        if name == "oracle.is_admissible":
            where = parent_name(i)
            if where == "oracle.search":
                leaf_checks += 1
                leaf_accepts += s[6]
                leaf_s += dur[i]
            elif where != "oracle.seed":
                verify_admissible_s += dur[i]
        if name == "cli.emit" and parent_name(i) != "cli.emit":
            emit_s += dur[i]

    search_own = own["oracle.search"]
    return {
        "gfq.field_new_s": (total["gfq.field_new"], "s"),
        "subspace.rank_with_calls": (counters.get("rank_with", 0), "count"),
        "subspace.from_generators_calls": (counters.get("from_generators", 0), "count"),
        "grassmann.build_index_s": (total["grassmann.build_index"], "s"),
        "grassmann.distance_table_s": (total["grassmann.distance_table"], "s"),
        "grassmann.distance_pairs": (pairs, "count"),
        "grassmann.pairs_per_s": (_ratio(pairs, total["grassmann.distance_table"]), "1/s"),
        "grassmann.distance_table_bytes": (notes["grassmann.distance_table"], "bytes"),
        "oracle.adjacency_s": (own["oracle.engine_init"], "s"),
        "oracle.degeneracy_s": (total["oracle.degeneracy"], "s"),
        "oracle.search_s": (search_own, "s"),
        "oracle.nodes": (notes["oracle.search"], "count"),
        "oracle.nodes_per_s": (_ratio(notes["oracle.search"], search_own), "1/s"),
        "oracle.leaf_checks": (leaf_checks, "count"),
        "oracle.leaf_check_s": (leaf_s, "s"),
        "oracle.clauses_learned": (leaf_checks - leaf_accepts, "count"),
        "oracle.leaf_accept_ratio": (_ratio(leaf_accepts, leaf_checks), "ratio"),
        "oracle.seed_s": (total["oracle.seed"], "s"),
        "oracle.witness_verify_s": (total["oracle.materialize"] + verify_admissible_s, "s"),
        "oracle.witnesses": (notes["oracle.materialize"], "count"),
        "oracle.characterize_s": (total["oracle.characterize"], "s"),
        "families.construct_s": (total["families.construct"], "s"),
        "families.read_family_s": (total["families.read_family"], "s"),
        "families.diameter_s": (total["families.diameter"], "s"),
        "families.admissibility_s": (total["families.is_admissible"], "s"),
        "families.cross_profile_s": (total["families.cross_profile"], "s"),
        "families.cross_profile_pairs": (notes["families.cross_profile"], "count"),
        "families.covers_calls": (counters.get("covers_calls", 0), "count"),
        "families.covers_scanned": (counters.get("covers_scanned", 0), "count"),
        "families.covers_yield_ratio": (
            _ratio(counters.get("covers_yielded", 0), counters.get("covers_scanned", 0)),
            "ratio"),
        "cli.emit_s": (emit_s, "s"),
    }
