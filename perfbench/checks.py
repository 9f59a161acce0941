"""Exactness checks of every job's output.

Each checker takes a job from workloads.py and the worker's record of it
(exit code, captured stdout and stderr, error) and returns a list of
problems; an empty list means the job passed.  A wrong exit code, a wrong
value, a report that violates docs/search_report.schema.json, a witness
whose independent all-pairs distance loop exceeds d, and a timeout are all
problems.
"""

from __future__ import annotations

import json

import jsonschema

from qdiam.errors import ParameterOutOfRange
from qdiam.qcount import (kleitman_bound, kleitman_in_range,
                          odd_stability_bound, odd_stability_in_range,
                          type_a_even_bound, type_a_even_in_range,
                          type_b_even_bound, type_b_even_in_range)
from qdiam.subspace import Subspace

from workloads import CheckJob, ConstructJob, OracleJob

_CLASS_FORMULAS = {
    "A_even": (type_a_even_bound, type_a_even_in_range),
    "B_even": (type_b_even_bound, type_b_even_in_range),
    "A_odd": (odd_stability_bound, odd_stability_in_range),
    "B_odd": (odd_stability_bound, odd_stability_in_range),
}


class Checker:
    def __init__(self, schema_path):
        with open(schema_path) as fh:
            schema = json.load(fh)
        self.validator = jsonschema.Draft202012Validator(schema)
        self._distance = {}

    def check(self, job, rec, workdir):
        """Problems of one job run whose ``{work}`` directory was workdir."""
        if rec["error"] is not None:
            return [rec["error"].strip().splitlines()[-1]]
        if isinstance(job, OracleJob):
            return self._oracle(job, rec)
        if isinstance(job, ConstructJob):
            return self._construct(job, rec, job.path.replace("{work}", workdir))
        if isinstance(job, CheckJob):
            return self._check(job, rec)
        raise TypeError(f"no checker for {job!r}")

    # -- oracle -------------------------------------------------------------

    def _expected_formula(self, job):
        """(formula_value, in_hypothesis_range, bound_match) from qcount."""
        if job.family_class is None:
            in_range = kleitman_in_range(job.n, job.d)
            formula = kleitman_bound(job.n, job.d, job.q) if in_range else None
            match = None if formula is None else job.optimum == formula
            return formula, in_range, match
        bound, in_range_fn = _CLASS_FORMULAS[job.family_class]
        t = job.d // 2
        try:
            formula, in_range = bound(job.n, t, job.q), in_range_fn(job.n, t)
        except ParameterOutOfRange:
            formula, in_range = None, False
        match = job.optimum <= formula if formula is not None and in_range else None
        return formula, in_range, match

    def _oracle(self, job, rec):
        problems = []
        try:
            doc = json.loads(rec["stdout"])
        except ValueError:
            return [f"exit {rec['exit']}, stdout is not JSON: {rec['stderr'].strip()}"]
        problems += [f"schema: {e.message}" for e in self.validator.iter_errors(doc)]
        formula, in_range, bound_match = self._expected_formula(job)
        characterized = True if job.enumerate_all and bound_match else None
        expected = {
            "parameters": {"q": job.q, "n": job.n, "d": job.d,
                           "family_class": job.family_class},
            "optimum": str(job.optimum),
            "witness_count": job.witness_count,
            "proven_optimal": True,
            "exhaustive": job.enumerate_all,
            "timed_out": False,
            "infeasible": job.optimum == 0,
            "formula_value": None if formula is None else str(formula),
            "in_hypothesis_range": in_range,
            "bound_match": bound_match,
            "characterization_match": characterized,
        }
        for key, want in expected.items():
            if doc.get(key) != want:
                problems.append(f"{key}: {doc.get(key)!r}, expected {want!r}")
        want_exit = 1 if False in (bound_match, characterized) else 0
        if rec["exit"] != want_exit:
            problems.append(f"exit code {rec['exit']}, expected {want_exit}")
        witnesses = doc.get("witnesses") or []
        if len(witnesses) != min(job.witness_count, doc.get("witness_cap", 0)):
            problems.append(f"{len(witnesses)} witness files for "
                            f"{job.witness_count} witnesses")
        if len(set(witnesses)) != len(witnesses):
            problems.append("duplicate witness files")
        for i, text in enumerate(witnesses):
            problems += [f"witness {i}: {p}" for p in self._witness(job, text)]
        return problems

    def _witness(self, job, text):
        """Header, size and an all-pairs Subspace.distance loop: diameter <= d.

        Distances are memoised per token pair, since witnesses of one
        lattice share members; the loop never touches the search's table.
        """
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        header = f"family {job.q} {job.n} {job.optimum}"
        if lines[0] != header:
            return [f"header {lines[0]!r}, expected {header!r}"]
        tokens = lines[1:]
        if len(tokens) != job.optimum or len(set(tokens)) != len(tokens):
            return [f"{len(tokens)} members ({len(set(tokens))} distinct), "
                    f"expected {job.optimum}"]
        subs = [Subspace.from_token(tok) for tok in tokens]
        dist = self._distance
        for i, a in enumerate(tokens):
            for j in range(i + 1, len(tokens)):
                key = (a, tokens[j])
                d = dist.get(key)
                if d is None:
                    d = dist[key] = subs[i].distance(subs[j])
                if d > job.d:
                    return [f"distance({a}, {tokens[j]}) = {d} > {job.d}"]
        return []

    # -- construct / check --------------------------------------------------

    def _construct(self, job, rec, path):
        problems = []
        if rec["exit"] != 0:
            problems.append(f"exit code {rec['exit']}, expected 0: "
                            f"{rec['stderr'].strip()}")
        try:
            doc = json.loads(rec["stdout"])
        except ValueError:
            return problems + ["stdout is not JSON"]
        expected = {
            "family": job.family, "q": job.q, "n": job.n, "size": str(job.size),
            "diameter": job.diameter, "support": sorted(job.layer_sizes),
            "layer_sizes": {str(k): str(v) for k, v in job.layer_sizes.items()},
            "output": path,
        }
        for key, want in expected.items():
            if doc.get(key) != want:
                problems.append(f"{key}: {doc.get(key)!r}, expected {want!r}")
        try:
            with open(path) as fh:
                lines = fh.read().split("\n")
        except OSError as exc:
            return problems + [f"family file: {exc}"]
        if lines[-1] == "":
            lines.pop()
        if lines[0] != f"family {job.q} {job.n} {job.size}":
            problems.append(f"family file header {lines[0]!r}")
        tokens = lines[1:]
        if len(tokens) != job.size or len(set(tokens)) != job.size:
            problems.append(f"family file holds {len(set(tokens))} distinct of "
                            f"{len(tokens)} members, expected {job.size}")
        return problems

    def _check(self, job, rec):
        src = job.family
        problems = []
        want_exit = 0 if job.admissible else 1
        if rec["exit"] != want_exit:
            problems.append(f"exit code {rec['exit']}, expected {want_exit}: "
                            f"{rec['stderr'].strip()}")
        try:
            doc = json.loads(rec["stdout"])
        except ValueError:
            return problems + ["stdout is not JSON"]
        t = src.t
        d = 2 * t if job.family_class.endswith("even") else 2 * t + 1
        support = sorted(src.layer_sizes)
        expected = {
            "q": src.q, "n": src.n, "size": str(src.size),
            "diameter": src.diameter, "support": support,
            "layer_sizes": {str(k): str(v) for k, v in src.layer_sizes.items()},
            "dim_spread": support[-1] - support[0],
            "min_supp_norm": min(support[0], src.n - support[-1]),
            "admissibility": {
                "class": job.family_class, "t": t, "d": d,
                "admissible": job.admissible, "diameter_ok": True,
                "witness_kind": job.witness_kind,
                "witness_centers": list(job.witness_centers),
            },
        }
        for key, want in expected.items():
            got = doc.get(key)
            if key == "admissibility" and isinstance(got, dict):
                got = {k: got.get(k) for k in want}
            if got != want:
                problems.append(f"{key}: {got!r}, expected {want!r}")
        # The diameter condition forces every cross-intersection level.
        rows = doc.get("cross_intersection", [])
        if len(rows) != len(support) * (len(support) + 1) // 2:
            problems.append(f"{len(rows)} cross_intersection rows for "
                            f"{len(support)} layers")
        for row in rows:
            if not row.get("ok") or row["achieved"] < row["required"]:
                problems.append(f"cross_intersection row {row}")
        return problems
