"""Print one row per oracle search and one line per family job of small
grids, for diffing two trees.

The search grid is q=2 with n <= 5, q=3 with n <= 4 and q=4, 5 with n <= 3,
every 0 <= d <= n, the plain search and both classes of d's parity, each
with and without --all: 336 searches.  Each runs as `qdiam oracle max` in
process and is read from the JSON report it prints, whose characterization
fields the search driver sets.  Its row
(see search_row) holds the tuple and every field of the JSON report but
schema, witness_cap and elapsed_ms, with the witness files as one SHA-256
and the characterization_diagnostics list as another, so two trees that
search and characterize alike print the same rows, nodes_explored,
witnesses and every diagnostics line included.  A search the command
refuses prints its exit code and stderr instead.
tests/data/oracle_grid.txt holds these rows, and tier-1 recomputes them.

The family grid is q=2 with 1 <= n <= 5 and q=3 with 1 <= n <= 4.  Every
`qdiam construct` family kind is built around the first line x, the first
k-space (for a ball's centre) and the first k-space y not holding x (for
the second centre of a double ball and for HM and K), with t, r <= 2.  Each
family file is then checked by `qdiam check --format json`, without a class
and with every class at every t <= 2.  Each job runs in process through
`qdiam.cli.main` and prints its argv and the SHA-256 of its exit code,
stdout and stderr; a construct's stdout is the family file the checks read.

Run it on each tree and diff the outputs:

    PYTHONPATH=src python tools/grid_reports.py > after.txt
    PYTHONPATH=../parent/src python tools/grid_reports.py > before.txt
    diff before.txt after.txt

The first 337 lines, the header and the search rows, are the grid table:

    head -n 337 after.txt > tests/data/oracle_grid.txt
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from qdiam.cli import main as cli_main
from qdiam.families import ADMISSIBILITY_CLASSES
from qdiam.gfq import field_new
from qdiam.grassmann import enumerate_layer

GRID = ((2, 5), (3, 4), (4, 3), (5, 3))  # (q, largest n)
FAMILY_GRID = ((2, 5), (3, 4))  # (q, largest n)
# The report fields of a search row, after its tuple; the SHA-256 of the
# witness files and of the characterization diagnostics end it.
ROW_FIELDS = ("optimum", "witness_count", "nodes_explored", "proven_optimal",
              "exhaustive", "timed_out", "infeasible", "bound_match",
              "formula_value", "in_hypothesis_range", "characterization_match",
              "greedy_seed_size")
HEADER = " ".join(["# q n d class all", *ROW_FIELDS, "witnesses_sha256",
                   "characterization_diagnostics"])


def grid():
    """Every (q, n, d, class, enumerate_all) of the grid, in print order."""
    for q, top in GRID:
        for n in range(top + 1):
            for d in range(n + 1):
                parity = "even" if d % 2 == 0 else "odd"
                for family_class in (None, f"A_{parity}", f"B_{parity}"):
                    for enumerate_all in (False, True):
                        yield q, n, d, family_class, enumerate_all


def search_row(q, n, d, family_class, enumerate_all):
    """One search's row: its tuple and report fields, space-separated in
    HEADER's order, None as "-"; so is a report without diagnostics."""
    argv = ["oracle", "max", "--q", str(q), "--n", str(n), "--d", str(d)]
    if family_class is not None:
        argv += ["--class", family_class]
    if enumerate_all:
        argv.append("--all")
    code, out, err = run_cli(argv)
    case = [q, n, d, family_class, enumerate_all]
    if not out:  # the command refused the search; its message is the result
        return " ".join(map(str, case + [f"exit {code}:", err.strip()]))
    doc = json.loads(out)
    witnesses = hashlib.sha256(json.dumps(doc["witnesses"]).encode())
    diagnostics = doc.get("characterization_diagnostics")
    if diagnostics is not None:
        diagnostics = hashlib.sha256(
            json.dumps(diagnostics).encode()).hexdigest()
    values = case + [doc[field] for field in ROW_FIELDS]
    return " ".join("-" if v is None else str(v)
                    for v in values + [witnesses.hexdigest(), diagnostics])


def construct_argvs(q, n):
    """The construct jobs of one lattice, each as its argv."""
    field = field_new(q)
    firsts = [next(enumerate_layer(field, n, k)).to_token()
              for k in range(n + 1)]
    x = next(enumerate_layer(field, n, 1))
    outside = {k: next(y for y in enumerate_layer(field, n, k)
                       if not y.contains(x)).to_token() for k in range(1, n)}
    x = x.to_token()
    small = range(min(n, 2) + 1)
    jobs = [["L", "--q", str(q), "--n", str(n), "--t", str(t)] for t in small]
    jobs += [["U", "--q", str(q), "--n", str(n), "--t", str(t)] for t in small]
    jobs += [["D", "--x", x, "--t", str(t)] for t in small if t < n]
    jobs += [["ball", "--center", c, "--r", str(r)]
             for c in firsts for r in small]
    jobs += [["double-ball", "--center", x, "--center2", y, "--r", str(r)]
             for y in outside.values() for r in small]
    jobs += [["star", "--x", x, "--k", str(k)] for k in range(1, n + 1)]
    jobs += [[kind, "--x", x, "--y", y]
             for kind in ("HM", "K") for y in outside.values()]
    if n >= 3:
        jobs += [[kind, "--y", firsts[3]] for kind in ("HM3", "K3")]
    return [["construct", *job, "--format", "json"] for job in jobs]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process `qdiam` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def job_digest(code, out, err):
    return hashlib.sha256(
        json.dumps([code, out, err]).encode()).hexdigest()


def family_jobs(workdir):
    """(printed argv, digest) per construct and check job of the family
    grid; each family file is written to workdir as the checks' input."""
    for q, top in FAMILY_GRID:
        for n in range(1, top + 1):
            for argv in construct_argvs(q, n):
                code, out, err = run_cli(argv)
                yield argv, job_digest(code, out, err)
                if code != 0:
                    continue
                path = os.path.join(workdir, "family.fam")
                with open(path, "w") as fh:
                    fh.write(out)
                checks = [[]] + [["--class", c, "--t", str(t)]
                                 for c in ADMISSIBILITY_CLASSES
                                 for t in range(3)]
                for extra in checks:
                    code, out, err = run_cli(
                        ["check", path, *extra, "--format", "json"])
                    yield ["check", *argv[1:-2], *extra], job_digest(
                        code, out, err)


def main():
    print(HEADER, flush=True)
    for case in grid():
        print(search_row(*case), flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        for argv, digest in family_jobs(workdir):
            print(*argv, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
