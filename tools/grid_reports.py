"""Print one line per oracle search of the small grid, for diffing two trees.

The grid is q=2 with n <= 5, q=3 with n <= 4 and q=4, 5 with n <= 3, every
0 <= d <= n, the plain search and both classes of d's parity, each with and
without enumerate_all: 336 searches.  Each line is the tuple and the SHA-256
of the report's JSON form without elapsed_ms, so two trees that search alike
print the same lines, nodes_explored and witnesses included.  A search that
raises prints the exception's type and message instead of a hash.

Run it on each tree and diff the outputs:

    PYTHONPATH=src python tools/grid_reports.py > after.txt
    PYTHONPATH=../parent/src python tools/grid_reports.py > before.txt
    diff before.txt after.txt
"""

import hashlib
import json
import sys

from qdiam.oracle import max_admissible_family

GRID = ((2, 5), (3, 4), (4, 3), (5, 3))  # (q, largest n)


def grid():
    """Every (q, n, d, class, enumerate_all) of the grid, in print order."""
    for q, top in GRID:
        for n in range(top + 1):
            for d in range(n + 1):
                parity = "even" if d % 2 == 0 else "odd"
                for family_class in (None, f"A_{parity}", f"B_{parity}"):
                    for enumerate_all in (False, True):
                        yield q, n, d, family_class, enumerate_all


def report_digest(q, n, d, family_class, enumerate_all):
    """The SHA-256 of one search's JSON report without elapsed_ms."""
    report = max_admissible_family(q, n, d, family_class, enumerate_all)
    data = report.to_json_dict()
    del data["elapsed_ms"]
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def main():
    for case in grid():
        try:
            outcome = report_digest(*case)
        except Exception as exc:  # a raising search is a result to compare
            outcome = f"{type(exc).__name__}: {exc}"
        print(*case, outcome, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
