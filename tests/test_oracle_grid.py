"""The 336 searches of the small oracle grid against their checked-in rows.

tests/data/oracle_grid.txt holds one row per search, as tools/grid_reports.py
prints it: tuple, optimum, witness count, nodes, proven, bound and
characterization match, formula value, a SHA-256 of the witness files and
one of the characterization diagnostics.
A change that moves a row on purpose regenerates the file with that tool
(see its docstring) and says so in CHANGES.md.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "oracle_grid.txt"


def _grid_reports():
    """tools/grid_reports.py as a module; tools/ is no package."""
    spec = importlib.util.spec_from_file_location(
        "grid_reports", ROOT / "tools" / "grid_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_grid_matches_table(monkeypatch):
    # The searches run as `qdiam oracle`, which reads these when no flag
    # is given; the table holds the defaults.
    for name in ("QDIAM_MAX_LATTICE", "QDIAM_TIMEOUT_SECS"):
        monkeypatch.delenv(name, raising=False)
    tool = _grid_reports()
    header, *rows = TABLE.read_text().splitlines()
    assert header == tool.HEADER
    names = header.split()[1:]
    cases = list(tool.grid())
    assert len(rows) == len(cases) == 336
    moved = []
    for want, case in zip(rows, cases):
        got = tool.search_row(*case)
        if got != want:
            fields = [f"{name} {a} -> {b}" for name, a, b
                      in zip(names, want.split(), got.split()) if a != b]
            moved.append(" ".join(map(str, case)) + ": "
                         + ("; ".join(fields) or got))
    assert not moved, "rows that moved:\n" + "\n".join(moved)
