import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from qdiam.cli import main
from qdiam.families import read_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- bound ---------------------------------------------------------------------

def test_bound_kleitman(capsys):
    code, out, _ = run_cli(capsys, "bound", "kleitman", "--q", "2",
                           "--n", "4", "--d", "3")
    assert code == 0
    assert out.splitlines()[0] == "23"


def test_bound_type_a_with_range_flag(capsys):
    code, out, _ = run_cli(capsys, "bound", "typeA-even", "--q", "2",
                           "--n", "7", "--t", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "842"
    assert doc["hypothesis_range_satisfied"] is False


def test_bound_out_of_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bound", "kleitman", "--q", "2",
                           "--n", "3", "--d", "3")
    assert code == 2
    assert "n >= d+1" in err


def test_bound_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "bound", "kleitman", "--q", "2", "--n", "4")
    assert code == 2
    assert "--d" in err


def test_bound_values_are_decimal_strings(capsys):
    # a value far beyond 64-bit range must print exactly
    code, out, _ = run_cli(capsys, "bound", "gauss", "--q", "3",
                           "--n", "40", "--k", "20")
    assert code == 0
    from qdiam.qcount import gauss_binom
    assert out.strip() == str(gauss_binom(40, 20, 3))


@pytest.mark.parametrize("argv", [
    ("gauss", "--q", "6", "--n", "3", "--k", "1"),
    ("kleitman", "--q", "6", "--n", "5", "--d", "3"),
    ("gauss", "--q", "1", "--n", "3", "--k", "1"),
])
def test_bound_refuses_non_prime_power(capsys, argv):
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[2]} is not a prime power\n"


def test_bound_accepts_prime_power_beyond_field_tables(capsys):
    # bounds need no GF(q) tables: [3 1]_25 = 1 + 25 + 625
    code, out, _ = run_cli(capsys, "bound", "gauss", "--q", "25", "--n", "3",
                           "--k", "1")
    assert code == 0
    assert out == "651\n"


# -- construct / check ----------------------------------------------------------

def test_construct_and_check_round_trip(tmp_path, capsys):
    fam_path = tmp_path / "d1.fam"
    code, out, _ = run_cli(capsys, "construct", "D", "--q", "2", "--n", "4",
                           "--t", "1", "--x", "2:4:1:1000",
                           "-o", str(fam_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == "23"
    assert doc["diameter"] == 3
    assert doc["support"] == [0, 1, 2]
    with open(fam_path) as fh:
        fam = read_family(fh)
    assert len(fam) == 23

    code, out, _ = run_cli(capsys, "check", str(fam_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == "23"
    assert doc["diameter"] == 3


def test_construct_ball_radius_zero(capsys):
    code, out, err = run_cli(capsys, "construct", "ball",
                             "--center", "2:4:0:", "--r", "0")
    assert code == 0
    assert out.startswith("family 2 4 1\n")
    assert "size 1" in err


def test_construct_k_family(tmp_path, capsys):
    fam_path = tmp_path / "k.fam"
    code, out, _ = run_cli(capsys, "construct", "K", "--q", "2", "--n", "7",
                           "--t", "2", "--x", "2:7:1:1000000",
                           "--y", "2:7:3:0100000,0010000,0001000",
                           "-o", str(fam_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == "3006"


def test_construct_conflicting_params(capsys):
    code, _, err = run_cli(capsys, "construct", "D", "--q", "3", "--n", "4",
                           "--t", "1", "--x", "2:4:1:1000")
    assert code == 2
    assert "conflicts" in err


@pytest.mark.parametrize("command, message", [
    (("construct", "ball", "--center", "2:4:1:1000", "--r", "1", "--q", "3"),
     "--q 3 conflicts with token field GF(2)"),
    (("construct", "double-ball", "--center", "2:4:1:1000",
      "--center2", "2:5:1:10000", "--r", "1", "--n", "4"),
     "--n 4 conflicts with token ambient dim 5"),
    (("construct", "K", "--x", "2:7:1:1000000",
      "--y", "2:7:3:0100000,0010000,0001000", "--t", "3"),
     "--t 3 conflicts with derived t = 2"),
    (("bound", "gauss", "--q", "2", "--n", "4", "--k", "2", "--d", "9"),
     "bound gauss does not read --d"),
    (("bound", "kleitman", "--q", "2", "--n", "4", "--d", "3", "--t", "1",
      "--s", "1"), "bound kleitman does not read --t, --s"),
    (("construct", "ball", "--center", "2:4:0:", "--r", "0", "--t", "1"),
     "construct ball does not read --t"),
    (("construct", "L", "--q", "2", "--n", "4", "--t", "1", "--x", "2:4:1:1000"),
     "construct L does not read --x"),
    (("construct", "K3", "--y", "2:5:3:10000,01000,00100", "--t", "2"),
     "construct K3 does not read --t"),
    (("construct", "D", "--x", "2:4:1:1000"), "construct D requires --t"),
    (("construct", "double-ball", "--r", "1"),
     "construct double-ball requires --center, --center2"),
    (("construct", "ball", "--center", "2:4:1:1000", "--r", "-1"),
     "radius -1 out of range for n=4"),
    (("construct", "star", "--x", "2:4:1:1000", "--k", "0"),
     "star needs dim(x) <= k <= n, got k=0, dim=1"),
    (("construct", "D", "--x", "2:4:1:1000", "--t", "9"),
     "t=9 too large for n=4"),
    (("construct", "L", "--q", "2", "--n", "-1", "--t", "1"),
     "n must be >= 0, got -1"),
    (("construct", "U", "--q", "2", "--n", "3", "--t", "-2"),
     "t must be >= 0, got -2"),
    (("enumerate", "--q", "2", "--n", "-1"), "n must be >= 0, got -1"),
    (("construct", "star", "--x", "6:3:1:100", "--k", "1"),
     "bad --x subspace token: 6 is not a prime power in '6:3:1:100'"),
])
def test_parameter_flag_usage_error(capsys, command, message):
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_check_admissibility_verdict(tmp_path, capsys):
    fam_path = tmp_path / "l.fam"
    run_cli(capsys, "construct", "L", "--q", "2", "--n", "4", "--t", "1",
            "-o", str(fam_path))
    code, out, _ = run_cli(capsys, "check", str(fam_path),
                           "--class", "A_even", "--t", "1", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["admissibility"]["admissible"] is False
    assert doc["admissibility"]["witness_kind"] == "lower_layers"


@pytest.mark.parametrize("family_class", ["A_even", "A_odd", "B_even",
                                          "B_odd"])
def test_check_refuses_negative_t(tmp_path, capsys, family_class):
    fam_path = tmp_path / "l.fam"
    run_cli(capsys, "construct", "L", "--q", "2", "--n", "4", "--t", "1",
            "-o", str(fam_path))
    code, out, err = run_cli(capsys, "check", str(fam_path),
                             "--class", family_class, "--t", "-1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: t must be >= 0, got -1"]


def test_check_parse_error_has_line(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text("family 2 4 1\n2:4:2:1100,1100\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "line 2" in err


# -- enumerate -------------------------------------------------------------------

def test_enumerate_layer(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--q", "2", "--n", "3",
                             "--k", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert "7 subspaces" in err


@pytest.mark.parametrize("command", [
    ("construct", "ball", "--center", "2:4:0:", "--r", "0"),
    ("enumerate", "--q", "2", "--n", "3"),
    ("oracle", "max", "--q", "2", "--n", "3", "--d", "2"),
])
@pytest.mark.parametrize("via_env", [False, True])
def test_negative_budget_is_usage_error(capsys, monkeypatch, command, via_env):
    if via_env:
        monkeypatch.setenv("QDIAM_MAX_LATTICE", "-5")
    else:
        command += ("--budget", "-5")
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: budget must be >= 0, got -5"]


# SHA-256 of `enumerate` without --k, as it printed when it listed a lattice
# index's subspaces: the 67 tokens of F_2^4 and the 28 of F_3^3.
_LATTICE_TOKENS_SHA256 = {
    (2, 4): "70463e1e40fd0cbef7088ee430755a20f251c001ce74db241de57b6e4a6b69f3",
    (3, 3): "a2efaf14c79d642ba5bf3e80f890729de287acd9a190fcd5e822c9e47ecaeb26",
}


@pytest.mark.parametrize("q,n,size", [(2, 4, 67), (3, 3, 28)])
def test_enumerate_lattice_streams_the_layers(capsys, monkeypatch, q, n, size):
    import qdiam.grassmann as grassmann

    def no_index(*args, **kwargs):
        raise AssertionError("built a lattice index")

    monkeypatch.setattr(grassmann.LatticeIndex, "__init__", no_index)
    code, out, err = run_cli(capsys, "enumerate", "--q", str(q), "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _LATTICE_TOKENS_SHA256[q, n]
    assert err == f"{size} subspaces\n"
    # a budget of exactly the lattice size is met
    assert run_cli(capsys, "enumerate", "--q", str(q), "--n", str(n),
                   "--budget", str(size)) == (0, out, err)
    code, out, err = run_cli(capsys, "enumerate", "--q", str(q), "--n", str(n),
                             "--budget", str(size - 1))
    assert (code, out) == (2, "")
    assert err == (f"budget exceeded: lattice (q={q}, n={n}) has {size} "
                   f"subspaces, budget is {size - 1}\n")


def test_enumerate_budget(capsys, monkeypatch):
    monkeypatch.setenv("QDIAM_MAX_LATTICE", "10")
    code, _, err = run_cli(capsys, "enumerate", "--q", "2", "--n", "4")
    assert code == 2
    assert "budget" in err.lower()


def test_construct_budget_bounds_the_subspaces_built(tmp_path, capsys):
    # the r=2 ball around a line of F_2^7 builds at most [6 2]_2 = 651
    # subspaces in one layer (its 3-spaces through the line), not the
    # 11,811 3-spaces of the whole layer
    argv = ("construct", "ball", "--center", "2:7:1:1000000", "--r", "2",
            "-o", str(tmp_path / "ball.fam"), "--budget")
    code, _, _ = run_cli(capsys, *argv, "651")
    assert code == 0
    code, _, err = run_cli(capsys, *argv, "650")
    assert code == 2
    assert "budget is 650" in err


# -- oracle ----------------------------------------------------------------------

def test_oracle_exit_zero_and_report(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "3",
                         "--d", "2", "--all", "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["optimum"] == "8"
    assert doc["characterization_match"] is True
    assert doc["exhaustive"] is True


def test_oracle_all_builds_one_lattice_index(capsys, monkeypatch):
    # The search and the characterization of its witnesses share one index.
    import qdiam.oracle as oracle
    calls = []
    build = oracle.build_index

    def counted_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_index", counted_build)
    code, out, _ = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "5",
                           "--d", "3", "--all")
    assert code == 0
    assert json.loads(out)["characterization_match"] is True
    assert len(calls) == 1


def test_oracle_budget_exit_two(capsys):
    code, _, err = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "9",
                           "--d", "2")
    assert code == 2
    assert "budget" in err.lower()


def test_oracle_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("QDIAM_MAX_LATTICE", "10")
    code, _, _ = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "3",
                         "--d", "2")
    assert code == 2
    # explicit flag takes precedence over the environment
    code, out, _ = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "3",
                           "--d", "2", "--budget", "400")
    assert code == 0


def test_oracle_admissible_class(capsys):
    code, out, _ = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "4",
                           "--d", "3", "--class", "A_odd")
    assert code == 0
    doc = json.loads(out)
    assert doc["optimum"] == "23"
    assert doc["parameters"]["family_class"] == "A_odd"
    assert doc["in_hypothesis_range"] is False


def test_oracle_timeout_exit_two(capsys):
    code, out, _ = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "5",
                           "--d", "3", "--all", "--timeout", "0.0")
    assert code == 2
    doc = json.loads(out)
    assert doc["timed_out"] is True
    assert doc["proven_optimal"] is False


@pytest.mark.parametrize("cap, kept", [(0, 0), (61, 61)])
def test_oracle_capped_enumeration_keeps_its_report(capsys, cap, kept):
    # The 62 maximum families of (2, 5, 3) outnumber the cap: the report
    # still comes out, with the true count and no characterization.
    code, out, err = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "5",
                             "--d", "3", "--all", "--witness-cap", str(cap))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["witness_count"] == 62 and len(doc["witnesses"]) == kept
    assert doc["bound_match"] is True
    assert doc["characterization_match"] is None
    assert doc["characterization_diagnostics"] == [
        f"not characterized: witness cap {cap} kept {kept} of 62 witnesses"]


@pytest.mark.parametrize("args, message", [
    (("--n", "3", "--d", "-1"), "d must be >= 0, got -1"),
    (("--n", "3", "--d", "-1", "--class", "B_odd"), "d must be >= 0, got -1"),
    (("--n", "3", "--d", "-2", "--class", "A_even"), "d must be >= 0, got -2"),
    (("--n", "-1", "--d", "2"), "n must be >= 0, got -1"),
    (("--n", "3", "--d", "2", "--witness-cap", "-1", "--all"),
     "witness cap must be >= 0, got -1"),
])
def test_oracle_negative_parameter_is_usage_error(capsys, args, message):
    code, out, err = run_cli(capsys, "oracle", "max", "--q", "2", *args)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("var", ["QDIAM_MAX_LATTICE", "QDIAM_TIMEOUT_SECS"])
def test_oracle_malformed_env_number_is_usage_error(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "abc")
    code, out, err = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "3",
                             "--d", "2")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and var in lines[0]


def test_oracle_nan_timeout_flag_is_usage_error(capsys):
    # start + nan is never passed, so a NaN timeout would switch it off.
    code, out, err = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "3",
                             "--d", "2", "--timeout", "nan")
    assert code == 2
    assert out == ""
    assert err == "error: --timeout must be a number of seconds, got nan\n"


def test_oracle_nan_timeout_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QDIAM_TIMEOUT_SECS", "nan")
    code, out, err = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "3",
                             "--d", "2")
    assert code == 2
    assert out == ""
    assert err == ("error: QDIAM_TIMEOUT_SECS must be a number of seconds, "
                   "got nan\n")


REPORT_SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "search_report.schema.json").read_text())


@pytest.mark.parametrize("extra", [
    (),
    ("--all",),
    ("--class", "B_odd"),
    ("--class", "A_odd", "--all"),
    ("--all", "--witness-cap", "0"),
    ("--all", "--witness-cap", "5"),
])
def test_oracle_report_matches_schema(capsys, extra):
    code, out, _ = run_cli(capsys, "oracle", "max", "--q", "2", "--n", "4",
                           "--d", "3", *extra)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert ("characterization_diagnostics" in doc) == (
        "--all" in extra and "--class" not in extra)
    doc["optimum"] = int(doc["optimum"])
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, REPORT_SCHEMA)


# -- sweep -----------------------------------------------------------------------

def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(capsys, "sweep", "lemma26", "--qmax", "2",
                           "--nmax", "16", "--kmax", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,k,s,n,lhs,rhs,margin,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_sweep_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "sweep", "type-ratio")
    assert code == 0
    code, out, _ = run_cli(capsys, "sweep", "type-compare", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False
    assert any(f["params"] == {"q": 2, "t": 2, "n": 12} for f in doc["failures"])


def test_sweep_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "unknown-sweep"])
    assert exc.value.code == 2
    assert "invalid choice: 'unknown-sweep'" in capsys.readouterr().err


def test_sweep_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "sweep", "hm-positive", "--qmax", "2",
                         "--nmax", "30", "--format", "csv")
    _, out2, _ = run_cli(capsys, "sweep", "hm-positive", "--qmax", "2",
                         "--nmax", "30", "--format", "csv")
    assert out1 == out2


# Each sweep's default summary, and the grid flags it reads with the values
# they defaulted to when every sweep shared one set of flag defaults.
_SWEEP_DEFAULTS = {
    "lemma26": ("sweep lemma26: 3015 tuples, all pass",
                ("--qmax", "4", "--nmax", "40", "--kmax", "12")),
    "hm-positive": ("sweep hm_positive: 138 tuples, all pass",
                    ("--qmax", "4", "--nmax", "40", "--tmax", "4")),
    "type-compare": ("sweep type_compare: 64 tuples, FAILURES",
                     ("--qmax", "4", "--tmax", "4")),
    "type-ratio": ("sweep type_ratio: 64 tuples, all pass",
                   ("--qmax", "4", "--tmax", "4")),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_DEFAULTS))
def test_sweep_default_output_unchanged(capsys, name):
    summary, old_defaults = _SWEEP_DEFAULTS[name]
    code, out, _ = run_cli(capsys, "sweep", name)
    assert out == summary + "\n"
    assert code == (1 if name == "type-compare" else 0)
    for fmt in ("text", "json", "csv"):
        default = run_cli(capsys, "sweep", name, "--format", fmt)
        spelled = run_cli(capsys, "sweep", name, *old_defaults, "--format", fmt)
        assert default == spelled


@pytest.mark.parametrize("argv, message", [
    (("type-ratio", "--nmax", "5", "--kmax", "1"),
     "sweep type-ratio does not read --nmax, --kmax"),
    (("type-compare", "--kmax", "3"), "sweep type-compare does not read --kmax"),
    (("hm-positive", "--kmax", "3"), "sweep hm-positive does not read --kmax"),
    (("lemma26", "--tmax", "3"), "sweep lemma26 does not read --tmax"),
])
def test_sweep_unread_grid_flag_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("flags, unread", [
    (("--t", "7", "--budget", "0"), "--t, --budget"),
    (("--t", "7"), "--t"),
    (("--budget", "0"), "--budget"),
])
def test_check_without_class_refuses_t_and_budget(tmp_path, capsys, flags,
                                                  unread):
    fam_path = tmp_path / "l.fam"
    run_cli(capsys, "construct", "L", "--q", "2", "--n", "3", "--t", "1",
            "-o", str(fam_path))
    code, out, err = run_cli(capsys, "check", str(fam_path), *flags)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: check without --class does not read "
                                f"{unread}"]


def test_check_class_requires_t(tmp_path, capsys):
    fam_path = tmp_path / "l.fam"
    run_cli(capsys, "construct", "L", "--q", "2", "--n", "3", "--t", "1",
            "-o", str(fam_path))
    code, _, err = run_cli(capsys, "check", str(fam_path), "--class", "A_even")
    assert code == 2
    assert "--t" in err


# -- the output path ---------------------------------------------------------------

def _stdout_and_file(capsys, tmp_path, *argv):
    """(stdout of argv, stdout and file of argv with -o); the two exit codes agree."""
    code, out, _ = run_cli(capsys, *argv)
    path = tmp_path / "result"
    code_o, out_o, _ = run_cli(capsys, *argv, "-o", str(path))
    assert code_o == code
    return out, out_o, path.read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("bound", "kleitman", "--q", "2", "--n", "4", "--d", "3"),
    ("bound", "ekr", "--q", "2", "--n", "7", "--k", "3", "--s", "1"),
])
def test_bound_output_file_matches_stdout(capsys, tmp_path, argv, fmt):
    out, out_o, written = _stdout_and_file(capsys, tmp_path, *argv,
                                           "--format", fmt)
    assert out_o == ""
    assert written == out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("extra", [(), ("--class", "A_even", "--t", "1")])
def test_check_output_file_matches_stdout(capsys, tmp_path, fmt, extra):
    fam_path = tmp_path / "l.fam"
    run_cli(capsys, "construct", "L", "--q", "2", "--n", "4", "--t", "1",
            "-o", str(fam_path))
    out, out_o, written = _stdout_and_file(capsys, tmp_path, "check",
                                           str(fam_path), *extra,
                                           "--format", fmt)
    assert out_o == ""
    assert written == out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_sweep_output_file_matches_stdout(capsys, tmp_path, fmt):
    out, out_o, written = _stdout_and_file(
        capsys, tmp_path, "sweep", "hm-positive", "--qmax", "2", "--nmax", "12",
        "--format", fmt)
    assert out_o == ""
    assert written == out


@pytest.mark.parametrize("extra", [(), ("--all",), ("--class", "B_even")])
def test_oracle_output_file_matches_stdout(capsys, tmp_path, extra):
    out, out_o, written = _stdout_and_file(capsys, tmp_path, "oracle", "max",
                                           "--q", "2", "--n", "3", "--d", "2",
                                           *extra)
    assert out_o == ""
    doc, doc_o = json.loads(out), json.loads(written)
    del doc["elapsed_ms"], doc_o["elapsed_ms"]
    assert doc_o == doc
    assert written == json.dumps(json.loads(written), indent=2,
                                 sort_keys=True) + "\n"


def test_enumerate_output_file_matches_stdout(capsys, tmp_path):
    out, out_o, written = _stdout_and_file(capsys, tmp_path, "enumerate",
                                           "--q", "2", "--n", "3")
    assert out_o == ""
    assert written == out
    assert len(out.splitlines()) == 16


@pytest.mark.parametrize("argv", [
    ("bound", "gauss", "--q", "2", "--n", "4", "--k", "2", "--budget", "9"),
    ("bound", "gauss", "--q", "2", "--n", "4", "--k", "2", "--format", "csv"),
    ("sweep", "type-ratio", "--budget", "9"),
    ("enumerate", "--q", "2", "--n", "3", "--format", "json"),
    ("oracle", "max", "--q", "2", "--n", "3", "--d", "2", "--format", "text"),
    ("oracle", "max", "--q", "2", "--n", "3", "--d", "2", "--format", "json"),
    ("construct", "ball", "--center", "2:4:0:", "--r", "0", "--format", "csv"),
])
def test_removed_flag_is_argparse_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def _readme_cli_examples():
    """Each `qdiam ...` example of README's CLI section, continuations joined."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for line in section.replace("\\\n", " ").splitlines():
        if line.startswith("    qdiam "):
            examples.append(shlex.split(line)[1:])
    return examples


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_examples()
    assert len(examples) >= 12
    for argv in examples:
        assert main(argv) == 0, argv


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps qdiam functions it looks up by name, so a
    # renamed or deleted one fails this install in a fresh interpreter;
    # no bytecode is written into perfbench/
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "perfbench")]))
    code = "from spans import Tracer; t = Tracer(); t.install_field_new(); t.install()"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
