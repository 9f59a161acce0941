"""Command-line front end.

Subcommands
-----------
bound      : evaluate a closed-form bound, exact decimal output
construct  : build a named family, write it as a family file
check      : diameter / layer / intersection / admissibility report for a file
enumerate  : dump a Grassmannian layer or the whole lattice
oracle     : exhaustive maximum-family search (optionally with witnesses)
sweep      : exact inequality sweeps over parameter grids

All counts are printed as exact decimals (never floats, never truncated).
Every subcommand writes its result to --output when given, else to stdout,
and accepts only the flags it reads.  Budgets can be preset via
QDIAM_MAX_LATTICE and QDIAM_TIMEOUT_SECS; explicit flags take precedence.
Every subcommand is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import io
import json
import math
import os
import sys

from .errors import (BudgetExceeded, NonPrimePower, ParseError,
                     QdiamError)
from .families import (ADMISSIBILITY_CLASSES, ball, canonical_double_ball,
                       canonical_family, cross_intersection_profile, diameter,
                       dim_spread, double_ball, extremal_odd_family,
                       extremal_odd_triple, hilton_milner_family,
                       hilton_milner_triple, is_admissible, min_supp_norm,
                       read_family, star, write_family)
from .gfq import _prime_power, field_new
from .grassmann import (DEFAULT_ENUM_BUDGET, check_lattice_budget,
                        enumerate_layer, write_subspaces)
# verify_characterization is not called here: perfbench/spans.py patches
# it by name.
from .oracle import (DEFAULT_SEARCH_LATTICE_BUDGET, DEFAULT_TIMEOUT_SECS,
                     DEFAULT_WITNESS_CAP, SWEEPS, max_admissible_family,
                     verify_characterization)
from .qcount import (complementary_pair_bound, count_profile, ekr_bound,
                     gauss_binom, hilton_milner_bound, kleitman_bound,
                     kleitman_in_range, nontrivial_intersecting_bound,
                     odd_stability_bound, odd_stability_in_range,
                     type_a_even_bound, type_a_even_in_range,
                     type_b_even_bound, type_b_even_in_range)
from .subspace import Subspace

_ENV_LATTICE = "QDIAM_MAX_LATTICE"
_ENV_TIMEOUT = "QDIAM_TIMEOUT_SECS"


def _env_number(name, convert):
    """The environment variable parsed by convert, or None when unset."""
    text = os.environ.get(name)
    try:
        return None if text is None else convert(text)
    except ValueError:
        raise QdiamError(
            f"{name}={text!r} is not a valid {convert.__name__}") from None


def _resolve_budget(args, default):
    """The lattice budget: --budget, else QDIAM_MAX_LATTICE, else default."""
    budget = args.budget
    if budget is None:
        budget = _env_number(_ENV_LATTICE, int)
    if budget is None:
        return default
    if budget < 0:
        raise QdiamError(f"budget must be >= 0, got {budget}")
    return budget


def _resolve_timeout(args):
    """The timeout: --timeout, else QDIAM_TIMEOUT_SECS, else the default.
    NaN is refused: no clock time is ever past start + nan."""
    timeout, source = args.timeout, "--timeout"
    if timeout is None:
        timeout, source = _env_number(_ENV_TIMEOUT, float), _ENV_TIMEOUT
    if timeout is None:
        return DEFAULT_TIMEOUT_SECS
    if math.isnan(timeout):
        raise QdiamError(f"{source} must be a number of seconds, got nan")
    return timeout


def _emit(args, text, doc=None, stream=None):
    """Write a subcommand's result: doc as JSON when there is no text or
    --format json asks for it, text otherwise; to stream when given, else
    to --output when set, else to stdout."""
    if text is None or (doc is not None and args.format == "json"):
        text = json.dumps(doc, indent=2, sort_keys=True)
    if text and not text.endswith("\n"):
        text += "\n"
    if stream is None and args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        (stream or sys.stdout).write(text)


def _check_flags(args, what, required, optional, flags):
    """Require every flag in required; refuse each other flag in flags that
    is set but not in optional, since what would ignore it."""
    missing = [f"--{p}" for p in required if getattr(args, p) is None]
    if missing:
        raise QdiamError(f"{what} requires {', '.join(missing)}")
    unread = [f"--{p}" for p in flags if getattr(args, p) is not None
              and p not in required and p not in optional]
    if unread:
        raise QdiamError(f"{what} does not read {', '.join(unread)}")


# ---------------------------------------------------------------------------
# bound

_BOUND_FLAGS = ("n", "k", "l", "j", "d", "t", "s")

_BOUNDS = {
    "gauss": (("n", "k"), lambda a: gauss_binom(a.n, a.k, a.q), None),
    "profile": (("n", "k", "l", "j"),
                lambda a: count_profile(a.n, a.k, a.l, a.j, a.q), None),
    "kleitman": (("n", "d"), lambda a: kleitman_bound(a.n, a.d, a.q),
                 lambda a: kleitman_in_range(a.n, a.d)),
    "typeA-even": (("n", "t"), lambda a: type_a_even_bound(a.n, a.t, a.q),
                   lambda a: type_a_even_in_range(a.n, a.t)),
    "odd-stability": (("n", "t"), lambda a: odd_stability_bound(a.n, a.t, a.q),
                      lambda a: odd_stability_in_range(a.n, a.t)),
    "typeB-even": (("n", "t"), lambda a: type_b_even_bound(a.n, a.t, a.q),
                   lambda a: type_b_even_in_range(a.n, a.t)),
    "ekr": (("n", "k", "s"), lambda a: ekr_bound(a.n, a.k, a.s, a.q), None),
    "nontrivial": (("n", "k", "s"),
                   lambda a: nontrivial_intersecting_bound(a.n, a.k, a.s, a.q),
                   None),
    "hm": (("n", "k"), lambda a: hilton_milner_bound(a.n, a.k, a.q), None),
    "complementary": (("n", "k"),
                      lambda a: complementary_pair_bound(a.n, a.k, a.q), None),
}


def cmd_bound(args) -> int:
    needed, func, range_func = _BOUNDS[args.name]
    _check_flags(args, f"bound {args.name}", needed, (), _BOUND_FLAGS)
    # Bounds need no field tables, so any prime power is fine, even above 16.
    if _prime_power(args.q) is None:
        raise NonPrimePower(f"{args.q} is not a prime power")
    value = func(args)
    in_range = None if range_func is None else range_func(args)
    params = {p: getattr(args, p) for p in ("q",) + needed}
    text = str(value)
    if in_range is not None:
        text += f"\nhypothesis_range_satisfied: {str(in_range).lower()}"
    _emit(args, text, {"bound": args.name, "parameters": params,
                       "value": str(value),
                       "hypothesis_range_satisfied": in_range})
    return 0


# ---------------------------------------------------------------------------
# construct

_CONSTRUCT_INT_FLAGS = ("q", "n", "t", "k", "r")
_TOKEN_FLAGS = ("x", "y", "center", "center2")


def _canonical(args, budget):
    return canonical_family(field_new(args.q), args.n, args.t, args.family,
                            budget=budget)


def _extremal_odd(args, budget, x, y):
    t = y.dim - 1
    if args.t is not None and args.t != t:
        raise QdiamError(f"--t {args.t} conflicts with derived t = {t}")
    return extremal_odd_family(x, y, budget=budget)


# family -> (required flags, optional flags, builder).  The builder takes
# the parsed args, the budget and the subspaces of the required token flags
# in order; optional --q and --n must agree with every token.
_FAMILIES = {
    "L": (("q", "n", "t"), (), _canonical),
    "U": (("q", "n", "t"), (), _canonical),
    "D": (("x", "t"), ("q", "n"),
          lambda a, b, x: canonical_double_ball(x, a.t, budget=b)),
    "ball": (("center", "r"), ("q", "n"),
             lambda a, b, c: ball(c, a.r, budget=b)),
    "double-ball": (("center", "center2", "r"), ("q", "n"),
                    lambda a, b, c1, c2: double_ball(c1, c2, a.r, budget=b)),
    "star": (("x", "k"), ("q", "n"), lambda a, b, x: star(x, a.k, budget=b)),
    "HM": (("x", "y"), ("q", "n"),
           lambda a, b, x, y: hilton_milner_family(x, y, budget=b)),
    "HM3": (("y",), ("q", "n"),
            lambda a, b, y: hilton_milner_triple(y, budget=b)),
    "K": (("x", "y"), ("q", "n", "t"), _extremal_odd),
    "K3": (("y",), ("q", "n"),
           lambda a, b, y: extremal_odd_triple(y, budget=b)),
}


def _parse_token(args, flag):
    """The subspace of a token flag, checked against --q and --n."""
    try:
        s = Subspace.from_token(getattr(args, flag))
    except ParseError as exc:
        raise QdiamError(f"bad --{flag} subspace token: {exc}") from None
    if args.q is not None and args.q != s.field.q:
        raise QdiamError(f"--q {args.q} conflicts with token field GF({s.field.q})")
    if args.n is not None and args.n != s.n:
        raise QdiamError(f"--n {args.n} conflicts with token ambient dim {s.n}")
    return s


def cmd_construct(args) -> int:
    which = args.family
    required, optional, build = _FAMILIES[which]
    _check_flags(args, f"construct {which}", required, optional,
                 _CONSTRUCT_INT_FLAGS + _TOKEN_FLAGS)
    tokens = [_parse_token(args, p) for p in required if p in _TOKEN_FLAGS]
    fam = build(args, _resolve_budget(args, DEFAULT_ENUM_BUDGET), *tokens)

    diam = diameter(fam) if fam.members else None
    summary_json = {
        "family": which,
        "q": fam.field.q,
        "n": fam.n,
        "size": str(len(fam)),
        "diameter": diam,
        "support": list(fam.support),
        "layer_sizes": {str(k): str(v) for k, v in fam.layer_sizes().items()},
    }
    summary_text = (f"size {len(fam)}\ndiameter {diam}\n"
                    f"support {' '.join(map(str, fam.support))}")
    buf = io.StringIO()
    write_family(fam, buf)
    _emit(args, buf.getvalue())
    # The family alone reaches stdout: with --output the summary takes its
    # place there, without it the summary goes to stderr.
    if args.output:
        summary_json["output"] = args.output
    _emit(args, summary_text, summary_json,
          stream=sys.stdout if args.output else sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    if args.family_class is None:
        _check_flags(args, "check without --class", (), (), ("t", "budget"))
    else:
        _check_flags(args, f"check --class {args.family_class}", ("t",),
                     ("budget",), ("t", "budget"))
    with open(args.family_file) as fh:
        fam = read_family(fh)
    if not fam.members:
        raise QdiamError("family file is empty")
    diam, rows = cross_intersection_profile(fam)
    verdict_json = {
        "q": fam.field.q,
        "n": fam.n,
        "size": str(len(fam)),
        "diameter": diam,
        "dim_spread": dim_spread(fam),
        "min_supp_norm": min_supp_norm(fam),
        "support": list(fam.support),
        "layer_sizes": {str(k): str(v) for k, v in fam.layer_sizes().items()},
        "cross_intersection": [
            {"i": i, "j": j, "required": req, "achieved": got, "ok": ok}
            for (i, j, req, got, ok) in rows],
    }
    lines = [f"q {fam.field.q}  n {fam.n}  size {len(fam)}",
             f"diameter {diam}  dim_spread {dim_spread(fam)}  "
             f"min_supp_norm {min_supp_norm(fam)}",
             "layers: " + " ".join(f"{k}:{v}" for k, v in fam.layer_sizes().items())]
    for (i, j, req, got, ok) in rows:
        lines.append(f"cross({i},{j}): required >= {req}, achieved {got} "
                     f"[{'ok' if ok else 'VIOLATION'}]")
    exit_code = 0
    if args.family_class is not None:
        rep = is_admissible(fam, args.family_class, args.t,
                            budget=_resolve_budget(args, DEFAULT_ENUM_BUDGET))
        verdict_json["admissibility"] = {
            "class": args.family_class,
            "t": args.t,
            "d": rep.d,
            "admissible": rep.admissible,
            "diameter_ok": rep.diameter_ok,
            "witness_kind": rep.witness_kind,
            "witness_centers": [c.to_token() for c in rep.witness_centers],
            "detail": rep.detail,
        }
        lines.append(
            f"admissibility[{args.family_class}, t={args.t}]: "
            f"{'admissible' if rep.admissible else 'INADMISSIBLE'}"
            + (f" ({rep.detail})" if rep.detail else ""))
        if not rep.admissible:
            exit_code = 1
    _emit(args, "\n".join(lines), verdict_json)
    return exit_code


# ---------------------------------------------------------------------------
# enumerate

def cmd_enumerate(args) -> int:
    if args.n < 0:
        raise QdiamError(f"n must be >= 0, got {args.n}")
    field = field_new(args.q)
    budget = _resolve_budget(args, DEFAULT_ENUM_BUDGET)
    if args.k is not None:
        subs = enumerate_layer(field, args.n, args.k, budget=budget)
    else:
        check_lattice_budget(field, args.n, budget)
        subs = (s for k in range(args.n + 1)
                for s in enumerate_layer(field, args.n, k, budget=None))
    buf = io.StringIO()
    count = write_subspaces(subs, buf)
    _emit(args, buf.getvalue())
    sys.stderr.write(f"{count} subspaces\n")
    return 0


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    report = max_admissible_family(
        args.q, args.n, args.d, args.family_class, enumerate_all=args.all,
        lattice_budget=_resolve_budget(args, DEFAULT_SEARCH_LATTICE_BUDGET),
        timeout_secs=_resolve_timeout(args), witness_cap=args.witness_cap)
    _emit(args, None, report.to_json_dict())
    if report.timed_out:
        return 2
    if report.bound_match is False or report.characterization_match is False:
        return 1
    return 0


# ---------------------------------------------------------------------------
# sweep

# grid flag -> the sweep keyword it sets: a cap on a tuple of values cuts
# the sweep's own default tuple, a max is passed as it is.
_SWEEP_FLAGS = {"qmax": "q_values", "nmax": "n_max", "kmax": "k_max",
                "tmax": "t_values"}


def cmd_sweep(args) -> int:
    sweep = SWEEPS[args.name]
    params = inspect.signature(sweep).parameters
    _check_flags(args, f"sweep {args.name}", (),
                 [f for f, kw in _SWEEP_FLAGS.items() if kw in params],
                 _SWEEP_FLAGS)
    kwargs = {}
    for flag, kw in _SWEEP_FLAGS.items():
        cap = getattr(args, flag)
        if cap is not None:
            default = params[kw].default
            kwargs[kw] = (tuple(v for v in default if v <= cap)
                          if isinstance(default, tuple) else cap)
    report = sweep(**kwargs)
    if args.format == "csv":
        header = [p for p, _ in report.rows[0].params] if report.rows else []
        lines = [",".join(header + ["lhs", "rhs", "margin", "pass"])]
        for row in report.rows:
            lines.append(",".join(
                [str(v) for _, v in row.params]
                + [str(row.lhs), str(row.rhs), str(row.margin),
                   "true" if row.passed else "false"]))
        text = "\n".join(lines)
    else:
        text = (f"sweep {report.name}: {report.tuple_count} tuples, "
                f"{'all pass' if report.all_pass else 'FAILURES'}")
    _emit(args, text, {
        "sweep": report.name,
        "tuples": report.tuple_count,
        "all_pass": report.all_pass,
        "failures": [
            {"params": dict(r.params), "lhs": str(r.lhs), "rhs": str(r.rhs)}
            for r in report.failures()],
    })
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------

# One parser per process: argparse builds reference cycles (a help formatter
# per argument, the parser and its groups), so a parser per main() call
# would leave garbage that only the cycle collector frees.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiam",
        description="Exact toolkit for bounded-diameter families of "
                    "subspaces of F_q^n")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, formats=None, budget=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--output", "-o", metavar="PATH",
                       help="write the result here instead of to stdout")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if budget:
            p.add_argument("--budget", type=int, metavar="N",
                           help=f"lattice size budget (env {_ENV_LATTICE})")
        return p

    p = add("bound", cmd_bound, "evaluate a closed-form bound",
            formats=("text", "json"))
    p.add_argument("name", choices=sorted(_BOUNDS))
    p.add_argument("--q", type=int, required=True)
    for flag in _BOUND_FLAGS:
        p.add_argument(f"--{flag}", type=int)

    p = add("construct", cmd_construct, "build a named family",
            formats=("text", "json"), budget=True)
    p.add_argument("family", choices=tuple(_FAMILIES))
    for flag in _CONSTRUCT_INT_FLAGS:
        p.add_argument(f"--{flag}", type=int)
    for flag in _TOKEN_FLAGS:
        p.add_argument(f"--{flag}", metavar="TOKEN")

    p = add("check", cmd_check, "verify a family file",
            formats=("text", "json"), budget=True)
    p.add_argument("family_file")
    p.add_argument("--class", dest="family_class",
                   choices=ADMISSIBILITY_CLASSES)
    p.add_argument("--t", type=int)

    p = add("enumerate", cmd_enumerate, "dump a layer or the lattice",
            budget=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)

    p = add("oracle", cmd_oracle, "exhaustive searches (JSON report)",
            budget=True)
    p.add_argument("mode", choices=("max",))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--all", action="store_true",
                   help="enumerate every maximum family")
    p.add_argument("--class", dest="family_class",
                   choices=ADMISSIBILITY_CLASSES)
    p.add_argument("--timeout", type=float, metavar="SECS",
                   help=f"wall-clock cap (env {_ENV_TIMEOUT})")
    p.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP)

    p = add("sweep", cmd_sweep, "exact inequality sweeps",
            formats=("text", "json", "csv"))
    p.add_argument("name", choices=tuple(SWEEPS))
    for flag in _SWEEP_FLAGS:
        p.add_argument(f"--{flag}", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except QdiamError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
