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
Budgets can be preset via QDIAM_MAX_LATTICE and QDIAM_TIMEOUT_SECS; explicit
flags take precedence.  Every subcommand is deterministic given its flags
and, where randomness is involved, the --seed value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceeded, ParseError, QdiamError
from .families import (ADMISSIBILITY_CLASSES, ball, canonical_double_ball,
                       canonical_family, cross_intersection_profile, diameter,
                       dim_spread, double_ball, extremal_odd_family,
                       extremal_odd_triple, hilton_milner_family,
                       hilton_milner_triple, is_admissible, min_supp_norm,
                       read_family, star, write_family)
from .gfq import field_new
from .grassmann import build_index, enumerate_layer, write_subspaces
from .oracle import (DEFAULT_TIMEOUT_SECS, DEFAULT_WITNESS_CAP,
                     max_admissible_family, max_diameter_family, run_sweep,
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


def _resolve_budget(args):
    if getattr(args, "budget", None) is not None:
        return args.budget
    return _env_number(_ENV_LATTICE, int)


def _resolve_timeout(args):
    if getattr(args, "timeout", None) is not None:
        return float(args.timeout)
    env = _env_number(_ENV_TIMEOUT, float)
    return DEFAULT_TIMEOUT_SECS if env is None else env


def _emit(args, payload_text, payload_json):
    """Write the subcommand result in the selected format."""
    out = sys.stdout
    if args.format == "json":
        out.write(json.dumps(payload_json, indent=2, sort_keys=True) + "\n")
    else:
        out.write(payload_text if payload_text.endswith("\n") else payload_text + "\n")


# ---------------------------------------------------------------------------
# bound

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
    for p in needed:
        if getattr(args, p, None) is None:
            raise QdiamError(f"bound {args.name} requires --{p}")
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

def _parse_subspace_arg(token, what):
    try:
        return Subspace.from_token(token)
    except ParseError as exc:
        raise QdiamError(f"bad --{what} subspace token: {exc}") from None


def _cross_check(args, field, n, t=None):
    if args.q is not None and args.q != field.q:
        raise QdiamError(f"--q {args.q} conflicts with token field GF({field.q})")
    if args.n is not None and args.n != n:
        raise QdiamError(f"--n {args.n} conflicts with token ambient dim {n}")
    if t is not None and args.t is not None and args.t != t:
        raise QdiamError(f"--t {args.t} conflicts with derived t = {t}")


def cmd_construct(args) -> int:
    budget = _resolve_budget(args)
    kwargs = {} if budget is None else {"budget": budget}
    which = args.family
    if which in ("L", "U"):
        if args.q is None or args.n is None or args.t is None:
            raise QdiamError(f"construct {which} requires --q, --n, --t")
        fam = canonical_family(field_new(args.q), args.n, args.t, which, **kwargs)
    elif which == "D":
        if args.x is None or args.t is None:
            raise QdiamError("construct D requires --x and --t")
        x = _parse_subspace_arg(args.x, "x")
        _cross_check(args, x.field, x.n)
        fam = canonical_double_ball(x, args.t, **kwargs)
    elif which == "ball":
        if args.center is None or args.r is None:
            raise QdiamError("construct ball requires --center and --r")
        c = _parse_subspace_arg(args.center, "center")
        fam = ball(c, args.r, **kwargs)
    elif which == "double-ball":
        if args.center is None or args.center2 is None or args.r is None:
            raise QdiamError(
                "construct double-ball requires --center, --center2 and --r")
        c1 = _parse_subspace_arg(args.center, "center")
        c2 = _parse_subspace_arg(args.center2, "center2")
        fam = double_ball(c1, c2, args.r, **kwargs)
    elif which == "star":
        if args.x is None or args.k is None:
            raise QdiamError("construct star requires --x and --k")
        x = _parse_subspace_arg(args.x, "x")
        _cross_check(args, x.field, x.n)
        fam = star(x, args.k, **kwargs)
    elif which == "HM":
        if args.x is None or args.y is None:
            raise QdiamError("construct HM requires --x and --y")
        x = _parse_subspace_arg(args.x, "x")
        y = _parse_subspace_arg(args.y, "y")
        _cross_check(args, x.field, x.n)
        fam = hilton_milner_family(x, y, **kwargs)
    elif which == "HM3":
        if args.y is None:
            raise QdiamError("construct HM3 requires --y")
        y = _parse_subspace_arg(args.y, "y")
        _cross_check(args, y.field, y.n)
        fam = hilton_milner_triple(y, **kwargs)
    elif which == "K":
        if args.x is None or args.y is None:
            raise QdiamError("construct K requires --x and --y")
        x = _parse_subspace_arg(args.x, "x")
        y = _parse_subspace_arg(args.y, "y")
        _cross_check(args, x.field, x.n, t=y.dim - 1)
        fam = extremal_odd_family(x, y, **kwargs)
    elif which == "K3":
        if args.y is None:
            raise QdiamError("construct K3 requires --y")
        y = _parse_subspace_arg(args.y, "y")
        _cross_check(args, y.field, y.n)
        fam = extremal_odd_triple(y, **kwargs)
    else:
        raise QdiamError(f"unknown family {which!r}")

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
    if args.output:
        with open(args.output, "w") as fh:
            write_family(fam, fh)
        summary_json["output"] = args.output
        _emit(args, summary_text, summary_json)
    else:
        write_family(fam, sys.stdout)
        sys.stderr.write(summary_text + "\n")
    return 0


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
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
        if args.t is None:
            raise QdiamError("--class requires --t")
        budget = _resolve_budget(args)
        rep = is_admissible(fam, args.family_class, args.t,
                            **({} if budget is None else {"budget": budget}))
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
    field = field_new(args.q)
    budget = _resolve_budget(args)
    kwargs = {} if budget is None else {"budget": budget}
    if args.k is not None:
        subs = enumerate_layer(field, args.n, args.k, **kwargs)
    else:
        subs = build_index(field, args.n, **kwargs).subspaces
    if args.output:
        with open(args.output, "w") as fh:
            count = write_subspaces(subs, fh)
    else:
        count = write_subspaces(subs, sys.stdout)
    sys.stderr.write(f"{count} subspaces\n")
    return 0


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    budget = _resolve_budget(args)
    timeout = _resolve_timeout(args)
    common = dict(lattice_budget=budget, timeout_secs=timeout,
                  witness_cap=args.witness_cap)
    try:
        if args.family_class is None:
            report = max_diameter_family(args.q, args.n, args.d,
                                         enumerate_all=args.all, **common)
            if args.all and not report.timed_out and report.bound_match:
                ok, diagnostics = verify_characterization(report)
                report.characterization_match = ok
            else:
                diagnostics = []
        else:
            report = max_admissible_family(args.q, args.n, args.d,
                                           args.family_class,
                                           enumerate_all=args.all, **common)
            diagnostics = []
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    doc = report.to_json_dict()
    if diagnostics:
        doc["characterization_diagnostics"] = diagnostics
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if report.timed_out:
        return 2
    if report.bound_match is False or report.characterization_match is False:
        return 1
    return 0


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args) -> int:
    kwargs = {}
    if args.name == "lemma26":
        kwargs["q_values"] = tuple(q for q in (2, 3, 4) if q <= args.qmax)
        kwargs["k_max"] = args.kmax
        kwargs["n_max"] = args.nmax
    elif args.name == "hm-positive":
        kwargs["q_values"] = tuple(q for q in (2, 3) if q <= args.qmax)
        kwargs["t_values"] = tuple(t for t in (2, 3, 4) if t <= args.tmax)
        kwargs["n_max"] = args.nmax
    else:  # type-compare / type-ratio
        kwargs["q_values"] = tuple(q for q in (2, 3) if q <= args.qmax)
        kwargs["t_values"] = tuple(t for t in (2, 3) if t <= args.tmax)
    report = run_sweep(args.name, **kwargs)
    header_params = [p for p, _ in report.rows[0].params] if report.rows else []
    if args.format == "csv":
        lines = [",".join(header_params + ["lhs", "rhs", "margin", "pass"])]
        for row in report.rows:
            lines.append(",".join(
                [str(v) for _, v in row.params]
                + [str(row.lhs), str(row.rhs), str(row.margin),
                   "true" if row.passed else "false"]))
        text = "\n".join(lines)
        out = open(args.output, "w") if args.output else sys.stdout
        out.write(text + "\n")
        if args.output:
            out.close()
    else:
        payload_json = {
            "sweep": report.name,
            "tuples": report.tuple_count,
            "all_pass": report.all_pass,
            "failures": [
                {"params": dict(r.params), "lhs": str(r.lhs), "rhs": str(r.rhs)}
                for r in report.failures()],
        }
        text = (f"sweep {report.name}: {report.tuple_count} tuples, "
                f"{'all pass' if report.all_pass else 'FAILURES'}")
        _emit(args, text, payload_json)
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiam",
        description="Exact toolkit for bounded-diameter families of "
                    "subspaces of F_q^n")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--output", "-o", metavar="PATH")
        p.add_argument("--budget", type=int, metavar="N",
                       help=f"lattice size budget (env {_ENV_LATTICE})")

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("name", choices=sorted(_BOUNDS))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--s", type=int)
    add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="build a named family")
    p.add_argument("family", choices=("L", "U", "D", "ball", "double-ball",
                                      "star", "HM", "HM3", "K", "K3"))
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--x", metavar="TOKEN")
    p.add_argument("--y", metavar="TOKEN")
    p.add_argument("--center", metavar="TOKEN")
    p.add_argument("--center2", metavar="TOKEN")
    add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="verify a family file")
    p.add_argument("family_file")
    p.add_argument("--class", dest="family_class",
                   choices=ADMISSIBILITY_CLASSES)
    p.add_argument("--t", type=int)
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="dump a layer or the lattice")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="exhaustive searches")
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
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="exact inequality sweeps")
    p.add_argument("name", choices=("lemma26", "hm-positive", "type-compare",
                                    "type-ratio"))
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--tmax", type=int, default=4)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

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
