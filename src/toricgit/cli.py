"""Command-line interface.

Commands operate on a JSON problem file (see problemfile) and emit a
deterministic report, as JSON with --json or as plain text otherwise.
Exit codes: 0 success, 1 negative verdict (empty locus, obstruction,
nonexistent limit, failed verification), 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import __version__
from .actions import (
    ActionError,
    NotAffine,
    git_chambers,
    mumford_trivial_semistable,
    obstruction_report,
    semistable_divisor,
    semistable_group,
)
from .certcheck import check_locus
from .fans import FanError, ample_locus, cartier_locus, class_group
from .hilbert_mumford import LinearAction, PointPattern, destabilize, limit
from .intlinalg import vneg
from .problemfile import ParseError, load_problem
from .quotients import build_quotient


def _keys_payload(locus) -> list:
    return [sorted(k) for k in locus.sorted_keys()]


def _cone_payload(c) -> dict:
    return {
        "generators": [list(g) for g in c.generators],
        "lineality": [list(l) for l in c.lineality_basis],
        "dim": c.dim,
    }


def _cert_payload(cert) -> dict:
    out = {
        "chart": sorted(cert.chart),
        "degree": list(cert.degree),
        "monomial": list(cert.monomial),
        "cartier": [list(m) for m in cert.cartier],
    }
    if cert.group_case:
        out["invertibles"] = [{"degree": list(c), "witness": list(w)}
                              for c, w in cert.invertibles]
    return out


def _locus_payload(ss) -> dict:
    return {
        "faces": _keys_payload(ss.locus),
        "certificates": [_cert_payload(c) for _, c in sorted(
            ss.certificates, key=lambda kc: (len(kc[0]), sorted(kc[0])))],
    }


def _quotient_payload(q) -> dict:
    return {
        "charts": [{"source": sorted(c.source_key),
                    "image": _cone_payload(c.image)} for c in q.charts],
        "gluings": [{"charts": [i, j], "cone": _cone_payload(c)}
                    for i, j, c in q.gluings],
        "flags": {"good": q.good, "geometric": q.geometric,
                  "separated": q.separated},
        "torsion": list(q.torsion),
        "projection": [list(r) for r in q.charts[0].projection.matrix.entries]
        if q.charts else [],
        "quotient_rank": q.quotient_rank,
    }


def _divisor_rows(problem, args):
    """The divisor of --divisor or the group of --group, its
    linearization, and the coefficient rows and shifts that certificates
    are replayed against."""
    if args.divisor:
        src = problem.divisor(args.divisor)
        lin = problem.linearization_for(args.divisor)
        basis = (src,)
    else:
        src, lin = problem.group(args.group)
        basis = src.basis
    return src, lin, [d.coefficients for d in basis], list(lin.shifts)


def _semistable_locus(problem, args, act):
    """Semistable locus of --divisor or --group, with its divisor rows
    and shifts."""
    src, lin, rows, shifts = _divisor_rows(problem, args)
    solve = semistable_divisor if args.divisor else semistable_group
    return solve(src, lin, act, problem.fan), rows, shifts


def _check_payload(problem, divisor_rows, shifts, ss) -> dict:
    cols = problem.action.phi_star_rows() if problem.action else []
    res = check_locus(problem.fan, divisor_rows, shifts, cols, ss)
    return {"ok": res.ok, "failures": list(res.failures)}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"toricgit {report['version']} :: {report['command']}")
    _print_tree(report["result"], indent=0)


def _print_tree(value, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _print_tree(v, indent + 1)
            else:
                print(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}-")
                _print_tree(v, indent + 1)
            else:
                print(f"{pad}- {json.dumps(v)}")
    else:
        print(f"{pad}{json.dumps(value)}")


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _parse_ints(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run."""
    ap = argparse.ArgumentParser(
        prog="toricgit",
        description="Exact GIT of subtorus actions on toric varieties")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="JSON problem file")
        p.add_argument("--json", action="store_true", help="machine output")

    def divisor_or_group(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--divisor")
        g.add_argument("--group")

    p = sub.add_parser("cartier-locus", help="faces where every group divisor is Cartier")
    common(p)
    p.add_argument("--group", required=True)

    p = sub.add_parser("ample-locus", help="faces carrying an ample chart witness")
    common(p)
    p.add_argument("--group", required=True)

    p = sub.add_parser("semistable", help="semistable locus of a divisor or group")
    common(p)
    divisor_or_group(p)
    p.add_argument("--check", action="store_true",
                   help="replay certificates through the independent checker")

    p = sub.add_parser("trivial-bundle",
                       help="semistable locus of the trivial bundle at a character")
    common(p)
    p.add_argument("--character", required=True)
    p.add_argument("--check", action="store_true")

    p = sub.add_parser("chambers", help="the GIT fan of character space")
    common(p)

    p = sub.add_parser("quotient", help="glued quotient of a semistable locus")
    common(p)
    divisor_or_group(p)
    p.add_argument("--check", action="store_true")

    p = sub.add_parser("class-group", help="divisor class group and Picard rank")
    common(p)

    p = sub.add_parser("hm", help="Hilbert-Mumford limits and destabilizers")
    hm_sub = p.add_subparsers(dest="hm_command", required=True)
    pl = hm_sub.add_parser("limit")
    common(pl)
    pl.add_argument("--lam", required=True, help="one-parameter subgroup, e.g. 1,0")
    pl.add_argument("--support", required=True, help="nonzero coordinates, e.g. 0,1,2")
    pd = hm_sub.add_parser("destabilize")
    common(pd)
    pd.add_argument("--support", required=True)
    pd.add_argument("--target", required=True,
                    help="'origin' or the coordinate set the limit may use")

    p = sub.add_parser("obstruction",
                       help="exact verdict: is a locus the trivial-bundle locus of "
                       "some character (obstructed or not-obstructed)")
    common(p)
    divisor_or_group(p)

    p = sub.add_parser("verify-examples",
                       help="replay the built-in worked examples end to end")
    common(p, needs_file=False)

    p = sub.add_parser("oracle")  # debugging aid: brute-force reference locus
    common(p)
    divisor_or_group(p)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--box", type=int, default=8)
    p.add_argument("--degree-box", type=int, default=3)
    return ap


def _require_action(problem):
    if problem.action is None:
        raise ParseError("this command needs an 'action' field in the problem file")
    return problem.action


def run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    report = {"command": " ".join(argv), "version": __version__,
              "input_digest": None, "result": {}}
    exit_code = 0

    try:
        problem = None
        if getattr(args, "file", None):
            with open(args.file, "rb") as fh:
                report["input_digest"] = hashlib.sha256(fh.read()).hexdigest()
            problem = load_problem(args.file)

        if args.command in ("cartier-locus", "ample-locus"):
            grp, _ = problem.group(args.group)
            locus = (cartier_locus if args.command == "cartier-locus"
                     else ample_locus)(grp, problem.fan)
            report["result"] = {"faces": _keys_payload(locus)}
            exit_code = 0 if locus.faces else 1

        elif args.command in ("semistable", "trivial-bundle"):
            act = _require_action(problem)
            if args.command == "semistable":
                ss, rows, shifts = _semistable_locus(problem, args, act)
            else:
                chi = _parse_ints(args.character)
                ss = mumford_trivial_semistable(chi, act, problem.fan)
                rows, shifts = [(0,) * len(problem.fan.rays)], [vneg(chi)]
            report["result"] = _locus_payload(ss)
            if args.check:
                report["result"]["check"] = _check_payload(problem, rows, shifts, ss)
                if not report["result"]["check"]["ok"]:
                    exit_code = 1
            if not ss.locus.faces:
                exit_code = 1

        elif args.command == "chambers":
            act = _require_action(problem)
            chams = git_chambers(act, problem.fan)
            report["result"] = {"chambers": [
                {"cone": _cone_payload(c), "sample": list(chi),
                 "faces": _keys_payload(loc.locus)}
                for c, chi, loc in chams]}

        elif args.command == "quotient":
            act = _require_action(problem)
            ss, _, _ = _semistable_locus(problem, args, act)
            if not ss.locus.faces:
                report["result"] = {"faces": [], "error": "empty semistable locus"}
                exit_code = 1
            else:
                q = build_quotient(ss, act, problem.fan)
                report["result"] = {"semistable": _locus_payload(ss),
                                    "quotient": _quotient_payload(q)}

        elif args.command == "class-group":
            cg = class_group(problem.fan)
            report["result"] = {
                "cl_rank": cg.cl_rank, "cl_torsion": list(cg.cl_torsion),
                "pic_rank": cg.pic_rank,
                "torus_factor_rank": cg.torus_factor_rank}

        elif args.command == "hm":
            if problem.weights is None:
                raise ParseError("hm commands need a 'weights' field")
            act = LinearAction(problem.weights)
            support = PointPattern.of(_parse_ints(args.support))
            if args.hm_command == "limit":
                lam = _parse_ints(args.lam)
                lim = limit(lam, support, act)
                report["result"] = {
                    "exists": lim is not None,
                    "limit_support": sorted(lim.support) if lim else None}
                exit_code = 0 if lim is not None else 1
            else:
                if args.target == "origin":
                    allowed = frozenset()
                else:
                    allowed = frozenset(_parse_ints(args.target))
                lam = destabilize(support, lambda q: q.support <= allowed, act)
                report["result"] = {
                    "found": lam is not None,
                    "lambda": list(lam) if lam else None}
                exit_code = 0 if lam is not None else 1

        elif args.command == "obstruction":
            act = _require_action(problem)
            ss, _, _ = _semistable_locus(problem, args, act)
            rep = obstruction_report(ss.locus, act, problem.fan)
            report["result"] = {
                "required": _keys_payload(rep.required),
                "weight_cones": [{"face": sorted(k), "cone": _cone_payload(c)}
                                 for k, c in rep.weight_cones],
                "common": _cone_payload(rep.common),
                "character": list(rep.character),
                "locus": _locus_payload(rep.locus),
                "verdict": rep.verdict}
            exit_code = 1 if rep.verdict == "obstructed" else 0

        elif args.command == "verify-examples":
            from .builtin import verify_examples
            checks = verify_examples()
            report["result"] = {"checks": [
                {"name": c.name, "passed": c.passed, "expected": c.expected,
                 "actual": c.actual} for c in checks],
                "all_passed": all(c.passed for c in checks)}
            exit_code = 0 if report["result"]["all_passed"] else 1

        elif args.command == "oracle":
            from .oracle import SearchBounds, enumerate_witnesses
            act = _require_action(problem)
            _, _, rows, shifts = _divisor_rows(problem, args)
            bounds = SearchBounds(args.n_max, args.box, args.degree_box)
            loc = enumerate_witnesses(list(problem.fan.rays),
                                      list(problem.fan.face_keys()), rows, shifts,
                                      act.phi_star_rows(), bounds, not args.divisor)
            report["result"] = {"faces": sorted(
                (sorted(k) for k in loc), key=lambda s: (len(s), s))}
            exit_code = 0 if loc else 1

    except (ParseError, FileNotFoundError, NotAffine, FanError,
            ActionError, ValueError, RuntimeError) as e:
        report["result"] = {"error": str(e)}
        _emit(report, getattr(args, "json", False))
        # a RuntimeError is a failed engine invariant, not bad input
        return 3 if isinstance(e, RuntimeError) else 2

    _emit(report, args.json)
    return exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
