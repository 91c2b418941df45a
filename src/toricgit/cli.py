"""Command-line interface.

Commands operate on a JSON problem file (see problemfile) and emit a
deterministic report, as JSON with --json or as plain text otherwise.
Each command is one branch of `_result`, which returns the report's
result and exit code; `run` loads the problem, maps errors to exit codes
and emits the report.
Exit codes: 0 success; 1 negative verdict (a failed --check replay, an
empty locus, a quotient of an empty locus, an obstruction, no limit or
destabilizer, a failed built-in example); 2 input error; 3 internal
error.
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
from .hilbert_mumford import LinearAction, destabilize, limit
from .intlinalg import vneg
from .problemfile import ParseError, load_problem
from .quotients import build_quotient

# commands that read the problem file's 'action' field
_NEEDS_ACTION = frozenset({"semistable", "trivial-bundle", "chambers",
                           "quotient", "obstruction", "oracle"})


def _keys_payload(faces) -> list:
    return sorted((sorted(k) for k in faces), key=lambda s: (len(s), s))


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
    # the engine lists certificates in face order, (size, sorted key)
    return {
        "faces": _keys_payload(ss.locus.faces),
        "certificates": [_cert_payload(c) for _, c in ss.certificates],
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
        # run only on a nonempty locus, whose maximal faces are charts
        "projection": [list(r) for r in q.charts[0].projection.matrix.entries],
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


def _semistable_locus(problem, args):
    """Semistable locus of --divisor or --group, with its divisor rows
    and shifts."""
    src, lin, rows, shifts = _divisor_rows(problem, args)
    solve = semistable_divisor if args.divisor else semistable_group
    return solve(src, lin, problem.action, problem.fan), rows, shifts


def _print_tree(value, indent: int) -> None:
    """Dict entries as 'key:' and list items as '-', in one loop; a
    nonempty dict, or a list holding a dict or list, opens a nested
    block, and anything else prints as JSON on the same line."""
    pad = "  " * indent
    items = ((f"{k}:", value[k]) for k in sorted(value)) if isinstance(
        value, dict) else (("-", v) for v in value)
    for label, v in items:
        if isinstance(v, dict) and v or isinstance(v, list) and any(
                isinstance(x, (dict, list)) for x in v):
            print(f"{pad}{label}")
            _print_tree(v, indent + 1)
        else:
            print(f"{pad}{label} {json.dumps(v)}")


def _parse_ints(text: str, count: int | None = None, below: int | None = None,
                bounds: str = "") -> tuple:
    """Comma-separated integers: exactly count of them, if given, and
    each in range(below), if given.  bounds, appended to the text of
    either error, names where count and below come from."""
    text = text.strip()
    try:
        values = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}")
    if count is not None and len(values) != count:
        raise ParseError(f"expected {count} integers, got {text!r}{bounds}")
    if below is not None and not all(0 <= v < below for v in values):
        raise ParseError(f"expected indices in range({below}), got {text!r}{bounds}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run."""
    ap = argparse.ArgumentParser(
        prog="toricgit",
        description="Exact GIT of subtorus actions on toric varieties")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, *, file=True, source=False, check=False, parent=sub, **kw):
        """A subparser with the problem file, --json, the mutually
        exclusive --divisor/--group source and --check as asked."""
        p = parent.add_parser(name, **kw)
        if file:
            p.add_argument("file", help="JSON problem file")
        p.add_argument("--json", action="store_true", help="machine output")
        if source:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--divisor")
            g.add_argument("--group")
        if check:
            p.add_argument("--check", action="store_true",
                           help="replay certificates through the independent checker")
        return p

    command("cartier-locus", help="faces where every group divisor is Cartier"
            ).add_argument("--group", required=True)
    command("ample-locus", help="faces carrying an ample chart witness"
            ).add_argument("--group", required=True)
    command("semistable", source=True, check=True,
            help="semistable locus of a divisor or group")
    command("trivial-bundle", check=True,
            help="semistable locus of the trivial bundle at a character"
            ).add_argument("--character", required=True)
    command("chambers", help="the GIT fan of character space")
    command("quotient", source=True, check=True,
            help="glued quotient of a semistable locus")
    command("class-group", help="divisor class group and Picard rank")

    hm_sub = sub.add_parser("hm", help="Hilbert-Mumford limits and destabilizers"
                            ).add_subparsers(dest="hm_command", required=True)
    p = command("limit", parent=hm_sub)
    p.add_argument("--lam", required=True, help="one-parameter subgroup, e.g. 1,0")
    p.add_argument("--support", required=True, help="nonzero coordinates, e.g. 0,1,2")
    p = command("destabilize", parent=hm_sub)
    p.add_argument("--support", required=True)
    p.add_argument("--target", required=True,
                   help="'origin' or the coordinate set the limit may use")

    command("obstruction", source=True,
            help="exact verdict: is a locus the trivial-bundle locus of "
            "some character (obstructed or not-obstructed)")
    command("verify-examples", file=False,
            help="replay the built-in worked examples end to end")

    p = command("oracle", source=True)  # debugging aid: brute-force reference locus
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--box", type=int, default=8)
    p.add_argument("--degree-box", type=int, default=3)
    return ap


def _result(problem, args) -> tuple[dict, int]:
    """The report's result for args' command on problem, and its exit
    code: 0, or 1 for a negative verdict."""
    cmd = args.command
    act = problem.action if problem else None

    if cmd in ("cartier-locus", "ample-locus"):
        grp, _ = problem.group(args.group)
        locus = (cartier_locus if cmd == "cartier-locus"
                 else ample_locus)(grp, problem.fan)
        return {"faces": _keys_payload(locus.faces)}, 0 if locus.faces else 1

    if cmd in ("semistable", "trivial-bundle"):
        if cmd == "semistable":
            ss, rows, shifts = _semistable_locus(problem, args)
        else:
            chi = _parse_ints(args.character)
            ss = mumford_trivial_semistable(chi, act, problem.fan)
            rows, shifts = [(0,) * len(problem.fan.rays)], [vneg(chi)]
        out = _locus_payload(ss)
        if args.check:
            res = check_locus(problem.fan, rows, shifts, act.columns, ss)
            out["check"] = {"ok": res.ok, "failures": list(res.failures)}
        return out, 0 if ss.locus.faces and (not args.check or res.ok) else 1

    if cmd == "chambers":
        return {"chambers": [
            {"cone": _cone_payload(c), "sample": list(chi),
             "faces": _keys_payload(loc.locus.faces)}
            for c, chi, loc in git_chambers(act, problem.fan)]}, 0

    if cmd == "quotient":
        ss, _, _ = _semistable_locus(problem, args)
        if not ss.locus.faces:
            return {"faces": [], "error": "empty semistable locus"}, 1
        q = build_quotient(ss, act, problem.fan)
        return {"semistable": _locus_payload(ss),
                "quotient": _quotient_payload(q)}, 0

    if cmd == "class-group":
        cg = class_group(problem.fan)
        return {"cl_rank": cg.cl_rank, "cl_torsion": list(cg.cl_torsion),
                "pic_rank": cg.pic_rank,
                "torus_factor_rank": cg.torus_factor_rank}, 0

    if cmd == "hm":
        if problem.weights is None:
            raise ParseError("hm commands need a 'weights' field")
        lin_act = LinearAction(problem.weights)
        shape = f", for weights of {lin_act.n} rows of length {lin_act.d}"
        support = frozenset(_parse_ints(args.support, below=lin_act.n, bounds=shape))
        if args.hm_command == "limit":
            lim = limit(_parse_ints(args.lam, count=lin_act.d, bounds=shape), support, lin_act)
            return {"exists": lim is not None,
                    "limit_support": None if lim is None else sorted(lim)
                    }, 0 if lim is not None else 1
        allowed = frozenset() if args.target == "origin" else frozenset(
            _parse_ints(args.target, below=lin_act.n, bounds=shape))
        lam = destabilize(support, lambda q: q <= allowed, lin_act)
        return {"found": lam is not None,
                "lambda": None if lam is None else list(lam)}, 0 if lam is not None else 1

    if cmd == "obstruction":
        ss, _, _ = _semistable_locus(problem, args)
        rep = obstruction_report(ss.locus, act, problem.fan)
        return {"required": _keys_payload(rep.required.faces),
                "weight_cones": [{"face": sorted(k), "cone": _cone_payload(c)}
                                 for k, c in rep.weight_cones],
                "common": _cone_payload(rep.common),
                "character": list(rep.character),
                "locus": _locus_payload(rep.locus),
                "verdict": rep.verdict}, 1 if rep.verdict == "obstructed" else 0

    if cmd == "verify-examples":
        from .builtin import verify_examples
        checks = verify_examples()
        passed = all(c.passed for c in checks)
        return {"checks": [{"name": c.name, "passed": c.passed,
                            "expected": c.expected, "actual": c.actual}
                           for c in checks],
                "all_passed": passed}, 0 if passed else 1

    # oracle
    from .oracle import SearchBounds, enumerate_witnesses
    _, _, rows, shifts = _divisor_rows(problem, args)
    bounds = SearchBounds(args.n_max, args.box, args.degree_box)
    loc = enumerate_witnesses(list(problem.fan.rays), list(problem.fan.face_keys()),
                              rows, shifts, act.columns, bounds,
                              not args.divisor)
    return {"faces": _keys_payload(loc)}, 0 if loc else 1


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    report = {"command": " ".join(argv), "version": __version__,
              "input_digest": None, "result": {}}
    try:
        problem = None
        if getattr(args, "file", None):
            with open(args.file, "rb") as fh:  # read once, hashed and parsed
                report["input_digest"] = hashlib.sha256(raw := fh.read()).hexdigest()
            problem = load_problem(raw)
            if args.command in _NEEDS_ACTION and problem.action is None:
                raise ParseError("this command needs an 'action' field in the problem file")
        report["result"], exit_code = _result(problem, args)
    except (ParseError, FileNotFoundError, NotAffine, FanError,
            ActionError, ValueError, RuntimeError) as e:
        report["result"] = {"error": str(e)}
        # a RuntimeError is a failed engine invariant, not bad input
        exit_code = 3 if isinstance(e, RuntimeError) else 2
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"toricgit {report['version']} :: {report['command']}")
        _print_tree(report["result"], indent=0)
    return exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
