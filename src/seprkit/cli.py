"""Command-line front end.

Every library operation is reachable as a subcommand for scripted batch
use.  Patterns and matrices are read from files or stdin ('-'); --json
switches any subcommand to a stable JSON rendering.  Exit codes: 0 for
success (or a passing check), 1 for a failed check or a "no" answer from
a yes/no test, 2 for usage and parse errors, an input past an order guard,
or a failed realization.
"""
from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    UniqueStatus,
    check_semistable_laws,
    nonneg_sequence_check,
    predicted_sepr,
    sepr_set_estimate,
    unique_verdict,
)
from .digraph import (
    DigraphFamily,
    is_sign_semi_stable,
    is_sign_stable_irreducible,
    make_family,
    simplify,
)
from .enumeration import PatternFamily, enumerate_patterns, run_all_verifications
from .pattern import OrderGuardError, SignPattern, signed_det
from .realize import MagnitudeGrid, RationalMatrix, RealizationError, sepr_of_matrix
from .signs import SeprSequence, combine


class CliError(Exception):
    pass


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e)) from None


def _load_pattern(args) -> SignPattern:
    if not getattr(args, "pattern", None):
        raise CliError("this command needs --pattern FILE (use '-' for stdin)")
    try:
        return SignPattern.parse(_read_text(args.pattern))
    except ValueError as e:
        raise CliError(f"bad pattern: {e}") from None


def _load_matrix(args) -> RationalMatrix:
    if not getattr(args, "matrix", None):
        raise CliError("this command needs --matrix FILE (use '-' for stdin)")
    try:
        return RationalMatrix.parse(_read_text(args.matrix))
    except ValueError as e:
        raise CliError(f"bad matrix: {e}") from None


def _grid(args) -> MagnitudeGrid:
    if getattr(args, "grid", None):
        try:
            return MagnitudeGrid.parse(args.grid)
        except (ValueError, ZeroDivisionError) as e:
            raise CliError(f"bad grid: {e}") from None
    return MagnitudeGrid.default()


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the exit code)

def _cmd_sepr(args) -> int:
    seq = sepr_of_matrix(_load_matrix(args))
    _emit(args, {"command": "sepr", "sequence": str(seq), "terms": seq.to_json()}, str(seq))
    return 0


def _cmd_det(args) -> int:
    d = signed_det(_load_pattern(args))
    _emit(args, {"command": "det", "value": d.value.value,
                 "has_positive_term": d.has_positive_term,
                 "has_negative_term": d.has_negative_term}, d.value.value)
    return 0


def _cmd_combine(args) -> int:
    try:
        a = SeprSequence.parse(args.left)
        b = SeprSequence.parse(args.right)
    except ValueError as e:
        raise CliError(f"bad sequence: {e}") from None
    seq = combine(a, b)
    _emit(args, {"command": "combine", "sequence": str(seq), "terms": seq.to_json()}, str(seq))
    return 0


def _cmd_seprset(args) -> int:
    P = _load_pattern(args)
    est = sepr_set_estimate(P, grid=_grid(args), budget=args.budget, seed=args.seed)
    lower = sorted(str(s) for s in est.sequences)
    payload = {
        "command": "seprset",
        "lower": lower,
        "witnesses": {str(s): m.to_json() for s, m in sorted(est.lower.items(),
                                                             key=lambda kv: str(kv[0]))},
        "upper_per_position": [sorted(x.token for x in u) for u in est.upper_per_position],
        "tight": est.tight,
    }
    lines = ["sequences: " + " ".join(lower)]
    for k, u in enumerate(est.upper_per_position, start=1):
        lines.append(f"position {k} upper: " + " ".join(sorted(x.token for x in u)))
    lines.append(f"tight: {'yes' if est.tight else 'no'}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_check_unique(args) -> int:
    P = _load_pattern(args)
    v = unique_verdict(P, search_budget=args.budget, grid=_grid(args), seed=args.seed)
    payload: dict = {"command": "check-unique", "status": v.status.value}
    if v.unique:
        payload["sequence"] = str(v.sequence)
        text = f"unique: {v.sequence}"
    elif v.status is UniqueStatus.NOT_UNIQUE:
        b1, s1, b2, s2 = v.witnesses
        payload["sequences"] = [str(s1), str(s2)]
        payload["witnesses"] = [b1.to_json(), b2.to_json()]
        text = f"not unique: {s1} / {s2}"
    else:
        payload["warning"] = v.warning
        text = f"{v.status.value}: {v.warning}"
    _emit(args, payload, text)
    return 0


def _cmd_semistable(args) -> int:
    verdict = is_sign_semi_stable(_load_pattern(args))
    payload = {"command": "semistable", "semi_stable": verdict.ok, "reason": verdict.reason}
    _emit(args, payload, "yes" if verdict.ok else f"no: {verdict.reason}")
    return 0 if verdict.ok else 1


def _cmd_stable(args) -> int:
    try:
        verdict = is_sign_stable_irreducible(_load_pattern(args))
    except ValueError as e:
        raise CliError(str(e)) from None
    payload = {"command": "stable", "stable": verdict.ok, "reason": verdict.reason}
    _emit(args, payload, "yes" if verdict.ok else f"no: {verdict.reason}")
    return 0 if verdict.ok else 1


def _cmd_simplify(args) -> int:
    Q = simplify(_load_pattern(args))
    _emit(args, {"command": "simplify", **Q.to_json()}, Q.to_text())
    return 0


def _cmd_predict(args) -> int:
    pred = predicted_sepr(_load_pattern(args))
    if pred is None:
        _emit(args, {"command": "predict", "rule": None}, "none")
    else:
        _emit(args, {"command": "predict", "rule": pred.rule,
                     "sequence": str(pred.sequence)},
              f"rule: {pred.rule}\nsequence: {pred.sequence}")
    return 0


def _cmd_family(args) -> int:
    loops: str | int = args.loops
    if loops.isdigit():
        loops = int(loops)
    try:
        P = make_family(DigraphFamily(args.kind, args.size, loops, args.preset))
    except ValueError as e:
        raise CliError(str(e)) from None
    _emit(args, {"command": "family", **P.to_json()}, P.to_text())
    return 0


def _cmd_enumerate(args) -> int:
    constraints = frozenset(c for c in (args.constraints or "").split(",") if c)
    try:
        fam = PatternFamily(args.order, constraints)
        stream = enumerate_patterns(fam, budget=args.budget)
        if args.count_only:
            count = sum(1 for _ in stream)
            _emit(args, {"command": "enumerate", "count": count}, str(count))
            return 0
        texts = [P.to_text() for P in stream]
    except ValueError as e:
        raise CliError(str(e)) from None
    if args.json:
        print(json.dumps({"command": "enumerate", "patterns": [t.split("\n") for t in texts]},
                         sort_keys=True, indent=2))
    else:
        print("\n\n".join(texts))
    return 0


def _cmd_verify_paper(args) -> int:
    reports = run_all_verifications(seed=args.seed, budget=args.budget)
    if args.json:
        print(json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2))
    else:
        width = max(len(r.check_id) for r in reports)
        for r in reports:
            line = f"{r.check_id:<{width}}  {r.status.upper():<7} {r.runtime_s:7.2f}s"
            if r.status == "fail":
                line += f"  {r.detail}  witness: {r.witness}"
            print(line)
        total = sum(r.runtime_s for r in reports)
        bad = [r for r in reports if r.status == "fail"]
        print(f"{len(reports) - len(bad)}/{len(reports)} checks passed in {total:.1f}s")
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_check_sequence(args) -> int:
    try:
        seq = SeprSequence.parse(args.sequence)
    except ValueError as e:
        raise CliError(f"bad sequence: {e}") from None
    semi = check_semistable_laws(seq)
    nonneg = nonneg_sequence_check(seq)
    payload = {
        "command": "check-sequence",
        "semistable_laws": list(semi.violations),
        "symmetric_nonneg_conditions": list(nonneg.violations),
    }
    lines = [
        "semistable laws: " + ("ok" if semi.ok else "; ".join(semi.violations)),
        "symmetric nonnegative conditions: "
        + ("ok" if nonneg.ok else "; ".join(nonneg.violations)),
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser

def _positive_int(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 2**63 - 1:
        raise argparse.ArgumentTypeError(f"must lie in [1, 2**63 - 1], got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**128:  # the range of a Philox key
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**128), got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, pattern=False, matrix=False,
                sweep=False, budget_default=10**6) -> None:
    if pattern:
        p.add_argument("--pattern", metavar="FILE", help="pattern file, or '-' for stdin")
    if matrix:
        p.add_argument("--matrix", metavar="FILE", help="matrix file, or '-' for stdin")
    if sweep:
        p.add_argument("--grid", metavar="CSV", help="comma-separated positive rationals")
        p.add_argument("--budget", type=_positive_int, default=budget_default, metavar="N")
        p.add_argument("--seed", type=_seed, default=0, metavar="N")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="seprkit",
                                 description="Exact sepr-sequence analysis of sign "
                                             "patterns and rational matrices.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sepr", help="sepr-sequence of an exact rational matrix")
    _add_common(p, matrix=True)
    p.set_defaults(fn=_cmd_sepr)

    p = sub.add_parser("det", help="signed determinant of a sign pattern")
    _add_common(p, pattern=True)
    p.set_defaults(fn=_cmd_det)

    p = sub.add_parser("combine", help="compose two block sepr-sequences")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(fn=_cmd_combine)

    p = sub.add_parser("seprset", help="two-sided sepr-set estimate via grid sweep")
    _add_common(p, pattern=True, sweep=True)
    p.set_defaults(fn=_cmd_seprset)

    p = sub.add_parser("check-unique", help="is the sepr-set a singleton?")
    _add_common(p, pattern=True, sweep=True, budget_default=4000)
    p.set_defaults(fn=_cmd_check_unique)

    p = sub.add_parser("semistable", help="sign semi-stability test (exit 1 on 'no')")
    _add_common(p, pattern=True)
    p.set_defaults(fn=_cmd_semistable)

    p = sub.add_parser("stable", help="sign stability test for irreducible patterns")
    _add_common(p, pattern=True)
    p.set_defaults(fn=_cmd_stable)

    p = sub.add_parser("simplify", help="zero all entries not on any cycle")
    _add_common(p, pattern=True)
    p.set_defaults(fn=_cmd_simplify)

    p = sub.add_parser("predict", help="closed-form sequence for structured digraphs")
    _add_common(p, pattern=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("family", help="generate a named digraph family pattern")
    p.add_argument("kind", choices=["path", "star", "cycle", "complete", "leaf-loop-star"])
    p.add_argument("size", type=int)
    p.add_argument("--loops", default="none",
                   help="none/one/both/all/center or a loop count for cycles")
    p.add_argument("--preset", default="skew",
                   choices=["skew", "symmetric-positive", "negative-diagonal"])
    _add_common(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("enumerate", help="stream a pattern family")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--constraints", default="",
                   help="comma list: symmetric,nonnegative,zero-diagonal,"
                        "full-off-diagonal,semi-stable,irreducible")
    p.add_argument("--budget", type=_positive_int, default=10**6)
    p.add_argument("--count-only", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("check-sequence", help="structural filters for a sequence")
    p.add_argument("sequence")
    _add_common(p)
    p.set_defaults(fn=_cmd_check_sequence)

    p = sub.add_parser("verify-paper", help="run every verification check")
    p.add_argument("--budget", type=_positive_int, default=10**6)
    p.add_argument("--seed", type=_seed, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify_paper)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, OrderGuardError, RealizationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
