"""seprkit benchmark: one command, three seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
One process, one thread, one client: each op starts after the previous one
returns.  A run repeats the workload's fixed op list in whole passes for
about ``--seconds``; an op's latency is its median over the passes.  Every
reported time is scaled to the nominal host speed measured by ``speed.py``;
the raw figures are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced and prints the per-layer metrics.  Outputs are
checked by oracles outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

This module imports only the standard library at top level, so that the
set-up time it measures covers ``import seprkit`` (numpy included).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("classify", "seprset", "large-order")
SETUP_CHILDREN = 6          # fresh-process set-ups besides the run's own
SETUP_REFS = 9              # speed-reference timings before and after each set-up
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10            # values the tail percentile must leave above it


class CheckoutError(RuntimeError):
    """The checkout does not hold the library source."""


def use_checkout_source() -> None:
    if not (SRC / "seprkit" / "__init__.py").is_file():
        raise CheckoutError(f"no seprkit package under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_sample(workload: str, seed: int):
    """Import the library and CLI, then build the workload's inputs, timed.

    The speed reference is timed just before and just after, in the same
    process; it gives the set-up's host-speed factor.  Reference timings
    taken in the parent between set-ups tracked the set-up times less well.
    `speed` needs only modules this file has already imported.
    """
    import speed
    refs = [speed.time_reference() for _ in range(SETUP_REFS)]
    t0 = perf_counter()
    import seprkit
    t1 = perf_counter()
    import seprkit.cli  # noqa: F401
    t2 = perf_counter()
    import workloads
    inputs = workloads.BUILDERS[workload](seed)
    t3 = perf_counter()
    if not Path(seprkit.__file__).resolve().is_relative_to(SRC):
        raise CheckoutError(f"seprkit imported from {seprkit.__file__}, not from {SRC}")
    refs += [speed.time_reference() for _ in range(SETUP_REFS)]
    record = {"setup_s": t3 - t0, "import_s": t1 - t0, "cli_import_s": t2 - t1,
              "generate_s": inputs.generate_s, "patterns_yielded": inputs.patterns_yielded,
              "factor": speed.NOMINAL_S / statistics.median(refs)}
    return record, inputs


def child_setup_sample(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# timed passes

def run_passes(ops, seconds: float, traced: bool, examine, first_keys=None,
               trace_file: Path | None = None) -> list[dict]:
    """Whole passes over the op list until the next one would pass `seconds`.

    Each op's answer key is taken right after it returns, outside its
    latency, and the output is dropped.  Only the run's first pass keeps its
    outputs, for `examine(outputs, errors)` (the oracles and the property
    report), and drops them after that.  Later passes keep which answers
    moved from the first pass.  The speed reference runs between ops, outside
    their latencies: once per `speed.INTERVAL_S` of op time, up to
    `speed.MAX_BURST` times after a long op.
    """
    import spans
    import speed
    passes: list[dict] = []
    begin = perf_counter()
    while True:
        tracer = spans.Tracer() if traced else None
        keep = first_keys is None
        lat = [0.0] * len(ops)
        keys = [None] * len(ops)
        outs = [None] * len(ops) if keep else None
        errs = [None] * len(ops)
        refs, ref_at = [], []
        op_at = [(0.0, 0.0)] * len(ops)
        gc.collect()
        if tracer:
            tracer.install()
        try:
            since_ref = 0.0
            for i, op in enumerate(ops):
                t0 = perf_counter()
                try:
                    out = tracer.run_op(i, op.run, op.inp) if tracer else op.run(op.inp)
                except Exception as e:  # a raising op is a failed op, not a failed run
                    out, errs[i] = None, f"{type(e).__name__}: {e}"
                t1 = perf_counter()
                lat[i] = t1 - t0
                op_at[i] = (t0, t1)
                if errs[i] is None:
                    keys[i] = answer_key(op, out)
                if keep:
                    outs[i] = out
                del out
                since_ref += lat[i]
                for _ in range(min(int(since_ref / speed.INTERVAL_S), speed.MAX_BURST)):
                    ref_at.append(perf_counter())
                    refs.append(speed.time_reference())
                    since_ref = 0.0
        finally:
            if tracer:
                tracer.uninstall()
        if keep:
            examine(outs, errs)
            first_keys = keys
            outs = None
        summary = None
        if tracer:
            summary = spans.summarize(tracer)
            if not passes and trace_file is not None:
                tracer.write(trace_file)
            tracer = None
        passes.append({"lat": lat, "errs": errs, "keys": keys if keep else None,
                       "moved": [i for i, k in enumerate(keys) if k != first_keys[i]],
                       "refs": refs,
                       "factor": speed.local_factors(op_at, ref_at, refs),
                       "summary": summary})
        elapsed = perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def answer_key(op, out) -> str:
    """The op's answer as canonical JSON text (not tracked by the collector)."""
    return json.dumps(op.key(op.inp, out), separators=(",", ":"))


def judge(ops, passes, first_problems: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass.

    `first_problems` maps an op to what its oracle, or its exception, found
    in the run's first pass; such an op counts as failed in every pass.
    """
    problems = [f"op {i} ({ops[i].kind}, n={ops[i].order}): {'; '.join(found)}"
                for i, found in sorted(first_problems.items())]
    attempted = failed = 0
    for k, p in enumerate(passes):
        moved = set(p["moved"])
        for i in range(len(ops)):
            attempted += 1
            if i in first_problems or p["errs"][i] or i in moved:
                failed += 1
                if p["errs"][i] and i not in first_problems:
                    problems.append(f"op {i}: pass {k + 1} raised {p['errs'][i]}")
                elif i in moved:
                    problems.append(f"op {i}: answer in pass {k + 1} differs from pass 1")
    return attempted, failed, problems


def percentile(sorted_vals: list[float], p: float) -> float:
    x = p / 100 * (len(sorted_vals) - 1)
    lo = int(x)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (x - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves TAIL_BEYOND of n values above it."""
    # integer per-mille arithmetic: 100 * (1 - 0.9) falls just short of 10 in floats
    return max(p for p in TAIL_LADDER if n * (1000 - round(10 * p)) >= 1000 * TAIL_BEYOND)


def median_of(samples, key, scale: bool = False):
    """Median over set-up samples, each at the nominal host speed with `scale`."""
    return statistics.median(s[key] * (s["factor"] if scale else 1.0) for s in samples)


def factors(p: dict, scale: bool) -> list[float]:
    return p["factor"] if scale else [1.0] * len(p["lat"])


def effective_factor(passes, scale: bool) -> float:
    """Op-time-weighted speed factor over the passes (1 when unscaled)."""
    return sum(sum(l * f for l, f in zip(p["lat"], factors(p, scale))) for p in passes) / sum(
        sum(p["lat"]) for p in passes)


def scaled(value: float, unit: str, factor: float) -> float:
    """A time or rate at the nominal host speed; counts, shares and sizes unchanged."""
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def ops_per_s(passes, scale: bool) -> float:
    n_ops = len(passes[0]["lat"])
    return n_ops * len(passes) / sum(
        sum(l * f for l, f in zip(p["lat"], factors(p, scale))) for p in passes)


def end_to_end(samples, passes, scale: bool) -> dict:
    """name -> (value, unit); with `scale`, every time at the nominal host speed.

    Each set-up sample is scaled with the reference timed around it, each
    op time with the reference timings taken near it."""
    n_ops = len(passes[0]["lat"])
    fs = [factors(p, scale) for p in passes]
    per_op = sorted(statistics.median(p["lat"][i] * f[i] for p, f in zip(passes, fs))
                    for i in range(n_ops))
    return {
        "setup_s": (median_of(samples, "setup_s", scale), "s"),
        "ops_per_s": (ops_per_s(passes, scale), "1/s"),
        "op_p50_ms": (1e3 * percentile(per_op, 50.0), "ms"),
        "op_tail_ms": (1e3 * percentile(per_op, tail_percentile(n_ops)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_FIELDS = {
    "pattern.signed_det": ("calls", "self_s", "distinct_share", "max_call_ms"),
    "realize.sepr_of_matrix": ("calls", "self_s"),
    "realize.sweep": ("self_s", "realizations", "realizations_per_s.vectorized",
                      "realizations_per_s.fallback"),
    "realize.allnonzero": ("calls", "self_s"),
    "realize.targeted": ("calls", "self_s", "none_share"),
    "realize.witness_search": ("calls", "self_s", "found_share", "candidates_per_call"),
    "analysis.fixed_term": ("calls", "self_s"),
    "analysis.position_upper_sets": ("self_s",),
    "analysis.sepr_set_estimate": ("self_s",),
    "analysis.predicted_sepr": ("self_s",),
    "digraph.is_sign_semi_stable": ("calls", "self_s"),
    "digraph.all_cycle_products_negative": ("calls", "self_s"),
    "op": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "distinct_share": "ratio", "max_call_ms": "ms",
               "realizations": "count", "realizations_per_s.vectorized": "1/s",
               "realizations_per_s.fallback": "1/s", "none_share": "ratio",
               "found_share": "ratio", "candidates_per_call": "count"}


def per_layer(samples, untraced, traced, fixed_share: float, scale: bool) -> dict:
    """name -> (value, unit).  Times and rates are per pass over the op list,
    scaled with the pass's op-time-weighted factor, median over the traced
    passes; counts and shares repeat exactly and come from the first pass."""
    out = {}
    pass_f = [effective_factor([p], scale) for p in traced]
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            key = f"{name}.{f}"
            unit = FIELD_UNITS[f]
            if unit in ("count", "ratio"):
                value = traced[0]["summary"][key]
            else:
                value = statistics.median(scaled(p["summary"][key], unit, pf)
                                          for p, pf in zip(traced, pass_f))
            out[key] = (value, unit)
    out["analysis.fixed_share"] = (fixed_share, "ratio")
    out["enumeration.generate_s"] = (median_of(samples, "generate_s", scale), "s")
    out["enumeration.patterns_yielded"] = (samples[0]["patterns_yielded"], "count")
    out["cli.import_s"] = (median_of(samples, "cli_import_s", scale), "s")
    plain, with_spans = ops_per_s(untraced, scale), ops_per_s(traced, scale)
    out["trace.ops_per_s.untraced"] = (plain, "1/s")
    out["trace.ops_per_s.traced"] = (with_spans, "1/s")
    out["trace.overhead_ratio"] = (plain / with_spans, "ratio")
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        use_checkout_source()
        record, inputs = setup_sample(args.workload, args.seed)
    except CheckoutError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(record))
        return 0

    samples = [record] + [child_setup_sample(args.workload, args.seed)
                          for _ in range(SETUP_CHILDREN)]
    import speed
    import workloads
    ops = inputs.ops
    w, seed = args.workload, args.seed
    first: dict = {}

    def examine(outs, errs):
        found = {}
        for i, op in enumerate(ops):
            bad = [errs[i]] if errs[i] else op.check(op.inp, outs[i])
            if bad:
                found[i] = bad
        first["problems"] = found
        first["report"] = workloads.property_report(w, ops, outs)
        first["fixed_share"] = workloads.fixed_share(w, outs)

    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{w}-seed{seed}.tsv.gz"
        untraced = run_passes(ops, args.seconds / 2, False, examine)
        traced = run_passes(ops, args.seconds / 2, True, examine,
                            first_keys=untraced[0]["keys"], trace_file=trace_file)
        all_passes = untraced + traced
    else:
        untraced = all_passes = run_passes(ops, args.seconds, False, examine)

    attempted, failed, problems = judge(ops, all_passes, first["problems"])
    answers = "[" + ",".join("null" if k is None else k for k in all_passes[0]["keys"]) + "]"
    digest = hashlib.sha256(answers.encode()).hexdigest()[:16]
    correct = failed == 0

    print(f"workload {w}  seed {seed}  ops/pass {len(ops)}  passes {len(all_passes)}"
          f"  (untraced {len(untraced)})")
    print(f"answer digest {w} seed {seed}: {digest}")
    print(f"attempted {attempted}  failed {failed}  fail_rate {failed / attempted:.6f}")
    for line in problems[:20]:
        print(f"  FAIL {line}")
    for line in first["report"]:
        print(f"  property: {line}")
    refs = [1e3 * r for p in all_passes for r in p["refs"]]
    print(f"  host speed: reference work median {statistics.median(refs):.3f} ms over "
          f"{len(refs)} samples, nominal {1e3 * speed.NOMINAL_S:.3f} ms; set-up factors "
          + " ".join(f"{s['factor']:.3f}" for s in samples) + "; pass factors "
          + " ".join(f"{effective_factor([p], True):.3f}" for p in all_passes))

    if not args.trace:
        metrics = end_to_end(samples, untraced, scale=True)
        raw = end_to_end(samples, untraced, scale=False)
        print(f"  op_tail_ms is p{tail_percentile(len(ops)):g} of {len(ops)} per-op latencies")
        shown = ", ".join(f"{s['setup_s']:.4f}" for s in samples)
        print(f"  setup_s samples (raw): {shown}")
    else:
        misplaced = sum(p["summary"]["nesting_problems"] for p in traced)
        if misplaced:
            correct = False
            print(f"  FAIL {misplaced} spans lie outside their parent span or op")
        print(f"  span check: {misplaced} spans outside their parent or op, so each op's "
              f"self times sum to its duration")
        first_sum = traced[0]["summary"]
        sweeps = first_sum["realize.sweep.calls"]
        if sweeps:
            fb = first_sum["realize.sweep.fallback_calls"]
            print(f"  property: sweeps vectorized: {sweeps - fb}/{sweeps} = "
                  f"{(sweeps - fb) / sweeps:.3f}; fallback: {fb}/{sweeps} = {fb / sweeps:.3f}")
        print(f"  spans of traced pass 1 written to {trace_file.relative_to(ROOT)}")
        metrics = per_layer(samples, untraced, traced, first["fixed_share"],
                            scale=True)
        raw = per_layer(samples, untraced, traced, first["fixed_share"],
                        scale=False)
        op_share = metrics["op.self_s"][0] / statistics.median(
            sum(l * f for l, f in zip(p["lat"], p["factor"])) for p in traced)
        print(f"  op.self_s (benchmark glue and wrapper cost) is {op_share:.4f} of traced op time")

    width = max(len(n) for n in metrics)
    print(f"  {'metric':>{width}} {'value':>16} {'raw':>16}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:>{width}} {value:16.6f} {raw[name][0]:16.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
