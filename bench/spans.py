"""Span recorder for the traced benchmark run.

``Tracer.install()`` replaces each public function listed in ``LAYERS`` by a
timing wrapper at every ``seprkit`` module that binds it, so a call through
``analysis.signed_det_masked`` and one through ``pattern.signed_det_masked``
land in the same span name.  Nothing under ``src/`` changes; ``uninstall()``
puts the originals back.

A span is (name, start, end, parent span, op id).  Spans live in flat arrays
while the run is timed and are written out when it ends.  Self time is a
span's duration minus the durations of its child spans.  When every span
nests inside its parent within one op, the self times of an op's spans add
up to the op's duration by construction; ``nesting_problems`` checks that
premise.  A call that raises keeps its span but gets no note, so the
per-call shares below count only calls that returned.

``signs`` gets no spans: its functions are cheaper than a span, so their time
stays in the callers' self time.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

OP = "op"  # the benchmark's own span around one op


def _det_key(args, kwargs, result):
    P, *rest = args
    if not rest:            # signed_det(P): the full square
        full = (1 << P.n) - 1
        return P, full, full
    rows = rest[0]
    cols = rest[1] if len(rest) > 1 else kwargs.get("cols_mask")
    return P, rows, rows if cols is None else cols


def _args(args, kwargs, result):
    return args, kwargs


def _is_none(args, kwargs, result):
    return result is None


# span name -> (module, public functions, what to keep from each call)
LAYERS = {
    "pattern.signed_det": ("pattern", ("signed_det", "signed_det_masked"), _det_key),
    "realize.sepr_of_matrix": ("realize", ("sepr_of_matrix",), None),
    "realize.sweep": ("realize", ("sweep_sepr_table",), _args),
    "realize.allnonzero": ("realize", ("allnonzero_realization",), None),
    "realize.targeted": ("realize", ("dominated_realization", "zero_minor_realization"),
                         _is_none),
    "realize.witness_search": ("realize", ("distinct_sepr_search",), _is_none),
    "analysis.fixed_term": ("analysis", ("fixed_term",), None),
    "analysis.position_upper_sets": ("analysis", ("position_upper_sets",), None),
    "analysis.sepr_set_estimate": ("analysis", ("sepr_set_estimate",), None),
    "analysis.predicted_sepr": ("analysis", ("predicted_sepr",), None),
    "digraph.is_sign_semi_stable": ("digraph", ("is_sign_semi_stable",), None),
    "digraph.all_cycle_products_negative": ("digraph", ("all_cycle_products_negative",), None),
}

# every module that may bind a wrapped name
BINDING_MODULES = ("seprkit", "seprkit.pattern", "seprkit.realize", "seprkit.analysis",
                   "seprkit.digraph", "seprkit.enumeration", "seprkit.cli")


class Tracer:
    """Records spans into flat arrays; one Tracer per traced pass."""

    def __init__(self):
        self.names = [OP] + list(LAYERS)
        self.name_code = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.code = array("h")
        self.op = array("q")
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, code: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.code.append(code)
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn, note):
        code = self.name_code[name]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(code)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id: int, fn, inp):
        """Run one op under its own root span."""
        self._op_id = op_id
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn(inp)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in BINDING_MODULES]
        for name, (home, fnames, note) in LAYERS.items():
            home_mod = importlib.import_module(f"seprkit.{home}")
            for fname in fnames:
                orig = getattr(home_mod, fname)
                wrapper = self._wrap(name, orig, note)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            fh.writelines(
                f"{i}\t{self.names[c]}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\t{o}\n"
                for i, (c, s, e, p, o) in enumerate(
                    zip(self.code, self.start, self.end, self.parent, self.op)))


def _sweep_realizations(fn, args, kwargs) -> int:
    """Realizations a sweep call evaluates: min(budget, g ** nonzero entries)."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    P, grid, budget = ba.arguments["P"], ba.arguments["grid"], ba.arguments["budget"]
    g = len(grid.values) if grid is not None else len(
        importlib.import_module("seprkit.realize").MagnitudeGrid.default().values)
    return min(budget, g ** len(P.nonzero_positions()))


def summarize(tr: Tracer) -> dict:
    """Per-layer counts and times of one traced pass."""
    names, codes = tr.names, tr.code
    selfs = tr.self_times()
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    out: dict = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for c, st in zip(codes, selfs):
        out[f"{names[c]}.calls"] += 1
        out[f"{names[c]}.self_s"] += st

    det = tr.name_code["pattern.signed_det"]
    sepr = tr.name_code["realize.sepr_of_matrix"]
    sweep = tr.name_code["realize.sweep"]
    search = tr.name_code["realize.witness_search"]
    targeted = tr.name_code["realize.targeted"]

    # signed-det calls: distinct (P, rows, cols) per op, and the longest call
    distinct: dict[int, set] = {}
    max_det = 0.0
    for i, c in enumerate(codes):
        if c == det:
            if i in tr.notes:
                distinct.setdefault(tr.op[i], set()).add(tr.notes[i])
            max_det = max(max_det, dur[i])
    calls = out["pattern.signed_det.calls"]
    out["pattern.signed_det.distinct_share"] = (
        sum(len(v) for v in distinct.values()) / calls if calls else 0.0)
    out["pattern.signed_det.max_call_ms"] = 1e3 * max_det

    # sepr_of_matrix spans under each sweep and witness-search span
    under: dict[int, int] = {}
    for i, c in enumerate(codes):
        if c != sepr:
            continue
        p = tr.parent[i]
        while p >= 0:
            if codes[p] in (sweep, search):
                under[p] = under.get(p, 0) + 1
            p = tr.parent[p]

    fn = importlib.import_module("seprkit.realize").sweep_sepr_table
    fn = getattr(fn, "__wrapped__", fn)
    calls = {"vectorized": 0, "fallback": 0}
    real = {"vectorized": 0, "fallback": 0}
    busy = {"vectorized": 0.0, "fallback": 0.0}
    for i, c in enumerate(codes):
        if c == sweep and i in tr.notes:
            # the vectorized sweep evaluates minors itself; the fallback calls sepr_of_matrix
            mode = "fallback" if under.get(i) else "vectorized"
            calls[mode] += 1
            real[mode] += _sweep_realizations(fn, *tr.notes[i])
            busy[mode] += dur[i]
    out["realize.sweep.realizations"] = real["vectorized"] + real["fallback"]
    for mode in real:
        out[f"realize.sweep.realizations_per_s.{mode}"] = (
            real[mode] / busy[mode] if busy[mode] else 0.0)
    out["realize.sweep.fallback_calls"] = calls["fallback"]

    n_search = out["realize.witness_search.calls"]
    found = sum(1 for i, c in enumerate(codes) if c == search and tr.notes.get(i) is False)
    out["realize.witness_search.found_share"] = found / n_search if n_search else 0.0
    out["realize.witness_search.candidates_per_call"] = (
        sum(v for i, v in under.items() if codes[i] == search) / n_search if n_search else 0.0)
    n_targeted = out["realize.targeted.calls"]
    none = sum(1 for i, c in enumerate(codes) if c == targeted and tr.notes.get(i) is True)
    out["realize.targeted.none_share"] = none / n_targeted if n_targeted else 0.0

    out["nesting_problems"] = nesting_problems(tr)
    return out


def nesting_problems(tr: Tracer) -> int:
    """Spans that do not lie inside their parent within one op.

    A span outside every op (op id -1), a root that is not an op span, or a
    child whose interval or op id differs from its parent's would break the
    sum of self times; threads that call wrapped functions would cause it.
    """
    bad = 0
    for i, (p, o) in enumerate(zip(tr.parent, tr.op)):
        if o < 0 or (p < 0) != (tr.code[i] == 0):
            bad += 1
        elif p >= 0 and (tr.op[p] != o or tr.start[i] < tr.start[p] or tr.end[i] > tr.end[p]):
            bad += 1
    return bad
