"""The library names the benchmark scripts under bench/ rely on still exist.

`bench/spans.py` wraps functions by name and `bench/workloads.py` reads
module attributes; a deleted or renamed one would otherwise surface only as
a crash of the benchmark run.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("analysis", "enumeration", "pattern", "realize")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_layers_wrap_existing_functions():
    spans = _load_spans()
    for name, (module, functions, _note) in spans.LAYERS.items():
        home = importlib.import_module(f"seprkit.{module}")
        for fn in functions:
            assert callable(getattr(home, fn, None)), (name, module, fn)
    params = inspect.signature(importlib.import_module("seprkit.realize").sweep_sepr_table).parameters
    assert {"P", "grid", "budget"} <= set(params)


def test_workload_attributes_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}
    assert read
    for module, attr in sorted(read):
        assert hasattr(importlib.import_module(f"seprkit.{module}"), attr), (module, attr)
