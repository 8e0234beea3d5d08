"""Source-level rules for the package itself."""

import ast
import importlib.util
from pathlib import Path

import tenrank

PACKAGE = Path(tenrank.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so runtime invariants must be explicit raises
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_trace_harness_names_resolve():
    # the benchmark's traced run wraps these names with getattr; a missing
    # one breaks only that run, so check them here
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, names in spans.LAYERS.values():
        module = importlib.import_module(module_name)
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_decomp_draws_no_stdlib_or_scalar_probes():
    # the randomized checks draw integer probes with numpy and build power
    # terms from integer Legs: no per-Scalar sampling, stdlib generator or reduce
    tree = ast.parse((PACKAGE / "decomp.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name for alias in node.names}
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert imported & {"random", "sampling", "reduce"} == set()
