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


def _imports(module: str) -> set:
    """The names and modules a package module imports."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name for alias in node.names}
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    return imported


def test_decomp_draws_no_stdlib_or_scalar_probes():
    # the randomized checks draw integer probes with numpy and build power
    # terms from integer Legs: no per-Scalar sampling, stdlib generator or reduce
    assert _imports("decomp.py") & {"random", "sampling", "reduce"} == set()


def test_tensors_and_decomp_read_targets_as_stored_integers():
    # a Tensor3 holds its values as one Leg, so no reader of a target
    # converts Scalars to integers again
    for module in ("tensors.py", "decomp.py"):
        assert _imports(module) & {"distinct_objects", "gaussian_integers"} == set()


def test_scalar_elimination_gains_no_package_caller():
    # exact ranks and bases run on the Gaussian-integer kernel in `scalars`:
    # linalg's Scalar elimination has no package caller left and gains none
    eliminations = {"rank", "rref", "det", "inverse", "in_span"}
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}"
            if (isinstance(child, ast.Attribute) and child.attr in eliminations
                    and isinstance(child.value, ast.Name) and child.value.id == "linalg"):
                callers.add(f"{inner}: linalg.{child.attr}")
            if isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                callers.update(f"{inner}: imports {alias.name}" for alias in child.names
                               if alias.name in eliminations)
            visit(child, inner)

    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "linalg.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == set()


def test_the_exact_pencil_step_uses_no_generator_and_no_scalar_elimination():
    # its weight pairs are fixed, so no seed reaches it, and it eliminates on
    # Gaussian-integer pairs, not through linalg's Scalars; so does the
    # elimination kernel it shares with the flattening ranks
    assert _imports("pencil.py") & {"random", "sampling", "linalg", "Scalar"} == set()
    assert _imports("scalars.py") & {"random", "sampling", "linalg"} == set()
