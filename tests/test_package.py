"""The installed package's boundary: what it exports, and what it may import.

The test-only references (tests/reference.py) stay out of src/, and every
name that the benchmark scripts import from lqgsched still resolves there.
"""

import ast
import importlib
import os

import pytest

import lqgsched

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "lqgsched")
# what the benchmark harness imports from the package; the tier-1 suite does not run bench/tests
BENCH_FILES = ("bench/online.py", "bench/prepare.py", "bench/tests/test_bench.py")


def _imports(path: str) -> list[tuple[str, list[str]]]:
    """(module, names) of every import in the file, at any depth; a relative module keeps its leading dots."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.append(("." * node.level + (node.module or ""), [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            found += [(a.name, []) for a in node.names]
    return found


@pytest.mark.parametrize("name", ["f_value", "h_value", "inner_dp_check", "InnerDpReport",
                                  "empirical_error_covariance"])
def test_test_references_are_not_exported(name):
    assert not hasattr(lqgsched, name)
    for module in ("policy", "oracle", "sim"):
        assert name not in importlib.import_module(f"lqgsched.{module}").__all__


def test_finite_riccati_left_the_package():
    # verify re-costs its window in one pass; only the tests stack a window's weights
    assert not hasattr(lqgsched, "finite_riccati")
    assert "finite_riccati" not in importlib.import_module("lqgsched.riccati").__all__
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as fh:
                tree = ast.parse(fh.read(), filename)
            assert "finite_riccati" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_oracle_does_not_import_the_simulator():
    for module, names in _imports(os.path.join(SRC, "oracle.py")):
        assert module not in (".sim", "lqgsched.sim")
        assert module not in (".", "lqgsched") or "sim" not in names


def test_no_package_module_imports_the_test_references():
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            for module, names in _imports(os.path.join(SRC, filename)):
                assert "reference" not in module.split(".") + names, (filename, module)


@pytest.mark.parametrize("path", BENCH_FILES)
def test_every_name_the_benchmark_imports_resolves(path):
    wanted = [(m, names) for m, names in _imports(os.path.join(ROOT, path)) if m.split(".")[0] == "lqgsched"]
    assert wanted
    for module, names in wanted:
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{path} imports {name} from {module}"
