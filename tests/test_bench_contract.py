"""The he3cap names that the benchmark under bench/ reads must resolve.

bench/spans.py wraps every function of its TARGETS table for the traced run,
and the workloads and the benchmark's self-test import or patch further
names.  A deletion that breaks one of them would otherwise fail only the
benchmark's self-test.  The bench files are read with ast, not imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _span_targets() -> list[tuple[str, str]]:
    for node in _parse(BENCH / "spans.py").body:
        if isinstance(node, ast.Assign) and [
            target.id for target in node.targets if isinstance(target, ast.Name)
        ] == ["TARGETS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/spans.py assigns no TARGETS")


def _bench_names() -> list[tuple[str, str, str]]:
    """(file, module, name) for each he3cap name a bench file imports or reads off a module.

    A name read off a module is an attribute of a he3cap module that the
    file imports with ``from he3cap import <module>``, such as cli.main.
    """
    found = []
    for path in sorted(BENCH.glob("*.py")):
        tree = _parse(path)
        modules = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            if node.module.split(".")[0] != "he3cap":
                continue
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if node.module == "he3cap" and importlib.util.find_spec(submodule):
                    modules[alias.asname or alias.name] = submodule
                else:
                    found.append((path.name, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                found.append((path.name, modules[node.value.id], node.attr))
    return sorted(set(found))


@pytest.mark.parametrize(
    ("module", "function"),
    [pytest.param(*target, id=".".join(target)) for target in _span_targets()],
)
def test_span_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"he3cap.{module}"), function))


NAMES = _bench_names()


@pytest.mark.parametrize(
    ("module", "name"),
    [pytest.param(module, name, id=f"{path}:{module}.{name}") for path, module, name in NAMES],
)
def test_bench_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_the_names_read_include_the_patched_closed_form():
    # The self-test injects a wrong closed form through this module global.
    assert ("selftest.py", "he3cap.cross_sections", "oam_closed_form") in NAMES
