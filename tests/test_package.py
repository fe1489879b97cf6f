"""The package's exported names and the layout of its sources."""

from __future__ import annotations

import ast
from pathlib import Path

import diamaug


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry would make ``from diamaug import *`` raise
    missing = [name for name in diamaug.__all__ if not hasattr(diamaug, name)]
    assert missing == []


def test_only_core_reads_the_pair_view_indexes():
    # values are read through ``instance.weight_at`` / ``cost_at``: the index layout lives in core
    found = []
    for path in sorted(Path(diamaug.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("weight_index", "cost_index"):
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "at":
                found.append(f"{path.name}:{node.lineno}: .at(")
    assert found == []


def test_package_code_has_a_caller():
    # machinery used only by tests belongs under tests/: every method of a package class is
    # read as an attribute, and every module-level function named, by the package or perfbench
    package = sorted(Path(diamaug.__file__).parent.glob("*.py"))
    perfbench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package + perfbench}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, functions) and node.name not in names | set(diamaug.__all__):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (
                        isinstance(method, functions)
                        and not (method.name.startswith("__") and method.name.endswith("__"))
                        and method.name not in attributes
                    ):
                        unused.append(f"{path.name}:{method.lineno} {node.name}.{method.name}")
    assert unused == []
