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
