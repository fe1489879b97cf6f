"""Per-layer spans and counters, recorded from outside the package.

Each layer's public entry point is wrapped at the module attribute where its
caller looks it up (``diamaug.fpt.apsp_b``, ``diamaug.core.validate``, ...),
so nothing in the package changes. A span is (name, solve, parent, start,
end); spans stay in memory and are written out once at the end. A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# Recorded span name -> metric carrying its self time, per traced solve.
SPAN_METRICS = {
    "cli.run": "cli.self_s",
    "formats.parse_instance": "formats.parse_s",
    "formats.serialize_solution": "formats.write_s",
    "report.instance_digest": "report.render_s",
    "report.RunReport.to_json": "report.render_s",
    "core.validate": "core.validate_s",
    "core.augment": "core.augment_s",
    "clustering.greedy_centers": "clustering.greedy_centers_s",
    "budget_paths.apsp_b": "budget_paths.apsp_b_s",
    "budget_paths.PathSource": "budget_paths.path_source_s",
    "fpt.solve_height_table": "fpt.height_table_s",
    "fpt.reconstruct_tree": "fpt.reconstruct_s",
    "unit_cost.pairwise_centers": "unit_cost.pairs_s",
    "unit_cost.star_centers": "unit_cost.star_s",
    "unit_cost.cluster_spanning_mst": "unit_cost.mst_s",
}

# Recorded span name -> metric carrying its call count, per traced solve.
CALL_METRICS = {
    "core.validate": "core.validate_calls",
    "budget_paths.PathSource": "budget_paths.path_source_calls",
}

COUNTER_NAMES = (
    "budget_paths.table_bytes",
    "budget_paths.path_to_calls",
    "budget_paths.layered_arcs",
    "fpt.height_table_bytes",
    "fpt.tree_nodes",
    "core.diameter_calls",
)


def _array_bytes(obj) -> int:
    return sum(
        value.nbytes
        for value in (getattr(obj, f.name) for f in dataclasses.fields(obj))
        if isinstance(value, np.ndarray)
    )


class Tracer:
    """Spans and counters for the solves run while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, solve, parent index, start, end]
        self.counts: Counter[str] = Counter()
        self.solve = -1
        self._stack: list[int] = []
        self._patches = self._patch_list()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as a span; ``count(result)`` may return (counter, amount)."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.solve, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
            if count is not None:
                counter, amount = count(result)
                self.counts[counter] += amount
            return result

        return traced

    def counted(self, counter: str, fn):
        def traced(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return traced

    def _patch_list(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every traced entry point."""
        from diamaug import budget_paths, cli, core, fpt, report, unit_cost

        w = self.wrap
        centers = w("clustering.greedy_centers", fpt.greedy_centers)
        augment = w("core.augment", core.augment)
        path_source = w("budget_paths.PathSource", budget_paths.PathSource)
        return [
            (cli, "parse_instance", w("formats.parse_instance", cli.parse_instance)),
            (cli, "serialize_solution",
             w("formats.serialize_solution", cli.serialize_solution)),
            (cli, "instance_digest", w("report.instance_digest", cli.instance_digest)),
            (report.RunReport, "to_json",
             w("report.RunReport.to_json", report.RunReport.to_json)),
            (core, "validate", w("core.validate", core.validate)),
            (core, "diameter", self.counted("core.diameter_calls", core.diameter)),
            (fpt, "apsp_b", w("budget_paths.apsp_b", fpt.apsp_b,
                              lambda dists: ("budget_paths.table_bytes", dists.table.nbytes))),
            (fpt, "greedy_centers", centers),
            (unit_cost, "greedy_centers", centers),
            (fpt, "solve_height_table",
             w("fpt.solve_height_table", fpt.solve_height_table,
               lambda table: ("fpt.height_table_bytes", _array_bytes(table)))),
            (fpt, "reconstruct_tree",
             w("fpt.reconstruct_tree", fpt.reconstruct_tree,
               lambda tree: ("fpt.tree_nodes", len(tree.node_vertices)))),
            (fpt, "augment", augment),
            (unit_cost, "augment", augment),
            (fpt, "PathSource", path_source),
            (unit_cost, "PathSource", path_source),
            (budget_paths.PathSource, "path_to",
             self.counted("budget_paths.path_to_calls", budget_paths.PathSource.path_to)),
            (unit_cost, "pairwise_centers",
             w("unit_cost.pairwise_centers", unit_cost.pairwise_centers)),
            (unit_cost, "star_centers", w("unit_cost.star_centers", unit_cost.star_centers)),
            (unit_cost, "cluster_spanning_mst",
             w("unit_cost.cluster_spanning_mst", unit_cost.cluster_spanning_mst)),
        ]

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block, then restore."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        try:
            for owner, attr, replacement in self._patches:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def per_solve_metrics(self, solves: int) -> dict[str, float]:
        """Self seconds, call counts and counters, each averaged per traced solve."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        metrics = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        metrics.update(dict.fromkeys(CALL_METRICS.values(), 0.0))
        for (name, _, _, start, end), inner in zip(self.spans, child):
            metrics[SPAN_METRICS[name]] += end - start - inner
            if name in CALL_METRICS:
                metrics[CALL_METRICS[name]] += 1
        metrics.update({name: float(self.counts[name]) for name in COUNTER_NAMES})
        return {name: value / solves for name, value in metrics.items()}

    def write(self, path: Path) -> None:
        origin = min((span[3] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as out:
            for name, solve, parent, start, end in self.spans:
                record = {
                    "name": name,
                    "solve": solve,
                    "parent": parent,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }
                out.write(json.dumps(record) + "\n")
