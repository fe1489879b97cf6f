"""Structured run reports with deterministic text and JSON renderings.

Reports never include wall-clock data unless explicitly asked to carry it,
so identical runs emit identical bytes; timing lines are strictly opt-in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .core import INF, Dist, SolveOutcome, WeightedInstance
from .formats import serialize_instance


def instance_digest(instance: WeightedInstance) -> str:
    """Stable short digest of the canonical instance text."""
    text = serialize_instance(instance)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def render_dist(value: Dist) -> str:
    return "inf" if value == INF else str(value)


def diameter_ratio(diameter: Dist, d_opt: Dist | None) -> float | None:
    """diameter / d_opt, when both are finite and d_opt is positive."""
    if d_opt is None or d_opt == INF or d_opt <= 0 or diameter == INF:
        return None
    return diameter / d_opt


@dataclass(frozen=True)
class RunReport:
    """One solver invocation: what ran, on what, and what came out."""

    algorithm: str
    digest: str
    outcome: SolveOutcome

    @property
    def ratio(self) -> float | None:
        return diameter_ratio(self.outcome.augmentation.diameter, self.outcome.d_opt)

    def _optional_dists(self) -> list[tuple[str, str]]:
        """(key, rendered value) of each optional distance that is set, in report order."""
        keys = ("tree_height", "cluster_radius", "d_opt")
        values = [(k, getattr(self.outcome, k)) for k in keys]
        return [(k, render_dist(value)) for k, value in values if value is not None]

    def to_text(self, include_timings: bool = False) -> str:
        outcome, augmentation = self.outcome, self.outcome.augmentation
        lines = [f"algorithm {self.algorithm}", f"instance {self.digest}"]
        for key, value in outcome.parameters.items():
            lines.append(f"param {key} {value}")
        for u, v in sorted(augmentation.added):
            lines.append(f"add {u} {v}")
        lines.append(f"cost {augmentation.total_cost}")
        lines.append(f"diameter {render_dist(augmentation.diameter)}")
        lines += [f"{key} {value}" for key, value in self._optional_dists()]
        ratio = self.ratio
        if ratio is not None:
            lines.append(f"ratio {ratio:.4f}")
        if include_timings:
            for key, value in outcome.timings.items():
                lines.append(f"time {key} {value:.4f}")
        return "\n".join(lines) + "\n"

    def to_json(self, include_timings: bool = False) -> str:
        outcome, augmentation = self.outcome, self.outcome.augmentation
        payload: dict[str, object] = {
            "algorithm": self.algorithm,
            "instance": self.digest,
            "parameters": dict(outcome.parameters),
            "added": [[u, v] for u, v in sorted(augmentation.added)],
            "cost": augmentation.total_cost,
            "diameter": render_dist(augmentation.diameter),
        }
        payload.update(self._optional_dists())
        ratio = self.ratio
        if ratio is not None:
            payload["ratio"] = round(ratio, 4)
        if include_timings and outcome.timings:
            payload["timings"] = {k: round(v, 4) for k, v in outcome.timings.items()}
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
