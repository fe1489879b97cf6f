"""Structured run reports with deterministic text and JSON renderings.

Reports never include wall-clock data unless explicitly asked to carry it,
so identical runs emit identical bytes; timing lines are strictly opt-in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .core import INF, Dist, Pair, WeightedInstance
from .formats import serialize_instance


def instance_digest(instance: WeightedInstance) -> str:
    """Stable short digest of the canonical instance text."""
    text = serialize_instance(instance)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def render_dist(value: Dist) -> str:
    return "inf" if value == INF else str(value)


@dataclass(frozen=True)
class RunReport:
    """One solver invocation: what ran, on what, and what came out."""

    algorithm: str
    digest: str
    parameters: dict[str, int | str] = field(default_factory=dict)
    added: tuple[Pair, ...] = ()
    total_cost: int = 0
    diameter: Dist = 0
    d_opt: Dist | None = None
    tree_height: Dist | None = None
    cluster_radius: Dist | None = None
    timings: dict[str, float] | None = None

    @property
    def ratio(self) -> float | None:
        """diameter / d_opt, when both are finite and d_opt is positive."""
        if self.d_opt is None or self.d_opt == INF or self.d_opt <= 0:
            return None
        if self.diameter == INF:
            return None
        return self.diameter / self.d_opt

    def _optional_dists(self) -> list[tuple[str, str]]:
        """(key, rendered value) of each optional distance that is set, in report order."""
        keys = ("tree_height", "cluster_radius", "d_opt")
        return [(k, render_dist(getattr(self, k))) for k in keys if getattr(self, k) is not None]

    def to_text(self, include_timings: bool = False) -> str:
        lines = [f"algorithm {self.algorithm}", f"instance {self.digest}"]
        for key, value in self.parameters.items():
            lines.append(f"param {key} {value}")
        for u, v in sorted(self.added):
            lines.append(f"add {u} {v}")
        lines.append(f"cost {self.total_cost}")
        lines.append(f"diameter {render_dist(self.diameter)}")
        lines += [f"{key} {value}" for key, value in self._optional_dists()]
        ratio = self.ratio
        if ratio is not None:
            lines.append(f"ratio {ratio:.4f}")
        if include_timings and self.timings:
            for key, value in self.timings.items():
                lines.append(f"time {key} {value:.4f}")
        return "\n".join(lines) + "\n"

    def to_json(self, include_timings: bool = False) -> str:
        payload: dict[str, object] = {
            "algorithm": self.algorithm,
            "instance": self.digest,
            "parameters": dict(self.parameters),
            "added": [[u, v] for u, v in sorted(self.added)],
            "cost": self.total_cost,
            "diameter": render_dist(self.diameter),
        }
        payload.update(self._optional_dists())
        ratio = self.ratio
        if ratio is not None:
            payload["ratio"] = round(ratio, 4)
        if include_timings and self.timings:
            payload["timings"] = {k: round(v, 4) for k, v in self.timings.items()}
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
