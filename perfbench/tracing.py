"""Per-layer tracing of moprompt from outside the package.

For the length of a traced `train` call, each layer's public functions are
replaced by wrappers installed under the names their callers import them
by, for example `moprompt.runner.rollout` or `moprompt.rewards.hypervolume`.
A wrapper times its call as a span. A span's self time is its duration
minus the time its child spans cover, so `rewards.aggregate_hvi` excludes
the `geometry.hypervolume` call inside it, and the root `train` span keeps
only the runner's own work: the step loop, Adam and artifact writes.
Nothing inside the package is changed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module the caller imports from, attribute, layer span name)
SPANS = (
    ("moprompt.runner", "sample_prompts", "policy.sample_prompts"),
    ("moprompt.runner", "rollout", "envs.rollout"),
    ("moprompt.runner", "sql_loss_and_grad", "policy.sql_loss_and_grad"),
    ("moprompt.runner", "per_objective_loss_grads", "policy.per_objective_loss_grads"),
    ("moprompt.runner", "aggregate_average", "rewards.aggregate_average"),
    ("moprompt.runner", "aggregate_product", "rewards.aggregate_product"),
    ("moprompt.runner", "aggregate_hvi", "rewards.aggregate_hvi"),
    ("moprompt.runner", "evaluation_metrics", "rewards.evaluation_metrics"),
    ("moprompt.rewards", "hypervolume", "geometry.hypervolume"),
    ("moprompt.runner", "min_norm_point", "mgda.min_norm_point"),
)
# Sub-microsecond calls made several times per rollout: counted, not timed,
# so their cost stays in the caller's self time.
COUNTED = (
    ("moprompt.runner", "derive_seed", "seeding.derive_seed"),
    ("moprompt.envs", "derive_seed", "seeding.derive_seed"),
)
ROOT_SPAN = "runner.train"

# Which end-to-end metric each per-layer metric should move, and on which
# workload; the longest matching prefix applies.
PREDICTIONS = {
    "envs.rollout": "steps_per_s on scalar-desk; little on hvi-paper",
    "envs.rollout.points": "peak_rss_mb on hvi-paper",
    "policy.sample_prompts": "steps_per_s on scalar-desk",
    "policy.sql_loss_and_grad": "steps_per_s on scalar-desk",
    "policy.per_objective_loss_grads": "steps_per_s on mgda-arms-m4",
    "rewards": "steps_per_s on scalar-desk (self time, excluding geometry)",
    "geometry.hypervolume": "steps_per_s on hvi-paper (most), mgda-arms-m4 (eval); little on scalar-desk",
    "mgda.min_norm_point": "steps_per_s on mgda-arms-m4 only",
    "seeding.derive_seed": "setup_s on all; steps_per_s on all, mgda-arms-m4 (arm hashing)",
    "runner": "steps_per_s on all three",
    "trace": "none; reported",
}


def prediction(metric: str) -> str:
    parts = metric.split(".")
    for n in range(len(parts), 0, -1):
        found = PREDICTIONS.get(".".join(parts[:n]))
        if found:
            return found
    return ""


def missing_names() -> list:
    """Wrapped names the package no longer provides, as dotted paths."""
    return [
        f"{module}.{attr}"
        for module, attr, _ in SPANS + COUNTED
        if not hasattr(sys.modules.get(module), attr)
    ]


class Thinned:
    """An evenly spaced sample of between cap and 2*cap items of a stream."""

    def __init__(self, cap: int):
        self.cap = cap
        self.stride = 1
        self.seen = 0
        self.items = []

    def offer(self, make) -> None:
        """Keep make() if this item falls on the stride; make is only called then."""
        if self.seen % self.stride == 0:
            self.items.append(make())
            if len(self.items) == 2 * self.cap:
                self.items = self.items[::2]
                self.stride *= 2
        self.seen += 1


class Tracer:
    """Span self times, call counts and replay inputs, kept in memory."""

    def __init__(self, keep: int):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sums = defaultdict(float)
        self.root_s = 0.0
        self.recording = True
        self.hv_inputs = Thinned(keep)
        self.mn_inputs = Thinned(keep)
        self._stack = []
        self._observers = {
            "envs.rollout": self._observe_rollout,
            "geometry.hypervolume": self._observe_hypervolume,
            "mgda.min_norm_point": self._observe_min_norm,
        }

    def span(self, name: str, fn):
        observe = self._observers.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.root_s += duration
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_rollout(self, args, kwargs, result):
        env = args[0] if args else kwargs["env"]
        k_hat = args[3] if len(args) > 3 else kwargs["k_hat"]
        self.sums["envs.rollout.points"] += k_hat * env.m

    def _observe_hypervolume(self, args, kwargs, result):
        points = args[0] if args else kwargs["points"]
        ref = args[1] if len(args) > 1 else kwargs["ref"]
        self.sums["geometry.hypervolume.points"] += len(points)
        if self.recording:
            self.hv_inputs.offer(lambda: (np.array(points, dtype=float), np.array(ref, dtype=float)))

    def _observe_min_norm(self, args, kwargs, result):
        self.sums["mgda.min_norm_point.iterations"] += result.iterations
        self.sums["mgda.min_norm_point.converged"] += bool(result.converged)
        if self.recording:
            gradients = args[0] if args else kwargs["gradients"]
            self.mn_inputs.offer(lambda: np.array(gradients, dtype=float))

    def install(self) -> list:
        """Wrap every layer name that exists; returns what uninstall needs."""
        restore = []
        for table, make in ((SPANS, self.span), (COUNTED, self.count)):
            for module, attr, name in table:
                mod = sys.modules.get(module)
                if hasattr(mod, attr):
                    original = getattr(mod, attr)
                    restore.append((mod, attr, original))
                    setattr(mod, attr, make(name, original))
        return restore

    @staticmethod
    def uninstall(restore: list) -> None:
        for mod, attr, original in restore:
            setattr(mod, attr, original)

    def counts(self) -> dict:
        """Snapshot of the exact counts: calls and per-call sums."""
        return {"calls": dict(self.calls), "sums": dict(self.sums)}


def replay(geometry, mgda, tracer: Tracer):
    """Re-time the kept hypervolume and min-norm inputs in isolation.

    Returns the metrics (mean ms per call, and the mean front size per
    hypervolume input via geometry.pareto_front, outside any timed region)
    and, separately, the (n, m) shapes and number of inputs replayed.
    """

    def timed(fn, inputs):
        total = 0.0
        for args in inputs:
            start = time.perf_counter()
            fn(*args)
            total += time.perf_counter() - start
        return 1000.0 * total / len(inputs) if inputs else 0.0

    hv = tracer.hv_inputs.items
    mn = tracer.mn_inputs.items
    metrics = {
        "geometry.hypervolume.replay_ms": timed(geometry.hypervolume, hv),
        "mgda.min_norm_point.replay_ms": timed(mgda.min_norm_point, [(g,) for g in mn]),
        "geometry.hypervolume.front_points": (
            float(np.mean([len(geometry.pareto_front(p)) for p, _ in hv])) if hv else 0.0
        ),
    }
    info = {
        "geometry.hypervolume": {"inputs": len(hv), "shapes": sorted({f"n={p.shape[0]},m={p.shape[1]}" for p, _ in hv})},
        "mgda.min_norm_point": {"inputs": len(mn), "shapes": sorted({f"m={g.shape[0]},n={g.shape[1]}" for g in mn})},
    }
    return metrics, info


def layer_metrics(tracer: Tracer, counts: dict, steps: int) -> dict:
    """Per-layer metrics: counts from one traced pass, times from every traced call.

    ms is self time per training step; share is self time over the root
    `train` spans' wall time.
    """
    calls, sums = counts["calls"], counts["sums"]
    out = {}
    for _, _, name in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.ms"] = 1000.0 * tracer.self_s.get(name, 0.0) / steps
        out[f"{name}.share"] = tracer.self_s.get(name, 0.0) / tracer.root_s

    def per_call(key, layer):
        return sums.get(key, 0.0) / calls[layer] if calls.get(layer) else 0.0

    out["envs.rollout.points"] = per_call("envs.rollout.points", "envs.rollout")
    out["geometry.hypervolume.points"] = per_call("geometry.hypervolume.points", "geometry.hypervolume")
    out["mgda.min_norm_point.iterations"] = per_call("mgda.min_norm_point.iterations", "mgda.min_norm_point")
    out["mgda.min_norm_point.converged_frac"] = per_call("mgda.min_norm_point.converged", "mgda.min_norm_point")
    out["seeding.derive_seed.calls"] = calls.get("seeding.derive_seed", 0)
    out["runner.self_share"] = tracer.self_s[ROOT_SPAN] / tracer.root_s
    return out
