"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span (calls, and self time: the span minus its child
spans). A function is replaced under every name it is reachable by inside the
package, so names imported with ``from ... import`` (``qevspeed.cli.speed_at``)
and functions held in module-level dicts (``cli._RUNNERS``) are traced too.
Trajectory callables are closures; they are wrapped on each ``Trajectory`` a
traced function returns, under the labels ``models.state_at`` and
``models.derivative_at``. Nothing in the package changes; ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "qevspeed"
LAYERS = ("cli", "speed", "metrics", "linalg", "models", "analysis")


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.failures: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # counted by hooks, not spans
        self._stack: list[list[float]] = []
        self._restore: list[tuple[dict, str, object]] = []
        self._after = {f"cli.render_{kind}": self._count_bytes(kind) for kind in ("csv", "json")}

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.failures.clear()
        self.counts.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, label: str, func):
        stack, calls, self_s, failures = self._stack, self.calls, self.self_s, self.failures
        after = self._after.get(label)
        trajectory_type = self._trajectory_type

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                failures[label] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[label] += elapsed - frame[0]
                calls[label] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            if isinstance(result, trajectory_type) and not hasattr(result.state_at, "__traced__"):
                result = self._wrap_trajectory(result)
            return result

        traced.__traced__ = True
        return traced

    def _wrap_trajectory(self, traj):
        derivative = traj.derivative_at
        return dataclasses.replace(
            traj,
            state_at=self._wrap("models.state_at", traj.state_at),
            derivative_at=None if derivative is None else self._wrap("models.derivative_at", derivative),
        )

    def _count_bytes(self, kind: str):
        counts = self.counts

        def hook(result):
            counts[f"cli.render_{kind}.bytes"] += len(result.encode())

        return hook

    def _count_routes(self, traced):
        """Routing counts of ``speed_at``: the t = 0 limit, and the kernel
        terms of calls that took neither that limit nor the pure-state path
        (computed as dim^2 per call, not observed)."""
        counts, calls = self.counts, self.calls

        @functools.wraps(traced)
        def counted(traj, t, *args, **kwargs):
            pure_before = calls["metrics.pure_state_speed"]
            result = traced(traj, t, *args, **kwargs)
            if t == 0.0 and traj.speed_at_zero is not None:
                counts["speed.t0_limit.calls"] += 1
            elif calls["metrics.pure_state_speed"] == pure_before:
                counts["speed.kernel_pairs"] += traj.dim * traj.dim
            return result

        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from qevspeed.speed import Trajectory

        self._trajectory_type = Trajectory
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                    if f"{layer}.{name}" == "speed.speed_at":
                        wrappers[obj] = self._count_routes(wrappers[obj])
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if isinstance(obj, dict) and not name.startswith("__"):
                    self._replace(obj, wrappers)
                elif inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, name, obj))
                    namespace[name] = wrappers[obj]

    def _replace(self, mapping: dict, wrappers: dict) -> None:
        for key, value in list(mapping.items()):
            if inspect.isfunction(value) and value in wrappers:
                self._restore.append((mapping, key, value))
                mapping[key] = wrappers[value]

    def uninstall(self) -> None:
        while self._restore:
            mapping, key, original = self._restore.pop()
            mapping[key] = original
