"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds every public function of each parhodge module, and
``scipy.linalg.expm``/``logm``, to a timing wrapper, in every parhodge module
that holds a reference to it; ``Tracer.uninstall`` puts the originals back.
No file under ``src/`` changes.  A span records its duration and the time
covered by the wrapped spans it caused, so a function's self time is its
duration minus that child time.  Spans live in memory as running sums.
"""
from __future__ import annotations

import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "jsonio", "cartan", "parabolic", "degree", "liealg", "parhiggs", "nahodge", "modelmetric")

# called thousands of times per operation with sub-microsecond bodies: a
# wrapper would measure itself
UNWRAPPED = {"liealg.comm", "liealg.hs_norm", "liealg.trace_form"}

# work counts read from a function's return value
COUNTS = {
    "cartan.alcove_normalize": ("k_sum", lambda result: result.k),
    "degree.relative_degree": ("trace_steps", lambda result: len(result.t_trace)),
    "modelmetric.holonomy_check": ("ode_steps", lambda result: result.steps),
}

# per-size duration samples: function -> key built from its arguments
SIZES = {
    "cartan.alcove_normalize": lambda args, kwargs: f"rank{args[0].rank}",
    "degree.relative_degree": lambda args, kwargs: f"n{len(args[0])}",
    "modelmetric.holonomy_check": lambda args, kwargs: "radius",
}


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    count: int = 0
    durations: dict = field(default_factory=dict)  # size key -> [seconds]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layer_busy: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._depth: dict[str, int] = {}
        self._entered: dict[str, float] = {}
        self._bindings: list = []
        self.paused = False

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, Stat())
        counter = COUNTS.get(name)
        sizer = SIZES.get(name)
        stack, depth, entered, clock = self._stack, self._depth, self._entered, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            outer = depth.get(layer, 0) == 0
            depth[layer] = depth.get(layer, 0) + 1
            start = clock()
            if outer:
                entered[layer] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                depth[layer] -= 1
                if outer:
                    self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + end - entered[layer]
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - frame[0]
            if counter is not None:
                stat.count += counter[1](result)
            if sizer is not None:
                stat.durations.setdefault(sizer(args, kwargs), []).append(elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _bind(self) -> list:
        """(module, attribute, original, wrapper) for every reference to rebind."""
        modules = [importlib.import_module(f"parhodge.{layer}") for layer in LAYERS]
        targets = []
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    targets.append((name, fn))
        linalg = importlib.import_module("scipy.linalg")
        targets += [("scipy.expm", linalg.expm), ("scipy.logm", linalg.logm)]
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        # every reference, including aliases such as cli.higgs_from_json
        return [
            (module, attr, value, wrappers[id(value)])
            for module in [*modules, linalg]
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    def install(self) -> "Tracer":
        if not self._bindings:
            self._bindings = self._bind()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def p50_ms(self, name: str, size: str) -> float:
        """Median duration of one size class; 0 when the workload never ran it."""
        samples = self.stats[name].durations.get(size) if name in self.stats else None
        return statistics.median(samples) * 1e3 if samples else 0.0
