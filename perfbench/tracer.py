"""Outside-in per-layer tracer for the figure-row benchmark.

Wraps each layer's public entry points from outside the package (class or
module attributes are swapped for timing wrappers and restored on exit), so
the simulator itself carries no instrumentation.  Every wrapped call adds
its inclusive time to its caller's child time; a layer's self time is the
sum of its calls' durations minus the time their nested wrapped calls took.

Spans are aggregated per layer as they close instead of being kept: a
figure row makes millions of layer calls, and storing each span would cost
more memory and host time than the work being measured.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: Layer -> (module, attribute path) of its public entry points on the
#: figure row's call path (the row's designs are the three classes listed).
#: Only the method each ledger check counts is listed for the hierarchy,
#: DRAM and MT layers, so their call counts match the traffic ledger one
#: for one.
LAYER_ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "exec": (("repro.exec.runner", "ParallelRunner.run"),),
    "sim.simulator": (("repro.sim.simulator", "simulate"),),
    "workloads": (("repro.bench.runner", "get_trace"),),
    "secure.designs": (
        ("repro.secure.designs", "NonProtectedDesign.process_fast"),
        ("repro.secure.designs", "MorphCtrDesign.process_fast"),
        ("repro.secure.designs", "CosmosDesign.process_fast"),
    ),
    "mem.hierarchy": (("repro.mem.hierarchy", "MemoryHierarchy.access_block"),),
    "core.rl": (
        ("repro.core.location_predictor", "DataLocationPredictor.predict_and_train"),
        ("repro.core.locality_predictor", "CtrLocalityPredictor.predict"),
    ),
    "secure.engine": (
        ("repro.secure.engine", "SecureMemoryEngine.ctr_access"),
        ("repro.secure.engine", "SecureMemoryEngine.read_data"),
        ("repro.secure.engine", "SecureMemoryEngine.secure_write"),
    ),
    "secure.ctr_cache": (("repro.secure.ctr_cache", "CtrCache.access_index"),),
    "secure.merkle": (("repro.secure.merkle", "IntegrityTreeModel.traverse"),),
    "mem.dram": (("repro.mem.dram", "DramModel.request"),),
}

LAYERS = tuple(LAYER_ENTRY_POINTS)


class LayerTracer:
    """Context manager that times every layer entry point while active.

    Attributes:
        self_s: Layer -> seconds spent in the layer itself.
        calls: Layer -> wrapped calls into the layer.
        method_calls: ``module:attr`` -> wrapped calls, for ledger checks
            that count one entry point of a layer.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.method_calls: Dict[str, int] = {}
        self._stack: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        method_calls = self.method_calls
        method_calls[key] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                method_calls[key] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, points in LAYER_ENTRY_POINTS.items():
                for module_name, path in points:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for parent in parents:
                        owner = getattr(owner, parent)
                    original = vars(owner)[attr]
                    key = f"{module_name}:{path}"
                    setattr(owner, attr, self._wrap(layer, key, original))
                    self._restore.append((owner, attr, original))
        except BaseException:
            self._unwrap()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._unwrap()

    def _unwrap(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
