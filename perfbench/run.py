"""Figure-row benchmark: host throughput of the paper's Figure 10 design row.

One workload is one trace simulated under the row ``np``, ``morphctr``,
``cosmos-dp``, ``cosmos-cp`` and ``cosmos`` through
``repro.bench.runner.run_design_matrix`` (``jobs=1``, result cache off, the
standard ``default_config(4)``): the same exec -> sim.simulator ->
secure.designs path a figure takes.  The load is a closed loop in this one
process: one row at a time, each starting with empty caches (warmup 0).

Usage (from the repository root)::

    python3 perfbench/run.py --workload pr --seed 42 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics: ``accesses_per_s`` (median
over the rows that fit in ``--seconds``), ``setup_s`` (median of several
cold set-ups) and ``peak_rss_mb``.  Both times are in reference seconds:
wall seconds scaled by a reference sample timed around every set-up and
every cell, so that the shared host's drifting speed cancels (see
``HostClock``); the wall figures go to stderr.  ``--trace 1`` runs one
untraced and one traced row and reports per-layer self time (wall), call
counts and ratios, after checking the layer call counts against the
traffic ledger.

Every cell's ``SimulationResult.to_dict()`` payload is hashed; the digests
are printed for any seed and compared with ``pinned.json`` where a seed is
pinned there.  A mismatch, a cell that differs between rows or an exception
counts as a failed operation.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402

if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    sys.exit(f"repro imported from {repro.__file__}, not from this checkout's src/")

from repro.bench import runner  # noqa: E402
from repro.bench.perf import hotpath_trace  # noqa: E402
from repro.workloads.serialization import save_trace  # noqa: E402

from tracer import LAYERS, LayerTracer  # noqa: E402

#: The paper's Figure 10 design row.
DESIGNS = ("np", "morphctr", "cosmos-dp", "cosmos-cp", "cosmos")
NUM_CORES = 4
GRAPH_SCALE = 4.0
#: Cold set-ups per run, ``setup_s`` being their median: at least
#: SETUP_MIN, then more while they have taken under SETUP_BUDGET_S in all,
#: so a set-up of a fraction of a second still gets a steady median.
SETUP_MIN = 3
SETUP_MAX = 20
SETUP_BUDGET_S = 3.0
#: Host-speed reference (see HostClock): iterations of the integer loop,
#: keys of the lookup table (each looked up once per sample), and the
#: sample's value on the reference host, a 2-vCPU x86-64 VM (Intel Xeon,
#: Python 3.11), in a quiet period.
CALIBRATION_ITERATIONS = 300_000
CALIBRATION_TABLE_KEYS = 100_000
CALIBRATION_REF_S = 0.04
#: Scratch root for the per-run trace caches, inside the checkout.
WORK_DIR = ROOT / ".perfbench-work"
PINNED = HERE / "pinned.json"


@dataclass(frozen=True)
class Workload:
    """One trace: its name as the harness knows it, and its length."""

    name: str
    accesses: int
    #: Writes the seeded trace into the (empty) trace cache.
    provision: Callable[["Workload", int], None]


def _generate_into_cache(workload: Workload, seed: int) -> None:
    """Cold ``get_trace``: runs the generator and saves the ``.npz``."""
    _get_trace(workload, seed)


def _save_hotpath_trace(workload: Workload, seed: int) -> None:
    """The hot-path Zipf trace is not a harness workload name, so it is
    saved under the file name ``get_trace`` looks up for it."""
    key = f"{workload.name}-c{NUM_CORES}-n{workload.accesses}-g{GRAPH_SCALE}-s{seed}"
    save_trace(hotpath_trace(n=workload.accesses, seed=seed), runner.cache_dir() / f"{key}.npz")


# Why each workload is here, and the property it must keep (checked by
# CONTRAST_GUARDS): pr sends most accesses to DRAM, so the MT walk and the
# DRAM model dominate; zipf fits on chip, so the hierarchy, design dispatch
# and RL predictors dominate; hashjoin writes back, so secure_write, counter
# increments and DRAM writes run while MT walks stay rare.
WORKLOADS: Dict[str, Workload] = {
    "pr": Workload("pr", 20_000, _generate_into_cache),
    "zipf": Workload("zipf", 100_000, _save_hotpath_trace),
    "hashjoin": Workload("hashjoin", 60_000, _generate_into_cache),
}

CONTRAST_GUARDS: Dict[str, Tuple[Tuple[str, str, float], ...]] = {
    "pr": (("mem.hierarchy.dram_ratio", ">", 0.5),),
    "zipf": (("mem.hierarchy.dram_ratio", "<", 0.1),),
    "hashjoin": (
        ("mem.dram.write_share", ">", 0.15),
        ("secure.merkle.walks_per_access", "<", 0.01),
    ),
}


def _get_trace(workload: Workload, seed: int):
    return runner.get_trace(
        workload.name, num_cores=NUM_CORES, max_accesses=workload.accesses,
        seed=seed, scale=GRAPH_SCALE,
    )


def isolate_environment(cache_root: Path) -> None:
    """Drop every ``REPRO_*`` knob, then set the few the run needs.

    A served, pooled, observed, shortened or path-forced run would measure
    something else, and the committed result cache must not answer a cell.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(cache_root)
    os.environ["REPRO_GRAPH_SCALE"] = repr(GRAPH_SCALE)
    os.environ["REPRO_NO_TICKER"] = "1"


def set_up(workload: Workload, seed: int, cache_root: Path) -> float:
    """Provision the trace into a fresh cache root and load it; seconds."""
    cache_root.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_root)
    runner._MEMORY_CACHE.clear()
    gc.collect()  # the previous set-up's garbage must not add to this peak
    started = time.perf_counter()
    workload.provision(workload, seed)
    runner._MEMORY_CACHE.clear()
    _get_trace(workload, seed)
    return time.perf_counter() - started


def run_row(
    workload: Workload, clock: Optional["HostClock"] = None,
) -> Tuple[float, float, Dict[str, object]]:
    """Simulate the design row once.

    Returns (wall seconds, reference seconds, results).  Without a clock the
    reference seconds are the wall seconds.  With one, ``simulate`` is
    wrapped for the row so the reference sample is taken after every cell,
    and each cell is converted by the samples that flank it (see
    HostClock).
    """
    import repro.sim.simulator as simulator

    simulate = simulator.simulate
    # (wall, reference, sampling wall) seconds per cell
    cells: List[Tuple[float, float, float]] = []

    @functools.wraps(simulate)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return simulate(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            reference_s = clock.reference_s(ended - started)
            cells.append((ended - started, reference_s, time.perf_counter() - ended))

    if clock is not None:
        simulator.simulate = timed
    gc.collect()  # each row starts from the same heap, not the last row's garbage
    started = time.perf_counter()
    try:
        matrix = runner.run_design_matrix(
            list(DESIGNS), [workload.name], num_cores=NUM_CORES,
            max_accesses=workload.accesses, jobs=1, use_cache=False,
        )
    finally:
        row_s = time.perf_counter() - started
        simulator.simulate = simulate
    if clock is None:
        return row_s, row_s, matrix[workload.name]
    # Work outside the cells (specs, dispatch, result assembly), without
    # the sampling done inside the row, scaled by the row's samples.
    outside_s = row_s - sum(wall + sampling for wall, _, sampling in cells)
    reference_s = sum(ref for _, ref, _ in cells) + max(0.0, outside_s) * (
        CALIBRATION_REF_S / statistics.fmean(clock.samples[-len(cells) - 1:])
    )
    return row_s, reference_s, matrix[workload.name]


def digest(result) -> str:
    """SHA-256 of the canonical JSON form of one cell's payload."""
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_ratios(results: Dict[str, object]) -> Dict[str, float]:
    """Layer ratios read from a row's payloads, summed over its cells."""
    cells = list(results.values())
    protected = [r for design, r in results.items() if design != "np"]
    predicted = [r for r in cells if "prediction_accuracy" in r.extra]
    accesses = sum(r.accesses for r in cells)
    ctr_reads = sum(r.traffic.ctr_reads for r in protected)
    requests = sum(r.traffic.total - r.traffic.reencryption_requests for r in cells)
    return {
        "mem.hierarchy.dram_ratio": sum(
            r.l1_miss_rate * r.l2_miss_rate * r.llc_miss_rate * r.accesses for r in cells
        ) / accesses,
        "mem.hierarchy.l1_hit_ratio": 1.0 - sum(
            r.l1_miss_rate * r.accesses for r in cells
        ) / accesses,
        "secure.ctr_cache.hit_ratio": 1.0 - statistics.fmean(
            r.ctr_miss_rate for r in protected
        ),
        "secure.merkle.nodes_per_walk": sum(
            r.traffic.mt_reads for r in protected
        ) / max(1, ctr_reads),
        "secure.merkle.walks_per_access": ctr_reads / sum(r.accesses for r in protected),
        "mem.dram.write_share": sum(
            r.traffic.data_writes + r.traffic.ctr_writes for r in cells
        ) / requests,
        "core.rl.location_accuracy": statistics.fmean(
            r.extra["prediction_accuracy"] for r in predicted
        ),
        "core.rl.bypass_ratio": statistics.fmean(
            r.extra["bypass_fraction"] for r in predicted
        ),
    }


def check_guards(workload: Workload, ratios: Dict[str, float]) -> List[str]:
    """Each violated contrast property, as a message."""
    problems = []
    for metric, op, bound in CONTRAST_GUARDS[workload.name]:
        value = ratios[metric]
        if not (value > bound if op == ">" else value < bound):
            problems.append(f"contrast lost: {metric}={value:.4f}, expected {op} {bound}")
    return problems


def check_ledger(tracer: LayerTracer, results: Dict[str, object]) -> List[str]:
    """Layer call counts must match the traffic ledger one for one, which
    shows the outside wrappers saw every call site."""
    cells = list(results.values())
    protected = [r for design, r in results.items() if design != "np"]
    accesses = sum(r.accesses for r in cells)
    expected = {
        "mem.hierarchy.calls": (tracer.calls["mem.hierarchy"], accesses),
        "secure.designs.calls": (tracer.calls["secure.designs"], accesses),
        "mem.dram.calls": (
            tracer.calls["mem.dram"],
            sum(r.traffic.total - r.traffic.reencryption_requests for r in cells),
        ),
        "secure.merkle.calls": (
            tracer.calls["secure.merkle"], sum(r.traffic.ctr_reads for r in protected),
        ),
        "secure.engine.write_calls": (
            secure_write_calls(tracer), sum(r.traffic.data_writes for r in protected),
        ),
    }
    return [
        f"ledger mismatch: {name} traced {seen} != ledger {want}"
        for name, (seen, want) in expected.items()
        if seen != want
    ]


def secure_write_calls(tracer: LayerTracer) -> int:
    return tracer.method_calls["repro.secure.engine:SecureMemoryEngine.secure_write"]


class Row:
    """Tallies cells attempted and failed against the reference digests."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        pinned = json.loads(PINNED.read_text())["digests"]
        self.reference: Optional[Dict[str, str]] = pinned.get(str(seed), {}).get(workload.name)
        self.printed = False
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(
        self, clock: Optional["HostClock"] = None,
    ) -> Optional[Tuple[float, float, Dict[str, object]]]:
        """One row (see run_row); ``None`` when it raised.  Failed cells are
        counted."""
        self.attempted += len(DESIGNS)
        try:
            wall_s, reference_s, results = run_row(self.workload, clock)
        except Exception:
            traceback.print_exc()
            self.failed += len(DESIGNS)
            self.problems.append("row raised")
            return None
        digests = {design: digest(results[design]) for design in DESIGNS}
        if not self.printed:
            self.printed = True
            for design in DESIGNS:
                print(f"digest {self.workload.name} seed={self.seed} {design} {digests[design]}")
        if self.reference is None:
            self.reference = digests
        for design in DESIGNS:
            if digests[design] != self.reference[design]:
                self.failed += 1
                self.problems.append(f"{design}: payload digest {digests[design][:16]} differs")
        return wall_s, reference_s, results


class HostClock:
    """Converts wall seconds into reference seconds.

    The shared host's speed drifts by up to 2x over minutes, longer than one
    run, so raw wall times of two runs of the same code differ by more than
    any bound a code change could be judged by.  A fixed reference sample is
    timed before and after every timed piece of work (each set-up, each
    cell of a row); the piece's wall seconds are scaled by
    ``CALIBRATION_REF_S`` over the mean of its two flanking samples, giving
    the seconds it would have taken on a host where the sample reads
    ``CALIBRATION_REF_S``.  The sample is benchmark code, so a change to the
    program moves only the piece, not the reference.

    A sample is the geometric mean of two passes: an integer loop that stays
    in the core, and random lookups in a dict (about 9 MB) that miss the
    core's private caches.  The host slows the two differently, and the
    simulator, interpreter work with a working set of tens of MB, follows
    their geometric mean more closely than either: in two 13-minute probes
    of back-to-back ``zipf`` rows, groups of seven rows (one run's worth)
    spread 5-6% in log-SD scaled by either pass alone, 2-3% scaled by the
    mean, and 12-16% raw.  The table is built once per run, before the
    first set-up, and adds about 9 MB to ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {rng.getrandbits(40): True for _ in range(CALIBRATION_TABLE_KEYS)}
        self._probes = list(self._table)
        rng.shuffle(self._probes)
        self.samples: List[float] = [self.sample()]

    def sample(self) -> float:
        """The reference sample now: geometric mean of the passes' seconds."""
        started = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_ITERATIONS):
            x += i * 3 ^ (x & 255)
        compute_s = time.perf_counter() - started
        started = time.perf_counter()
        table = self._table
        hits = 0
        for key in self._probes:
            if table[key]:
                hits += 1
        memory_s = time.perf_counter() - started
        return math.sqrt(compute_s * memory_s)

    def reference_s(self, wall_s: float) -> float:
        """Wall seconds of the piece that just ended, in reference seconds."""
        self.samples.append(self.sample())
        return wall_s * CALIBRATION_REF_S / statistics.fmean(self.samples[-2:])


def measure_end_to_end(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    clock = HostClock()
    setup_walls: List[float] = []
    setups: List[float] = []
    while len(setups) < SETUP_MIN or (
        sum(setup_walls) < SETUP_BUDGET_S and len(setups) < SETUP_MAX
    ):
        setup_walls.append(set_up(workload, seed, work / f"setup{len(setups)}"))
        setups.append(clock.reference_s(setup_walls[-1]))
    row = Row(workload, seed)
    rates: List[float] = []
    wall_rates: List[float] = []
    ratios = None
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        outcome = row.run(clock)
        if outcome is None:
            # A fresh sample, so the next row's first cell is not scaled by
            # one taken before the failed row.
            clock.samples.append(clock.sample())
            if time.perf_counter() >= deadline:
                break
            continue
        row_s, reference_s, results = outcome
        accesses = sum(r.accesses for r in results.values())
        wall_rates.append(accesses / row_s)
        rates.append(accesses / reference_s)
        if ratios is None:
            ratios = payload_ratios(results)
            row.problems += check_guards(workload, ratios)
        print(
            f"row {len(rates)}: {row_s:.3f} s wall, {wall_rates[-1]:.1f} acc/s wall, "
            f"{rates[-1]:.1f} acc/s reference",
            file=sys.stderr,
        )
    if rates:
        print(
            f"wall medians: {statistics.median(wall_rates):.1f} acc/s, "
            f"set-up {statistics.median(setup_walls):.4f} s; "
            f"reference sample median {statistics.median(clock.samples):.4f} s "
            f"(reference {CALIBRATION_REF_S} s)",
            file=sys.stderr,
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return finish(row, {
        "accesses_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })


def measure_layers(workload: Workload, seed: int, work: Path) -> dict:
    generate_s = set_up(workload, seed, work / "setup")
    row = Row(workload, seed)
    untraced = row.run()
    tracer = LayerTracer()
    with tracer:
        traced_started = time.perf_counter()
        traced = row.run()
        traced_s = time.perf_counter() - traced_started
    if untraced is None or traced is None:
        return finish(row, {})
    results = traced[2]
    ratios = payload_ratios(results)
    row.problems += check_guards(workload, ratios)
    row.problems += check_ledger(tracer, results)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
    for name, value in ratios.items():
        metrics[name] = (value, "ratio")
    metrics["secure.engine.write_calls"] = (secure_write_calls(tracer), "count")
    metrics["workloads.generate_s"] = (generate_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced[0], "x")
    print(f"{'layer':<18}{'self_s':>10}{'share':>8}{'calls':>12}", file=sys.stderr)
    for layer in sorted(LAYERS, key=lambda name: -tracer.self_s[name]):
        print(
            f"{layer:<18}{tracer.self_s[layer]:>10.3f}"
            f"{tracer.self_s[layer] / traced_s:>8.1%}{tracer.calls[layer]:>12}",
            file=sys.stderr,
        )
    return finish(row, metrics)


def finish(row: Row, metrics: Dict[str, Tuple[float, str]]) -> dict:
    for problem in row.problems:
        print(f"FAIL {row.workload.name}: {problem}", file=sys.stderr)
    return {
        "correct": not row.problems,
        "attempted": row.attempted,
        "failed": row.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=json.loads(PINNED.read_text())["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    isolate_environment(work)
    # run_design_matrix has no seed parameter; the workload seed reaches
    # each JobSpec (and so its content hash and the worker's get_trace)
    # through make_spec, which the runner looks up on repro.exec per call.
    import repro.exec

    make_spec = repro.exec.make_spec
    repro.exec.make_spec = functools.partial(make_spec, seed=args.seed)
    try:
        if args.trace:
            report = measure_layers(workload, args.seed, work)
        else:
            report = measure_end_to_end(workload, args.seed, args.seconds, work)
    finally:
        repro.exec.make_spec = make_spec
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
