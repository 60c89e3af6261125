"""RowHammer disturbance-error model over a row-activation ledger.

The sixth attack class (ROADMAP item 4, modelled after HammerSim's
system-level approach): instead of drawing corruption points at random,
flips are *earned* by activation pressure.  The planner replays an op
trace through the same bank/row decode the DRAM model uses, counts row
activations per (channel, bank, row) within tREFI-proxy windows, and
plants a :class:`~repro.verify.tamper.TamperSpec` of kind ``"hammer"``
wherever a victim row's adjacent-activation count crosses the HC
threshold.  The spec's ``target`` records which physical region the
victim row holds — data blocks, counter lines or internal MT nodes — so
the :class:`~repro.verify.attack.AttackHarness` lands the bit flip in
the right state and the accounting asserts the right detector catches it
(MAC for data, MT level 0 for counters, splice-style level attribution
for tree nodes).

Physical layout assumed by the planner (the *model geometry*, distinct
from the timing model's): data blocks first, then one 64B line per
counter line, then the internal MT levels bottom-up (the root lives
on-chip and cannot be hammered).  Rows are deliberately small
(``row_blocks`` defaults to 4) so modest footprints span many rows and
region boundaries — which is precisely what lets aggressor patterns
reach counter and tree rows through their *induced* metadata traffic.

Everything is seeded and a pure function of ``(ops, memory shape,
config, seed)``: the same inputs always yield byte-identical plans,
which the determinism suite pins across processes and cache modes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..mem.dram import DramModel, DramTimings
from ..obs.events import EventRing
from ..secure.counters import make_counter_scheme
from ..secure.functional import FunctionalSecureMemory
from .attack import AttackError, AttackHarness, AttackReport
from .tamper import HAMMER_TARGETS, Op, TamperSpec, affected_blocks

#: Ciphertext bits per 64B line / digest bits per MT node — bit-draw ranges.
_DATA_BITS = 64 * 8
_NODE_BITS = 32 * 8


@dataclass(frozen=True)
class HammerConfig:
    """Geometry and disturbance parameters of the hammer model.

    Attributes:
        threshold: HC threshold — combined activations of a victim row's
            two physical neighbours, within one window, that flip it.
        window_ops: tREFI proxy measured in ops: the activation ledger
            resets every ``window_ops`` operations (refresh rewrites every
            row, so pressure cannot carry across a boundary).
        num_banks / num_channels / row_blocks: Model geometry for the
            row decode; ``row_blocks`` is 64B blocks per DRAM row.
        max_flips: Planner budget; crossings past it are counted, not
            scheduled (``skipped_budget``).
        targets: Which physical regions may be victimised; crossings whose
            only candidates lie elsewhere count as ``vacuous``.
        include_metadata: Model the induced counter-line and level-0 MT
            fetch of every op in the ledger (the channel that lets data
            aggressors hammer metadata rows).  Disable for unit tests
            that want pure data-row pressure.
    """

    threshold: int = 96
    window_ops: int = 384
    num_banks: int = 2
    num_channels: int = 1
    row_blocks: int = 4
    max_flips: int = 8
    targets: Tuple[str, ...] = HAMMER_TARGETS
    include_metadata: bool = True

    def geometry(self) -> DramModel:
        """A decode-only DRAM model with this config's geometry."""
        return DramModel(
            timings=DramTimings(refresh_interval=0),
            num_banks=self.num_banks,
            num_channels=self.num_channels,
            row_size_bytes=self.row_blocks * 64,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "window_ops": self.window_ops,
            "num_banks": self.num_banks,
            "num_channels": self.num_channels,
            "row_blocks": self.row_blocks,
            "max_flips": self.max_flips,
            "targets": list(self.targets),
            "include_metadata": self.include_metadata,
        }


class PhysicalMap:
    """Block-granular layout of the protected physical space.

    ``[0, num_blocks)`` data blocks, then one block per counter line,
    then the internal MT levels bottom-up (root excluded — it is held
    on-chip).  Gives the planner a bijection between physical block
    addresses and the entities a disturbance error can corrupt.
    """

    def __init__(self, memory: FunctionalSecureMemory) -> None:
        tree = memory.tree
        self.blocks_per_ctr = memory.scheme.blocks_per_ctr
        self.arity = tree.arity
        self.num_blocks = memory.num_blocks
        self.num_lines = tree.num_leaves
        self.ctr_base = self.num_blocks
        self.mt_base = self.ctr_base + self.num_lines
        self.level_bases: List[int] = []
        self.level_sizes: List[int] = []
        cursor = self.mt_base
        for level in range(tree.levels - 1):
            self.level_bases.append(cursor)
            size = tree.level_size(level)
            self.level_sizes.append(size)
            cursor += size
        self.total = cursor

    def data_phys(self, block: int) -> int:
        return block

    def ctr_phys(self, line: int) -> int:
        return self.ctr_base + line

    def mt_phys(self, level: int, index: int) -> int:
        return self.level_bases[level] + index

    def classify(self, phys: int) -> Optional[Tuple]:
        """``("data", block)`` | ``("ctr", line)`` | ``("mt", level, index)``
        | ``None`` for addresses past the mapped space."""
        if phys < 0 or phys >= self.total:
            return None
        if phys < self.ctr_base:
            return ("data", phys)
        if phys < self.mt_base:
            return ("ctr", phys - self.ctr_base)
        for level, (base, size) in enumerate(zip(self.level_bases, self.level_sizes)):
            if phys < base + size:
                return ("mt", level, phys - base)
        return None  # pragma: no cover - unreachable given the total bound


@dataclass(frozen=True)
class HammerFlip:
    """Provenance of one planned disturbance flip."""

    spec: TamperSpec
    window: int
    channel: int
    bank: int
    victim_row: int
    #: Activations of the row-below / row-above neighbours at trigger time.
    low: int
    high: int

    @property
    def pressure(self) -> int:
        return self.low + self.high

    @property
    def pattern(self) -> str:
        """``"double"`` when both neighbours carry real pressure."""
        return "double" if min(self.low, self.high) * 4 >= self.pressure else "single"

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "window": self.window,
            "channel": self.channel,
            "bank": self.bank,
            "victim_row": self.victim_row,
            "low": self.low,
            "high": self.high,
            "pressure": self.pressure,
            "pattern": self.pattern,
        }


@dataclass
class HammerPlan:
    """Outcome of one planning pass over an op trace."""

    config: HammerConfig
    flips: List[HammerFlip] = field(default_factory=list)
    windows: int = 0
    activations: int = 0
    #: Highest victim pressure observed anywhere (also on rows that never
    #: crossed) — the margin benign workloads are judged by.
    max_pressure: int = 0
    #: Threshold crossings whose victim row held nothing detectable.
    vacuous: int = 0
    #: Crossings dropped to keep armed regions pairwise disjoint.
    skipped_overlap: int = 0
    #: Crossings past the ``max_flips`` budget.
    skipped_budget: int = 0

    @property
    def schedule(self) -> List[TamperSpec]:
        return [flip.spec for flip in self.flips]

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "flips": [flip.to_dict() for flip in self.flips],
            "windows": self.windows,
            "activations": self.activations,
            "max_pressure": self.max_pressure,
            "vacuous": self.vacuous,
            "skipped_overlap": self.skipped_overlap,
            "skipped_budget": self.skipped_budget,
        }


def ops_from_trace(trace, num_blocks: int, tag: str = "hammer") -> List[Op]:
    """Convert a workload trace into a functional-memory op list.

    Addresses fold into ``[0, num_blocks)`` (traces based at
    ``HEAP_BASE`` concentrate accordingly — deliberate: the hammer model
    geometry is small).  The first touch of every block becomes a write
    with a deterministic payload, because the functional memory treats a
    read of a never-written block as a caller error.
    """
    arrays = trace.arrays()
    blocks = ((arrays.addresses >> 6) % num_blocks).tolist()
    writes = arrays.is_write.tolist()
    ops: List[Op] = []
    written: Set[int] = set()
    for i, (block, is_write) in enumerate(zip(blocks, writes)):
        if is_write or block not in written:
            written.add(block)
            payload = f"{tag}:{block}:{i}".encode()[:64]
            ops.append(Op(block=block, is_write=True, payload=payload))
        else:
            ops.append(Op(block=block, is_write=False))
    return ops


def _op_phys(op: Op, pmap: PhysicalMap, config: HammerConfig) -> List[int]:
    """Physical block addresses one op touches (data + induced metadata)."""
    line = op.block // pmap.blocks_per_ctr
    phys = [pmap.data_phys(op.block)]
    if config.include_metadata:
        phys.append(pmap.ctr_phys(line))
        if pmap.level_bases:
            phys.append(pmap.mt_phys(0, line // pmap.arity))
    return phys


def plan_hammer(
    ops: Sequence[Op],
    memory: FunctionalSecureMemory,
    config: Optional[HammerConfig] = None,
    seed: int = 0,
) -> HammerPlan:
    """Plan disturbance flips for ``ops`` from the activation ledger.

    ``memory`` supplies only *shape* (scheme geometry, tree structure);
    its state is not consulted, so the instance that will later be
    attacked is safe to pass.

    For every row activation (open-page model: a row-buffer transition in
    the row's bank) the two adjacent rows' combined pressure is checked
    against the threshold.  A crossing selects a victim entity inside the
    victim row — a *written* data block, a counter line with a written
    block, or an MT node with a written leaf below it — so every planned
    flip is detectable, which the harness then asserts it *is detected*.
    Victim rows flip at most once per run; armed regions stay pairwise
    disjoint so each detection is attributable to exactly one flip.
    """
    config = config if config is not None else HammerConfig()
    rng = random.Random(f"cosmos-hammer:{seed}")
    pmap = PhysicalMap(memory)
    geometry = config.geometry()
    tree = memory.tree
    bpc = pmap.blocks_per_ctr

    plan = HammerPlan(config=config)
    #: Current window's activations: (channel, bank) -> {row: count}.
    ledger: Dict[Tuple[int, int], Dict[int, int]] = {}
    open_rows: Dict[Tuple[int, int], int] = {}
    window = 0
    written: Set[int] = set()
    line_first_written: Dict[int, int] = {}
    handled_rows: Set[Tuple[int, int, int]] = set()
    claimed: Set[int] = set()

    def victim_candidates(channel: int, bank: int, row: int) -> List[TamperSpec]:
        candidates: List[TamperSpec] = []
        for column in range(config.row_blocks):
            entity = pmap.classify(geometry.encode(channel, bank, row, column))
            if entity is None:
                continue
            if entity[0] == "data" and "data" in config.targets:
                block = entity[1]
                if block in written:
                    candidates.append(
                        TamperSpec(
                            kind="hammer", inject_at=0, block=block,
                            bit=rng.randrange(_DATA_BITS), target="data",
                        )
                    )
            elif entity[0] == "ctr" and "ctr" in config.targets:
                line = entity[1]
                block = line_first_written.get(line)
                if block is not None:
                    candidates.append(
                        TamperSpec(
                            kind="hammer", inject_at=0, block=block,
                            bit=rng.randrange(_NODE_BITS), target="ctr",
                        )
                    )
            elif entity[0] == "mt" and "mt" in config.targets:
                level, index = entity[1], entity[2]
                first, last = tree.subtree_leaves(level, index)
                block = next(
                    (
                        line_first_written[line]
                        for line in range(first, last)
                        if line in line_first_written
                    ),
                    None,
                )
                if block is not None:
                    candidates.append(
                        TamperSpec(
                            kind="hammer", inject_at=0, block=block,
                            bit=rng.randrange(_NODE_BITS), level=level,
                            target="mt",
                        )
                    )
        return candidates

    # Per-op hot loop.  An op's activated rows depend only on its block, so
    # each block's decoded ``((channel, bank), row)`` list is memoised, and
    # the window ledger is kept per bank as ``row -> activations`` so the
    # neighbour lookups key on plain row numbers.
    window_ops = config.window_ops
    threshold = config.threshold
    next_window_at = window_ops
    decoded: Dict[int, Tuple[Tuple[Tuple[int, int], int], ...]] = {}
    activations = 0
    max_pressure = 0
    for i, op in enumerate(ops):
        block = op.block
        if op.is_write:
            written.add(block)
            line_first_written.setdefault(block // bpc, block)
        if i >= next_window_at:
            window = i // window_ops
            next_window_at = (window + 1) * window_ops
            ledger.clear()
        rows = decoded.get(block)
        if rows is None:
            rows = decoded[block] = tuple(
                ((channel, bank), row)
                for channel, bank, row, _ in map(geometry.decode, _op_phys(op, pmap, config))
            )
        for bank_key, row in rows:
            if open_rows.get(bank_key) == row:
                continue  # row hit: no activation, no disturbance
            open_rows[bank_key] = row
            activations += 1
            counts = ledger.get(bank_key)
            if counts is None:
                counts = ledger[bank_key] = {}
            count = counts.get(row, 0) + 1
            counts[row] = count
            # Only the two neighbours' pressures moved; look at each victim
            # only when one of them reaches the threshold.
            below = counts.get(row - 2, 0) + count if row else 0
            above = count + counts.get(row + 2, 0)
            pressure = above if above > below else below
            if pressure > max_pressure:
                max_pressure = pressure
            if pressure < threshold:
                continue
            for victim_row in (row - 1, row + 1):
                if victim_row < 0:
                    continue
                low = counts.get(victim_row - 1, 0)
                high = counts.get(victim_row + 1, 0)
                if low + high < threshold:
                    continue
                channel, bank = bank_key
                victim_key = (channel, bank, victim_row)
                if victim_key in handled_rows:
                    continue
                handled_rows.add(victim_key)
                candidates = victim_candidates(channel, bank, victim_row)
                if not candidates:
                    plan.vacuous += 1
                    continue
                if len(plan.flips) >= config.max_flips:
                    plan.skipped_budget += 1
                    continue
                spec = replace(rng.choice(candidates), inject_at=i + 1)
                region = affected_blocks(spec, memory)
                if region & claimed:
                    plan.skipped_overlap += 1
                    continue
                claimed.update(region)
                plan.flips.append(
                    HammerFlip(
                        spec=spec, window=window, channel=channel, bank=bank,
                        victim_row=victim_row, low=low, high=high,
                    )
                )
    plan.activations = activations
    plan.max_pressure = max_pressure
    plan.windows = (max(len(ops) - 1, 0)) // config.window_ops + 1 if ops else 0
    return plan


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
def _row_driver(
    pmap: PhysicalMap,
    geometry: DramModel,
    tree,
    channel: int,
    bank: int,
    row: int,
    row_blocks: int,
) -> Optional[int]:
    """A *data block* whose access activates ``(channel, bank, row)``.

    Data rows are driven directly; counter rows through any data block of
    a resident line; level-0 MT rows through a data block under one of
    their nodes.  Deeper MT rows have no driver in the induced-traffic
    model (only the level-0 path node is fetched per op).
    """
    for column in range(row_blocks):
        entity = pmap.classify(geometry.encode(channel, bank, row, column))
        if entity is None:
            continue
        if entity[0] == "data":
            return entity[1]
        if entity[0] == "ctr":
            return entity[1] * pmap.blocks_per_ctr
        if entity[0] == "mt" and entity[1] == 0:
            first, _ = tree.subtree_leaves(0, entity[2])
            return first * pmap.blocks_per_ctr
    return None


def boundary_hammer_ops(
    memory: FunctionalSecureMemory,
    config: Optional[HammerConfig] = None,
    region: str = "ctr",
    seed: int = 0,
) -> List[Op]:
    """Aggressor op stream targeting a victim row inside ``region``.

    Picks the first row of the requested region (``"data"`` | ``"ctr"`` |
    ``"mt"``) whose physical neighbours are both drivable, then
    alternates reads of the two driver blocks so every access re-opens a
    neighbour row in the victim's bank — a double-sided hammer expressed
    purely through (induced) access patterns.  Falls back to single-sided
    hammering against a far dummy row when only one neighbour has a
    driver.  A seeded prologue writes the victim row's entities (the
    benign tenant whose data is at risk) and the driver blocks.
    """
    config = config if config is not None else HammerConfig()
    pmap = PhysicalMap(memory)
    geometry = config.geometry()
    tree = memory.tree
    bpc = pmap.blocks_per_ctr

    if region == "data":
        phys_range = range(0, pmap.ctr_base)
    elif region == "ctr":
        phys_range = range(pmap.ctr_base, pmap.mt_base)
    elif region == "mt":
        phys_range = range(pmap.mt_base, pmap.total)
    else:
        raise ValueError(f"unknown hammer region {region!r}")

    rows: List[Tuple[int, int, int]] = []
    seen_rows: Set[Tuple[int, int, int]] = set()
    for phys in phys_range:
        channel, bank, row, _ = geometry.decode(phys)
        key = (channel, bank, row)
        if key not in seen_rows:
            seen_rows.add(key)
            rows.append(key)

    chosen: Optional[Tuple[Tuple[int, int, int], Optional[int], Optional[int]]] = None
    for key in rows:
        channel, bank, row = key
        low = (
            _row_driver(pmap, geometry, tree, channel, bank, row - 1, config.row_blocks)
            if row > 0 else None
        )
        high = _row_driver(
            pmap, geometry, tree, channel, bank, row + 1, config.row_blocks
        )
        if low is not None and high is not None:
            chosen = (key, low, high)
            break
        if chosen is None and (low is not None or high is not None):
            chosen = (key, low, high)
    if chosen is None:
        raise ValueError(f"no drivable victim row in region {region!r}")

    (channel, bank, victim_row), low_driver, high_driver = chosen
    if low_driver is None or high_driver is None:
        # Single-sided: pair the lone driver with a far dummy data row in
        # the same bank, so each access still re-opens the aggressor row.
        driver = low_driver if low_driver is not None else high_driver
        dummy_row = None
        for offset in range(4, 64):
            for candidate in (victim_row + offset, victim_row - offset):
                if candidate < 0:
                    continue
                block = geometry.encode(channel, bank, candidate, 0)
                if block < pmap.num_blocks:
                    dummy_row = candidate
                    break
            if dummy_row is not None:
                break
        if dummy_row is None:
            raise ValueError(f"no dummy row available beside region {region!r}")
        low_driver, high_driver = driver, geometry.encode(channel, bank, dummy_row, 0)

    # Victim-row residents: the state the disturbance error will corrupt.
    victims: List[int] = []
    for column in range(config.row_blocks):
        entity = pmap.classify(geometry.encode(channel, bank, victim_row, column))
        if entity is None:
            continue
        if entity[0] == "data":
            victims.append(entity[1])
        elif entity[0] == "ctr":
            victims.append(entity[1] * bpc)
        elif entity[0] == "mt":
            first, _ = tree.subtree_leaves(entity[1], entity[2])
            victims.append(first * bpc)
    victims = sorted(set(victims))[:4]

    rng = random.Random(f"cosmos-hammer-boundary:{region}:{seed}")
    ops: List[Op] = []
    for block in dict.fromkeys(victims + [low_driver, high_driver]):
        payload = f"boundary:{region}:{block}:{rng.randrange(1 << 16)}".encode()[:64]
        ops.append(Op(block=block, is_write=True, payload=payload))
    # Ops are frozen, so the alternating body shares its two read ops.
    reads = (Op(block=low_driver, is_write=False), Op(block=high_driver, is_write=False))
    body = 2 * config.threshold + 64
    ops.extend(reads[i % 2] for i in range(body))
    return ops


# ----------------------------------------------------------------------
# Attack driver + seeded sweep
# ----------------------------------------------------------------------
def run_hammer_attack(
    ops: Sequence[Op],
    scheme: str = "monolithic",
    num_blocks: int = 1 << 12,
    config: Optional[HammerConfig] = None,
    seed: int = 0,
    events: Optional[EventRing] = None,
) -> Tuple[HammerPlan, AttackReport]:
    """Plan flips for ``ops`` and run the attack; returns (plan, report)."""
    config = config if config is not None else HammerConfig()
    shape = FunctionalSecureMemory(
        num_blocks=num_blocks, scheme=make_counter_scheme(scheme)
    )
    plan = plan_hammer(ops, shape, config, seed=seed)
    victim = FunctionalSecureMemory(
        num_blocks=num_blocks, scheme=make_counter_scheme(scheme)
    )
    harness = AttackHarness(victim, events=events)
    report = harness.run(ops, plan.schedule)
    return plan, report


#: (name, kind, argument, scheme) — the seeded CI sweep.  Workload
#: scenarios exercise the aggressor generators end to end (data-region
#: flips); boundary scenarios steer induced metadata traffic at counter
#: and MT rows; the benign scenario pins the zero-false-positive floor.
SWEEP_SCENARIOS: Tuple[Tuple[str, str, str, str], ...] = (
    ("single", "workload", "hammer-single", "monolithic"),
    ("double", "workload", "hammer-double", "split"),
    ("many", "workload", "hammer-many", "morphctr"),
    ("mixed", "workload", "hammer-mixed", "monolithic"),
    ("data-boundary", "boundary", "data", "split"),
    ("ctr-boundary", "boundary", "ctr", "monolithic"),
    ("mt-boundary", "boundary", "mt", "monolithic"),
    ("below-threshold", "benign", "zipf", "monolithic"),
)


def _sweep_ops(
    kind: str, argument: str, scheme: str, config: HammerConfig,
    num_blocks: int, seed: int, accesses: int,
) -> List[Op]:
    if kind == "workload":
        from ..workloads.hammer import generate_hammer_trace

        trace = generate_hammer_trace(
            argument, num_cores=2, max_accesses=accesses, seed=seed, start=0,
            row_blocks=config.row_blocks, num_banks=config.num_banks,
            num_channels=config.num_channels,
        )
        return ops_from_trace(trace, num_blocks)
    if kind == "boundary":
        memory = FunctionalSecureMemory(
            num_blocks=num_blocks, scheme=make_counter_scheme(scheme)
        )
        return boundary_hammer_ops(memory, config, region=argument, seed=seed)
    if kind == "benign":
        from ..workloads.micro import zipf_trace

        trace = zipf_trace(
            n=accesses, footprint_blocks=num_blocks, start=0, seed=seed
        )
        return ops_from_trace(trace, num_blocks)
    raise ValueError(f"unknown sweep scenario kind {kind!r}")


def run_hammer_sweep(
    seed: int = 0,
    num_blocks: int = 1 << 12,
    accesses: int = 1200,
    config: Optional[HammerConfig] = None,
) -> Dict[str, object]:
    """Seeded sweep over every scenario; byte-reproducible summary.

    Contract asserted per aggressor scenario: at least one flip planned,
    every flip detected (injected == detected), zero false negatives,
    zero false positives, zero misattributions, detection latency and
    tree level present in the event ring.  The benign scenario must plan
    zero flips and stay silent.  Across the sweep all three targets
    (data, ctr, mt) must be exercised.
    """
    config = config if config is not None else HammerConfig()
    failures: List[str] = []
    scenarios: Dict[str, Dict[str, object]] = {}
    by_target: Dict[str, int] = {}
    by_pattern: Dict[str, int] = {}

    for name, kind, argument, scheme in SWEEP_SCENARIOS:
        ops = _sweep_ops(kind, argument, scheme, config, num_blocks, seed, accesses)
        events = EventRing()
        try:
            plan, report = run_hammer_attack(
                ops, scheme=scheme, num_blocks=num_blocks, config=config,
                seed=seed, events=events,
            )
        except AttackError as exc:
            failures.append(f"{name}: attack error: {exc}")
            scenarios[name] = {"error": str(exc)}
            continue
        detected = events.filter("tamper_detected")
        detail: Dict[str, object] = {
            "scheme": scheme,
            "ops": len(ops),
            "planned": len(plan.flips),
            "injected": len(report.schedule),
            "detected": len(report.detections),
            "false_negatives": len(report.false_negatives),
            "false_positives": len(report.false_positives),
            "misattributions": len(report.misattributions),
            "vacuous": plan.vacuous,
            "skipped_overlap": plan.skipped_overlap,
            "skipped_budget": plan.skipped_budget,
            "max_pressure": plan.max_pressure,
            "windows": plan.windows,
            "targets": _count(flip.spec.target for flip in plan.flips),
            "patterns": _count(flip.pattern for flip in plan.flips),
            "max_latency": max((d.latency for d in report.detections), default=0),
            "levels": sorted(
                {d.level for d in report.detections if d.level is not None}
            ),
            "events": dict(events.counts_by_kind),
        }
        scenarios[name] = detail
        for flip in plan.flips:
            by_target[flip.spec.target] = by_target.get(flip.spec.target, 0) + 1
            by_pattern[flip.pattern] = by_pattern.get(flip.pattern, 0) + 1

        failures.extend(f"{name}: {f}" for f in report.failures())
        if kind == "benign":
            if plan.flips:
                failures.append(
                    f"{name}: benign trace planned {len(plan.flips)} flips "
                    f"(max pressure {plan.max_pressure} vs threshold "
                    f"{config.threshold})"
                )
        else:
            if not plan.flips:
                failures.append(f"{name}: no flips planned")
            if len(report.detections) != len(report.schedule):
                failures.append(
                    f"{name}: {len(report.schedule)} injected, "
                    f"{len(report.detections)} detected"
                )
            if len(detected) != len(report.detections):
                failures.append(f"{name}: detection events missing from ring")
            for event in detected:
                if "latency" not in event:
                    failures.append(f"{name}: detection event without latency")
                    break

    for target in HAMMER_TARGETS:
        if not by_target.get(target):
            failures.append(f"sweep never exercised target {target!r}")

    return {
        "seed": seed,
        "num_blocks": num_blocks,
        "config": config.to_dict(),
        "scenarios": scenarios,
        "by_target": dict(sorted(by_target.items())),
        "by_pattern": dict(sorted(by_pattern.items())),
        "failures": failures,
        "clean": not failures,
    }


def _count(items) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return dict(sorted(counts.items()))
