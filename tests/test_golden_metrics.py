"""Golden metrics pinned by value.

Each digest is the SHA-256 of ``json.dumps(result.to_dict(),
sort_keys=True)`` for one design on a seeded Zipf trace at
``small_test_config(1)``.  Any change to the simulated statistics — even
one that would move every input route equally — changes a digest here.
A PR that moves numbers on purpose re-pins them and says so in
CHANGES.md.

``Simulator.run`` takes array-native traces directly and streams plain
iterables of ``MemoryAccess`` (lists, generators) through
``TraceArrays.from_iter``.  Every input form must give a byte-identical
payload, with and without warmup, so pinning the array form's digest pins
them all.
"""

import hashlib
import json

import pytest

from repro.sim.config import small_test_config
from repro.sim.simulator import Simulator, build_design, simulate
from repro.workloads.micro import zipf_trace

GOLDEN_DESIGNS = ["np", "morphctr", "early", "cosmos"]

#: (design, warmup_accesses) -> payload digest.
GOLDEN = {
    ("np", 0): "431b996e9a91459e34993fd85bf65794d0fa5087d57c17f78a893290513e6d2d",
    ("np", 1000): "3c0e581864134d53846449327862856438ad140e6c8ea550b7224a75f58e014b",
    ("morphctr", 0): "9b4b1bedb2e528887b24dc080a761ea585616332b0963f168fe56100c8a92563",
    ("morphctr", 1000): "cf959e568bac2798f996f5429f4d137d31dae31e0ba5ed0b41265c84c6217740",
    ("early", 0): "b990b4545d168f0fe7b9ee046c4a619ba21463dc9aa41fc8f2ec7600d06c50c1",
    ("early", 1000): "245fb4bcaac5111fcbc10d45c7606f34faed8603311a818a0cf6e9ef7593521a",
    ("cosmos", 0): "d2274ba964050796225c1ea8d87f656475d2b52aa6dc4e3d87c6ff52679699e7",
    ("cosmos", 1000): "34ca0cb2472918487a53cf68dba88ada41c4cc1c661aa3fe3e20f176e1ccb41d",
}

#: Digest of the ``[(done, total_latency), ...]`` sequence a
#: ``progress_interval=13`` hook sees on morphctr (461 events).
HOOK_GOLDEN = "f02a6d717600a021ebefe51a34386816ebdb30702f71c1b888cceeb843b8727b"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def trace():
    """A seeded mixed read/write trace with real reuse (Zipf popularity)."""
    return zipf_trace(n=6000, alpha=1.0, write_fraction=0.4, seed=11)


def _inputs(trace):
    """The same accesses as packed arrays, a list and a generator."""
    return {
        "arrays": trace.arrays(),
        "list": list(trace.accesses),
        "generator": (access for access in trace.accesses),
    }


def _payload(design, source, warmup=0):
    config = small_test_config(num_cores=1)
    simulator = Simulator(build_design(design, config), config, "zipf")
    result = simulator.run(source, warmup_accesses=warmup)
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def list_reference(trace):
    """Per-design payloads of the list input, computed once for the module."""
    return {
        design: _payload(design, list(trace.accesses)) for design in GOLDEN_DESIGNS
    }


@pytest.mark.parametrize("warmup", [0, 1000])
@pytest.mark.parametrize("design", GOLDEN_DESIGNS)
def test_payload_matches_pinned_digest(design, warmup, trace):
    payload = _payload(design, trace.arrays(), warmup)
    assert _digest(payload) == GOLDEN[(design, warmup)]


@pytest.mark.parametrize("route", ["arrays", "generator"])
@pytest.mark.parametrize("design", GOLDEN_DESIGNS)
def test_paths_are_byte_identical(design, route, trace, list_reference):
    """Packed arrays and a generator give the list input's payload."""
    payload = _payload(design, _inputs(trace)[route])
    assert payload == list_reference[design]


@pytest.mark.parametrize("design", ["np", "cosmos"])
@pytest.mark.parametrize("warmup", [0, 1000])
def test_paths_agree_under_warmup(design, warmup, trace):
    """Warmup (run, then reset stats mid-trace) must not split the inputs."""
    payloads = {
        form: _payload(design, source, warmup)
        for form, source in _inputs(trace).items()
    }
    assert payloads["arrays"] == payloads["list"]
    assert payloads["generator"] == payloads["list"]


def test_progress_hook_sequence_is_pinned(trace):
    config = small_test_config(num_cores=1)
    events = []

    def hook(done, simulator):
        events.append((done, simulator.total_latency))

    simulator = Simulator(build_design("morphctr", config), config, "zipf")
    simulator.run(trace, progress_hook=hook, progress_interval=13)
    assert len(events) == 6000 // 13
    assert events[0] == (13, 8465)
    assert events[-1] == (5993, 1201660)
    assert _digest(json.dumps(events)) == HOOK_GOLDEN


def test_array_path_actually_processes_every_access(trace):
    config = small_test_config(num_cores=1)
    result = simulate("np", trace, config)
    assert result.accesses == len(trace)
