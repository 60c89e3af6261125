"""Tests for the controlled micro-workloads."""

import hashlib

import pytest

from repro.bench.perf import hotpath_trace
from repro.workloads.analysis import characterize
from repro.workloads.micro import (
    phased_trace,
    pointer_chase_trace,
    stream_trace,
    strided_trace,
    uniform_random_trace,
    zipf_trace,
)


class TestStream:
    def test_sequential(self):
        trace = stream_trace(n=100)
        blocks = [access.block_address for access in trace]
        assert blocks == list(range(blocks[0], blocks[0] + 100))

    def test_write_fraction(self):
        trace = stream_trace(n=2000, write_fraction=0.5, seed=1)
        assert 0.4 < trace.write_fraction < 0.6


class TestStrided:
    def test_stride_respected(self):
        trace = strided_trace(n=10, stride_bytes=256)
        deltas = {
            b.address - a.address
            for a, b in zip(trace.accesses, trace.accesses[1:])
        }
        assert deltas == {256}

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError):
            strided_trace(stride_bytes=0)


class TestUniform:
    def test_footprint_bounded(self):
        trace = uniform_random_trace(n=5000, footprint_blocks=64)
        assert trace.footprint_blocks() <= 64

    def test_no_sequentiality(self):
        trace = uniform_random_trace(n=5000, footprint_blocks=1 << 16, seed=2)
        assert characterize(trace.accesses).sequential_fraction < 0.05

    def test_invalid_footprint(self):
        with pytest.raises(ValueError):
            uniform_random_trace(footprint_blocks=0)


class TestZipf:
    def test_alpha_zero_is_flat(self):
        flat = zipf_trace(n=8000, alpha=0.0, seed=3)
        skewed = zipf_trace(n=8000, alpha=1.5, seed=3)
        flat_share = characterize(flat.accesses).top1pct_block_share
        skewed_share = characterize(skewed.accesses).top1pct_block_share
        assert skewed_share > flat_share

    def test_higher_alpha_more_skew(self):
        mild = characterize(zipf_trace(n=8000, alpha=0.8, seed=4).accesses)
        heavy = characterize(zipf_trace(n=8000, alpha=2.0, seed=4).accesses)
        assert heavy.top1pct_block_share > mild.top1pct_block_share

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            zipf_trace(alpha=-1)

    def test_deterministic(self):
        a = zipf_trace(n=500, seed=5)
        b = zipf_trace(n=500, seed=5)
        assert [x.address for x in a] == [x.address for x in b]


class TestPointerChase:
    def test_follows_permutation_cycle(self):
        trace = pointer_chase_trace(n=1000, chain_blocks=64, seed=6)
        # A permutation cycle revisits blocks with a fixed period <= 64.
        blocks = [access.block_address for access in trace]
        assert blocks[0] in blocks[1:65]

    def test_no_spatial_locality(self):
        trace = pointer_chase_trace(n=3000, chain_blocks=1 << 14, seed=7)
        assert characterize(trace.accesses).sequential_fraction < 0.05

    def test_chain_too_short(self):
        with pytest.raises(ValueError):
            pointer_chase_trace(chain_blocks=1)


class TestPhased:
    def test_default_three_phases(self):
        trace = phased_trace(accesses_per_phase=500)
        assert len(trace) == 1500
        assert trace.metadata["phases"] == ["stream", "uniform", "zipf"]

    def test_phases_have_distinct_behaviour(self):
        trace = phased_trace(accesses_per_phase=2000, seed=8)
        first = characterize(trace.accesses[:2000])
        second = characterize(trace.accesses[2000:4000])
        assert first.sequential_fraction > 0.9
        assert second.sequential_fraction < 0.1

    def test_custom_phases(self):
        trace = phased_trace(phases=(stream_trace, stream_trace), accesses_per_phase=100)
        assert len(trace) == 200


def test_predictor_adapts_across_phases():
    """End-to-end: the data predictor rides out a phase change."""
    from repro.sim.config import small_test_config
    from repro.sim.simulator import simulate

    trace = phased_trace(accesses_per_phase=8000, seed=9)
    result = simulate("cosmos-dp", trace.accesses, small_test_config(), workload="phased")
    assert result.extra["prediction_accuracy"] > 0.5


#: SHA-256 of each packed array of ``hotpath_trace`` — the benchmark's
#: ``zipf`` workload, whose cell digests are pinned on top of this trace.
_SINGLE_CORE = "4cbbd9be0cba685835755f827758705db5a413c5494c34262cd25946a73e7582"
HOTPATH_DIGESTS = {
    None: {
        "block_addresses": "4e66f1b2e3979e8b6ea443e76a284783429e4a61dc8a2742a25e61814d036fdd",
        "types": "e79c623ec2ee4837aa8979e58dae97b4c1d69dc0c1c5ee8690837442dd13a0f2",
        "cores": _SINGLE_CORE,
    },
    2026: {
        "block_addresses": "5aa78c64cdb9f8d79effc144cad7cb417ec35a917792b726c9edaf8da823d67c",
        "types": "bab7e8975229f6dfc2ca2748a752541df0489289ab9cf9daaba9b4f99e7d5cf9",
        "cores": _SINGLE_CORE,
    },
}


@pytest.mark.parametrize("seed", [None, 2026], ids=["defaults", "seed2026"])
def test_hotpath_trace_is_pinned_by_value(seed):
    trace = hotpath_trace() if seed is None else hotpath_trace(seed=seed)
    arrays = trace.arrays()
    assert len(arrays) == 100_000
    digests = {
        name: hashlib.sha256(getattr(arrays, name).tobytes()).hexdigest()
        for name in HOTPATH_DIGESTS[seed]
    }
    assert digests == HOTPATH_DIGESTS[seed]
