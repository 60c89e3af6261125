"""Property tests for the DRAM row-activation ledger (RowHammer accounting).

Three laws, checked against a trivial reference model:

* **Monotone within a window** — a row's count never decreases until its
  channel's refresh window rolls over.
* **Reset at tREFI boundaries** — the ledger clears exactly when a
  request lands in a later window, and ``act_window_resets`` counts it.
* **Pure function of the request stream** — replaying the same
  ``(block, is_write, now)`` sequence into a fresh model reproduces the
  ledger and stats byte for byte; and a simulated hammer run leaves the
  pinned DRAM stats and ledger behind, whatever form its trace takes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.dram import DramModel, DramTimings


def _model(refresh_interval=0, num_banks=4, num_channels=2):
    return DramModel(
        timings=DramTimings(refresh_interval=refresh_interval),
        num_banks=num_banks,
        num_channels=num_channels,
        row_size_bytes=256,
    )


_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 12) - 1),  # block address
        st.booleans(),                                      # is_write
        st.integers(min_value=0, max_value=60),             # now increment
    ),
    min_size=1,
    max_size=120,
)


def _reference_counts(model, stream):
    """Independent open-page reference: activations per (ch, bank, row),
    windowed per channel by ``now // refresh_interval``."""
    interval = model.timings.refresh_interval
    open_rows = {}
    windows = {}
    counts = {}
    resets = 0
    max_count = 0
    for block, _, now in stream:
        channel, bank, row, _ = model.decode(block)
        if interval > 0:
            window = now // interval
            if window != windows.get(channel, 0):
                windows[channel] = window
                channel_keys = [k for k in counts if k[0] == channel]
                if channel_keys:
                    resets += 1
                    for key in channel_keys:
                        del counts[key]
        if open_rows.get((channel, bank)) != row:
            open_rows[(channel, bank)] = row
            key = (channel, bank, row)
            counts[key] = counts.get(key, 0) + 1
            max_count = max(max_count, counts[key])
    return counts, resets, max_count


@settings(max_examples=40, deadline=None)
@given(stream=_requests)
def test_ledger_matches_reference_without_refresh(stream):
    model = _model(refresh_interval=0)
    now = 0
    for block, is_write, step in stream:
        now += step
        model.request(block, is_write, now=now)
    expected, resets, max_count = _reference_counts(
        model, [(b, w, 0) for b, w, _ in stream]
    )
    assert model.activation_counts() == expected
    assert model.stats.act_window_resets == resets == 0
    assert model.stats.max_row_activations == max_count
    assert model.stats.activations == sum(expected.values())


@settings(max_examples=40, deadline=None)
@given(stream=_requests, interval=st.sampled_from([64, 256, 1024]))
def test_ledger_resets_at_window_boundaries(stream, interval):
    model = _model(refresh_interval=interval)
    now = 0
    timed = []
    for block, is_write, step in stream:
        now += step
        timed.append((block, is_write, now))
        model.request(block, is_write, now=now)
    expected, resets, max_count = _reference_counts(model, timed)
    assert model.activation_counts() == expected
    assert model.stats.act_window_resets == resets
    assert model.stats.max_row_activations == max_count
    # Total activations (row misses) are never lost to a reset.
    assert model.stats.activations >= sum(expected.values())


@settings(max_examples=40, deadline=None)
@given(stream=_requests)
def test_ledger_is_monotone_within_a_window(stream):
    model = _model(refresh_interval=0)
    seen = {}
    now = 0
    for block, is_write, step in stream:
        now += step
        model.request(block, is_write, now=now)
        counts = model.activation_counts()
        for key, count in seen.items():
            assert counts.get(key, 0) >= count, f"count of {key} decreased"
        seen = counts


@settings(max_examples=25, deadline=None)
@given(stream=_requests, interval=st.sampled_from([0, 128]))
def test_ledger_is_pure_function_of_stream(stream, interval):
    first = _model(refresh_interval=interval)
    second = _model(refresh_interval=interval)
    now = 0
    for block, is_write, step in stream:
        now += step
        first.request(block, is_write, now=now)
        second.request(block, is_write, now=now)
    assert first.activation_counts() == second.activation_counts()
    assert first.stats.as_dict() == second.stats.as_dict()


def test_ledger_survives_reset_stats_but_not_reset():
    model = _model(refresh_interval=0)
    for block in (0, 64, 0, 64):
        model.request(block, now=0)
    assert model.activation_counts()
    model.reset_stats()
    # Counter state is *timing* state: reset_stats only zeroes metrics.
    assert model.activation_counts()
    assert model.stats.max_row_activations == 0
    model.reset()
    assert model.activation_counts() == {}


def test_dram_stats_dict_exposes_ledger_metrics():
    model = _model()
    model.request(0, now=0)
    payload = model.stats.as_dict()
    for key in ("activations", "act_window_resets", "max_row_activations"):
        assert key in payload


#: DRAM stats and activation ledger of cosmos on a two-core double-sided
#: hammer trace at ``small_test_config(2)``, pinned by value.
_HAMMER_DRAM_STATS = {
    "reads": 41, "writes": 0, "row_hits": 10, "row_misses": 31,
    "row_hit_rate": 0.24390243902439024, "read_cycles": 28751,
    "write_cycles": 0, "busy_cycles": 28751, "queue_cycles": 24200,
    "refresh_stalls": 0, "turnarounds": 0, "background_requests": 0,
    "activations": 31, "act_window_resets": 0, "max_row_activations": 2,
    "per_channel": {"0": 41}, "per_channel_busy": {"0": 328},
}
_HAMMER_LEDGER = {
    (0, 0, 131136): 2, (0, 0, 133120): 1, (0, 0, 148512): 2,
    (0, 0, 149008): 2, (0, 0, 149256): 2, (0, 0, 149380): 2,
    (0, 0, 149442): 2, (0, 0, 149473): 2, (0, 0, 149503): 2,
    (0, 1, 149502): 1, (0, 2, 149500): 1, (0, 3, 8192): 1,
    (0, 4, 8192): 2, (0, 4, 149496): 2, (0, 8, 149488): 2,
    (0, 8, 149503): 2, (0, 12, 149503): 1, (0, 14, 149503): 1,
    (0, 15, 149503): 1,
}


def test_dram_stats_and_ledger_pinned_by_value():
    """A simulated run leaves exactly the pinned DRAM stats and ledger.

    The trace goes in as packed arrays, a list and a generator; all three
    issue the same request sequence.
    """
    from repro.sim.config import small_test_config
    from repro.sim.simulator import Simulator, build_design
    from repro.workloads.hammer import generate_hammer_trace

    trace = generate_hammer_trace("hammer-double", num_cores=2, max_accesses=1500)
    config = small_test_config(num_cores=2)
    for source in (trace.arrays(), list(trace.accesses), iter(trace.accesses)):
        design = build_design("cosmos", config)
        Simulator(design, config, "hammer-double").run(source)
        assert design.engine.dram.stats.as_dict() == _HAMMER_DRAM_STATS
        assert design.engine.dram.activation_counts() == _HAMMER_LEDGER
