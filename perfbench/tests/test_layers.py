"""Hooks fail loudly, self times exclude other layers, and the peak replay
counts only the call's own memory."""
import pytest

import layers
from tripmatch import live, pipeline


def test_missing_wrapped_name_fails_at_install(monkeypatch):
    monkeypatch.delattr(live, "score_vehicle")
    with pytest.raises(layers.HookError, match="score_vehicle"):
        layers.install(layers.Tracer())
    assert not hasattr(live.PositionIndex.__init__, "__wrapped__")


def test_hook_that_never_fired_fails_the_check():
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        assert pipeline.run_all.__wrapped__ is not None
        with pytest.raises(layers.HookError, match="never fired"):
            layers.check_fired(tracer)
    finally:
        layers.uninstall(patches)
    assert not hasattr(pipeline.run_all, "__wrapped__")


def test_install_reaches_names_imported_by_other_modules():
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        assert pipeline.match_live is live.match_live
        assert hasattr(pipeline.match_live, "__wrapped__")
    finally:
        layers.uninstall(patches)


def test_layer_self_time_excludes_only_other_layers():
    tracer = layers.Tracer()
    tracer.spans = [
        ["static.match", 0.0, 10.0, -1, 1],
        ["planner.plan", 1.0, 4.0, 0, 1],
        ["static.filter_plan", 5.0, 9.0, 0, 1],
        ["static.route_check", 6.0, 8.0, 2, 1],
    ]
    assert layers.layer_self_times(tracer) == [7.0, 3.0, 4.0, 2.0]
    assert layers.layer_shares(tracer, 10.0) == {"planner": 0.3, "static": 0.7}


def test_peak_replay_counts_the_calls_own_allocations():
    class Builder:
        def __init__(self, mb):
            scratch = bytearray(mb * 2**20)
            self.kept = bytes(len(scratch) // 4)

    tracer = layers.Tracer()
    hook = layers.Hook("planner.build", "x:Builder.__init__", peak=True)
    Builder.__init__ = tracer.wrap(hook, Builder.__init__)
    Builder(8)
    layers.measure_peaks(tracer)
    assert 9.9 < tracer.counters["planner.build.rss_mb"] < 10.5
