"""Self-time arithmetic and the binding of tracing wrappers."""

import os
import sys

import pytest

from tracing import Tracer, layer_stats

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")


def test_self_time_of_nested_spans():
    # main [0, 10] holds read [1, 3] and est [3, 9]; est holds spec [4, 6]
    # and a second spec [6, 7]
    spans = [
        ("main", 0.0, 10.0, -1),
        ("read", 1.0, 3.0, 0),
        ("est", 3.0, 9.0, 0),
        ("spec", 4.0, 6.0, 2),
        ("spec", 6.0, 7.0, 2),
    ]
    st = layer_stats(spans)
    assert st["main"] == {"calls": 1, "busy_s": 10.0, "self_s": 2.0}
    assert st["read"] == {"calls": 1, "busy_s": 2.0, "self_s": 2.0}
    assert st["est"] == {"calls": 1, "busy_s": 6.0, "self_s": 3.0}
    assert st["spec"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}
    # self times partition the root span
    assert sum(s["self_s"] for s in st.values()) == pytest.approx(10.0)


def test_self_time_of_sibling_roots():
    st = layer_stats([("a", 0.0, 1.0, -1), ("b", 1.0, 1.5, 0), ("a", 2.0, 4.0, -1)])
    assert st["a"]["busy_s"] == pytest.approx(3.0)
    assert st["a"]["self_s"] == pytest.approx(2.5)


@pytest.fixture
def locpacf_modules():
    sys.path.insert(0, SRC)
    import locpacf.cli  # noqa: F401

    yield sys.modules
    sys.path.remove(SRC)


def test_tracer_wraps_every_binding_and_restores(locpacf_modules):
    import locpacf
    import locpacf.cli as cli
    import locpacf.estimators as est
    import locpacf.simulate as sim

    original = est.wavelet_lpacf
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (locpacf, cli, est, sim):
            assert mod.wavelet_lpacf is not original
            assert mod.wavelet_lpacf.__wrapped__ is original
        tracer.begin_op(0)
        spec = sim.ArPathSpec.linear_ramp([0.5], [-0.5])
        ts = sim.simulate_tvar(spec, 256, 1)
        locpacf.wavelet_lpacf(ts, max_lag=2)
        summary = tracer.end_op()
    finally:
        tracer.uninstall()
    assert est.wavelet_lpacf is original and cli.wavelet_lpacf is original
    layers, counts = summary["layers"], summary["counts"]
    assert layers["simulate.validate_stability"]["calls"] == 1
    assert layers["spectral.smooth_and_correct"]["calls"] == 1
    assert layers["estimators.prediction_system"]["calls"] == 2 * (256 - 2)
    assert counts["estimators.wavelet_lpacf.points"] + counts["estimators.wavelet_lpacf.dropped"] == 256
    assert counts["simulate.simulate_tvar.samples"] == 256
    # spans of one op partition the outermost spans' time
    total_self = sum(v["self_s"] for v in layers.values() if "self_s" in v)
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert total_self == pytest.approx(roots)
