"""The benchmark's tracer still finds every library name it wraps."""

import importlib.util
from pathlib import Path

import kooplift
import kooplift.cli  # noqa: F401 - the tracer wraps names at their cli bindings

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name():
    # a refactor that drops or rebinds a name the benchmark wraps would
    # leave a traced run's metrics silently incomplete
    tracer = _load_spans().Tracer(kooplift)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert kooplift.cli.simulate_lti is kooplift.sim.simulate_lti
