"""The benchmark's tracer still finds every library name it wraps, and one
pass of every workload passes the benchmark's own checks."""

import importlib.util
from pathlib import Path

import pytest

import kooplift
import kooplift.cli  # noqa: F401 - the tracer wraps names at their cli bindings

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name():
    # a refactor that drops or rebinds a name the benchmark wraps would
    # leave a traced run's metrics silently incomplete
    tracer = _load("spans").Tracer(kooplift)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert kooplift.cli.simulate_lti is kooplift.sim.simulate_lti


@pytest.mark.parametrize("name", ["ct-exact", "dt-degree-sweep", "dt-lift-scale"])
def test_one_workload_pass_passes_its_checks(tmp_path, capsys, name):
    # a change that trips the benchmark's correctness checks fails here, in
    # the suite, and not only in a benchmark run
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name](kooplift, workloads.DEFAULT_SEED, tmp_path)
    assert workload.operations
    failures = {}
    for op in workload.operations:
        found = workload.check(op, op.call())
        if found:
            failures[op.name] = found
    assert failures == {}


def test_traced_operations_record_the_layer_spans(tmp_path):
    # a call moved out of the binding the tracer wraps would zero a
    # per-layer metric without showing up under missing
    workloads = _load("workloads")
    sweep = workloads.WORKLOADS["dt-degree-sweep"](kooplift, workloads.DEFAULT_SEED, tmp_path)
    lift = workloads.WORKLOADS["dt-lift-scale"](kooplift, workloads.DEFAULT_SEED, tmp_path)
    bounds = next(op for op in lift.operations if op.name.startswith("bounds-"))
    tracer = _load("spans").Tracer(kooplift)
    tracer.install()
    try:
        for op in (sweep.operations[0], bounds):
            op.call()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    spans = [(span["name"], span.get("label")) for span in tracer.spans]
    assert ("edmd.alpha_grid_search", None) in spans
    assert ("sim.dt_simulate", "approx-lti") in spans
    metrics = tracer.metrics()
    assert metrics["edmd.alpha_search_s"] > 0
    assert metrics["sim.dt_lti_us_per_step"] > 0
