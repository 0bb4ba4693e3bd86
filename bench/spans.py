"""Spans around the benchmark's calls into kooplift's layers.

The traced run wraps public functions of kooplift's modules at the names
through which other modules (or the benchmark) call them, records one span
per call of a layer-level function, and folds per-step calls (dictionary
Jacobians, polynomial evaluations, factored input matrices, Tikhonov fits)
into per-name aggregates so that tracing them does not swamp the run.
Spans stay in memory and are written out when the run ends.

Wrappers are installed only around traced passes and removed after each,
so untraced passes run the library as it is. A target that no longer
exists is recorded as missing and the metrics derived from it are left
out; it never stops the run.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

# (name, defining module, attribute, modules whose binding is wrapped, per
# step). The binding in the caller's module is what the caller looks up at
# call time, so wrapping it there puts the span at the layer boundary.
# Per-step calls are folded into counts instead of one span each.
FUNCTIONS = (
    ("cli.run_lift", "cli", "run_lift", ("cli",), False),
    ("cli.run_simulate", "cli", "run_simulate", ("cli",), False),
    ("cli.run_edmd", "cli", "run_edmd", ("cli",), False),
    ("cli.run_bounds", "cli", "run_bounds", ("cli",), False),
    ("sim.simulate_nonlinear", "sim", "simulate_nonlinear", ("cli",), False),
    ("sim.simulate_lpv", "sim", "simulate_lpv", ("cli",), False),
    ("sim.simulate_lti", "sim", "simulate_lti", ("cli",), False),
    ("sim.dt_simulate", "sim", "dt_simulate", ("bounds",), False),
    ("lifting.build_lifted_model", "lifting", "build_lifted_model", ("cli",), False),
    ("edmd.build_snapshots", "edmd", "build_snapshots", ("cli",), False),
    # alpha_grid_search calls edmd_tikhonov inside its own module
    ("edmd.edmd_tikhonov", "edmd", "edmd_tikhonov", ("cli", "edmd"), True),
    ("edmd.alpha_grid_search", "edmd", "alpha_grid_search", ("cli",), False),
    ("bounds.build_bound_report", "bounds", "build_bound_report", ("cli",), False),
    ("bounds.beta_grid", "bounds", "beta_grid", ("cli",), False),
    ("bounds.error_trajectory", "bounds", "error_trajectory", ("bounds",), False),
    ("bounds.bounds_curve", "bounds", "bounds_curve", ("bounds",), False),
    ("serialize.write_json", "serialize", "write_json", ("cli",), False),
    ("serialize.write_csv", "serialize", "write_csv", ("cli",), False),
    ("serialize.write_trajectory_csv", "serialize", "write_trajectory_csv", ("cli",), False),
)

# per-step methods, aggregated: (name, module, class, method)
HOT_METHODS = (
    ("dictionaries.jacobian", "dictionaries", "ObservableDictionary", "jacobian"),
    ("dictionaries.evaluate_batch", "dictionaries", "ObservableDictionary", "evaluate_batch"),
    ("polynomials.evaluate", "polynomials", "PolynomialMap", "evaluate"),
    ("polynomials.evaluate_batch", "polynomials", "PolynomialMap", "evaluate_batch"),
)

# B(x, u) is a closure on each lifted model; it is wrapped on the model that
# build_lifted_model returns, which make_lpv then hands on
FACTORED = "lifting.factored_input"


def _arguments(signature, args, kwargs):
    try:
        return signature.bind_partial(*args, **kwargs).arguments
    except TypeError:
        return {}


def _rows(array):
    shape = getattr(array, "shape", None)
    return int(shape[0]) if shape else 0


def _span_attrs(name, signature, args, kwargs, result):
    """Work counts of one layer call, read from its arguments and result."""
    if name in ("sim.simulate_nonlinear", "sim.simulate_lpv", "sim.simulate_lti"):
        bound = _arguments(signature, args, kwargs)
        # the first parameter is the decomposition or model being simulated
        first = next(iter(bound.values()), None)
        return {
            "time_domain": getattr(first, "time_domain", None),
            "steps": max(_rows(bound.get("inputs")) - 1, 0),
        }
    if name == "sim.dt_simulate":
        bound = _arguments(signature, args, kwargs)
        n_steps = bound.get("n_steps")
        if n_steps is None:
            n_steps = max(_rows(bound.get("inputs")) - 1, 0)
        return {"label": bound.get("label"), "steps": int(n_steps)}
    if name == "bounds.beta_grid":
        return {"points": int(getattr(result, "n_points", 0))}
    if name.startswith("serialize."):
        try:
            return {"bytes": int(result.stat().st_size)}
        except (AttributeError, OSError):
            return {"bytes": 0}
    return {}


class Tracer:
    """In-memory span recorder; one trace id per traced pass."""

    def __init__(self, kooplift):
        self._kooplift = kooplift
        self.spans = []
        self.hot = {}
        self.missing = []
        self.passes = 0
        self._stack = []
        self._next_id = 1
        self._patches = []
        self._distinct = {}
        self._keep = []

    # -- recording --------------------------------------------------------

    def _enter(self):
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        return duration, duration - frame[0]

    def span(self, name, fn, signature):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][1] if self._stack else None
            frame = self._enter()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                duration, own = self._exit(frame, start, end)
                self.spans.append(
                    {
                        "trace": self.passes,
                        "id": frame[1],
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "self": own,
                        **_span_attrs(name, signature, args, kwargs, result),
                    }
                )
                if name == "lifting.build_lifted_model" and result is not None:
                    self._wrap_factored(result)

        return wrapper

    def hot_call(self, name, fn, key=None, points=False):
        stats = self.hot.setdefault(
            name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "distinct": 0, "points": 0}
        )
        seen = self._distinct.setdefault(name, set())

        def wrapper(*args, **kwargs):
            # wrapped B(x, u) closures outlive the pass on the models it built
            if not self._patches:
                return fn(*args, **kwargs)
            frame = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration, own = self._exit(frame, start, time.perf_counter())
                stats["calls"] += 1
                stats["seconds"] += duration
                stats["self_seconds"] += own
                if points:
                    stats["points"] += _rows(args[1]) if len(args) > 1 else 0
                if key is not None:
                    k = key(args, kwargs)
                    if k not in seen:
                        seen.add(k)
                        stats["distinct"] += 1

        return wrapper

    def _wrap_factored(self, lifted):
        factored = getattr(lifted, "factored_input", None)
        if factored is None:
            self._note_missing(FACTORED)
            return
        model = id(lifted)
        self._keep.append(lifted)

        def key(args, kwargs):
            x, u = args[0], args[1]
            return (model, np.asarray(x, dtype=float).tobytes(), np.asarray(u, dtype=float).tobytes())

        lifted.factored_input = self.hot_call(FACTORED, factored, key=key)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target for one traced pass."""
        self.passes += 1
        for seen in self._distinct.values():
            seen.clear()
        self._keep.clear()

        def module(short):
            return getattr(self._kooplift, short, None)

        def patch(owner, attr, wrapper):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        for name, home, attr, callers, per_step in FUNCTIONS:
            original = getattr(module(home), attr, None)
            targets = [module(caller) for caller in callers]
            if original is None or any(getattr(t, attr, None) is not original for t in targets):
                self._note_missing(name)
                continue
            if per_step:
                wrapper = self.hot_call(name, original, key=self._fit_key)
            else:
                wrapper = self.span(name, original, inspect.signature(original))
            for target in targets:
                patch(target, attr, wrapper)

        for name, home, cls_name, method in HOT_METHODS:
            cls = getattr(module(home), cls_name, None)
            original = cls.__dict__.get(method) if cls is not None else None
            if not callable(original):
                self._note_missing(name)
                continue
            patch(cls, method, self.hot_call(name, original, points=method == "evaluate_batch"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def _fit_key(self, args, kwargs):
        data = args[0] if args else kwargs.get("data")
        alpha = args[1] if len(args) > 1 else kwargs.get("alpha")
        # holding the snapshot object keeps its id unique within the pass
        self._keep.append(data)
        return (id(data), float(alpha))

    # -- derived metrics --------------------------------------------------

    def metrics(self):
        """Per-layer metrics, each averaged over the traced passes."""
        passes = max(self.passes, 1)
        out = {}

        def spans(name, **match):
            return [
                s for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in match.items())
            ]

        def have(*names):
            return all(n not in self.missing for n in names)

        def per_step(groups):
            seconds = sum(s["end"] - s["start"] for group in groups for s in group)
            steps = sum(s["steps"] for group in groups for s in group)
            return 1e6 * seconds / steps if steps else 0.0

        def total(name):
            return sum(s["end"] - s["start"] for s in spans(name)) / passes

        def hot(name):
            return self.hot.get(name, {"calls": 0, "seconds": 0.0, "distinct": 0, "points": 0})

        def per_call_us(name):
            h = hot(name)
            return 1e6 * h["seconds"] / h["calls"] if h["calls"] else 0.0

        if have("sim.simulate_nonlinear"):
            out["sim.rk4_nonlinear_us_per_step"] = per_step(
                [spans("sim.simulate_nonlinear", time_domain="continuous")]
            )
        if have("sim.simulate_lpv"):
            out["sim.rk4_lpv_us_per_step"] = per_step(
                [spans("sim.simulate_lpv", time_domain="continuous")]
            )
        if have("sim.simulate_lti", "sim.dt_simulate"):
            out["sim.dt_lti_us_per_step"] = per_step(
                [spans("sim.simulate_lti", time_domain="discrete"),
                 spans("sim.dt_simulate", label="approx-lti")]
            )
        if have("sim.simulate_lpv", "sim.dt_simulate"):
            out["sim.dt_lpv_us_per_step"] = per_step(
                [spans("sim.simulate_lpv", time_domain="discrete"),
                 spans("sim.dt_simulate", label="exact-lpv")]
            )
        sim_names = ("sim.simulate_nonlinear", "sim.simulate_lpv", "sim.simulate_lti", "sim.dt_simulate")
        if have(*sim_names):
            out["sim.simulations"] = sum(len(spans(n)) for n in sim_names) / passes
        if have("lifting.build_lifted_model"):
            out["lifting.build_s"] = total("lifting.build_lifted_model")
        if have("lifting.build_lifted_model", FACTORED):
            h = hot(FACTORED)
            out["lifting.factored_input_us"] = per_call_us(FACTORED)
            out["lifting.factored_input_calls"] = h["calls"] / passes
            out["lifting.distinct_factored_ratio"] = h["distinct"] / h["calls"] if h["calls"] else 0.0
        if have("dictionaries.jacobian"):
            out["dictionaries.jacobian_us"] = per_call_us("dictionaries.jacobian")
        if have("dictionaries.evaluate_batch"):
            out["dictionaries.evaluate_batch_s"] = hot("dictionaries.evaluate_batch")["seconds"] / passes
        if have("polynomials.evaluate"):
            out["polynomials.evaluate_us"] = per_call_us("polynomials.evaluate")
        if have("polynomials.evaluate_batch"):
            h = hot("polynomials.evaluate_batch")
            out["polynomials.evaluate_batch_points_per_s"] = h["points"] / h["seconds"] if h["seconds"] else 0.0
        if have("edmd.edmd_tikhonov"):
            h = hot("edmd.edmd_tikhonov")
            out["edmd.tikhonov_fits"] = h["calls"] / passes
            out["edmd.tikhonov_s"] = h["seconds"] / passes
            out["edmd.distinct_fit_ratio"] = h["distinct"] / h["calls"] if h["calls"] else 0.0
        if have("edmd.alpha_grid_search"):
            out["edmd.alpha_search_s"] = total("edmd.alpha_grid_search")
        if have("bounds.error_trajectory"):
            out["bounds.error_trajectory_s"] = total("bounds.error_trajectory")
        if have("bounds.bounds_curve"):
            out["bounds.bounds_curve_s"] = total("bounds.bounds_curve")
        if have("bounds.beta_grid"):
            scans = spans("bounds.beta_grid")
            seconds = sum(s["end"] - s["start"] for s in scans)
            out["bounds.beta_grid_points_per_s"] = (
                sum(s["points"] for s in scans) / seconds if seconds else 0.0
            )
        writers = ("serialize.write_json", "serialize.write_csv", "serialize.write_trajectory_csv")
        if have(*writers):
            out["serialize.write_s"] = sum(total(n) for n in writers)
            out["serialize.bytes_written"] = (
                sum(s["bytes"] for n in writers for s in spans(n)) / passes
            )
        entry_points = ("cli.run_lift", "cli.run_simulate", "cli.run_edmd", "cli.run_bounds")
        if have(*entry_points):
            out["cli.self_s"] = (
                sum(s["self"] for n in entry_points for s in spans(n)) / passes
            )
        return out

    def document(self):
        """Everything recorded, for the run's spans file."""
        return {"passes": self.passes, "missing": self.missing, "hot": self.hot, "spans": self.spans}
