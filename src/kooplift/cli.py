"""Command-line front end: experiment configs, reproductions, CSV/JSON output.

Subcommands
-----------
lift        build the lifted + LPV models and write model.json
simulate    simulate nonlinear / exact-LPV / fitted-LTI models, write
            trajectory CSVs and errors.json
edmd        data-driven fits; optional dictionary-degree sweep (sweep.csv)
bounds      error-bound report for a constant-input-matrix fit (bounds.csv)
reproduce   run a named preset experiment

Configuration is a JSON file; common fields can be overridden by flags.
Every resolved default is echoed into the output metadata so runs are
self-describing. Exit codes: 0 ok, 2 config error, 3 numeric divergence,
4 span violation.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from math import comb
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .bounds import MAX_GRID_POINTS, beta_grid, build_bound_report
from .dictionaries import ObservableDictionary, monomial_dictionary, parse_dictionary
from .edmd import (
    alpha_grid_search,
    build_snapshots,
    default_alpha_grid,
    edmd_tikhonov,
    edmdc_input_fit,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InvariantSubspaceViolation,
    KoopliftError,
)
from .examples import SystemBundle, builtin_system
from .lifting import DEFAULT_SPAN_TOLERANCE, build_lifted_model
from .lpv import make_lti, output_matrix
from .polynomials import Monomial, PolynomialMap
from .quadrature import QuadratureSpec
from .serialize import write_csv, write_json, write_trajectory_csv
from .sim import (
    DEFAULT_DIVERGENCE_LIMIT,
    SignalSpec,
    build_inputs,
    error_metrics,
    record_input_matrices,
    simulate_lpv,
    simulate_lti,
    simulate_lti_stack,
    simulate_nonlinear,
)
from .systems import CONTINUOUS, DISCRETE, DomainBox, control_affine_decomposition

DEFAULT_SEED = 715


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def load_config(path: Optional[str], overrides: dict) -> dict:
    cfg: dict = {}
    if path:
        try:
            cfg = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def resolve_system(cfg: dict) -> SystemBundle:
    spec = cfg.get("system")
    if spec is None:
        raise ConfigError("config needs a 'system' entry")
    if isinstance(spec, str):
        try:
            return builtin_system(spec)
        except KeyError as exc:
            raise ConfigError(str(exc))
    if not isinstance(spec, dict):
        raise ConfigError("'system' must be a name or an inline system object")
    try:
        time_domain = spec["time_domain"]
        n_x = _integer(spec["n_x"], "inline system 'n_x'", 1)
        f = PolynomialMap.from_terms(n_x, spec["f"])
        columns = [
            PolynomialMap.from_terms(n_x, col) for col in spec["input_columns"]
        ]
        lo, hi = spec.get("state_box", [[-2.0] * n_x, [2.0] * n_x])
        ulo, uhi = spec.get("input_box", [[-1.0] * len(columns), [1.0] * len(columns)])
        state_box, input_box = DomainBox(lo, hi), DomainBox(ulo, uhi)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid inline system: {exc}")
    if time_domain not in (CONTINUOUS, DISCRETE):
        raise ConfigError(f"invalid time_domain {time_domain!r}")
    decomposition = control_affine_decomposition(
        f, columns, time_domain, name=spec.get("name", "inline-system")
    )
    dictionary = monomial_dictionary(n_x, _config_integer(spec, "default_degree", 2, 1))
    return SystemBundle(
        name=spec.get("name", "inline-system"),
        time_domain=time_domain,
        decomposition=decomposition,
        dictionary=dictionary,
        state_box=state_box,
        input_box=input_box,
        coefficients={},
    )


def resolve_dictionary(cfg: dict, bundle: SystemBundle) -> ObservableDictionary:
    """The configured dictionary; it must hold every state coordinate itself,
    since each command recovers the state as x = C z."""
    spec = cfg.get("dictionary")
    if spec is None:
        return bundle.dictionary
    dictionary = _parse_dictionary_spec(spec, bundle.n_x)
    if dictionary.state_selector is None:
        raise ConfigError(
            f"dictionary {spec!r} must contain x1 .. x{bundle.n_x} as observables "
            "to recover the state from the lifted vector"
        )
    return dictionary


def _parse_dictionary_spec(spec, n_x: int) -> ObservableDictionary:
    try:
        if isinstance(spec, str):
            return parse_dictionary(spec, n_x)
        if isinstance(spec, dict):
            if "degree" in spec:
                include_constant = spec.get("include_constant", False)
                if not isinstance(include_constant, bool):
                    raise ConfigError(
                        "dictionary 'include_constant' must be true or false, "
                        f"got {include_constant!r}"
                    )
                return monomial_dictionary(
                    n_x, _config_integer(spec, "degree", None, 1), include_constant
                )
            if "monomials" in spec:
                if isinstance(spec["monomials"], str):
                    return parse_dictionary(spec["monomials"], n_x)
                return ObservableDictionary(
                    n_x, [Monomial(e) for e in spec["monomials"]]
                )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid dictionary specification {spec!r}: {exc}")
    raise ConfigError(f"cannot interpret dictionary specification {spec!r}")


def resolve_signals(cfg: dict, bundle: SystemBundle) -> List[SignalSpec]:
    raw = cfg.get("signals")
    if raw is None:
        raise ConfigError("config needs a 'signals' entry (one per input channel)")
    if isinstance(raw, dict):
        raw = [dict(raw) for _ in range(bundle.n_u)]
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ConfigError(
            f"'signals' must be one signal object or a list of them, got {raw!r}"
        )
    if len(raw) != bundle.n_u:
        raise ConfigError(
            f"system has {bundle.n_u} input channels but {len(raw)} signals given"
        )
    seed = resolve_seed(cfg)
    specs = []
    for channel, entry in enumerate(raw):
        entry = dict(entry)
        kind = entry.get("kind")
        if kind == "white_noise" and "seed" not in entry:
            entry["seed"] = (seed, channel)
        elif "seed" in entry and isinstance(entry["seed"], list):
            entry["seed"] = tuple(entry["seed"])
        try:
            specs.append(SignalSpec(**entry))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid signal for channel {channel}: {exc}")
    return specs


def resolve_horizon(cfg: dict, bundle: SystemBundle) -> Tuple[int, float]:
    """Returns (n_steps, ts); ts is 1.0 in discrete time."""
    if bundle.time_domain == CONTINUOUS:
        ts = _config_real(cfg, "ts", None, positive=True)
        seconds = _config_real(cfg, "horizon_seconds", None, positive=True)
        n_steps = int(round(seconds / ts))
        if abs(n_steps * ts - seconds) > 1e-9 * seconds:
            raise ConfigError(
                f"'horizon_seconds' {seconds:g} is not a whole number of "
                f"steps of 'ts' {ts:g}"
            )
        return n_steps, ts
    return _config_integer(cfg, "horizon_steps", 100, 1), 1.0


def resolve_x0(cfg: dict, bundle: SystemBundle) -> np.ndarray:
    x0 = cfg.get("x0", [1.0] * bundle.n_x)
    try:
        x0 = np.asarray(x0, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid x0 {x0!r}: {exc}")
    if x0.shape != (bundle.n_x,):
        raise ConfigError(
            f"x0 must have {bundle.n_x} entries, got shape {x0.shape}"
        )
    return x0


def resolve_divergence_limit(cfg: dict) -> float:
    """The divergence limit, a positive finite number."""
    return _config_real(cfg, "divergence_limit", DEFAULT_DIVERGENCE_LIMIT, positive=True)


def resolve_seed(cfg: dict) -> int:
    """The signals' master seed, a non-negative integer."""
    return _config_integer(cfg, "seed", DEFAULT_SEED, 0)


def resolve_lift(cfg: dict) -> Tuple[QuadratureSpec, float]:
    """The lift's quadrature and span tolerance."""
    nodes = _config_integer(cfg, "quad_nodes", 16, 1)
    tolerance = _config_real(
        cfg, "span_tolerance", DEFAULT_SPAN_TOLERANCE, positive=False
    )
    return QuadratureSpec(nodes), tolerance


def _config_integer(cfg: dict, key: str, default, low: int) -> int:
    """``cfg[key]``, an integer of at least ``low``."""
    return _integer(cfg.get(key, default), repr(key), low)


def _integer(value, name: str, low: int) -> int:
    """``value``, an integer of at least ``low``; ``name`` labels the error."""
    if (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= low
    ):
        return int(value)
    raise ConfigError(f"{name} must be an integer of at least {low}, got {value!r}")


def _config_real(cfg: dict, key: str, default, positive: bool) -> float:
    """``cfg[key]``, a finite real number, positive or non-negative."""
    value = cfg.get(key, default)
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and (0 < value if positive else 0 <= value)
        and value <= sys.float_info.max
    ):
        return float(value)
    kind = "positive" if positive else "non-negative"
    raise ConfigError(f"{key!r} must be a {kind} number, got {value!r}")


def _echo_config(cfg: dict, bundle: SystemBundle, specs, n_steps, ts) -> dict:
    quad, span_tolerance = resolve_lift(cfg)
    return {
        "system": bundle.name,
        "time_domain": bundle.time_domain,
        "n_steps": n_steps,
        "ts": ts,
        "seed": resolve_seed(cfg),
        "x0": [float(v) for v in resolve_x0(cfg, bundle)],
        "signals": [s.to_document() for s in specs],
        "quad_nodes": quad.nodes,
        "span_tolerance": span_tolerance,
        "divergence_limit": resolve_divergence_limit(cfg),
    }


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _lift(cfg: dict, bundle: SystemBundle, dictionary: ObservableDictionary):
    """The lifted (LPV) model for a resolved system and dictionary."""
    quad, span_tolerance = resolve_lift(cfg)
    return build_lifted_model(
        bundle.decomposition, dictionary, quad=quad, span_tolerance=span_tolerance
    )


def run_lift(cfg: dict, out_dir: Optional[str] = None) -> dict:
    bundle = resolve_system(cfg)
    dictionary = resolve_dictionary(cfg, bundle)
    lifted = _lift(cfg, bundle, dictionary)
    print(f"lifted model for {bundle.name!r} ({lifted.time_domain})")
    print(f"  dictionary: {dictionary.n_f} observables, span residual {lifted.residual:.3e}")
    for row in lifted.A:
        print("  A | " + "  ".join(f"{v: .17g}" for v in row))
    result = {"lifted": lifted, "lpv": lifted}
    if out_dir:
        path = write_json(
            Path(out_dir) / "model.json",
            {"lifted": lifted.to_document(), "lpv": lifted.lpv_document()},
        )
        print(f"  wrote {path}")
        result["model_path"] = path
    return result


def _fit_names(cfg: dict) -> List[dict]:
    fits = cfg.get("fits", [])
    parsed = []
    for entry in fits:
        if isinstance(entry, str):
            parsed.append({"kind": entry})
        elif isinstance(entry, dict) and "kind" in entry:
            parsed.append(dict(entry))
        else:
            raise ConfigError(f"cannot interpret fit specification {entry!r}")
    for fit in parsed:
        if fit["kind"] not in ("edmdc", "edmd_full", "edmd_tikhonov"):
            raise ConfigError(f"unknown fit kind {fit['kind']!r}")
        if fit.get("alpha", "search") != "search":
            _config_real(fit, "alpha", None, positive=False)
    return parsed


def run_simulate(cfg: dict, out_dir: Optional[str] = None) -> dict:
    bundle = resolve_system(cfg)
    dictionary = resolve_dictionary(cfg, bundle)
    specs = resolve_signals(cfg, bundle)
    n_steps, ts = resolve_horizon(cfg, bundle)
    x0 = resolve_x0(cfg, bundle)
    limit = resolve_divergence_limit(cfg)
    fits = _fit_names(cfg)
    if fits and bundle.time_domain != DISCRETE:
        raise ConfigError(
            "constant-matrix fits work on shifted snapshots and need a "
            "discrete-time system"
        )

    inputs = build_inputs(specs, ts, n_steps)
    lifted = _lift(cfg, bundle, dictionary)

    sim_ts = ts if bundle.time_domain == CONTINUOUS else None
    nonlinear = simulate_nonlinear(
        bundle.decomposition, x0, inputs, ts=sim_ts, divergence_limit=limit
    )
    # a discrete-time run keeps its B(x_k, u_k) for run_bounds' error
    # recurrence; a continuous-time run evaluates B at RK4 stages, which no
    # bound reads
    model, input_matrices = lifted, None
    if bundle.time_domain == DISCRETE:
        model, input_matrices = record_input_matrices(lifted)
    lpv_lifted, lpv_output = simulate_lpv(
        model, x0=x0, inputs=inputs, ts=sim_ts, divergence_limit=limit
    )

    trajectories = {"nonlinear": nonlinear, "koopman_lpv": lpv_output}
    reports = {"koopman_lpv": error_metrics(nonlinear, lpv_output)}

    z0 = dictionary.evaluate(x0)
    C = lifted.C
    fitted = {}
    for fit in fits:
        label, lti = _fit_lti(
            fit, nonlinear, dictionary, lifted, C, bundle, x0, inputs, limit
        )
        fitted[label] = lti
        try:
            _, lti_output = simulate_lti(
                lti, z0, inputs, ts=sim_ts, divergence_limit=limit
            )
            lti_output.label = f"{label}_output"
            trajectories[label] = lti_output
            reports[label] = error_metrics(nonlinear, lti_output)
        except DivergenceError as exc:
            print(f"  {label}: diverged at step {exc.step}")
            reports[label] = None

    meta = _echo_config(cfg, bundle, specs, n_steps, ts)
    for label, report in reports.items():
        if report is None:
            continue
        for i in range(bundle.n_x):
            print(
                f"  {label}: state {i + 1}  l2 {report.l2[i]:.6e}  "
                f"linf {report.linf[i]:.6e}"
            )
    if out_dir:
        out = Path(out_dir)
        for label, traj in trajectories.items():
            write_trajectory_csv(out / f"traj_{label}.csv", traj)
        doc = {
            "config": meta,
            "models": [
                {"label": label, **report.to_document()}
                for label, report in reports.items()
                if report is not None
            ],
            "diverged": [label for label, rep in reports.items() if rep is None],
        }
        write_json(out / "errors.json", doc)
    return {
        "bundle": bundle,
        "dictionary": dictionary,
        "lifted": lifted,
        "lpv": lifted,
        "lpv_lifted": lpv_lifted,
        "input_matrices": input_matrices,
        "trajectories": trajectories,
        "reports": reports,
        "fitted": fitted,
        "inputs": inputs,
        "meta": meta,
    }


def _fit_lti(fit, nonlinear, dictionary, lifted, C, bundle, x0, inputs, limit):
    data = build_snapshots(nonlinear, dictionary)
    kind = fit["kind"]
    if kind == "edmdc":
        B_hat, _ = edmdc_input_fit(data, lifted.A)
        return "koopman_lti_edmdc", make_lti(
            lifted.A, B_hat, C, time_domain=bundle.time_domain, name="lti-edmdc"
        )
    if kind == "edmd_full":
        A_hat, B_hat = edmd_tikhonov(data, 0.0)
        return "koopman_lti_edmd", make_lti(
            A_hat, B_hat, C, time_domain=bundle.time_domain, name="lti-edmd"
        )
    # edmd_tikhonov
    alpha = fit.get("alpha", "search")
    if alpha == "search":
        objective = _alpha_objective(
            nonlinear, C, dictionary.evaluate(x0), inputs, limit, {}
        )
        alpha = alpha_grid_search(data, default_alpha_grid(), objective).best_alpha
    A_hat, B_hat = edmd_tikhonov(data, float(alpha))
    return "koopman_lti_tikhonov", make_lti(
        A_hat, B_hat, C, time_domain=bundle.time_domain, name="lti-tikhonov"
    )


def _alpha_objective(nonlinear, C, z0, inputs, limit, reports):
    """Batched alpha-search objective: summed l2 output errors of the
    discrete-time LTI models simulated from the stacked fits (As, Bs).

    One call simulates its candidates together (``simulate_lti_stack``),
    recording only the lifted coordinates that C reads. Each candidate's
    per-state l2 errors are recorded in ``reports`` under its alpha, or None
    when its simulation diverged (cost inf), so callers can reuse the
    simulation instead of repeating it.
    """
    read = np.flatnonzero(np.any(C, axis=0))
    C_read = C[:, read]

    def objective(alphas, As, Bs):
        states, diverged_at = simulate_lti_stack(
            As, Bs, z0, inputs, divergence_limit=limit, record=read
        )
        eps = nonlinear.states - states @ C_read.T
        l2s = np.sqrt(np.sum(eps * eps, axis=1))
        costs = []
        for alpha, l2, step in zip(alphas, l2s, diverged_at):
            reports[alpha] = None if step else l2
            costs.append(np.inf if step else float(np.sum(l2)))
        return costs

    return objective


def run_edmd(cfg: dict, out_dir: Optional[str] = None) -> dict:
    bundle = resolve_system(cfg)
    if bundle.time_domain != DISCRETE:
        raise ConfigError("the edmd command operates on discrete-time systems")
    sweep = resolve_sweep(cfg)
    base = run_simulate({**cfg, "fits": cfg.get("fits", ["edmdc"])}, out_dir=None)
    nonlinear = base["trajectories"]["nonlinear"]
    inputs = base["inputs"]
    x0 = resolve_x0(cfg, bundle)
    limit = resolve_divergence_limit(cfg)

    result = {"base": base, "sweep_rows": [], "baseline_rows": []}
    if sweep:
        lo, hi, alpha_search = sweep
        rows, baselines = _degree_sweep(
            bundle, base, nonlinear, inputs, x0, lo, hi, alpha_search, limit
        )
        result["sweep_rows"] = rows
        result["baseline_rows"] = baselines
        if out_dir:
            out = Path(out_dir)
            write_csv(
                out / "sweep.csv",
                ["degree", "alpha", "l2_e1", "l2_e2", "diverged"],
                rows,
            )
            write_csv(
                out / "sweep_baselines.csv",
                ["method", "degree", "alpha", "l2_e1", "l2_e2", "diverged"],
                baselines,
            )
    if out_dir:
        out = Path(out_dir)
        doc = {"config": base["meta"], "fits": {}}
        for label, lti in base["fitted"].items():
            doc["fits"][label] = lti.to_document()
        write_json(out / "fits.json", doc)
        for label, traj in base["trajectories"].items():
            write_trajectory_csv(out / f"traj_{label}.csv", traj)
    return result


def resolve_sweep(cfg: dict) -> Optional[Tuple[int, int, bool]]:
    """The sweep's lowest and highest degree and whether it searches alpha,
    or None without a sweep; checked before anything runs."""
    sweep = cfg.get("sweep")
    if sweep is None:
        return None
    if not isinstance(sweep, dict):
        raise ConfigError(f"'sweep' must be an object, got {sweep!r}")
    if not sweep:
        return None
    degrees = sweep.get("degrees", [2, 20])
    if not isinstance(degrees, list) or len(degrees) not in (1, 2):
        raise ConfigError(
            f"sweep 'degrees' must be [lowest, highest] or [degree], got {degrees!r}"
        )
    lo = _integer(degrees[0], "the sweep's lowest degree", 1)
    hi = _integer(degrees[-1], "the sweep's highest degree", lo)
    alpha_search = sweep.get("alpha_search", True)
    if not isinstance(alpha_search, bool):
        raise ConfigError(f"sweep 'alpha_search' must be true or false, got {alpha_search!r}")
    return lo, hi, alpha_search


def _degree_sweep(bundle, base, nonlinear, inputs, x0, lo, hi, alpha_search, limit):
    # monomial_dictionary is graded and lifts each entry on its own, so the
    # snapshots, C and z0 of degree d are the leading rows of degree hi's
    top = monomial_dictionary(bundle.n_x, hi)
    snapshots = build_snapshots(nonlinear, top)
    C_top, z0_top = output_matrix(top), top.evaluate(x0)
    rows = []
    for degree in range(lo, hi + 1):
        n_f = comb(bundle.n_x + degree, degree) - 1
        data = snapshots.leading(n_f)
        reports = {}
        objective = _alpha_objective(
            nonlinear, C_top[:, :n_f], z0_top[:n_f], inputs, limit, reports
        )
        best_alpha = None
        if alpha_search:
            # the default grid starts at alpha = 0, which fills that row too
            try:
                search = alpha_grid_search(data, default_alpha_grid(), objective)
                best_alpha = search.best_alpha
            except DivergenceError:
                pass  # the objective has recorded every candidate as None
        else:
            A, B = edmd_tikhonov(data, 0.0)
            objective([0.0], A[None], B[None])
        rows.append(_sweep_row(degree, 0.0, reports[0.0]))
        if alpha_search:
            if best_alpha is None:
                rows.append(_sweep_row(degree, float("nan"), None))
            else:
                rows.append(_sweep_row(degree, best_alpha, reports[best_alpha]))
    baselines = []
    base_degree = max(sum(o.exponents) for o in bundle.dictionary.observables)
    lpv_report = base["reports"]["koopman_lpv"]
    baselines.append(
        ["exact_lpv", base_degree, 0.0, lpv_report.l2[0], lpv_report.l2[1], 0]
    )
    edmdc_report = base["reports"].get("koopman_lti_edmdc")
    if edmdc_report is not None:
        baselines.append(
            ["edmdc_exact_A", base_degree, 0.0, edmdc_report.l2[0], edmdc_report.l2[1], 0]
        )
    return rows, baselines


def _sweep_row(degree, alpha, l2):
    if l2 is None:
        return [degree, alpha, float("inf"), float("inf"), 1]
    return [degree, alpha, float(l2[0]), float(l2[1]), 0]


def resolve_bounds(
    cfg: dict, bundle: SystemBundle
) -> Tuple[str, int, Optional[DomainBox], Optional[DomainBox]]:
    """The bounds mode, grid density and the grid's state and input boxes
    (None: the run's envelope), checked before anything runs."""
    bounds_cfg = cfg.get("bounds", {}) or {}
    if not isinstance(bounds_cfg, dict):
        raise ConfigError(f"'bounds' must be an object, got {bounds_cfg!r}")
    mode = bounds_cfg.get("mode", "trajectory")
    if mode not in ("trajectory", "grid"):
        raise ConfigError(f"unknown bounds mode {mode!r}; known: 'trajectory', 'grid'")
    density = bounds_cfg.get("grid_density", 101)
    if mode == "grid":
        if isinstance(density, bool) or not isinstance(density, int) or density < 1:
            raise ConfigError(f"'grid_density' must be a positive integer, got {density!r}")
        dims = bundle.n_x + bundle.n_u
        if density**dims > MAX_GRID_POINTS:
            raise ConfigError(
                f"a grid of density {density} over {dims} dimensions has "
                f"{density}^{dims} points, more than the {MAX_GRID_POINTS} allowed"
            )
        state_box = _box_from_cfg(bounds_cfg, "state_box", bundle.n_x)
        input_box = _box_from_cfg(bounds_cfg, "input_box", bundle.n_u)
        return mode, density, state_box, input_box
    return mode, density, None, None


def _box_from_cfg(bounds_cfg: dict, key: str, dim: int) -> Optional[DomainBox]:
    entry = bounds_cfg.get(key)
    if entry is None:
        return None
    try:
        lower, upper = entry
        box = DomainBox(lower, upper)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bounds {key} {entry!r}: {exc}")
    if box.lower.shape != (dim,):
        raise ConfigError(f"bounds {key} {entry!r} must have {dim} coordinates")
    return box


def run_bounds(cfg: dict, out_dir: Optional[str] = None) -> dict:
    bundle = resolve_system(cfg)
    if bundle.time_domain != DISCRETE:
        raise ConfigError("error bounds are formulated for discrete-time systems")
    mode, density, state_box, input_box = resolve_bounds(cfg, bundle)
    limit = resolve_divergence_limit(cfg)
    base = run_simulate({**cfg, "fits": ["edmdc"]}, out_dir=None)
    lifted = base["lifted"]
    lti = base["fitted"]["koopman_lti_edmdc"]
    inputs = base["inputs"]

    beta_scan = None
    if mode == "grid":
        if state_box is None:
            state_box = DomainBox.from_envelope(
                base["trajectories"]["nonlinear"].states
            )
        if input_box is None:
            input_box = DomainBox.from_envelope(inputs)
        beta_scan = beta_grid(lifted, lti.B, state_box, input_box, density)

    # the bounds follow run_simulate's exact run instead of simulating it again
    report = build_bound_report(
        lifted,
        lti,
        base["lpv_lifted"],
        base["input_matrices"],
        beta_scan=beta_scan,
        divergence_limit=limit,
    )
    print(
        f"  rho(A) {report.rho:.6g}  sigma_max(A) {report.sigma:.6g}  "
        f"beta {report.beta:.6g} ({report.beta_mode})"
    )
    if report.absolute_bound is None:
        print("  absolute bound: not applicable (sigma_max(A) >= 1)")
    else:
        print(f"  absolute bound {report.absolute_bound:.6g}")
    print(f"  bound valid on this run: {report.valid()}")
    if out_dir:
        out = Path(out_dir)
        write_json(out / "bounds.json", report.to_document(meta=base["meta"]))
        write_csv(out / "bounds.csv", ["k", "error_norm", "tv_bound"], report.csv_rows())
    return {"report": report, "base": base}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _ct_base(seed=DEFAULT_SEED) -> dict:
    return {
        "system": "ct-example",
        "ts": 1e-4,
        "horizon_seconds": 25.0,
        "x0": [1.0, 1.0],
        "seed": seed,
    }


def _dt_base(seed=DEFAULT_SEED) -> dict:
    return {
        "system": "dt-example",
        "horizon_steps": 100,
        "x0": [1.0, 1.0],
        "seed": seed,
    }


_CT_WHITE = {"kind": "white_noise", "variance": 0.1}
_DT_WHITE = {"kind": "white_noise", "variance": 0.5}
# per-sinusoid amplitudes are free choices: the continuous-time value keeps
# the exponential input coupling from destabilising the 25 s run, the
# discrete-time value is calibrated so the constant-input-matrix error
# magnitude lands in the regime reported for this benchmark
_CT_MULTISINE_AMPLITUDE = 1.0 / 6.0
_DT_MULTISINE_AMPLITUDE = 0.5
_CT_MULTISINE = [
    {
        "kind": "multisine",
        "n_freq": 6,
        "f_low": 0.1,
        "f_high": 1.0,
        "amplitude": _CT_MULTISINE_AMPLITUDE,
    },
    {
        "kind": "multisine",
        "n_freq": 6,
        "f_low": 1.0,
        "f_high": 10.0,
        "amplitude": _CT_MULTISINE_AMPLITUDE,
    },
]
_DT_MULTISINE = [
    {
        "kind": "multisine",
        "n_freq": 6,
        "f_low": 0.01,
        "f_high": 0.1,
        "amplitude": _DT_MULTISINE_AMPLITUDE,
    }
]


def preset_runs(name: str) -> List[Tuple[str, str, dict]]:
    """Expands a preset into (label, command, config) runs."""
    if name == "ct-example-whitenoise":
        return [("run", "simulate", {**_ct_base(), "signals": [_CT_WHITE, _CT_WHITE]})]
    if name == "ct-example-multisine":
        return [("run", "simulate", {**_ct_base(), "signals": _CT_MULTISINE})]
    if name == "dt-example-whitenoise":
        return [("run", "simulate", {**_dt_base(), "signals": [_DT_WHITE]})]
    if name == "dt-example-multisine":
        return [("run", "simulate", {**_dt_base(), "signals": _DT_MULTISINE})]
    if name == "dt-constB":
        return [
            (
                "whitenoise",
                "simulate",
                {**_dt_base(), "signals": [_DT_WHITE], "fits": ["edmdc"]},
            ),
            (
                "multisine",
                "simulate",
                {**_dt_base(), "signals": _DT_MULTISINE, "fits": ["edmdc"]},
            ),
        ]
    if name == "bounds":
        return [
            ("whitenoise", "bounds", {**_dt_base(), "signals": [_DT_WHITE]}),
            ("multisine", "bounds", {**_dt_base(), "signals": _DT_MULTISINE}),
        ]
    if name == "degree-sweep":
        sweep = {"degrees": [2, 20], "alpha_search": True}
        return [
            (
                "whitenoise",
                "edmd",
                {**_dt_base(), "signals": [_DT_WHITE], "sweep": sweep},
            ),
            (
                "multisine",
                "edmd",
                {**_dt_base(), "signals": _DT_MULTISINE, "sweep": sweep},
            ),
        ]
    raise ConfigError(
        f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}"
    )


PRESET_NAMES = (
    "ct-example-whitenoise",
    "ct-example-multisine",
    "dt-example-whitenoise",
    "dt-example-multisine",
    "dt-constB",
    "bounds",
    "degree-sweep",
)

_COMMANDS = {
    "simulate": run_simulate,
    "edmd": run_edmd,
    "bounds": run_bounds,
    "lift": run_lift,
}


def run_reproduce(name: str, out_dir: Optional[str], overrides: dict) -> dict:
    runs = preset_runs(name)
    results = {}
    for label, command, cfg in runs:
        cfg = dict(cfg)
        for key, value in overrides.items():
            if value is not None:
                cfg[key] = value
        target = None
        if out_dir:
            target = str(Path(out_dir) / label) if len(runs) > 1 else out_dir
        print(f"[{name}] {label} ({command})")
        results[label] = _COMMANDS[command](cfg, out_dir=target)
    return results


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="JSON experiment configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--system", help="built-in system name")
    parser.add_argument("--dict", dest="dictionary", help="dictionary, e.g. 'x1,x2,x1^2' or a degree")
    parser.add_argument("--seed", type=int, help="master seed for signal generation")
    parser.add_argument("--ts", type=float, help="integration step (continuous time)")
    parser.add_argument("--horizon-seconds", type=float, help="simulation length in seconds")
    parser.add_argument("--horizon-steps", type=int, help="simulation length in steps")


def _overrides(args) -> dict:
    dictionary = args.dictionary
    if dictionary is not None and dictionary.isdigit():
        dictionary = {"degree": int(dictionary)}
    return {
        "system": args.system,
        "dictionary": dictionary,
        "seed": args.seed,
        "ts": args.ts,
        "horizon_seconds": args.horizon_seconds,
        "horizon_steps": args.horizon_steps,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kooplift",
        description="exact lifted models of nonlinear systems with inputs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("lift", "build the lifted and LPV models"),
        ("simulate", "simulate nonlinear and lifted models"),
        ("edmd", "data-driven fits and dictionary sweeps"),
        ("bounds", "error bounds for a constant-input-matrix fit"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("reproduce", help="run a named preset experiment")
    p.add_argument("preset", choices=PRESET_NAMES)
    _add_common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            run_reproduce(args.preset, args.out, _overrides(args))
        else:
            cfg = load_config(args.config, _overrides(args))
            _COMMANDS[args.command](cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3
    except InvariantSubspaceViolation as exc:
        print(f"span violation: {exc}", file=sys.stderr)
        return 4
    except KoopliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
