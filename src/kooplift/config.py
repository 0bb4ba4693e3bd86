"""Experiment configuration: one table of keys, each with its rule and default.

A row is ``key: (rule, default)``. A rule takes the value, the key's quoted
name and the values resolved so far, this level's first, so the rows after
``system`` read its bundle. A default is a resolved value or a function of
the values resolved so far. README.md lists the same keys.
"""

from __future__ import annotations

import json
import numbers
import sys
from collections import ChainMap
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import MAX_GRID_POINTS
from .dictionaries import Monomial, ObservableDictionary, monomial_dictionary, parse_dictionary
from .errors import ConfigError
from .examples import SystemBundle, builtin_system
from .lifting import DEFAULT_SPAN_TOLERANCE
from .polynomials import PolynomialMap
from .sim import DEFAULT_DIVERGENCE_LIMIT, SIGNAL_FIELDS, SignalSpec
from .systems import CONTINUOUS, DISCRETE, DomainBox, control_affine_decomposition

DEFAULT_SEED = 715
# the most steps a run may take: its arrays are allocated up front, and the
# 25 s continuous-time presets take 250,000
MAX_STEPS = 10_000_000
REQUIRED = object()


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


def resolve_config(cfg: dict) -> dict:
    """Every key of ``cfg`` checked and every default filled in, plus the
    run's ``n_steps`` and step ``ts`` (1.0 in discrete time; no step count
    in continuous time without ``ts`` and ``horizon_seconds``)."""
    c = _walk(cfg, TOP, "", {})
    ts, seconds = c["ts"], c["horizon_seconds"]
    if c["system"].time_domain == DISCRETE:
        _refuse_unread(cfg, ("ts", "horizon_seconds"), "a discrete-time system reads 'horizon_steps'")
        c["n_steps"], c["ts"] = c["horizon_steps"], 1.0
        return c
    _refuse_unread(cfg, ("horizon_steps",), "a continuous-time system reads 'ts' and 'horizon_seconds'")
    c["n_steps"] = None
    if ts is not None and seconds is not None:
        n_steps = seconds / ts
        if not (n_steps <= MAX_STEPS and abs(round(n_steps) * ts - seconds) <= 1e-9 * seconds):
            raise ConfigError(
                f"'horizon_seconds' {seconds:g} must be a whole number of at most "
                f"{MAX_STEPS} steps of 'ts' {ts:g}"
            )
        c["n_steps"] = round(n_steps)
    return c


def _refuse_unread(raw: dict, keys, reads: str) -> None:
    """A horizon key of the other time domain would be dropped unread."""
    for key in keys:
        if key in raw:
            raise ConfigError(f"{key!r} is not read: {reads}")


def _walk(raw: dict, table: dict, prefix: str, outer) -> dict:
    """The level ``raw`` resolved by ``table``; ``outer`` holds the values
    resolved at the enclosing levels."""
    unknown = [str(key) for key in raw if key not in table]
    if unknown:
        from difflib import get_close_matches

        hints = []
        for key in unknown:
            near = get_close_matches(key, list(table), 1)
            hint = repr(prefix + near[0]) if near else "one of " + ", ".join(table)
            hints.append(f"{prefix + key!r} (did you mean {hint}?)")
        raise ConfigError("unknown config key " + ", ".join(hints))
    here: dict = {}
    scope = ChainMap(here, outer)
    for key, (rule, default) in table.items():
        name = repr(prefix + key)
        if key in raw:
            here[key] = rule(raw[key], name, scope)
        elif default is REQUIRED:
            raise ConfigError(f"config needs {name}")
        else:
            here[key] = default(scope) if callable(default) else default
    return here


def _rule(test, what, convert=None):
    """A rule that passes a value for which ``test`` holds, converted."""

    def rule(value, name, scope=None):
        if test(value):
            return convert(value) if convert else value
        raise ConfigError(f"{name} must be {what}, got {value!r}")

    return rule


def _is_real(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _integer(low, high=sys.maxsize):
    limit = f"of at least {low}" if high == sys.maxsize else f"from {low} to {high}"
    return _rule(
        lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and low <= v <= high,
        "an integer " + limit,
        int,
    )


def _one_of(*choices):
    return _rule(lambda v: isinstance(v, str) and v in choices, f"one of {choices}")


_bool = _rule(lambda v: isinstance(v, bool), "true or false")
_list = _rule(lambda v: isinstance(v, list), "a list")
_finite = _rule(_is_real, "a finite number", float)
_positive = _rule(lambda v: _is_real(v) and v > 0, "a positive number", float)
_non_negative = _rule(lambda v: _is_real(v) and v >= 0, "a non-negative number", float)


def _box(dim, half_width=None):
    """The row of a ``[lower, upper]`` box of ``dim(scope)`` finite
    coordinates; its default spans ``half_width`` about 0 in each, if given."""

    def rule(value, name, scope):
        try:
            box = DomainBox(*value)
            if box.lower.shape == (dim(scope),) and np.isfinite([box.lower, box.upper]).all():
                return box
        except (TypeError, ValueError):
            pass
        raise ConfigError(
            f"{name} must be [lower, upper], two lists of {dim(scope)} finite numbers "
            f"with lower <= upper, got {value!r}"
        )

    if half_width is None:
        return rule, None
    return rule, lambda s: DomainBox([-half_width] * dim(s), [half_width] * dim(s))


def _object(table):
    def rule(value, name, scope):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        return _walk(value, table, name.strip("'") + ".", scope)

    return rule


def _system(value, name, scope):
    if isinstance(value, str):
        try:
            return builtin_system(value)
        except KeyError as exc:
            raise ConfigError(str(exc))
    s = _object(SYSTEM)(value, name, scope)
    try:
        f = PolynomialMap.from_terms(s["n_x"], s["f"])
        columns = [PolynomialMap.from_terms(s["n_x"], c) for c in s["input_columns"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid 'system.f' or 'system.input_columns': {exc}")
    return SystemBundle(
        name=s["name"],
        time_domain=s["time_domain"],
        decomposition=control_affine_decomposition(
            f, columns, s["time_domain"], name=s["name"]
        ),
        dictionary=monomial_dictionary(s["n_x"], s["default_degree"]),
        state_box=s["state_box"],
        input_box=s["input_box"],
    )


def _dictionary(value, name, scope):
    """The dictionary; it must hold every state coordinate itself, since each
    command recovers the state as x = C z."""
    n_x = scope["system"].n_x
    spec = {"monomials": value} if isinstance(value, str) else value
    d = _object(DICTIONARY)(spec, name, scope)
    dictionary = d["monomials"]
    if (d["degree"] is None) == (dictionary is None) or (
        dictionary is not None and "include_constant" in spec
    ):
        raise ConfigError(
            "a dictionary object takes 'dictionary.degree' (and "
            f"'dictionary.include_constant') or 'dictionary.monomials', got {value!r}"
        )
    if dictionary is None:
        dictionary = monomial_dictionary(n_x, d["degree"], d["include_constant"])
    if dictionary.state_selector is None:
        raise ConfigError(
            f"dictionary {value!r} must contain x1 .. x{n_x} as observables "
            "to recover the state from the lifted vector"
        )
    return dictionary


def _monomials(value, name, scope):
    n_x = scope["system"].n_x
    try:
        if isinstance(value, str):
            return parse_dictionary(value, n_x)
        return ObservableDictionary(n_x, [Monomial(e) for e in value])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid dictionary specification {value!r}: {exc}")


def _signals(value, name, scope):
    n_u = scope["system"].n_u
    entries = [value] * n_u if isinstance(value, dict) else value
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{name} must be one signal object or a list of them, got {value!r}")
    if len(entries) != n_u:
        raise ConfigError(f"system has {n_u} input channels but {len(entries)} signals given")
    specs = []
    for channel, entry in enumerate(entries):
        entry = dict(entry)
        kind = entry.get("kind")
        if kind in SIGNAL_FIELDS:
            extra = [key for key in entry if key != "kind" and key not in SIGNAL_FIELDS[kind]]
            if extra:
                takes = ", ".join(map(repr, SIGNAL_FIELDS[kind])) or "no other field"
                raise ConfigError(
                    f"invalid signal for channel {channel}: a {kind!r} signal takes "
                    f"{takes}, not {', '.join(map(repr, extra))}"
                )
        if kind == "white_noise" and "seed" not in entry:
            entry["seed"] = (scope["seed"], channel)
        elif isinstance(entry.get("seed"), list):
            entry["seed"] = tuple(entry["seed"])
        try:
            specs.append(SignalSpec(**entry))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid signal for channel {channel}: {exc}")
    return specs


def _x0(value, name, scope):
    n_x = scope["system"].n_x
    if not isinstance(value, list) or len(value) != n_x:
        raise ConfigError(f"{name} must be a list of {n_x} numbers, got {value!r}")
    return np.array([_finite(v, f"an entry of {name}") for v in value])


def _fits(value, name, scope):
    """The fits, at most one of each kind: a fit's kind names its outputs."""
    if _list(value, name) and scope["system"].time_domain != DISCRETE:
        raise ConfigError(f"{name} work on shifted snapshots and need a discrete-time system")
    fits = []
    for i, raw in enumerate(value):
        raw = {"kind": raw} if isinstance(raw, str) else raw
        fit = _object(FIT)(raw, f"'fits[{i}]'", scope)
        if "alpha" in raw and fit["kind"] != "edmd_tikhonov":
            raise ConfigError(
                f"'fits[{i}].alpha' is read by an edmd_tikhonov fit only, not {fit['kind']!r}"
            )
        if any(f["kind"] == fit["kind"] for f in fits):
            raise ConfigError(
                f"'fits[{i}]' repeats the kind {fit['kind']!r}: a run fits each kind once"
            )
        fits.append(fit)
    return fits


def _degrees(value, name, scope):
    if not isinstance(value, list) or len(value) not in (1, 2):
        raise ConfigError(f"{name} must be [lowest, highest] or [degree], got {value!r}")
    lowest = _integer(1)(value[0], "the sweep's lowest degree")
    return lowest, _integer(lowest)(value[-1], "the sweep's highest degree")


def _bounds(value, name, scope):
    bounds = _object(BOUNDS)(value, name, scope)
    dims = scope["system"].n_x + scope["system"].n_u
    density = bounds["grid_density"]
    if bounds["mode"] == "grid" and density**dims > MAX_GRID_POINTS:
        raise ConfigError(
            f"a grid of density {density} over {dims} dimensions has "
            f"{density}^{dims} points, more than the {MAX_GRID_POINTS} allowed"
        )
    return bounds


SYSTEM = {
    "time_domain": (_one_of(CONTINUOUS, DISCRETE), REQUIRED),
    "n_x": (_integer(1), REQUIRED),
    # one list of terms per state row; the system rule reads them
    "f": (_list, REQUIRED),
    "input_columns": (_list, REQUIRED),
    "state_box": _box(lambda s: s["n_x"], 2.0),
    "input_box": _box(lambda s: len(s["input_columns"]), 1.0),
    "name": (_rule(lambda v: isinstance(v, str), "a string"), "inline-system"),
    "default_degree": (_integer(1), 2),
}
DICTIONARY = {
    "degree": (_integer(1), None),
    "include_constant": (_bool, False),
    "monomials": (_monomials, None),
}
FIT = {
    "kind": (_one_of("edmdc", "edmd_full", "edmd_tikhonov"), REQUIRED),
    "alpha": (lambda v, name, s: v if v == "search" else _non_negative(v, name), "search"),
}
SWEEP = {
    "degrees": (_degrees, (2, 20)),
    "alpha_search": (_bool, True),
}
BOUNDS = {
    "mode": (_one_of("trajectory", "grid"), "trajectory"),
    "grid_density": (_integer(1), 101),
    "state_box": _box(lambda s: s["system"].n_x),
    "input_box": _box(lambda s: s["system"].n_u),
}
TOP = {
    "system": (_system, REQUIRED),
    "dictionary": (_dictionary, lambda s: s["system"].dictionary),
    "seed": (_integer(0), DEFAULT_SEED),
    "signals": (_signals, None),
    "x0": (_x0, lambda s: np.ones(s["system"].n_x)),
    "ts": (_positive, None),
    "horizon_seconds": (_positive, None),
    "horizon_steps": (_integer(1, MAX_STEPS), 100),
    "span_tolerance": (_non_negative, DEFAULT_SPAN_TOLERANCE),
    "divergence_limit": (_positive, DEFAULT_DIVERGENCE_LIMIT),
    "fits": (_fits, []),
    "sweep": (_object(SWEEP), None),
    "bounds": (_bounds, lambda s: _walk({}, BOUNDS, "bounds.", s)),
}
