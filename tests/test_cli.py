"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kooplift
from kooplift import cli
from kooplift.bounds import MAX_GRID_POINTS
from kooplift.cli import (
    main,
    preset_runs,
    run_edmd,
    run_lift,
    run_reproduce,
    run_simulate,
)
from kooplift import config, edmd
from kooplift.config import resolve_config
from kooplift.dictionaries import monomial_dictionary
from kooplift.edmd import (
    AlphaSearchResult,
    alpha_grid_search,
    build_snapshots,
    default_alpha_grid,
    edmd_tikhonov,
)
from kooplift.errors import ConfigError, DivergenceError
from kooplift.lpv import lti_step, make_lti, output_matrix
from kooplift.sim import dt_simulate, error_metrics, simulate_lti


INLINE_1D = {
    "time_domain": "discrete",
    "n_x": 1,
    "f": [[{"exponents": [1], "coeff": 0.5}]],
    "input_columns": [[[{"exponents": [0], "coeff": 1.0}]]],
}


def _source_env() -> dict:
    """The environment with the imported kooplift's source tree first on
    PYTHONPATH, for a child interpreter."""
    src = str(Path(kooplift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


DT_CFG = {
    "system": "dt-example",
    "horizon_steps": 50,
    "seed": 7,
    "signals": [{"kind": "white_noise", "variance": 0.5}],
}


def _fit_tolerance(data, alpha, n_steps):
    """Relative tolerance between two roundings of one Tikhonov fit's
    simulation: n_steps * eps times the fit's conditioning s_max * max(f),
    f the filter s / (s^2 + alpha)."""
    s = data.tikhonov_svd()[1]
    kappa = s[0] * edmd._filters(data, np.array([alpha]))[0].max()
    return n_steps * np.finfo(float).eps * max(1.0, kappa)


def _l2_gap(l2, reference, states):
    """Largest gap between per-state l2 errors and the reference's,
    relative to ``reference + ||x_i||``: outputs off by a relative ``tol``
    move each l2 by at most ``tol`` times that. A scalar ``l2`` is a search
    cost, summed over the states, and is held to the reference's sum."""
    reference = np.asarray(reference, dtype=float)
    scale = reference + np.sqrt(np.sum(states * states, axis=0))
    if np.ndim(l2) == 0:
        return abs(l2 - reference.sum()) / scale.sum()
    return float(np.max(np.abs(np.asarray(l2) - reference) / scale))


def _assert_l2_close(l2, reference, states, tol):
    assert _l2_gap(l2, reference, states) <= tol, (l2, reference, tol)


def _extended_run(data, alpha, C, z0, inputs):
    """(largest |z_k|, outputs) of the fit of ``alpha`` simulated in
    np.longdouble: a reference for both float64 roundings of it."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble carries no extra precision here")
    U_Y, _, W = (np.asarray(M, dtype=np.longdouble) for M in data.tikhonov_svd())
    f = edmd._filters(data, np.array([alpha]))[0].astype(np.longdouble)
    fit = (W * f) @ U_Y.T
    A, B = fit[:, : data.n_f], fit[:, data.n_f :]
    z, largest, outputs = np.asarray(z0, dtype=np.longdouble), 0.0, [C @ z0]
    for u in np.asarray(inputs[:-1], dtype=np.longdouble):
        z = A @ z + B @ u
        largest = max(largest, float(np.max(np.abs(z))))
        outputs.append(C @ z)
    return largest, np.array(outputs)


def _assert_matches_the_fit(l2, explicit_l2, data, alpha, C, z0, inputs, states):
    """The search's per-state l2 errors (or cost) for ``alpha`` against
    those of its explicit fit's run, within :func:`_fit_tolerance`. Where
    the explicit run is further off than that (an unstable fit grows the
    rounding of its products), both are held to a np.longdouble run of the
    fit instead: the search's errors within the tolerance, the explicit
    run's further off."""
    tol = _fit_tolerance(data, alpha, len(inputs) - 1)
    if _l2_gap(l2, explicit_l2, states) <= tol:
        return
    _, outputs = _extended_run(data, alpha, C, z0, inputs)
    eps = states - outputs
    extended_l2 = np.sqrt(np.sum(eps * eps, axis=0)).astype(float)
    _assert_l2_close(l2, extended_l2, states, tol)
    assert _l2_gap(explicit_l2, extended_l2, states) > _l2_gap(l2, extended_l2, states)


# the changes that move DT_CFG to ct-example, with a zero signal on both
# channels; a row adds the horizon, and DT_CFG's horizon_steps is dropped
CT_ZERO = {"system": "ct-example", "signals": {"kind": "zero"}}


class TestLift:
    def test_ct_example_matrix(self, capsys):
        assert main(["lift", "--system", "ct-example", "--dict", "x1,x2,x1^2"]) == 0
        out = capsys.readouterr().out
        assert "residual 0.000e+00" in out
        assert "-0.05" in out and "-1" in out

    def test_dt_example_matrix_written(self, tmp_path):
        assert main(["lift", "--system", "dt-example", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        A = np.array(doc["lifted"]["A"])
        np.testing.assert_array_equal(
            A, [[0.7, 0, 0], [0, 0.7, -0.5], [0, 0, 0.7 * 0.7]]
        )
        assert doc["lifted"]["residual"] == 0.0
        assert doc["lpv"]["scheduling"] == "stack-zu"

    def test_identity_dictionary_on_linear_system(self, tmp_path):
        cfg = {
            "system": {
                "time_domain": "discrete",
                "n_x": 2,
                "name": "linear",
                "f": [
                    [{"exponents": [1, 0], "coeff": 0.5}, {"exponents": [0, 1], "coeff": 0.25}],
                    [{"exponents": [0, 1], "coeff": -0.5}],
                ],
                # one column per input channel, one term list per state row
                "input_columns": [
                    [[{"exponents": [0, 0], "coeff": 1.0}], []],
                ],
            },
            "dictionary": {"degree": 1},
        }
        path = _write_config(tmp_path, cfg)
        assert main(["lift", "--config", path, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        np.testing.assert_array_equal(
            np.array(doc["lifted"]["A"]), [[0.5, 0.25], [0.0, -0.5]]
        )

    def test_dictionary_as_exponent_lists(self, tmp_path):
        cfg = {
            "system": "dt-example",
            "dictionary": {"monomials": [[1, 0], [0, 1], [2, 0]]},
        }
        path = _write_config(tmp_path, cfg)
        assert main(["lift", "--config", path, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["lifted"]["residual"] == 0.0

    def test_span_violation_exit_code(self):
        assert main(["lift", "--system", "dt-example", "--dict", "x1,x2"]) == 4

    def test_variable_out_of_range_is_config_error(self):
        assert main(["lift", "--system", "dt-example", "--dict", "x3"]) == 2

    def test_negative_exponent_text_is_config_error(self):
        assert main(["lift", "--system", "dt-example", "--dict", "x1^-1"]) == 2

    def test_negative_exponent_list_is_config_error(self, tmp_path):
        cfg = {
            "system": "dt-example",
            "dictionary": {"monomials": [[1, 0], [0, 1], [-1, 0]]},
        }
        path = _write_config(tmp_path, cfg)
        assert main(["lift", "--config", path]) == 2

    @pytest.mark.parametrize("command", ["lift", "simulate"])
    def test_dictionary_without_state_observables_is_config_error(
        self, tmp_path, command, capsys
    ):
        # the span holds, but without x1 no C recovers the state from z
        path = _write_config(tmp_path, dict(DT_CFG, dictionary="x1^2,x2,x1^4"))
        assert main([command, "--config", path]) == 2
        assert "x1 .. x2" in capsys.readouterr().err


class TestSimulate:
    def test_outputs_written(self, tmp_path):
        path = _write_config(tmp_path, DT_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert (out / "traj_nonlinear.csv").exists()
        assert (out / "traj_koopman_lpv.csv").exists()
        errors = json.loads((out / "errors.json").read_text())
        labels = {entry["label"] for entry in errors["models"]}
        assert "koopman_lpv" in labels
        assert errors["config"]["seed"] == 7

    def test_trajectory_csv_roundtrips_states(self, tmp_path):
        cfg = dict(DT_CFG, horizon_steps=20)
        result = run_simulate(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "traj_nonlinear.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,u1"
        states = result["trajectories"]["nonlinear"].states
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert float(cells[1]) == states[k, 0]
            assert float(cells[2]) == states[k, 1]

    def test_same_seed_byte_identical(self, tmp_path):
        path = _write_config(tmp_path, DT_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        for name in ("traj_nonlinear.csv", "traj_koopman_lpv.csv", "errors.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_input_first_state_error_zero(self, tmp_path):
        cfg = dict(DT_CFG, signals=[{"kind": "zero"}])
        result = run_simulate(cfg)
        report = result["reports"]["koopman_lpv"]
        assert report.l2[0] == 0.0 and report.linf[0] == 0.0

    def test_divergence_exit_code(self, tmp_path):
        cfg = {
            "system": {
                "time_domain": "discrete",
                "n_x": 1,
                "name": "unstable",
                "f": [[{"exponents": [1], "coeff": 2.0}]],
                "input_columns": [[[{"exponents": [0], "coeff": 1.0}]]],
            },
            "dictionary": {"degree": 1},
            "horizon_steps": 60,
            "x0": [1.0],
            "signals": [{"kind": "zero"}],
        }
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 3

    def test_config_error_exit_code(self, tmp_path):
        path = _write_config(tmp_path, {"system": "dt-example"})
        assert main(["simulate", "--config", path]) == 2
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "limit",
        ["lots", "1e12", -1, 0, True, None, float("nan"), float("inf"),
         pytest.param(10**400, id="int-1e400")],
    )
    def test_bad_divergence_limit_is_config_error(self, tmp_path, limit):
        # -1 and 0 used to run and exit 3 at step 1, "lots" was a traceback
        with pytest.raises(ConfigError):
            resolve_config(dict(DT_CFG, divergence_limit=limit))
        path = _write_config(tmp_path, dict(DT_CFG, divergence_limit=limit))
        for command in ("simulate", "edmd", "bounds"):
            assert main([command, "--config", path]) == 2

    def test_divergence_limit_echoed_as_float(self, tmp_path):
        path = _write_config(tmp_path, dict(DT_CFG, divergence_limit=10**13))
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "errors.json").read_text())
        assert doc["config"]["divergence_limit"] == 1e13
        assert resolve_config(DT_CFG)["divergence_limit"] == 1e12

    @pytest.mark.parametrize("degree", [0, -2, "two", None, 2.5])
    def test_inline_default_degree_is_config_error(self, tmp_path, degree):
        cfg = {
            "system": {
                "time_domain": "discrete",
                "n_x": 1,
                "f": [[{"exponents": [1], "coeff": 0.5}]],
                "input_columns": [[[{"exponents": [0], "coeff": 1.0}]]],
                "default_degree": degree,
            },
            "horizon_steps": 5,
            "x0": [1.0],
            "signals": [{"kind": "zero"}],
        }
        with pytest.raises(ConfigError):
            resolve_config(cfg)
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2

    @pytest.mark.parametrize(
        "command, changes",
        [
            ("lift", {"quad_nodes": 0}),
            ("simulate", {"quad_nodes": 0}),
            ("simulate", {"seed": "x"}),
            ("simulate", {"span_tolerance": "x"}),
            ("simulate", {"x0": ["a", 1]}),
            ("simulate", {"horizon_steps": "x"}),
            ("simulate", {"horizon_steps": 2.7}),
            ("simulate", {"fits": [{"kind": "edmd_tikhonov", "alpha": -1}]}),
            ("bounds", {"bounds": {"mode": "grid", "state_box": [[1, 1], [0, 0]]}}),
            ("bounds", {"bounds": {"mode": "grid", "input_box": [[0, 0], [1, 1]]}}),
            ("bounds", {"bounds": ["grid"]}),
            ("simulate", {"system": dict(INLINE_1D, state_box=[[1.0], [0.0]])}),
            ("simulate", {"signals": 5}),
            ("edmd", {"signals": 5}),
            ("simulate", {"signals": [5]}),
            ("simulate", {"dictionary": {"degree": 2.5}}),
            ("edmd", {"sweep": {"degrees": ["a"]}}),
            ("edmd", {"sweep": {"degrees": [0, 3]}}),
            ("edmd", {"sweep": {"degrees": [5, 3]}}),
            ("edmd", {"sweep": {"degrees": [2, 3], "alpha_search": "yes"}}),
            ("edmd", {"sweep": [2, 20]}),
            ("simulate", {"system": dict(INLINE_1D, n_x=1.7), "x0": [1.0]}),
            ("simulate", {"system": dict(INLINE_1D, n_x="1"), "x0": [1.0]}),
            ("simulate", {"system": dict(INLINE_1D, n_x=0)}),
            ("simulate", {"dictionary": {"degree": 2, "include_constant": "no"}}),
            ("lift", {"dictionary": {"degree": 2, "include_constant": 1}}),
            ("simulate", dict(CT_ZERO, ts=1e-308, horizon_seconds=1e308)),
            ("simulate", dict(CT_ZERO, ts=1e-300, horizon_seconds=1.0)),
            ("simulate", {"horizon_steps": 10**12}),
            ("simulate", dict(CT_ZERO, ts=1e-3, horizon_seconds=0.01, horizon_steps=10)),
            ("simulate", {"horizon_seconds": 3.0}),
            ("simulate", {"ts": 0.5}),
            ("simulate", {"x0": [float("nan"), 1.0]}),
            # the JSON number 1e400 reads as an infinity
            ("simulate", {"x0": [1.0, float("inf")]}),
            ("simulate", {"x0": [True, False]}),
            ("simulate", {"dictionary": {"degree": 2, "monomials": "x1"}}),
            ("lift", {"dictionary": {"monomials": "x1,x2,x1^2", "include_constant": False}}),
            ("bounds", {"bounds": {"mode": "trajectory", "grid_density": "abc"}}),
            ("simulate", {"fits": "edmdc"}),
            ("edmd", {"signals": [{"kind": "white_noise", "variance": 0.0}]}),
            ("bounds", {"signals": [{"kind": "white_noise", "variance": 0.0}]}),
            ("simulate", {"signals": [{"kind": "zero"}], "fits": ["edmdc"]}),
            ("simulate", {"signals": [{"kind": "zero"}], "fits": ["edmd_full", "edmdc"]}),
        ],
        ids=[
            "lift-quad-nodes-0",
            "quad-nodes-0",
            "seed-text",
            "span-tolerance-text",
            "x0-text",
            "horizon-steps-text",
            "horizon-steps-2.7",
            "tikhonov-alpha-negative",
            "grid-state-box-reversed",
            "grid-input-box-2d",
            "bounds-not-an-object",
            "inline-state-box-reversed",
            "signals-number",
            "edmd-signals-number",
            "signals-list-of-number",
            "dictionary-degree-2.5",
            "sweep-degree-text",
            "sweep-degree-0",
            "sweep-degrees-reversed",
            "sweep-alpha-search-text",
            "sweep-not-an-object",
            "inline-n-x-1.7",
            "inline-n-x-text",
            "inline-n-x-0",
            "include-constant-text",
            "lift-include-constant-1",
            "ct-horizon-overflows",
            "ct-horizon-above-budget",
            "dt-horizon-above-budget",
            "ct-horizon-steps",
            "dt-horizon-seconds",
            "dt-ts",
            "x0-nan",
            "x0-1e400",
            "x0-bools",
            "dictionary-degree-and-monomials",
            "include-constant-with-monomials",
            "trajectory-grid-density-text",
            "fits-a-string",
            "edmd-zero-input-default-edmdc",
            "bounds-zero-input",
            "zero-input-edmdc",
            "zero-input-edmdc-second-fit",
        ],
    )
    def test_malformed_config_exits_2_before_simulating(
        self, tmp_path, monkeypatch, capsys, request, command, changes
    ):
        # each of these used to escape as a ValueError or TypeError (exit 1),
        # the box and the sweep only after the whole simulation; horizon_steps
        # 2.7 silently ran 2 steps, degree 2.5 lifted at degree 2 (exit 4)
        # and reversed sweep degrees wrote an empty sweep.csv; an inline n_x of
        # 1.7 ran as n_x = 1, and include_constant "no" added the constant
        # observable (exit 4); a CT horizon of 1e308 s at ts 1e-308 overflowed
        # (exit 1), NaN or inf in x0 exited 3 at step 1, booleans ran as 0 and
        # 1, the conflicting or mode-inapplicable keys ran unchecked, an
        # edmdc fit on an all-zero input record failed only after simulating,
        # and a horizon key of the other time domain was dropped unread
        def simulated(*args, **kwargs):
            raise AssertionError("simulated before the config was checked")

        monkeypatch.setattr(cli, "simulate_nonlinear", simulated)
        cfg = dict(DT_CFG, **changes)
        if cfg["system"] == "ct-example" and "horizon_steps" not in changes:
            del cfg["horizon_steps"]
        path = _write_config(tmp_path, cfg)
        assert main([command, "--config", path]) == 2
        message = self.MESSAGES.get(request.node.callspec.id)
        if message:
            assert message in capsys.readouterr().err

    # the reason a row stops, where its id alone does not pin it down
    MESSAGES = {
        "ct-horizon-overflows": "must be a whole number of at most",
        "ct-horizon-above-budget": "must be a whole number of at most",
        "ct-horizon-steps": (
            "'horizon_steps' is not read: a continuous-time system reads "
            "'ts' and 'horizon_seconds'"
        ),
        "dt-horizon-seconds": (
            "'horizon_seconds' is not read: a discrete-time system reads 'horizon_steps'"
        ),
        "dt-ts": "'ts' is not read: a discrete-time system reads 'horizon_steps'",
    }

    def test_all_zero_input_runs_without_an_edmdc_fit(self):
        result = run_simulate(dict(DT_CFG, signals=[{"kind": "zero"}], fits=["edmd_full"]))
        assert not np.any(result["inputs"])
        assert result["reports"]["koopman_lti_edmd"] is not None

    def test_runtime_imports_only_numpy(self):
        # the library runs on the standard library and numpy alone; compared
        # against what the interpreter has loaded before the import
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import kooplift.cli, kooplift.config, kooplift.kernels\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "allowed = set(sys.stdlib_module_names) | {'numpy', 'kooplift'}\n"
            "print(sorted(loaded - allowed))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_source_env(),
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_runs_as_a_module_from_a_checkout(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "kooplift", "--version"],
            capture_output=True,
            text=True,
            env=_source_env(),
            cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == kooplift.__version__

    def test_horizon_not_a_whole_number_of_steps(self, tmp_path):
        # 1.0 / 0.3 would silently run 3 steps, i.e. 0.9 s
        cfg = {
            "system": "ct-example",
            "ts": 0.3,
            "horizon_seconds": 1.0,
            "signals": [{"kind": "zero"}, {"kind": "zero"}],
        }
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 2

    def test_horizon_quotient_rounding_accepted(self):
        def horizon(ts, seconds):
            c = resolve_config({"system": "ct-example", "ts": ts, "horizon_seconds": seconds})
            return c["n_steps"], c["ts"]

        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert horizon(0.1, 0.3) == (3, 0.1)
        assert horizon(1e-4, 25.0) == (250000, 1e-4)
        assert horizon(1e-4, 0.5) == (5000, 1e-4)


INLINE_SYSTEM_CFG = {"system": INLINE_1D, "x0": [1.0], "signals": [{"kind": "zero"}]}

# each level of keys: its table, the command and the config that reach it,
# and a function that puts a key into that level
KEY_LEVELS = {
    "": (config.TOP, "simulate", DT_CFG, lambda key: {key: 1}),
    "system.": (
        config.SYSTEM, "simulate", INLINE_SYSTEM_CFG,
        lambda key: {"system": dict(INLINE_1D, **{key: 1})},
    ),
    "dictionary.": (
        config.DICTIONARY, "lift", DT_CFG,
        lambda key: {"dictionary": {"degree": 2, key: 1}},
    ),
    "fits[0].": (
        config.FIT, "simulate", DT_CFG, lambda key: {"fits": [{"kind": "edmdc", key: 1}]}
    ),
    "sweep.": (config.SWEEP, "edmd", DT_CFG, lambda key: {"sweep": {key: 1}}),
    "bounds.": (config.BOUNDS, "bounds", DT_CFG, lambda key: {"bounds": {key: 1}}),
}


def _forbid_simulating(monkeypatch):
    def simulated(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(cli, "simulate_nonlinear", simulated)


class TestConfigKeys:
    @pytest.mark.parametrize(
        "prefix, key",
        [(prefix, key) for prefix, level in KEY_LEVELS.items() for key in level[0]],
    )
    def test_misspelt_key_exits_2_naming_it(
        self, tmp_path, monkeypatch, capsys, prefix, key
    ):
        # one character too many: every level rejects it before anything runs
        # and names the key that was meant
        _, command, base, place = KEY_LEVELS[prefix]
        _forbid_simulating(monkeypatch)
        path = _write_config(tmp_path, {**base, **place(key + key[-1])})
        assert main([command, "--config", path]) == 2
        assert f"did you mean {prefix + key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, changes, named",
        [
            (
                "simulate",
                {"horizon_step": 5, "sead": 3, "fit": ["edmdc"]},
                ["horizon_steps", "seed", "fits"],
            ),
            (
                "bounds",
                {"bounds": {"mod": "grid", "grid_densty": 3}},
                ["bounds.mode", "bounds.grid_density"],
            ),
            (
                "edmd",
                {"sweep": {"degree": [2, 3], "alpha_serch": False}},
                ["sweep.degrees", "sweep.alpha_search"],
            ),
            (
                "simulate",
                {"fits": [{"kind": "edmd_tikhonov", "alpah": 0.1}]},
                ["fits[0].alpha"],
            ),
            ("simulate", {"dictionary": {"degree": 2, "monomials": "x1"}}, ["dictionary.degree"]),
            (
                "lift",
                {"dictionary": {"monomials": "x1,x2,x1^2", "include_constant": True}},
                ["dictionary.include_constant"],
            ),
            (
                "bounds",
                {"bounds": {"mode": "trajectory", "grid_density": "abc"}},
                ["bounds.grid_density"],
            ),
            ("simulate", {"fits": "edmdc"}, ["fits"]),
        ],
        ids=[
            "simulate-stray-keys",
            "bounds-stray-keys",
            "sweep-stray-keys",
            "fit-stray-key",
            "degree-and-monomials",
            "include-constant-with-monomials",
            "trajectory-grid-density-text",
            "fits-a-string",
        ],
    )
    def test_stray_or_conflicting_keys_are_named(
        self, tmp_path, monkeypatch, capsys, command, changes, named
    ):
        # the first four ran on defaults: 100 steps and no fit, trajectory
        # mode, degrees 2..20 with the search on, and the alpha search
        _forbid_simulating(monkeypatch)
        path = _write_config(tmp_path, dict(DT_CFG, **changes))
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert all(repr(key) in err for key in named), err

    @pytest.mark.parametrize(
        "signal, named",
        [
            ({"kind": "zero", "variance": 5.0, "n_freq": 3}, ["variance", "n_freq"]),
            ({"kind": "white_noise", "variance": 0.5, "amplitude": 2.0}, ["amplitude"]),
            (
                {"kind": "multisine", "n_freq": 2, "f_low": 0.01, "f_high": 0.1, "seed": 3},
                ["seed"],
            ),
            ({"kind": "custom", "samples": [0.0] * 50, "f_low": 0.1}, ["f_low"]),
        ],
        ids=["zero", "white_noise", "multisine", "custom"],
    )
    def test_signal_field_of_another_kind_is_named(
        self, tmp_path, monkeypatch, capsys, signal, named
    ):
        # each kind reads only its own fields; these ran without the stray
        # field, which errors.json then left out of its echo
        _forbid_simulating(monkeypatch)
        path = _write_config(tmp_path, dict(DT_CFG, signals=[signal]))
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert all(repr(field) in err for field in named), err
        without = {k: v for k, v in signal.items() if k not in named}
        assert resolve_config(dict(DT_CFG, signals=[without]))["signals"][0].kind == signal["kind"]

    def test_readme_lists_every_key(self):
        # the README's configuration list and the table name the same keys
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `([^`]+)`", section, flags=re.MULTILINE)
        known = [
            prefix.replace("[0]", "[]") + key
            for prefix, level in KEY_LEVELS.items()
            for key in level[0]
        ]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == sorted(known)


class TestPresets:
    def test_all_presets_expand(self):
        from kooplift.cli import PRESET_NAMES

        for name in PRESET_NAMES:
            runs = preset_runs(name)
            assert runs
            for label, command, cfg in runs:
                assert command in ("simulate", "edmd", "bounds")
                assert "system" in cfg

    def test_reproduce_with_short_override(self, tmp_path, capsys):
        assert (
            main(
                [
                    "reproduce",
                    "dt-example-whitenoise",
                    "--out",
                    str(tmp_path),
                    "--horizon-steps",
                    "30",
                ]
            )
            == 0
        )
        assert (tmp_path / "errors.json").exists()

    def test_reproduce_multisine_preset(self, tmp_path):
        assert (
            main(
                [
                    "reproduce",
                    "dt-example-multisine",
                    "--out",
                    str(tmp_path),
                    "--horizon-steps",
                    "25",
                ]
            )
            == 0
        )
        assert (tmp_path / "traj_koopman_lpv.csv").exists()

    def test_unknown_preset_rejected(self, tmp_path):
        # argparse rejects a name outside the preset choices with status 2
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "no-such-preset"])
        assert exc.value.code == 2
        with pytest.raises(ConfigError):
            run_reproduce("no-such-preset", None, {})


class TestBoundsCommand:
    def test_report_files(self, tmp_path):
        cfg = dict(DT_CFG)
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "k,error_norm,tv_bound"
        assert len(lines) == 52  # header + 51 grid points
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["rho_A"] == 0.7
        err = np.array(doc["error_norm"])
        tv = np.array(doc["tv_bound"])
        assert np.all(err <= tv + 1e-12)

    def test_grid_mode(self, tmp_path):
        cfg = dict(DT_CFG, bounds={"mode": "grid", "grid_density": 5})
        path = _write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path / "g")]) == 0

    def test_requires_discrete_time(self, tmp_path):
        cfg = {
            "system": "ct-example",
            "ts": 1e-3,
            "horizon_seconds": 0.01,
            "signals": [{"kind": "zero"}, {"kind": "zero"}],
        }
        path = _write_config(tmp_path, cfg)
        assert main(["bounds", "--config", path]) == 2

    @pytest.mark.parametrize(
        "bounds",
        [
            {"mode": "gird"},
            {"mode": "grid", "grid_density": 0},
            {"mode": "grid", "grid_density": -3},
            {"mode": "grid", "grid_density": "abc"},
            {"mode": "grid", "grid_density": 2.5},
            {"mode": "grid", "grid_density": True},
            # 3000^3 points would need hundreds of GiB
            {"mode": "grid", "grid_density": 3000},
        ],
    )
    def test_bad_bounds_config_fails_before_simulating(self, tmp_path, monkeypatch, bounds):
        def not_reached(*args, **kwargs):
            raise AssertionError("ran past the bounds config check")

        monkeypatch.setattr(cli, "run_simulate", not_reached)
        monkeypatch.setattr(cli, "beta_grid", not_reached)
        with pytest.raises(ConfigError):
            cli.run_bounds(dict(DT_CFG, bounds=bounds))
        path = _write_config(tmp_path, dict(DT_CFG, bounds=bounds))
        assert main(["bounds", "--config", path]) == 2

    def test_divergence_limit_reaches_the_bound_simulations(self, tmp_path):
        # x1+ = 1.5 x1 + u passes 1e12 near step 68 and stays below 1e15
        cfg = {
            "system": {
                "time_domain": "discrete",
                "n_x": 2,
                "f": [
                    [{"exponents": [1, 0], "coeff": 1.5}],
                    [{"exponents": [0, 1], "coeff": 0.5}],
                ],
                "input_columns": [[[{"exponents": [0, 0], "coeff": 1.0}], []]],
            },
            "dictionary": "x1,x2",
            "horizon_steps": 80,
            "divergence_limit": 1e15,
            "signals": [{"kind": "white_noise", "variance": 0.5}],
        }
        path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        assert main(["bounds", "--config", path]) == 0
        low = _write_config(tmp_path, dict(cfg, divergence_limit=1e12), "low.json")
        assert main(["bounds", "--config", low]) == 3

    def test_one_exact_simulation_per_bound(self, monkeypatch):
        # the bounds reuse run_simulate's exact LPV run: one B(x, u) per step,
        # and the same bits as a report built from a fresh simulation
        from kooplift.bounds import beta_trajectory, bounds_curve, error_trajectory
        from kooplift.sim import simulate_lpv

        calls = []
        build = cli.build_lifted_model

        def counted_build(*args, **kwargs):
            model = build(*args, **kwargs)
            factored = model.factored_input

            def counted(x, u):
                calls.append(1)
                return factored(x, u)

            model.factored_input = counted
            return model

        monkeypatch.setattr(cli, "build_lifted_model", counted_build)
        cfg = dict(DT_CFG, bounds={"mode": "trajectory"})
        result = cli.run_bounds(cfg)
        n_steps = DT_CFG["horizon_steps"]
        assert len(calls) == n_steps

        report, base = result["report"], result["base"]
        lpv, lti = base["lifted"], base["fitted"]["koopman_lti_edmdc"]
        inputs = base["inputs"]
        fresh, _ = simulate_lpv(lpv, x0=resolve_config(cfg)["x0"], inputs=inputs)
        approx, _ = simulate_lti(lti, fresh.states[0], inputs)
        assert np.array_equal(
            report.error_norm, np.linalg.norm(fresh.states - approx.states, axis=1)
        )
        beta = beta_trajectory(lpv, lti.B, fresh.states[:-1, :2], inputs[:-1]).beta
        assert report.beta == beta
        tv, _ = bounds_curve(lpv.A, beta, inputs)
        assert np.array_equal(report.timevarying_bound, tv)

        # the recurrence runs on the recorded matrices of that same run
        e, rec = np.zeros(lpv.n_f), [0.0]
        for k in range(n_steps):
            B = lpv.factored_input(fresh.states[k, :2], inputs[k])
            e = lpv.A @ e + (B - lti.B) @ inputs[k]
            rec.append(np.linalg.norm(e))
        evolution = error_trajectory(lpv, lti, base["lpv_lifted"], base["input_matrices"])
        assert np.array_equal(evolution.norms_recurrence, rec)

    def test_diverging_lti_fit_fails_bounds(self, tmp_path, monkeypatch):
        # an edmdc input matrix 1e13 times too large sends the LTI run past
        # 1e12 at once, while the nonlinear and exact LPV runs never see it
        fit = cli.edmdc_input_fit

        def blown_up(data, A):
            B_hat, residual = fit(data, A)
            return 1e13 * B_hat, residual

        monkeypatch.setattr(cli, "edmdc_input_fit", blown_up)
        base = run_simulate(dict(DT_CFG, fits=["edmdc"]))
        assert base["reports"]["koopman_lti_edmdc"] is None
        assert base["reports"]["koopman_lpv"] is not None
        path = _write_config(tmp_path, DT_CFG)
        assert main(["bounds", "--config", path]) == 3
        with pytest.raises(DivergenceError) as exc:
            cli.run_bounds(DT_CFG)
        assert "approx-lti" in str(exc.value)

    def test_non_finite_gap_exits_1_with_the_point(self, tmp_path, capsys):
        # a box out to 1e30 overflows the weighted D = 12 dictionary's
        # powers; the grid scan used to end in a TypeError traceback
        monomials = [[a, b] for b in range(7) for a in range(13 - 2 * b) if a + b]
        cfg = dict(
            DT_CFG,
            horizon_steps=20,
            dictionary={"monomials": monomials},
            bounds={
                "mode": "grid",
                "grid_density": 3,
                "state_box": [[-1e30, -1e30], [1e30, 1e30]],
                "input_box": [[-1e30], [1e30]],
            },
        )
        path = _write_config(tmp_path, cfg)
        with np.errstate(all="ignore"):
            assert main(["bounds", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error: input-matrix gap ||B(x, u) - B_hat|| is not finite" in err
        assert "at point 0 (x=[-1e+30, -1e+30], u=[-1e+30])" in err

    def test_grid_budget_admits_the_default_density(self):
        # dt-example has n_x + n_u = 3
        assert resolve_config(dict(DT_CFG, bounds={"mode": "grid"}))["bounds"] == {
            "mode": "grid", "grid_density": 101, "state_box": None, "input_box": None
        }
        assert 101**3 <= MAX_GRID_POINTS < 102**4


class TestEdmdCommand:
    def test_sweep_csv_schema(self, tmp_path):
        cfg = dict(DT_CFG, sweep={"degrees": [2, 4], "alpha_search": True})
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["edmd", "--config", path, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "degree,alpha,l2_e1,l2_e2,diverged"
        assert len(lines) - 1 == 2 * 3  # plain + regularised rows per degree
        baselines = (out / "sweep_baselines.csv").read_text().splitlines()
        assert baselines[0] == "method,degree,alpha,l2_e1,l2_e2,diverged"
        methods = {line.split(",")[0] for line in baselines[1:]}
        assert {"exact_lpv", "edmdc_exact_A"} <= methods

    def test_baselines_give_the_degree_of_the_run_dictionary(self):
        # dt-example's own dictionary has degree 2; this run's has degree 3
        cfg = dict(
            DT_CFG,
            dictionary="x1,x2,x1^2,x1^3",
            sweep={"degrees": [2, 2], "alpha_search": False},
        )
        baselines = run_edmd(cfg)["baseline_rows"]
        assert [row[:2] for row in baselines] == [["exact_lpv", 3], ["edmdc_exact_A", 3]]

    def test_sweep_without_search_matches_searched_zero_rows(self):
        rows = {}
        for search in (True, False):
            cfg = dict(DT_CFG, sweep={"degrees": [2, 3], "alpha_search": search})
            rows[search] = run_edmd(cfg)["sweep_rows"]
        assert [row[:2] for row in rows[False]] == [[2, 0.0], [3, 0.0]]
        assert rows[False] == rows[True][::2]

    @pytest.mark.parametrize("n_x", [1, 3])
    def test_sweep_writes_every_state(self, tmp_path, n_x):
        # x_i+ = (0.5 - 0.2 i) x_i + u / (i + 1); the sweep used to assume
        # two states: one state raised an IndexError after simulating, and a
        # third state was left out of both CSVs
        system = {
            "time_domain": "discrete",
            "n_x": n_x,
            "f": [
                [{"exponents": np.eye(n_x, dtype=int)[i].tolist(), "coeff": 0.5 - 0.2 * i}]
                for i in range(n_x)
            ],
            "input_columns": [
                [[{"exponents": [0] * n_x, "coeff": 1.0 / (i + 1)}] for i in range(n_x)]
            ],
        }
        cfg = dict(
            DT_CFG,
            system=system,
            x0=[1.0] * n_x,
            horizon_steps=30,
            sweep={"degrees": [1, 2], "alpha_search": False},
        )
        out = tmp_path / "sweep"
        assert main(["edmd", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
        errors = ",".join(f"l2_e{i + 1}" for i in range(n_x))
        sweep = (out / "sweep.csv").read_text().splitlines()
        baselines = (out / "sweep_baselines.csv").read_text().splitlines()
        assert sweep[0] == f"degree,alpha,{errors},diverged"
        assert baselines[0] == f"method,degree,alpha,{errors},diverged"
        assert [len(line.split(",")) for line in sweep[1:]] == [n_x + 3] * 2
        assert [len(line.split(",")) for line in baselines[1:]] == [n_x + 4] * 2

        result = run_edmd(cfg)
        base = result["base"]
        nonlinear = base["trajectories"]["nonlinear"]
        for method, label in (("exact_lpv", "koopman_lpv"), ("edmdc_exact_A", "koopman_lti_edmdc")):
            row = next(row for row in result["baseline_rows"] if row[0] == method)
            assert row[3:] == [*map(float, base["reports"][label].l2), 0]
        for row, degree in zip(result["sweep_rows"], (1, 2)):
            dictionary = monomial_dictionary(n_x, degree)
            data = build_snapshots(nonlinear, dictionary)
            C = output_matrix(dictionary)
            run = dt_simulate(
                lti_step(*edmd_tikhonov(data, 0.0)),
                dictionary.evaluate(cfg["x0"]),
                base["inputs"],
                divergence_limit=1e12,
            )
            l2 = error_metrics(nonlinear, run, output_map=lambda z: z @ C.T).l2
            assert row[:2] == [degree, 0.0] and row[-1] == 0
            tol = _fit_tolerance(data, 0.0, len(base["inputs"]) - 1)
            _assert_l2_close(row[2:-1], l2, nonlinear.states, tol)

    def test_snapshots_past_the_float_range_exit_1_with_a_message(self, tmp_path, capsys):
        # x1+ = 1.5 x1 + u reaches ~1e10 in 60 steps, so x1^15 and up square
        # past the float range; this used to exit 1 with an untyped
        # LinAlgError from the Gramian's SVD
        system = {
            "time_domain": "discrete",
            "n_x": 2,
            "f": [[{"exponents": [1, 0], "coeff": 1.5}], [{"exponents": [0, 1], "coeff": 0.5}]],
            "input_columns": [
                [[{"exponents": [0, 0], "coeff": 1.0}], [{"exponents": [0, 0], "coeff": 1.0}]]
            ],
        }
        cfg = dict(DT_CFG, system=system, horizon_steps=60, sweep={"degrees": [2, 20]})
        assert main(["edmd", "--config", _write_config(tmp_path, cfg)]) == 1
        assert "squares past the float range" in capsys.readouterr().err

    def test_sweep_rows_match_a_lift_at_each_degree(self):
        # the sweep lifts once at its highest degree; each degree's rows are
        # those of a search on its own dictionary's lift, C and z0
        cfg = dict(DT_CFG, sweep={"degrees": [2, 7], "alpha_search": True})
        result = run_edmd(cfg)
        base = result["base"]
        nonlinear = base["trajectories"]["nonlinear"]
        x0 = resolve_config(cfg)["x0"]
        expected = []
        for degree in range(2, 8):
            dictionary = monomial_dictionary(2, degree)
            reports = {}
            data = build_snapshots(nonlinear, dictionary)
            objective = cli._alpha_objective(
                data,
                nonlinear,
                output_matrix(dictionary),
                dictionary.evaluate(x0),
                base["inputs"],
                1e12,
                reports,
            )
            best = alpha_grid_search(data, default_alpha_grid(), objective).best_alpha
            expected += [
                cli._sweep_row([degree, 0.0], reports[0.0], 2),
                cli._sweep_row([degree, best], reports[best], 2),
            ]
        assert result["sweep_rows"] == expected

    def test_sweep_rows_when_every_candidate_diverges(self, monkeypatch):
        cfg = dict(DT_CFG, fits=["edmdc"])
        base = run_simulate(cfg)
        c = resolve_config(cfg)
        calls = []

        def diverge(data, filters, z0, inputs, limit, read):
            calls.append(len(filters))
            states = np.full((len(filters), inputs.shape[0], len(read)), np.nan)
            return states, np.ones(len(filters), dtype=int)

        monkeypatch.setattr(cli, "_search_runs", diverge)
        rows, _ = cli._degree_sweep(
            c["dictionary"],
            base,
            base["trajectories"]["nonlinear"],
            base["inputs"],
            c["x0"],
            2,
            2,
            True,
            1e12,
        )
        assert sum(calls) == len(default_alpha_grid())
        assert rows[0] == [2, 0.0, float("inf"), float("inf"), 1]
        assert rows[1][0] == 2 and np.isnan(rows[1][1]) and rows[1][2:] == [
            float("inf"), float("inf"), 1
        ]

    def test_alpha_objective_simulates_the_fit_it_receives(self):
        # a zero filter's fit outputs x0 and then zeros; a refit at the
        # handed alpha would not. The second candidate, 1e7 times the
        # alpha = 0 filter, scales that fit by 1e7 and leaves the 1e12 limit
        # at step 2.
        cfg = dict(DT_CFG, fits=["edmdc"])
        base = run_simulate(cfg)
        c = resolve_config(cfg)
        nonlinear = base["trajectories"]["nonlinear"]
        dictionary = c["system"].dictionary
        data = build_snapshots(nonlinear, dictionary)
        C = output_matrix(dictionary)
        z0 = dictionary.evaluate(c["x0"])
        reports = {}
        objective = cli._alpha_objective(
            data, nonlinear, C, z0, base["inputs"], 1e12, reports
        )
        least_squares = edmd._filters(data, np.zeros(1))[0]
        costs = objective(
            [0.5, 0.7], np.stack([np.zeros_like(least_squares), 1e7 * least_squares])
        )
        expected = np.sqrt(np.sum(nonlinear.states[1:] ** 2, axis=0))
        np.testing.assert_array_equal(reports[0.5], expected)
        assert costs[0] == float(np.sum(expected))
        assert reports[0.7] is None and costs[1] == np.inf

    def test_tikhonov_search_matches_a_per_alpha_reference(self, monkeypatch):
        # weighted-degree-12 dictionary (n_f = 48): 6 of the 37 candidates
        # diverge, so the reference takes its DivergenceError branch too;
        # the fits below alpha = 10 are unstable, and there the explicit
        # run's rounding grows past the fits' tolerance
        monomials = [[a, b] for b in range(7) for a in range(13 - 2 * b) if a + b]
        cfg = dict(
            DT_CFG,
            dictionary={"monomials": monomials},
            fits=[{"kind": "edmd_tikhonov"}],
        )
        searches = []
        search = cli.alpha_grid_search

        def spy(*args):
            searches.append(search(*args))
            return searches[-1]

        monkeypatch.setattr(cli, "alpha_grid_search", spy)
        result = run_simulate(cfg)
        nonlinear = result["trajectories"]["nonlinear"]
        dictionary = result["dictionary"]
        data = build_snapshots(nonlinear, dictionary)
        C = output_matrix(dictionary)
        z0 = dictionary.evaluate(resolve_config(cfg)["x0"])
        inputs = result["inputs"]
        costs = {row["alpha"]: row["cost"] for row in searches[0].costs}
        best_alpha, best_cost, diverged = None, np.inf, 0
        for alpha in default_alpha_grid():
            lti = make_lti(*edmd_tikhonov(data, alpha), C)
            try:
                _, output = simulate_lti(lti, z0, inputs)
            except DivergenceError:
                diverged += 1
                assert costs[alpha] == np.inf
                continue
            l2 = error_metrics(nonlinear, output).l2
            _assert_matches_the_fit(
                costs[alpha], l2, data, alpha, C, z0, inputs, nonlinear.states
            )
            if costs[alpha] < best_cost:
                best_alpha, best_cost = alpha, costs[alpha]
        assert diverged == 6
        assert searches[0].best_alpha == best_alpha
        fitted = result["fitted"]["koopman_lti_tikhonov"]
        A_ref, B_ref = edmd_tikhonov(data, best_alpha)
        np.testing.assert_array_equal(fitted.A, A_ref)
        np.testing.assert_array_equal(fitted.B, B_ref)

    @pytest.mark.parametrize(
        "excitation, degree",
        [("multisine", degree) for degree in (2, 5, 7, *range(14, 21))]
        + [("whitenoise", degree) for degree in (2, 5, 11, 14, 20)],
    )
    def test_shared_filters_match_a_per_alpha_reference(
        self, monkeypatch, excitation, degree
    ):
        # the sweep's search, which simulates one alpha per distinct filter,
        # against edmd_tikhonov and dt_simulate for every alpha. The
        # multisine run has 12, 6 and 3 distinct alpha > 0 filters at
        # degrees 14-16 and one at 17-20; white noise keeps all 36. At
        # degrees 14-16 the multisine snapshots reach 1e29-1e33, and the
        # explicit product A z loses the fits below the divergence limit:
        # it diverges for every alpha > 0 at 14 and 15 and for 1e20 at 16,
        # while the search's run, like a np.longdouble run, stays finite.
        cfg = {label: cfg for label, _, cfg in preset_runs("degree-sweep")}[excitation]
        base = run_simulate(cfg)
        nonlinear, inputs = base["trajectories"]["nonlinear"], base["inputs"]
        dictionary = monomial_dictionary(2, degree)
        data = build_snapshots(nonlinear, dictionary)
        C = output_matrix(dictionary)
        z0 = dictionary.evaluate(nonlinear.states[0])
        limit = resolve_config(cfg)["divergence_limit"]

        simulated = []
        runs = cli._search_runs

        def runs_spy(data, filters, *args):
            simulated.append(len(filters))
            return runs(data, filters, *args)

        monkeypatch.setattr(cli, "_search_runs", runs_spy)
        reports, seen = {}, []
        objective = cli._alpha_objective(data, nonlinear, C, z0, inputs, limit, reports)

        def counted(alphas, filters):
            seen.extend(alphas)
            return objective(alphas, filters)

        grid = default_alpha_grid()
        result = alpha_grid_search(data, grid, counted)
        monkeypatch.undo()

        rows, best, kept_finite = [], (None, np.inf), []
        for alpha in grid:
            # the candidate this alpha shares its filter with: filters fall
            # monotonically in alpha, so it is the largest candidate below
            shared = max(a for a in seen if a <= alpha)
            l2 = reports[shared]
            cost = np.inf if l2 is None else float(np.sum(l2))
            rows.append({"alpha": alpha, "cost": cost, "diverged": l2 is None})
            if cost < best[1]:
                best = (alpha, cost)
            A, B = edmd_tikhonov(data, alpha)
            try:
                run = dt_simulate(lti_step(A, B), z0, inputs, divergence_limit=limit)
            except DivergenceError:
                if l2 is not None:
                    kept_finite.append(alpha)
                continue
            assert l2 is not None
            explicit_l2 = error_metrics(nonlinear, run, output_map=lambda z: z @ C.T).l2
            _assert_matches_the_fit(
                l2, explicit_l2, data, alpha, C, z0, inputs, nonlinear.states
            )
        assert result == AlphaSearchResult(best_alpha=best[0], costs=rows)

        expected_kept = {("multisine", 14): grid[1:], ("multisine", 15): grid[1:]}
        expected_kept[("multisine", 16)] = grid[-1:]
        assert kept_finite == list(expected_kept.get((excitation, degree), []))
        for alpha in {max(a for a in seen if a <= alpha) for alpha in kept_finite}:
            largest, outputs = _extended_run(data, alpha, C, z0, inputs)
            assert largest <= limit
            eps = nonlinear.states - outputs
            extended_l2 = np.sqrt(np.sum(eps * eps, axis=0)).astype(float)
            tol = _fit_tolerance(data, alpha, len(inputs) - 1)
            _assert_l2_close(reports[alpha], extended_l2, nonlinear.states, tol)

        # alpha = 0 drops every s at or below sqrt((n_f + n_u) eps) s_max
        s = data.tikhonov_svd()[1]
        kept = s > np.sqrt((data.n_f + data.n_u) * np.finfo(float).eps) * s[0]
        filters = {(s / (s * s + alpha)).tobytes() for alpha in grid[1:]}
        filters.add(np.where(kept, s / (s * s), 0.0).tobytes())
        assert len(seen) == len(set(seen)) == len(filters)
        assert simulated == [len(seen)]
        if excitation == "multisine" and degree >= 17:
            assert seen == [0.0, grid[1]]
        elif excitation == "whitenoise":
            assert seen == list(grid)

    def test_search_then_fit_on_weighted_dictionaries(self, monkeypatch):
        # simulate with alpha "search" on {x1^a x2^b : a + 2b <= D}: the
        # explicit run of the chosen fit costs what the search found
        searches = []
        search = cli.alpha_grid_search

        def spy(*args):
            searches.append(search(*args))
            return searches[-1]

        monkeypatch.setattr(cli, "alpha_grid_search", spy)
        for preset in ("dt-example-whitenoise", "dt-example-multisine"):
            ((_, _, cfg),) = preset_runs(preset)
            for D in (4, 8, 12, 20):
                monomials = [
                    [a, b] for b in range(D // 2 + 1) for a in range(D + 1 - 2 * b) if a + b
                ]
                cfg = dict(
                    cfg,
                    dictionary={"monomials": monomials},
                    fits=[{"kind": "edmd_tikhonov", "alpha": "search"}],
                )
                result = run_simulate(cfg)
                nonlinear = result["trajectories"]["nonlinear"]
                dictionary = result["dictionary"]
                chosen = searches[-1].best_alpha
                cost = {row["alpha"]: row["cost"] for row in searches[-1].costs}[chosen]
                l2 = result["reports"]["koopman_lti_tikhonov"].l2
                _assert_matches_the_fit(
                    cost, l2, build_snapshots(nonlinear, dictionary), chosen,
                    output_matrix(dictionary), dictionary.evaluate(cfg["x0"]),
                    result["inputs"], nonlinear.states,
                )
        assert len(searches) == 8

    def test_alpha_grid_span(self):
        from kooplift import default_alpha_grid

        grid = default_alpha_grid()
        assert grid[0] == 0.0
        assert grid.min() == 0.0
        assert np.isclose(grid[1:].min(), 1e-15) and np.isclose(grid.max(), 1e20)

    def test_lti_consistent_system_recovered(self, tmp_path):
        # linear system: the full fit is exact and simulation errors vanish
        cfg = {
            "system": {
                "time_domain": "discrete",
                "n_x": 2,
                "name": "linear",
                "f": [
                    [{"exponents": [1, 0], "coeff": 0.6}],
                    [{"exponents": [0, 1], "coeff": -0.3}],
                ],
                "input_columns": [
                    [
                        [{"exponents": [0, 0], "coeff": 1.0}],
                        [{"exponents": [0, 0], "coeff": 0.5}],
                    ]
                ],
            },
            "dictionary": {"degree": 1},
            "horizon_steps": 40,
            "seed": 3,
            "x0": [1.0, -1.0],
            "signals": [{"kind": "white_noise", "variance": 1.0}],
            "fits": ["edmd_full"],
        }
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "lti"
        assert main(["edmd", "--config", path, "--out", str(out)]) == 0
        errors = json.loads((out / "fits.json").read_text())
        A_hat = np.array(errors["fits"]["koopman_lti_edmd"]["A"])
        np.testing.assert_allclose(A_hat, [[0.6, 0.0], [0.0, -0.3]], atol=1e-8)

    def test_requires_discrete_time(self, tmp_path):
        cfg = {
            "system": "ct-example",
            "ts": 1e-3,
            "horizon_seconds": 0.01,
            "signals": [{"kind": "zero"}, {"kind": "zero"}],
        }
        path = _write_config(tmp_path, cfg)
        assert main(["edmd", "--config", path]) == 2


def _cell_by_cell_json(obj) -> str:
    """dumps_json as one recursive call per scalar: the byte reference."""
    from kooplift.serialize import fmt_float

    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {_cell_by_cell_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, np.ndarray):
        return _cell_by_cell_json(obj.tolist())
    return "[" + ", ".join(_cell_by_cell_json(v) for v in obj) + "]"


class TestSerializationFormat:
    def test_model_json_bytes_match_cell_formatting(self, tmp_path):
        # the weighted-degree D = 12 lift of dt-example: 48 observables
        exponents = [
            [a, b] for b in range(7) for a in range(13 - 2 * b) if a + b
        ]
        cfg = dict(DT_CFG, dictionary={"monomials": exponents})
        result = run_lift(cfg, out_dir=str(tmp_path))
        lifted = result["lifted"]
        assert lifted.n_f == 48
        doc = {"lifted": lifted.to_document(), "lpv": lifted.lpv_document()}
        written = (tmp_path / "model.json").read_text()
        assert written == _cell_by_cell_json(doc) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            np.array([[np.nan, -0.0, np.inf], [1.0, -np.inf, 2.0], [0.1, 5e-324, -0.0]]),
            np.array([[1e308, -1e308], [-0.0, 2.2250738585072014e-308]]),
            np.full((2, 2, 3), [np.nan, -0.0, 1 / 3]),
            np.array([-0.0, np.nan, np.inf]),
            np.float32([0.1, -np.inf]),
            np.zeros((0, 3)),
            np.zeros((3, 0)),
            np.array(-0.0),
            np.arange(6).reshape(2, 3),
            np.array([True, False]),
            [1e308, 1e308, -0.0],
            [0.1, 1, 2.0, True],
            [[0.1, float("nan")], [], [-0.0, float("-inf")], [np.float64(0.5)]],
            {"a": (0.5, float("inf")), "b": [[1.0, 2.0], [3.0, -0.0]], "c": []},
        ],
        ids=[
            "non-finite-rows",
            "extremes",
            "3d",
            "1d-non-finite",
            "float32",
            "no-rows",
            "empty-rows",
            "0d",
            "int-array",
            "bool-array",
            "list-overflowing-sum",
            "list-mixed",
            "nested-lists",
            "dict",
        ],
    )
    def test_dumps_json_matches_cell_formatting(self, value):
        from kooplift.serialize import dumps_json

        assert dumps_json(value) == _cell_by_cell_json(value)

    @pytest.mark.parametrize("block_rows", [2, 1024])
    def test_trajectory_csv_bytes_match_cell_formatting(
        self, tmp_path, monkeypatch, block_rows
    ):
        from kooplift import serialize
        from kooplift.errors import DimensionError
        from kooplift.serialize import write_csv, write_trajectory_csv
        from kooplift.sim import Trajectory

        # 2 rows per block splits the five rows over three blocks
        monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", block_rows)

        def cells(name, traj):
            """The file write_csv writes cell by cell: the byte reference."""
            n_u = 0 if traj.inputs is None else traj.inputs.shape[1]
            header = ["t"] + [f"x{i + 1}" for i in range(traj.states.shape[1])]
            header += [f"u{j + 1}" for j in range(n_u)]
            inputs = np.empty((len(traj.times), 0)) if traj.inputs is None else traj.inputs
            rows = [[t, *x, *u] for t, x, u in zip(traj.times, traj.states, inputs)]
            return write_csv(tmp_path / f"cells_{name}.csv", header, rows).read_bytes()

        def written(trajectories):
            files = {tmp_path / f"fast_{name}.csv": t for name, t in trajectories.items()}
            paths = write_trajectory_csv(files)
            assert paths == list(files)
            for name, traj in trajectories.items():
                assert (tmp_path / f"fast_{name}.csv").read_bytes() == cells(name, traj)

        times = [0.0, 1.0, 2.5, 1e300, 1e308]
        states = np.array(
            [
                [-0.0, 5e-324, 2.2250738585072014e-308],
                [1e308, -1e308, 3.0],
                [np.nan, 1.0 / 3.0, -2.0],
                [np.inf, -np.inf, 0.0],
                [0.1, -7.5e-17, 123456789012345678.0],
            ]
        )
        # the shared input column holds NaN, both infinities and -0.0
        inputs = np.array(
            [[0.0, -0.0], [-0.0, np.inf], [np.nan, 1.0], [1e-310, -np.inf], [-4.0, np.nan]]
        )
        traj = Trajectory(times, states, inputs=inputs[:, :1])
        fast = write_trajectory_csv({tmp_path / "fast.csv": traj})[0]
        assert fast.read_bytes() == cells("one", traj)
        assert b"-0," in fast.read_bytes() and b"NaN" in fast.read_bytes()

        # two files of one run share t and u but not the states; their x1
        # are equal in value, but one holds 0.0 and the other -0.0
        zeros = np.zeros(len(times))
        a = np.column_stack([zeros, states[:, 1]])
        b = np.column_stack([-zeros, states[:, 2]])
        assert np.array_equal(a[:, 0], b[:, 0])
        written(
            {
                "a": Trajectory(times, a, inputs=inputs),
                "b": Trajectory(times, b, inputs=inputs),
                "no_inputs": Trajectory(times, states),
            }
        )
        assert (tmp_path / "fast_a.csv").read_bytes().splitlines()[2].startswith(b"1,0,")
        assert (tmp_path / "fast_b.csv").read_bytes().splitlines()[2].startswith(b"1,-0,")

        with pytest.raises(DimensionError):
            write_trajectory_csv(
                {
                    tmp_path / "grid_a.csv": traj,
                    tmp_path / "grid_b.csv": Trajectory(np.arange(5.0), states),
                }
            )

    def test_run_formats_each_shared_column_block_once(self, tmp_path, monkeypatch):
        from kooplift import serialize

        monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 4)
        calls = []
        format_column = serialize._format_column

        def spy(values):
            calls.append(len(values))
            return format_column(values)

        monkeypatch.setattr(serialize, "_format_column", spy)
        cfg = {
            "system": "ct-example",
            "ts": 1e-3,
            "horizon_seconds": 0.01,
            "signals": [{"kind": "white_noise", "variance": 0.1}] * 2,
        }
        run_simulate(cfg, out_dir=str(tmp_path / "one"))
        # 11 rows in blocks of 4; each block has 10 column blocks, t, x1, x2,
        # u1 and u2 in both files, and the files share t, u1 and u2
        blocks = 3
        assert len(calls) <= 7 * blocks and sum(calls) <= 7 * 11
        first = len(calls)
        # nothing is kept past the call: an identical run formats again
        run_simulate(cfg, out_dir=str(tmp_path / "two"))
        assert len(calls) == 2 * first
        for name in ("traj_nonlinear.csv", "traj_koopman_lpv.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_seventeen_digit_floats_roundtrip(self):
        from kooplift.serialize import dumps_json, fmt_float

        rng = np.random.default_rng(11)
        for _ in range(200):
            value = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt_float(value)) == value
        doc = json.loads(dumps_json({"v": [0.1, 1 / 3, 2**-52]}))
        assert doc["v"][0] == 0.1 and doc["v"][1] == 1 / 3
