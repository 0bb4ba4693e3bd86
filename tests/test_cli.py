"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from kooplift import cli
from kooplift.cli import (
    main,
    preset_runs,
    resolve_horizon,
    resolve_system,
    resolve_x0,
    run_edmd,
    run_reproduce,
    run_simulate,
)
from kooplift.errors import ConfigError, DivergenceError
from kooplift.lpv import output_matrix


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
        bundle = resolve_system({"system": "ct-example"})
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert resolve_horizon({"ts": 0.1, "horizon_seconds": 0.3}, bundle) == (3, 0.1)
        assert resolve_horizon({"ts": 1e-4, "horizon_seconds": 25.0}, bundle) == (250000, 1e-4)
        assert resolve_horizon({"ts": 1e-4, "horizon_seconds": 0.5}, bundle) == (5000, 1e-4)


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

    def test_grid_budget_admits_the_default_density(self):
        bundle = resolve_system(DT_CFG)  # n_x + n_u = 3
        assert cli.resolve_bounds({"bounds": {"mode": "grid"}}, bundle) == ("grid", 101)
        assert 101**3 <= cli.MAX_GRID_POINTS < 102**4


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

    def test_sweep_without_search_matches_searched_zero_rows(self):
        rows = {}
        for search in (True, False):
            cfg = dict(DT_CFG, sweep={"degrees": [2, 3], "alpha_search": search})
            rows[search] = run_edmd(cfg)["sweep_rows"]
        assert [row[:2] for row in rows[False]] == [[2, 0.0], [3, 0.0]]
        assert rows[False] == rows[True][::2]

    def test_sweep_rows_when_every_candidate_diverges(self, monkeypatch):
        cfg = dict(DT_CFG, fits=["edmdc"])
        base = run_simulate(cfg)
        bundle = resolve_system(cfg)

        def diverge(*args, **kwargs):
            raise DivergenceError("diverged", step=1)

        monkeypatch.setattr(cli, "simulate_lti", diverge)
        rows, _ = cli._degree_sweep(
            bundle,
            base,
            base["trajectories"]["nonlinear"],
            base["inputs"],
            resolve_x0(cfg, bundle),
            2,
            2,
            True,
            1e12,
        )
        assert rows[0] == [2, 0.0, float("inf"), float("inf"), 1]
        assert rows[1][0] == 2 and np.isnan(rows[1][1]) and rows[1][2:] == [
            float("inf"), float("inf"), 1
        ]

    def test_alpha_objective_simulates_the_fit_it_receives(self):
        # a zero model outputs x0 and then zeros; a refit would not
        cfg = dict(DT_CFG, fits=["edmdc"])
        base = run_simulate(cfg)
        bundle = resolve_system(cfg)
        nonlinear = base["trajectories"]["nonlinear"]
        dictionary = bundle.dictionary
        C = output_matrix(dictionary)
        z0 = dictionary.evaluate(resolve_x0(cfg, bundle))
        reports = {}
        objective = cli._alpha_objective(
            nonlinear, C, "discrete", z0, base["inputs"], None, 1e12, reports
        )
        n_f = dictionary.n_f
        cost = objective(0.5, (np.zeros((n_f, n_f)), np.zeros((n_f, 1))))
        expected = np.sqrt(np.sum(nonlinear.states[1:] ** 2, axis=0))
        np.testing.assert_array_equal(reports[0.5].l2, expected)
        assert cost == float(np.sum(expected))

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


class TestSerializationFormat:
    @pytest.mark.parametrize("block_rows", [2, 1024])
    def test_trajectory_csv_bytes_match_cell_formatting(
        self, tmp_path, monkeypatch, block_rows
    ):
        from kooplift import serialize
        from kooplift.serialize import write_csv, write_trajectory_csv
        from kooplift.sim import Trajectory

        # 2 rows per block splits the five rows over three blocks
        monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", block_rows)

        states = np.array(
            [
                [-0.0, 5e-324, 2.2250738585072014e-308],
                [1e308, -1e308, 3.0],
                [np.nan, 1.0 / 3.0, -2.0],
                [np.inf, -np.inf, 0.0],
                [0.1, -7.5e-17, 123456789012345678.0],
            ]
        )
        inputs = np.array([[0.0], [-0.0], [np.nan], [1e-310], [-4.0]])
        traj = Trajectory([0.0, 1.0, 2.5, 1e300, 1e308], states, inputs=inputs)
        header = ["t", "x1", "x2", "x3", "u1"]
        rows = [[t, *x, *u] for t, x, u in zip(traj.times, states, inputs)]
        fast = write_trajectory_csv(tmp_path / "fast.csv", traj)
        cells = write_csv(tmp_path / "cells.csv", header, rows)
        assert fast.read_bytes() == cells.read_bytes()
        assert b"-0," in fast.read_bytes() and b"NaN" in fast.read_bytes()

    def test_seventeen_digit_floats_roundtrip(self):
        from kooplift.serialize import dumps_json, fmt_float

        rng = np.random.default_rng(11)
        for _ in range(200):
            value = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt_float(value)) == value
        doc = json.loads(dumps_json({"v": [0.1, 1 / 3, 2**-52]}))
        assert doc["v"][0] == 0.1 and doc["v"][1] == 1 / 3
