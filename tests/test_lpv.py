"""The lifted model's LPV view (A, B(x, u) through factored_input, C and
the scheduling), its step, and the LTI containers."""

import json

import numpy as np
import pytest

from kooplift import (
    Monomial,
    ObservableDictionary,
    PolynomialMap,
    build_lifted_model,
    ct_example,
    dt_example,
    make_lti,
    monomial_dictionary,
    output_matrix,
)
from kooplift.errors import DimensionError
from kooplift.lpv import lifted_step
from kooplift.serialize import dumps_json
from kooplift.systems import control_affine_decomposition


def _dt_model():
    bundle = dt_example()
    lifted = build_lifted_model(bundle.decomposition, bundle.dictionary)
    return bundle, lifted


def _step(model, z, u):
    """One lifted step A z + B(x, u) u, x = C z, as the simulations take it."""
    selector = list(model.dictionary.state_selector)
    return lifted_step(model.A, model.factored_input, selector)(
        np.asarray(z, dtype=float), np.asarray(u, dtype=float)
    )


class TestLpvView:
    def test_dt_benchmark_scheduling_and_output(self):
        bundle, model = _dt_model()
        # scheduled on [z; u], C = [I2 0]
        assert model.scheduling == "stack-zu"
        np.testing.assert_array_equal(model.C, [[1, 0, 0], [0, 1, 0]])

    def test_ct_benchmark_keeps_input_in_schedule(self):
        bundle = ct_example()
        model = build_lifted_model(bundle.decomposition, bundle.dictionary)
        assert model.scheduling == "stack-zu"
        np.testing.assert_array_equal(model.C, [[1, 0, 0], [0, 1, 0]])

    def test_ct_control_affine_drops_input(self):
        # polynomial control-affine CT system: B depends on the state only
        f = PolynomialMap(2, [{(1, 0): -1.0}, {(0, 1): -2.0}])
        column = PolynomialMap(2, [{(0, 0): 1.0}, {(1, 0): 1.0}])
        split = control_affine_decomposition(f, [column], "continuous")
        model = build_lifted_model(split, monomial_dictionary(2, 2))
        assert not model.input_dependent
        assert model.scheduling == "stack-z"
        # the input matrix is the same for any input
        x = np.array([0.3, -0.4])
        B = model.factored_input(x, np.zeros(1))
        np.testing.assert_array_equal(model.factored_input(x, np.array([0.9])), B)
        expect = model.dictionary.jacobian(np.array([0.3, -0.4])) @ np.array(
            [[1.0], [0.3]]
        )
        np.testing.assert_allclose(B, expect, rtol=0, atol=1e-14)

    def test_autonomous_input_matrix_is_zero(self):
        f = PolynomialMap(2, [{(1, 0): 0.5}, {(0, 1): 0.5}])
        column = PolynomialMap(2, [{}, {}])
        split = control_affine_decomposition(f, [column], "discrete")
        model = build_lifted_model(split, monomial_dictionary(2, 1))
        z = np.array([1.0, -1.0])
        u = np.array([0.7])
        np.testing.assert_array_equal(
            _step(model, z, u), model.A @ z
        )

    def test_missing_state_selector_rejected(self):
        d = ObservableDictionary(2, [Monomial((2, 0)), Monomial((1, 1))])
        bundle = dt_example()
        lifted = build_lifted_model(bundle.decomposition, d, strict=False)
        with pytest.raises(ValueError) as exc:
            lifted.C
        assert "state selector" in str(exc.value) or "selector" in str(exc.value)


class TestEvalStep:
    def test_unit_lift_zero_input(self):
        _, model = _dt_model()
        step = _step(model, np.ones(3), np.zeros(1))
        # A @ [1, 1, 1] with rows (0.7), (0.7 - 0.5), (0.49)
        np.testing.assert_array_equal(step, [0.7, 0.7 - 0.5, 0.7 * 0.7])
        np.testing.assert_allclose(step, [0.7, 0.2, 0.49], rtol=0, atol=1e-15)

    def test_matches_direct_nonlinear_step(self):
        bundle, model = _dt_model()
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            z = bundle.dictionary.evaluate(x)
            successor = _step(model, z, u)
            direct = bundle.dictionary.evaluate(bundle.decomposition.eval_full(x, u))
            assert np.all(np.abs(successor - direct) <= 1e-12 * (1 + np.abs(direct)))

    def test_consistency_with_lifted_evaluation(self):
        # scheduling + factorisation round trip equals A Phi + input term
        for bundle in (ct_example(), dt_example()):
            model = build_lifted_model(bundle.decomposition, bundle.dictionary)
            rng = np.random.default_rng(1)
            X = bundle.state_box.sample(rng, 1000)
            U = bundle.input_box.sample(rng, 1000)
            for x, u in zip(X, U):
                z = bundle.dictionary.evaluate(x)
                via_lpv = _step(model, z, u)
                via_lift = model.A @ z + model.input_term(x, u)
                assert np.all(np.abs(via_lpv - via_lift) <= 1e-10 * (1 + np.abs(via_lift)))


class TestOutputRecovery:
    def test_exact_recovery_via_selector(self):
        bundle, model = _dt_model()
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-5, 5, 2)
            z = bundle.dictionary.evaluate(x)
            np.testing.assert_array_equal(model.C @ z, x)

    def test_output_matrix_requires_selector(self):
        d = ObservableDictionary(2, [Monomial((2, 0)), Monomial((1, 1))])
        with pytest.raises(ValueError):
            output_matrix(d)


class TestMakeLti:
    def test_packaging_and_output(self):
        A = np.diag([0.5, 0.2])
        B = np.array([[1.0], [0.0]])
        C = np.eye(2)
        model = make_lti(A, B, C)
        np.testing.assert_array_equal(model.C @ np.array([3.0, 4.0]), [3.0, 4.0])

    def test_frozen_lpv_matrix_is_valid_lti(self):
        bundle, model = _dt_model()
        x = np.array([0.5, -0.5])
        u = np.array([0.3])
        B = model.factored_input(x, u)
        lti = make_lti(model.A, B, model.C)
        assert lti.n_f == 3 and lti.n_u == 1

    def test_zero_input_matrix_autonomous(self):
        _, model = _dt_model()
        lti = make_lti(model.A, np.zeros((3, 1)), model.C)
        z = np.array([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(lti.A @ z, model.A @ z)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            make_lti(np.zeros((2, 3)), np.zeros((2, 1)), np.eye(2))
        with pytest.raises(DimensionError):
            make_lti(np.zeros((2, 2)), np.zeros((3, 1)), np.eye(2))
        with pytest.raises(DimensionError):
            make_lti(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 3)))


class TestDocuments:
    def test_lpv_document_fields(self):
        _, model = _dt_model()
        doc = json.loads(dumps_json(model.lpv_document()))
        assert doc["scheduling"] == "stack-zu"
        np.testing.assert_array_equal(np.array(doc["A"]), model.A)
        np.testing.assert_array_equal(np.array(doc["C"]), model.C)

    def test_lti_document_roundtrip(self):
        _, model = _dt_model()
        lti = make_lti(model.A, np.ones((3, 1)), model.C)
        doc = json.loads(dumps_json(lti.to_document()))
        np.testing.assert_array_equal(np.array(doc["B"]), lti.B)
