"""Observable dictionaries: generation, ordering, evaluation, Jacobians."""

from math import comb

import numpy as np
import pytest

from kooplift import (
    Monomial,
    ObservableDictionary,
    monomial_dictionary,
    parse_dictionary,
    parse_monomial,
)
from kooplift.errors import DimensionError, NumericEvaluationError


def _central_difference(func, x):
    """Central-difference Jacobian of ``func`` at ``x``, one column per
    coordinate, with the step cbrt(eps) * max(1, |x_j|)."""
    cols = []
    for j in range(x.shape[0]):
        h = float(np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, abs(float(x[j])))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((func(xp) - func(xm)) / (xp[j] - xm[j]))
    return np.stack(cols, axis=-1)


class TestMonomialDictionary:
    def test_count_degree_3(self):
        # full monomial set x1^a x2^b with 1 <= a+b <= 3 has 9 entries
        assert monomial_dictionary(2, 3).n_f == 9

    def test_degree_1_is_identity(self):
        d = monomial_dictionary(2, 1)
        assert [o.exponents for o in d.observables] == [(1, 0), (0, 1)]
        assert d.state_selector == (0, 1)

    @pytest.mark.parametrize("n_x,degree", [(2, 20), (3, 5), (1, 7), (4, 3)])
    def test_count_matches_combinatorial_oracle(self, n_x, degree):
        # number of monomials of total degree 1..d in n variables
        expected = comb(n_x + degree, n_x) - 1
        assert monomial_dictionary(n_x, degree).n_f == expected

    def test_degree_20_count_value(self):
        assert monomial_dictionary(2, 20).n_f == 230

    def test_identity_observables_first(self):
        d = monomial_dictionary(3, 4)
        assert [o.exponents for o in d.observables[:3]] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]
        assert d.state_selector == (0, 1, 2)

    def test_graded_ordering(self):
        d = monomial_dictionary(2, 2)
        assert [o.exponents for o in d.observables] == [
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_constant_appended_last(self):
        d = monomial_dictionary(2, 2, include_constant=True)
        assert d.observables[-1].exponents == (0, 0)
        assert d.state_selector == (0, 1)
        assert d.n_f == 6

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            monomial_dictionary(2, 0)


class TestEvaluation:
    def test_benchmark_dictionary_at_ones(self):
        d = ObservableDictionary(2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))])
        np.testing.assert_array_equal(d.evaluate([1.0, 1.0]), [1.0, 1.0, 1.0])

    def test_vanishes_at_origin_without_constant(self):
        d = monomial_dictionary(2, 5)
        np.testing.assert_array_equal(d.evaluate([0.0, 0.0]), np.zeros(d.n_f))

    def test_degree_4_against_direct_powers(self):
        d = monomial_dictionary(2, 4)
        x = np.array([0.3, -0.7])
        values = d.evaluate(x)
        for j, obs in enumerate(d.observables):
            # direct recomputation from the exponents
            assert values[j] == np.prod(x ** np.array(obs.exponents))
            a, b = obs.exponents
            assert values[j] == pytest.approx(
                float(x[0]) ** a * float(x[1]) ** b, rel=1e-14
            )

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        d = monomial_dictionary(3, 3)
        X = rng.normal(size=(17, 3))
        np.testing.assert_array_equal(
            d.evaluate_batch(X), np.stack([d.evaluate(x) for x in X])
        )

    def test_nonfinite_reports_observable_index(self):
        # x2 = inf leaves the first two observables finite
        d = ObservableDictionary(2, [Monomial((1, 0)), Monomial((2, 0)), Monomial((0, 1))])
        with pytest.raises(NumericEvaluationError) as exc:
            d.evaluate([2.0, np.inf])
        assert exc.value.index == 2

    def test_dimension_mismatch(self):
        d = monomial_dictionary(2, 2)
        with pytest.raises(DimensionError):
            d.evaluate([1.0, 2.0, 3.0])


class TestJacobian:
    def test_benchmark_dictionary(self):
        d = ObservableDictionary(2, [Monomial((1, 0)), Monomial((0, 1)), Monomial((2, 0))])
        np.testing.assert_array_equal(
            d.jacobian([3.0, -1.0]), [[1.0, 0.0], [0.0, 1.0], [6.0, 0.0]]
        )

    def test_small_and_map_paths_agree(self):
        rng = np.random.default_rng(4)
        small = monomial_dictionary(2, 3)  # template path
        big = monomial_dictionary(2, 12)  # Jacobian-map path (n_f * n_x > 64)
        assert small._jac_small is not None
        assert big._jac_small is None
        for _ in range(5):
            x = rng.normal(size=2)
            J = big.jacobian(x)
            for j, obs in enumerate(big.observables):
                a, b = obs.exponents
                expect = np.array(
                    [
                        a * x[0] ** (a - 1) * x[1] ** b if a else 0.0,
                        b * x[0] ** a * x[1] ** (b - 1) if b else 0.0,
                    ]
                )
                np.testing.assert_allclose(J[j], expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "observables",
        [
            # mixed degrees, the constant among them: the Jacobian template
            [
                Monomial((1, 0)),
                Monomial((0, 1)),
                Monomial((0, 0)),
                Monomial((2, 1)),
                Monomial((0, 3)),
            ],
            # the Jacobian map: n_f * n_x = 130 > 64
            [Monomial((a, b)) for a in range(11) for b in range(11 - a) if a + b],
        ],
        ids=["mixed", "large"],
    )
    def test_jacobian_matches_finite_differences(self, observables):
        d = ObservableDictionary(2, observables)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 2)
            J = d.jacobian(x)
            assert J.shape == (d.n_f, 2)
            fd = _central_difference(d.evaluate, x)
            np.testing.assert_allclose(J, fd, rtol=1e-7, atol=1e-8)


class TestSelectors:
    def test_selector_requires_identity_monomials(self):
        with pytest.raises(ValueError):
            ObservableDictionary(2, [Monomial((2, 0)), Monomial((0, 1))], state_selector=[0, 1])

    def test_no_selector_detected_without_identities(self):
        d = ObservableDictionary(2, [Monomial((2, 0)), Monomial((1, 1))])
        assert d.state_selector is None

    def test_description_roundtrip(self):
        d = monomial_dictionary(2, 3)
        clone = ObservableDictionary.from_description(d.describe())
        assert [o.exponents for o in clone.observables] == [
            o.exponents for o in d.observables
        ]
        assert clone.state_selector == d.state_selector


class TestParsing:
    def test_parse_benchmark_dictionary(self):
        d = parse_dictionary("x1,x2,x1^2", 2)
        assert [o.exponents for o in d.observables] == [(1, 0), (0, 1), (2, 0)]

    def test_parse_products_and_powers(self):
        assert parse_monomial("x1^2*x2", 2).exponents == (2, 1)
        assert parse_monomial("1", 2).exponents == (0, 0)

    def test_parse_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_monomial("x3", 2)
