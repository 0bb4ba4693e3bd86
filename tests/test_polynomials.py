"""Sparse polynomial maps: evaluation, Jacobians, composition."""

import numpy as np
import pytest

from kooplift import Monomial, ObservableDictionary, PolynomialMap, dt_example
from kooplift.errors import DimensionError
from kooplift.lifting import _symbolic_lift
from kooplift.polynomials import (
    KERNEL_MIN_TERMS,
    TermArrays,
    compose_rows,
    multiply_rows,
)


def _random_poly_map(rng, n_vars, n_out, degree, n_terms):
    rows = []
    for _ in range(n_out):
        terms = {}
        for _ in range(n_terms):
            exps = tuple(int(e) for e in rng.integers(0, degree + 1, n_vars))
            if sum(exps) > degree:
                continue
            terms[exps] = float(rng.normal())
        rows.append(terms)
    return PolynomialMap(n_vars, rows)


def _naive_eval(p, x):
    # independent term-by-term oracle on plain python floats
    out = []
    for row in p.rows:
        acc = 0.0
        for exps, coeff in row.items():
            v = coeff
            for xi, e in zip(x, exps):
                v *= float(xi) ** e
            acc += v
        out.append(acc)
    return np.array(out)


def _naive_eval_batch(p, X):
    # the same loop over numpy columns: numpy's power can differ from
    # python's in the last bit, so the batch path has its own oracle
    out = np.zeros((X.shape[0], p.n_out))
    for r, row in enumerate(p.rows):
        for exps, coeff in row.items():
            v = np.full(X.shape[0], coeff)
            for i, e in enumerate(exps):
                v *= X[:, i] ** e
            out[:, r] += v
    return out


def _assert_bits_equal(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _assert_matches_oracles(p, X):
    for x in X:
        _assert_bits_equal(p.evaluate(x), _naive_eval(p, x))
    _assert_bits_equal(p.evaluate_batch(X), _naive_eval_batch(p, X))


def _map_with_terms(rng, n_vars, n_out, degree, n_terms):
    # exactly n_terms distinct terms dealt round-robin over the rows
    terms = {}
    while len(terms) < n_terms:
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, n_vars))
        terms[exps] = float(rng.normal())
    rows = [{} for _ in range(n_out)]
    for j, (exps, coeff) in enumerate(terms.items()):
        rows[j % n_out][exps] = coeff
    return PolynomialMap(n_vars, rows)


def _weighted_input_column(degree):
    # dt-example's input column over (x1, x2, u) for the exact dictionary
    # {x1^a x2^b : 0 < a + 2b <= degree}
    exponents = [
        (a, b)
        for b in range(degree // 2 + 1)
        for a in range(degree - 2 * b + 1)
        if a + b
    ]
    dictionary = ObservableDictionary(2, [Monomial(e) for e in exponents])
    decomposition = dt_example().decomposition
    _, _, _, columns = _symbolic_lift(
        decomposition.autonomous, decomposition.input_polynomial, dictionary, "discrete"
    )
    return dictionary, columns[0]


class TestEvaluation:
    def test_benchmark_autonomous_map_at_ones(self):
        # x+ = [a1 x1, a2 x2 - a3 x1^2] with a1 = a2 = 0.7, a3 = 0.5;
        # at x = (1, 1) the rows are 0.7 and 0.7 - 0.5 (= 0.2 up to rounding)
        f = PolynomialMap(2, [{(1, 0): 0.7}, {(0, 1): 0.7, (2, 0): -0.5}])
        values = f.evaluate([1.0, 1.0])
        np.testing.assert_array_equal(values, [0.7, 0.7 - 0.5])
        np.testing.assert_allclose(values, [0.7, 0.2], rtol=0, atol=1e-15)

    def test_zero_polynomial(self):
        p = PolynomialMap(3, [{}, {}])
        np.testing.assert_array_equal(p.evaluate([1.0, -2.0, 3.0]), [0.0, 0.0])

    def test_random_map_matches_term_oracle(self):
        # bit for bit, on maps below and at or above the array-kernel threshold
        rng = np.random.default_rng(7)
        for n_terms in (1, 6, KERNEL_MIN_TERMS - 1, KERNEL_MIN_TERMS, 4 * KERNEL_MIN_TERMS):
            for _ in range(5):
                p = _map_with_terms(rng, 3, 4, 9, n_terms)
                X = rng.normal(size=(7, 3))
                X[0] = 0.0  # zero powers and signed-zero terms
                _assert_matches_oracles(p, X)

    def test_empty_rows_match_term_oracle(self):
        rng = np.random.default_rng(9)
        big = _map_with_terms(rng, 2, 3, 12, 2 * KERNEL_MIN_TERMS)
        # at x = 0 every term of this row is -0.0, and the row sums to +0.0
        negative = {(e, 0): -1.0 for e in range(1, KERNEL_MIN_TERMS + 1)}
        X = rng.normal(size=(5, 2))
        X[0] = 0.0
        for rows in (
            [{}] + list(big.rows) + [{}],
            [negative, {}],
            [{(1, 0): 2.0}, {}, {(0, 3): -1.0}],
            [{}, {}, {}],
        ):
            _assert_matches_oracles(PolynomialMap(2, rows), X)

    def test_weighted_degree_input_column_matches_term_oracle(self):
        # the largest benchmark column: n_f = 120, 8503 terms over (x1, x2, u);
        # its padded 245 x 120 block gives 4 points per 2**17-float chunk, so
        # the 30-point batch takes 8 chunks with a short last one
        dictionary, column = _weighted_input_column(20)
        assert dictionary.n_f == 120
        assert sum(len(row) for row in column.rows) == 8503
        rng = np.random.default_rng(3)
        X = np.hstack([rng.uniform(-1.5, 1.5, (30, 2)), rng.uniform(-1.0, 1.0, (30, 1))])
        for x in X[:3]:
            _assert_bits_equal(column.evaluate(x), _naive_eval(column, x))
        _assert_bits_equal(column.evaluate_batch(X), _naive_eval_batch(column, X))

    @pytest.mark.parametrize("n_terms", [KERNEL_MIN_TERMS, 40, 200])
    def test_one_row_map_matches_term_oracle(self, n_terms):
        # numpy drops a unit axis, and a one-row layout summed over its only
        # other axis would be summed pairwise; n_out is padded to keep it
        rng = np.random.default_rng(n_terms)
        p = _map_with_terms(rng, 3, 1, 12, n_terms)
        assert p.scalar_terms is None
        X = rng.normal(size=(40, 3))
        X[0] = 0.0
        _assert_matches_oracles(p, X)

    def test_one_long_row_among_short_ones(self):
        # rows of 300, 1, 1, ..., 1 terms: nine of ten rows are almost all
        # padding
        rng = np.random.default_rng(11)
        long_row = _map_with_terms(rng, 3, 1, 12, 300).rows[0]
        short = _map_with_terms(rng, 3, 9, 12, 9).rows
        for rows in ([long_row, *short], [*short, long_row]):
            p = PolynomialMap(3, rows)
            assert [len(row) for row in p.rows].count(1) == 9
            X = rng.normal(size=(20, 3))
            _assert_matches_oracles(p, X)

    @pytest.mark.parametrize("lead", [(3, 5), (1, 1), (15,), (1, 15), (5, 1, 3)])
    @pytest.mark.parametrize("n_out", [1, 2, 4])
    def test_sum_terms_over_leading_dimensions(self, lead, n_out):
        # a power table of shape lead + (columns,) puts the reduced axis in
        # the middle of the padded block; each point keeps its batch bits
        rng = np.random.default_rng(13)
        p = _map_with_terms(rng, 3, n_out, 9, 4 * KERNEL_MIN_TERMS)
        kernel = p._kernel
        X = rng.normal(size=(int(np.prod(lead)), 3))
        table = np.stack(
            [X[:, i] ** e for i, m in enumerate(kernel.max_exp) for e in range(m + 1)],
            axis=1,
        )
        got = kernel._sum_terms(table.reshape(lead + table.shape[1:]))
        _assert_bits_equal(got, _naive_eval_batch(p, X).reshape(lead + (n_out,)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        p = _random_poly_map(rng, 2, 3, 4, 8)
        X = rng.normal(size=(11, 2))
        batch = p.evaluate_batch(X)
        single = np.stack([p.evaluate(x) for x in X])
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch(self):
        p = PolynomialMap(2, [{(1, 0): 1.0}])
        with pytest.raises(DimensionError):
            p.evaluate([1.0, 2.0, 3.0])

    def test_single_term_value(self):
        p = PolynomialMap(1, [{(2,): 3.0}])
        np.testing.assert_array_equal(p.evaluate([2.0]), [12.0])


class TestJacobian:
    def test_dictionary_style_map(self):
        # Phi = [x1, x2, x1^2] -> dPhi/dx = [[1,0],[0,1],[2 x1,0]]
        phi = PolynomialMap(2, [{(1, 0): 1.0}, {(0, 1): 1.0}, {(2, 0): 1.0}])
        jac = phi.jacobian().evaluate([3.0, 5.0]).reshape(3, 2)
        np.testing.assert_array_equal(jac, [[1, 0], [0, 1], [6, 0]])

    def test_constant_polynomial_has_zero_jacobian(self):
        p = PolynomialMap(2, [{(0, 0): 4.2}])
        assert p.jacobian().rows == ({}, {})

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = _random_poly_map(rng, 3, 2, 4, 7)
        jac = p.jacobian()
        h = 1e-6
        for _ in range(10):
            x = rng.normal(size=3)
            J = jac.evaluate(x).reshape(2, 3)
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (p.evaluate(xp) - p.evaluate(xm)) / (2 * h)
                scale = 1.0 + np.abs(J[:, i])
                assert np.all(np.abs(J[:, i] - fd) <= 1e-6 * scale)

    def test_flattening_order(self):
        p = PolynomialMap(2, [{(1, 1): 2.0}])
        jac = p.jacobian()
        # row j*n_vars + i is d(row j)/d(x_i)
        assert jac.rows[0] == {(0, 1): 2.0}
        assert jac.rows[1] == {(1, 0): 2.0}


def _dict_product(a, b):
    # the term-by-term product the array form replaces, as a reference
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            c = ca * cb
            if c == 0.0:
                continue
            key = tuple(i + j for i, j in zip(ea, eb))
            new = out.get(key, 0.0) + c
            if new == 0.0:
                del out[key]
            else:
                out[key] = new
    return PolynomialMap(len(next(iter(a))), [out]).rows[0] if out else {}


def _single_rows(*rows):
    n_vars = len(next(iter(rows[0])))
    return PolynomialMap(n_vars, list(rows)).arrays


class TestAlgebra:
    def test_mul_bilinear_random(self):
        rng = np.random.default_rng(5)
        a = _random_poly_map(rng, 2, 1, 3, 5).rows[0]
        b = _random_poly_map(rng, 2, 1, 3, 5).rows[0]
        prod = multiply_rows(_single_rows(a), _single_rows(b), np.zeros(len(a), dtype=np.intp))
        (row,) = prod.to_rows()
        assert list(row.items()) == list(_dict_product(a, b).items())
        for _ in range(5):
            x = rng.normal(size=2)
            va = _naive_eval(PolynomialMap(2, [a]), x)[0]
            vb = _naive_eval(PolynomialMap(2, [b]), x)[0]
            vp = _naive_eval(PolynomialMap(2, [row]), x)[0]
            assert abs(vp - va * vb) <= 1e-12 * (1 + abs(va * vb))

    def test_pow_via_cache(self):
        # (2x + 1)^3 from the power table of compose_rows
        base = _single_rows({(1,): 2.0, (0,): 1.0})
        (cubed,) = compose_rows(np.array([[3]]), base).to_rows()
        assert list(cubed.items()) == [((0,), 1.0), ((1,), 6.0), ((2,), 12.0), ((3,), 8.0)]

    def test_compose_monomial(self):
        # substitute f = [x1 + x2, x1 * x2] into x1^2 x2, x1 and 1
        components = _single_rows({(1, 0): 1.0, (0, 1): 1.0}, {(1, 1): 1.0})
        rows = compose_rows(np.array([[2, 1], [1, 0], [0, 0]]), components).to_rows()
        # (x1 + x2)^2 * x1 x2 = x1^3 x2 + 2 x1^2 x2^2 + x1 x2^3
        assert list(rows[0].items()) == [((3, 1), 1.0), ((2, 2), 2.0), ((1, 3), 1.0)]
        assert list(rows[1].items()) == [((1, 0), 1.0), ((0, 1), 1.0)]
        assert rows[2] == {(0, 0): 1.0}
        # no observables: no rows
        assert compose_rows(np.zeros((0, 2), dtype=np.intp), components).to_rows() == ()

    def test_products_cancel_and_underflow(self):
        # (1 + x + x^2)(1 - x + x^2) = 1 + x^2 + x^4: the x^2 sum cancels to
        # 0.0 after two of its three products, then starts again
        a = {(0,): 1.0, (1,): 1.0, (2,): 1.0}
        b = {(0,): 1.0, (1,): -1.0, (2,): 1.0}
        # (1 + x + 1e-200 x^2)(-1 + x - 1e-200 x^2): 1e-200 * -1e-200 is -0.0
        c = {(1,): 1.0, (0,): 1.0, (2,): 1e-200}
        d = {(1,): 1.0, (0,): -1.0, (2,): -1e-200}
        for left, right, want in (
            (a, b, [((0,), 1.0), ((2,), 1.0), ((4,), 1.0)]),
            (c, d, [((0,), -1.0), ((2,), 1.0)]),
        ):
            prod = multiply_rows(_single_rows(left), _single_rows(right), np.zeros(3, dtype=np.intp))
            (row,) = prod.to_rows()
            assert list(row.items()) == want
            assert list(row.items()) == list(_dict_product(left, right).items())

    def test_keys_past_16_bits(self):
        # exponents and row numbers past 2**15 take 64-bit sort keys
        terms = TermArrays(
            np.array([0, 0, 0, 39999]),
            np.array([[40000, 0, 40000, 1], [0, 40000, 0, 0]]),
            np.array([1.0, 2.0, 3.0, -4.0]),
            40000,
        ).canonical()
        np.testing.assert_array_equal(terms.row, [0, 0, 39999])
        np.testing.assert_array_equal(terms.exps, [[40000, 0, 1], [0, 40000, 0]])
        np.testing.assert_array_equal(terms.coeff, [4.0, 2.0, -4.0])

    def test_blocks_of_rows_keep_the_bits(self, monkeypatch):
        # pairs formed one row at a time give the rows formed all at once
        import kooplift.polynomials as polynomials

        rng = np.random.default_rng(17)
        left = _random_poly_map(rng, 3, 6, 4, 12).arrays
        right = _random_poly_map(rng, 3, 4, 4, 9).arrays
        pick = rng.integers(0, 4, left.coeff.shape[0])
        whole = multiply_rows(left, right, pick)
        monkeypatch.setattr(polynomials, "_PRODUCT_BLOCK_PAIRS", 1)
        blocked = multiply_rows(left, right, pick)
        for got, want in zip(blocked, whole):
            np.testing.assert_array_equal(got, want)
        exponents = rng.integers(0, 4, (5, 4))
        monkeypatch.setattr(polynomials, "_PRODUCT_BLOCK_PAIRS", 3)
        small = compose_rows(exponents, right)
        monkeypatch.undo()
        for got, want in zip(small, compose_rows(exponents, right)):
            np.testing.assert_array_equal(got, want)

    def test_duplicate_terms_merge(self):
        p = PolynomialMap(1, [[((1,), 2.0), ((1,), 3.0)]])
        assert p.rows[0] == {(1,): 5.0}

    def test_zero_coefficients_dropped(self):
        p = PolynomialMap(1, [{(1,): 0.0, (2,): 1.0}])
        assert p.rows[0] == {(2,): 1.0}


class TestMonomial:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_degree_and_eval(self):
        m = Monomial((2, 1))
        assert m.degree == 3
        assert m.evaluate([2.0, 3.0]) == 12.0

    def test_terms_roundtrip(self):
        p = PolynomialMap(2, [{(1, 0): 0.7}, {(0, 1): 0.7, (2, 0): -0.5}])
        terms = [
            [{"exponents": list(exps), "coeff": c} for exps, c in row.items()]
            for row in p.rows
        ]
        clone = PolynomialMap.from_terms(2, terms)
        assert clone.n_vars == p.n_vars and clone.rows == p.rows
