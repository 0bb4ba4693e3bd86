"""Sparse polynomial maps: evaluation, Jacobians, composition."""

import tracemalloc

import numpy as np
import pytest

from kooplift import Monomial, ObservableDictionary, PolynomialMap, dt_example
from kooplift.errors import DimensionError
from kooplift.lifting import _symbolic_lift
from kooplift.polynomials import (
    KERNEL_MIN_TERMS,
    TermArrays,
    compose_rows,
    graded,
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


def _term_bits(rows):
    # each row's terms in order, coefficients by their bits
    return [[(exps, float(c).hex()) for exps, c in row.items()] for row in rows]


def _arrays_of(rows, n_vars):
    # the term arrays of dict rows, in their order
    terms = [(r, exps, c) for r, row in enumerate(rows) for exps, c in row.items()]
    return TermArrays(
        np.array([t[0] for t in terms], dtype=np.intp),
        np.array([t[1] for t in terms], dtype=np.intp).reshape(len(terms), n_vars).T,
        np.array([t[2] for t in terms], dtype=float),
        len(rows),
    )


def _assert_arrays_equal(got, want):
    assert got.n_rows == want.n_rows
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("kernel", [False, True], ids=["term-loop", "kernel"])
    def test_overflowing_power_gives_a_signed_inf(self, kernel):
        # Python's float power raises past the float range; both single-point
        # forms take numpy's signed inf instead, as evaluate_batch does, and
        # a row that no overflow reaches keeps its bits
        rows = [{(3, 0): 1.0}, {(2, 0): 2.0}, {(3, 0): 1.0, (2, 0): 1.0}, {(0, 1): 0.5}]
        if kernel:
            rows[3].update({(0, e): 1.0 / e for e in range(2, KERNEL_MIN_TERMS + 1)})
        p = PolynomialMap(2, rows)
        assert (p._terms is None) == kernel
        x = np.array([-1e200, 0.75])
        # numpy warns on the kernel's inf - inf, as on the batch form's; the
        # runs hold both under np.errstate
        with np.errstate(over="ignore", invalid="ignore"):
            values = p.evaluate(x)
            batch = p.evaluate_batch(x[None])[0]
        assert values[0] == -np.inf and values[1] == np.inf and np.isnan(values[2])
        _assert_bits_equal(values[:3], batch[:3])
        _assert_bits_equal(values[3:], _naive_eval(p, [1.0, 0.75])[3:])

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

    def test_bincount_adds_each_bin_in_order(self):
        # canonical() and both array forms of evaluation sum their rows with
        # np.bincount, which adds a bin's weights one after another from 0.0:
        # each 1e-16 is lost against 1.0, while a pairwise sum keeps them
        values = np.array([1.0] + [1e-16] * 1000)
        bins = np.zeros(values.shape[0], dtype=np.intp)
        assert np.bincount(bins, values)[0] == 1.0
        assert np.sum(values) == 1.0000000000000988

    def test_zero_term_batch_is_float_zeros(self):
        # np.bincount of no weights gives int64
        p = PolynomialMap(2, [{}, {}, {}])
        out = p.evaluate_batch(np.ones((4, 2)))
        assert out.dtype == np.float64 and out.shape == (4, 3)
        _assert_bits_equal(out, np.zeros((4, 3)))

    def test_weighted_degree_input_column_matches_term_oracle(self):
        # the largest benchmark column: n_f = 120, 8503 terms over (x1, x2, u);
        # a batch block holds 2**17 // (2 * 8503) = 7 points, so the 30-point
        # batch takes 5 blocks with a short last one
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
        # every term lands in one bin, which np.bincount adds in term order;
        # a pairwise sum of the row would round differently
        rng = np.random.default_rng(n_terms)
        p = _map_with_terms(rng, 3, 1, 12, n_terms)
        assert p._terms is None  # the kernel evaluates single points too
        X = rng.normal(size=(40, 3))
        X[0] = 0.0
        _assert_matches_oracles(p, X)

    def test_one_long_row_among_short_ones(self):
        # rows of 300, 1, 1, ..., 1 terms: one long bin among nine of one
        # term, the long row first and last
        rng = np.random.default_rng(11)
        long_row = _map_with_terms(rng, 3, 1, 12, 300).rows[0]
        short = _map_with_terms(rng, 3, 9, 12, 9).rows
        for rows in ([long_row, *short], [*short, long_row]):
            p = PolynomialMap(3, rows)
            assert [len(row) for row in p.rows].count(1) == 9
            X = rng.normal(size=(20, 3))
            _assert_matches_oracles(p, X)

    @pytest.mark.parametrize("shape", ["empty-rows", "one-row", "long-row-among-single-terms"])
    def test_batch_blocks_match_term_loop(self, monkeypatch, shape):
        import kooplift.polynomials as polynomials

        # a batch of three whole blocks and a remainder, on ragged maps; each
        # block sums its terms into one bin per row and point
        rng = np.random.default_rng(12)
        if shape == "empty-rows":
            rows = [{}, *_map_with_terms(rng, 3, 4, 9, 90).rows, {}, {}]
        elif shape == "one-row":
            rows = _map_with_terms(rng, 3, 1, 12, 150).rows
        else:
            long_row = _map_with_terms(rng, 3, 1, 12, 300).rows[0]
            rows = [*_map_with_terms(rng, 3, 6, 12, 6).rows, long_row]
            rows += _map_with_terms(rng, 3, 3, 12, 3).rows
        p = PolynomialMap(3, rows)
        n_terms = p.arrays.coeff.shape[0]
        monkeypatch.setattr(polynomials, "_BATCH_BLOCK_FLOATS", 2 * n_terms * 4)
        X = rng.normal(size=(3 * 4 + 3, 3))
        X[5] = 0.0
        _assert_matches_oracles(p, X)

    def test_batch_memory_stays_within_its_block(self):
        # the D = 20 input column over 125 points: the live temporaries of
        # one block, term values and a gathered factor, stay near 1 MB
        _, column = _weighted_input_column(20)
        rng = np.random.default_rng(4)
        X = np.hstack([rng.uniform(-1.5, 1.5, (125, 2)), rng.uniform(-1.0, 1.0, (125, 1))])
        column.evaluate_batch(X[:1])  # builds the kernel
        tracemalloc.start()
        try:
            out = column.evaluate_batch(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20 + out.nbytes

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

    def test_matches_the_dict_comprehension(self):
        # the term arrays give the rows the per-row dict comprehension gave,
        # in order and bit for bit, on maps on both sides of the kernel
        # threshold, with empty and constant rows
        rng = np.random.default_rng(19)
        for n_terms in (1, 5, KERNEL_MIN_TERMS, 4 * KERNEL_MIN_TERMS):
            base = _map_with_terms(rng, 3, 4, 9, n_terms).rows
            for rows in (base, ({},) + base + ({(0, 0, 0): 2.5},)):
                p = PolynomialMap(3, rows)
                want = [
                    {
                        exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: coeff * exps[i]
                        for exps, coeff in row.items()
                        if exps[i]
                    }
                    for row in rows
                    for i in range(3)
                ]
                jac = p.jacobian()
                assert jac.n_out == 3 * len(rows)
                assert _term_bits(jac.rows) == _term_bits(want)
                _assert_arrays_equal(jac.arrays, _arrays_of(want, 3))


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

    def test_constructor_matches_the_dict_loop(self):
        # each row's items added in the order given, as the dict loop the
        # arrays replaced added them: a zero coefficient of either sign
        # skipped, a key dropped whenever its sum reaches 0.0, then the keys
        # sorted into graded order
        def dict_loop(rows):
            out = []
            for row in rows:
                terms = {}
                for exps, coeff in row.items() if isinstance(row, dict) else row:
                    if coeff == 0.0:
                        continue
                    new = terms.get(exps, 0.0) + coeff
                    if new == 0.0:
                        terms.pop(exps, None)
                    else:
                        terms[exps] = new
                out.append({k: terms[k] for k in graded(terms)})
            return out

        rng = np.random.default_rng(23)
        # values whose sums cancel to 0.0, round, or keep a -0.0 alone
        values = [0.1, 0.2, -0.3, 0.3, -0.1, 1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 2.5]
        keys = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)]
        cases = [
            [[((1, 0), 0.5), ((1, 0), -0.5)]],
            [[((1, 0), 0.5), ((1, 0), -0.5), ((1, 0), 0.25)], []],
            [{(0, 1): -0.0, (2, 0): 0.0}, {}],
            [[((0, 0), -0.0), ((0, 0), 3.0)]],
            [[((0, 1), 1e16), ((0, 1), 1.0), ((0, 1), -1e16)]],
            [[((0, 1), 1e16), ((0, 1), -1e16), ((0, 1), 1.0)]],
            [[((0, 1), 0.1), ((0, 1), 0.2), ((0, 1), -0.3)]],
            [{}, {}, {}],
        ]
        for _ in range(40):
            rows = []
            for _ in range(int(rng.integers(0, 5))):
                n = int(rng.integers(0, 12))
                picks = zip(rng.integers(0, len(keys), n), rng.integers(0, len(values), n))
                rows.append([(keys[k], values[v]) for k, v in picks])
            cases.append(rows)
        for rows in cases:
            p = PolynomialMap(2, rows)
            want = dict_loop(rows)
            assert p.n_out == len(rows)
            assert _term_bits(p.rows) == _term_bits(want)
            _assert_arrays_equal(p.arrays, _arrays_of(want, 2))

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

    def test_overflowing_power_gives_a_signed_inf(self):
        # as PolynomialMap.evaluate: numpy's signed inf where Python's float
        # power raises, and the bits of Python's power below the float range
        assert Monomial((2,)).evaluate([1e200]) == np.inf
        assert Monomial((3,)).evaluate([-1e200]) == -np.inf
        assert Monomial((2, 0)).evaluate([-1e200, np.nan]) == np.inf
        x = (1.7, -0.3, 1e-100)
        for exps in ((3, 0, 0), (5, 7, 1), (0, 2, 3)):
            want = 1.0
            for xi, e in zip(x, exps):
                if e:
                    want *= xi**e
            assert Monomial(exps).evaluate(x).hex() == want.hex()

    def test_terms_roundtrip(self):
        p = PolynomialMap(2, [{(1, 0): 0.7}, {(0, 1): 0.7, (2, 0): -0.5}])
        terms = [
            [{"exponents": list(exps), "coeff": c} for exps, c in row.items()]
            for row in p.rows
        ]
        clone = PolynomialMap.from_terms(2, terms)
        assert clone.n_vars == p.n_vars and clone.rows == p.rows
