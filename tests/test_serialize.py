"""The trajectory CSVs' block formatter against ``fmt_float``, cell for cell."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kooplift.serialize import _CELL_BYTES, _CELL_WORDS, _format_cells, fmt_float


def _texts(values) -> list:
    """The text of each cell the block formatter writes, NULs dropped. The
    buffer starts out all 0xFF bytes, so a byte the formatter leaves
    unwritten shows."""
    values = np.asarray(values, np.float64)
    out = np.full(values.size * _CELL_WORDS, 0xFFFFFFFF, np.uint32)
    raw = _format_cells(values, out).view(np.uint8).reshape(values.size, _CELL_BYTES)
    assert (raw[:, -1] == ord(",")).all()
    return [bytes(cell[cell != 0]).decode("ascii") for cell in raw[:, :-1]]


def _assert_cells(values) -> None:
    values = np.asarray(values, np.float64)
    expected = [fmt_float(v) for v in values.ravel().tolist()]
    got = _texts(values)
    wrong = [(v, g, x) for v, g, x in zip(values.ravel().tolist(), got, expected) if g != x]
    assert not wrong, wrong[:5]


def _powers_of_ten() -> np.ndarray:
    """``10.0**k`` and the correctly rounded ``1e<k>`` for k in -323..308,
    each with both neighbours and its negation."""
    values = []
    for k in range(-323, 309):
        for p in {10.0**k, float(f"1e{k}")}:
            values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    values = np.array(values)
    return np.concatenate([values, -values])


def _ties() -> np.ndarray:
    """``n + 0.25`` and ``n + 0.75`` for n in [1e15, 2**51): exact doubles
    whose 18th significant digit is a 5 with nothing after it, so rounding
    to 17 digits is a true tie (``1234567890123456.25``), and their
    neighbours."""
    rng = np.random.default_rng(34)
    n = np.concatenate(
        [
            np.arange(10**15, 10**15 + 500),
            np.arange(2**51 - 500, 2**51),
            rng.integers(10**15, 2**51, 2000),
            [1234567890123456],
        ]
    ).astype(np.float64)
    ties = np.concatenate([n + 0.25, n + 0.75])
    return np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])


# doubles whose scaled value |v| 10^(16 - E) lies within 1e-15 of a half-integer
# without being one. Rounded in double-double arithmetic, whose error there is
# up to ~2e-15, some land on the wrong side of the half: these are the cells
# the tie margin hands to fmt_float. They were found by solving
# m 5^s = 2^(j-1) + r (mod 2^j) for the significand m of tiny values and
# m 2^(k-t) = (5^t - 1)/2 + r (mod 5^t) for huge ones, over small r
_NEAR_TIES = [
    "0x1.fc2c8789dc0b2p-48", "0x1.c2d9c66c79159p-47", "0x1.5962854b29c93p-45",
    "0x1.da330721033d1p-45", "0x1.0d4da405f7fb8p-44", "0x1.8e1e25dbd16f6p-44",
    "0x1.76c4e5274747ep-44", "0x1.eb8328adfa0d6p-43", "0x1.7c686659f9047p-43",
    "0x1.0d4da405f7fb8p-43", "0x1.e03c264896944p-43", "0x1.712163f4958b5p-43",
    "0x1.2a7d34e7a4acep-42", "0x1.93f47608f3f94p-42", "0x1.fd6bb72a4345ap-42",
    "0x1.599554459a968p-42", "0x1.6dd09de922abcp-41", "0x1.1be56c76ce543p-41",
    "0x1.50a10d0775fa6p-41", "0x1.ba184e28c546cp-41", "0x1.e28ee16fd5714p-40",
    "0x1.2188eda98010cp-40", "0x1.50a10d0775fa6p-40", "0x1.7fb92c656be40p-40",
    "0x1.aed14bc361cdap-40", "0x1.e16583dc3602cp-39", "0x1.80e289f90b528p-39",
    "0x1.205f9015e0a24p-39", "0x1.37eb9fc4db971p-39", "0x1.c944c5636b56bp-38",
    "0x1.99034871d5fe9p-38", "0x1.e0d0d512664b8p-38", "0x1.b08f5820d0f36p-38",
    "0x1.804ddb2f3b9b4p-38", "0x1.08892901fdd1dp-37", "0x1.d96c3da5c0bdbp+133",
    "0x1.c139ce1debf2dp+133", "0x1.a9075e961727fp+133", "0x1.90d4ef0e425d1p+133",
    "0x1.78a27f866d923p+133", "0x1.7456a27848397p+134", "0x1.683d6ab45dd40p+134",
    "0x1.5c2432f0736e9p+134", "0x1.500afb2c89092p+134", "0x1.43f1c3689ea3bp+134",
    "0x1.0101e0ffd2a36p+135", "0x1.41cbd4e18bf75p+135", "0x1.c35fbca4fe9f3p+135",
    "0x1.767c90ff5ae5dp+135", "0x1.0214d8435bf99p+136",
]


def _near_ties() -> np.ndarray:
    return np.array([float.fromhex(h) for h in _NEAR_TIES])


def _fixed_set() -> np.ndarray:
    specials = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-323,
        1e-310,
        2.2250738585072009e-308,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        # rounding to 17 digits carries into the next decade
        9.99999999999999999e-5,
        9.9999999999999998e16,
        9.9999999999999999e22,
        1e23,
        0.1,
        1.0 / 3.0,
        123456789012345678.0,
        # the edges of the scaled range and of fixed notation
        1e-280,
        1e280,
        1e-5,
        1e-4,
        1e16,
        1e17,
        np.nan,
        -np.nan,
        np.inf,
        -np.inf,
    ]
    payloads = np.array([0x7FF8000000000001, 0xFFF0000000000001], np.uint64).view(np.float64)
    subnormals = np.arange(1, 2000, 7, dtype=np.uint64).view(np.float64)
    return np.concatenate(
        [specials, payloads, subnormals, _powers_of_ten(), _ties(), _near_ties()]
    )


class TestBlockFormatter:
    @pytest.mark.parametrize(
        "values",
        [_fixed_set(), _powers_of_ten(), _ties(), _near_ties()],
        ids=["fixed-set", "powers-of-ten", "ties", "near-ties"],
    )
    def test_cells_match_fmt_float(self, values):
        _assert_cells(values)

    def test_ties_and_decade_carries_are_exercised(self):
        # the fixed set holds true ties, which only fmt_float can settle,
        # and values whose 17-digit rounding moves them up a decade
        assert fmt_float(1234567890123456.25) == "1234567890123456.2"
        assert fmt_float(1234567890123456.75) == "1234567890123456.8"
        assert fmt_float(9.9999999999999998e16) == "1e+17"
        assert fmt_float(1e23) == "9.9999999999999992e+22"
        _assert_cells([1234567890123456.25, 1234567890123456.75, 9.9999999999999998e16, 1e23])

    def test_near_ties_are_near_ties(self):
        from fractions import Fraction

        for v in _near_ties().tolist():
            exponent = len(str(int(Fraction(v) * 10**400))) - 401
            scaled = Fraction(v) * Fraction(10) ** (16 - exponent)
            assert 10**16 <= scaled < 10**17
            distance = abs(scaled - int(scaled) - Fraction(1, 2))
            assert 0 < distance < Fraction(1, 10**15)

    def test_rows_in_c_order(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-8, 20, (9, 4))
        block[2, 1] = np.nan
        block[5, 3] = -0.0
        # a transposed view formats in its own C order
        _assert_cells(block.T)
        assert _texts(block.T) == [fmt_float(v) for v in block.T.ravel().tolist()]

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_random_floats(self, values):
        _assert_cells(values)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_random_bit_patterns(self, bits):
        _assert_cells(np.array(bits, np.uint64).view(np.float64))
