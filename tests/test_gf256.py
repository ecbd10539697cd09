"""Field arithmetic: table consistency, algebraic laws, known products."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from codedelay.gf256 import EXP, INV, LOG, MUL, gf_dot_rows, gf_inv, gf_mul

byte = st.integers(0, 255)


def slow_mul(a, b):
    """Bitwise carry-less multiply with polynomial reduction, no tables."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return r


def test_tables_against_bitwise_multiply():
    for a in range(256):
        np.testing.assert_array_equal(
            MUL[a], np.array([slow_mul(a, b) for b in range(256)], dtype=np.uint8))


def test_all_inverses():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
    assert np.all(INV[1:] != 0)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)
    with pytest.raises(ZeroDivisionError):
        gf_inv(np.array([3, 0, 7], dtype=np.uint8))


def test_exp_log_consistency():
    assert EXP[0] == 1
    assert len(set(EXP[:255].tolist())) == 255  # generator hits every nonzero element
    for a in range(1, 256):
        assert EXP[LOG[a]] == a


def test_known_products():
    assert gf_mul(2, 0x80) == 0x1B
    assert gf_mul(0x57, 0x83) == 0xC1
    assert gf_mul(0, 0xFF) == 0
    assert gf_mul(1, 0xAB) == 0xAB


@given(byte, byte)
def test_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(byte, byte, byte)
def test_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(byte, byte, byte)
def test_distributive(a, b, c):
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_axpy_matches_manual_loop():
    rng = np.random.Generator(np.random.Philox(42))
    x = rng.integers(0, 256, 64, dtype=np.uint8)
    y = rng.integers(0, 256, 64, dtype=np.uint8)
    for c in (0, 1, 7, 255):
        got = y ^ gf_mul(c, x)
        want = np.array([y[i] ^ slow_mul(c, int(x[i])) for i in range(64)],
                        dtype=np.uint8)
        np.testing.assert_array_equal(got, want)


def test_dot_rows_matches_manual_loop():
    rng = np.random.Generator(np.random.Philox(43))
    rows = rng.integers(0, 256, (5, 16), dtype=np.uint8)
    coeffs = rng.integers(0, 256, 5, dtype=np.uint8)
    want = np.zeros(16, dtype=np.uint8)
    for c, row in zip(coeffs, rows):
        want ^= np.array([slow_mul(int(c), int(v)) for v in row], dtype=np.uint8)
    np.testing.assert_array_equal(gf_dot_rows(coeffs, rows), want)


def test_mul_broadcasts_to_the_full_table():
    a = np.arange(256, dtype=np.uint8)
    np.testing.assert_array_equal(gf_mul(a[:, None], a[None, :]), MUL)
    np.testing.assert_array_equal(gf_mul(7, a), MUL[7])
