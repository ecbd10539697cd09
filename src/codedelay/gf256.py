"""Arithmetic tables for GF(2^8) with the x^8 + x^4 + x^3 + x + 1 polynomial.

Addition is XOR. Multiplication goes through exp/log tables built on the
generator 3 (the element 2 does not generate the multiplicative group of this
field), plus a full 256x256 product table. `gf_mul`, the one field product of
the package, reads that table flat, so a vectorized row operation is a single
`take`.
"""

import numpy as np

_POLY = 0x11B
_GENERATOR = 3

EXP = np.zeros(510, dtype=np.uint8)
LOG = np.zeros(256, dtype=np.int32)


def _build_tables():
    x = 1
    for i in range(255):
        EXP[i] = x
        EXP[i + 255] = x
        LOG[x] = i
        # multiply x by the generator (3 = x + 1): shift-and-add with reduction
        y = (x << 1) ^ x
        if y & 0x100:
            y ^= _POLY
        x = y & 0xFF
    assert x == 1, "generator does not have order 255"


_build_tables()

# MUL[a, b] = a * b in the field; row 0 and column 0 are zero.
_la = LOG[1:]
MUL = np.zeros((256, 256), dtype=np.uint8)
MUL[1:, 1:] = EXP[(_la[:, None] + _la[None, :]) % 255]

INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[(255 - _la) % 255]

_MUL_FLAT = MUL.ravel()     # MUL[a, b] at a*256 + b


def gf_mul(a, b):
    """Elementwise field product of two broadcast uint8 arrays or scalars, by one flat lookup."""
    return _MUL_FLAT.take((np.asarray(a, dtype=np.uint16) << 8) | b)


def gf_inv(a):
    """Multiplicative inverse; a must be nonzero."""
    if np.any(np.asarray(a) == 0):
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return INV[a]


def gf_dot_rows(coeffs, rows):
    """Field linear combination sum_i coeffs[i] * rows[i] for a (k, L) byte matrix."""
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    rows = np.asarray(rows, dtype=np.uint8)
    return np.bitwise_xor.reduce(gf_mul(coeffs[:, None], rows), axis=0)
