"""Systematic random linear code over GF(2^8): encoding and on-line decoding.

A generation holds k equal-length payloads. Systematic packets carry one
payload unchanged; coded packets carry a random linear combination with the
k coefficients attached. The decoder keeps one (k, k + L) byte matrix
[coefficients | payload] in reduced row-echelon form. Each arrival, a
systematic packet as the unit row e_i, is reduced against every stored row
by one `gf_dot_rows`, scaled to 1 at its first nonzero column, and cleared
from the other rows by one `gf_mul`, so every ingest reports whether the
packet was innovative; at rank k the coefficient block is the identity and
decoding copies the payload columns. The decoder also tracks which packets
arrived in systematic form for pre-decode in-order delivery, and rejects a
packet whose index, coefficient count or payload length does not fit the
generation before it touches any state. The sender and the wire format
reject a systematic index outside [0, k) too, the sender a generation id
outside the u32 field, and the parser a frame too short for the header of
its kind.

Wire format (big-endian), used for traces and documented byte-exactly:

    offset  size  field
    0       4     generation_id (u32)
    4       1     kind: 0x00 systematic, 0x01 coded
    5       2     systematic only: packet index within the generation (u16)
    5       k     coded only: coefficient bytes c[0..k-1]
    ...     L     payload

Payload length L is fixed per generation and implied by the framing.
"""

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gf256 import INV, gf_dot_rows, gf_mul

KIND_SYSTEMATIC = 0x00
KIND_CODED = 0x01


@dataclass
class CodedPacket:
    generation_id: int
    sys_index: Optional[int]          # set for systematic packets
    coeffs: Optional[np.ndarray]      # set for coded packets, k bytes
    payload: np.ndarray               # uint8 vector

    @property
    def is_systematic(self):
        return self.sys_index is not None


def _as_matrix(payloads):
    mat = np.asarray(payloads, dtype=np.uint8)
    if mat.ndim != 2:
        raise ValueError("generation payloads must form a (k, L) byte matrix")
    return mat


def _check_index(i, k):
    if not 0 <= i < k:
        raise ValueError(f"systematic index {i} is outside [0, {k})")


def _check_generation(generation_id):
    if not 0 <= generation_id < 1 << 32:
        raise ValueError(f"generation id {generation_id} is outside the u32 range [0, 2^32)")


def systematic_packet(generation_id, payloads, i):
    _check_generation(generation_id)
    mat = _as_matrix(payloads)
    _check_index(i, mat.shape[0])
    return CodedPacket(generation_id=generation_id, sys_index=int(i),
                       coeffs=None, payload=mat[i].copy())


def encode(generation_id, payloads, m, rng):
    """Produce the m-th coded packet of a generation.

    Coefficients are uniform over GF(2^8)^k, redrawn in the (2^-8k) event that
    every byte is zero so a coded packet always carries information. m is the
    coded-packet sequence index within the generation; it does not influence
    the combination, which is determined by the RNG stream.
    """
    _check_generation(generation_id)
    mat = _as_matrix(payloads)
    k = mat.shape[0]
    while True:
        coeffs = rng.integers(0, 256, size=k, dtype=np.uint8)
        if coeffs.any():
            break
    return CodedPacket(generation_id=generation_id, sys_index=None,
                       coeffs=coeffs, payload=gf_dot_rows(coeffs, mat))


def pack_packet(pkt, k):
    """Serialize a packet of a k-packet generation to the wire format."""
    _check_generation(pkt.generation_id)
    head = struct.pack(">IB", pkt.generation_id,
                       KIND_SYSTEMATIC if pkt.is_systematic else KIND_CODED)
    if pkt.is_systematic:
        _check_index(pkt.sys_index, k)
        body = struct.pack(">H", pkt.sys_index)
    else:
        if np.shape(pkt.coeffs) != (k,):
            raise ValueError(f"expected {k} coefficients, got shape {np.shape(pkt.coeffs)}")
        body = pkt.coeffs.tobytes()
    return head + body + pkt.payload.tobytes()


def unpack_packet(blob, k):
    """Parse the wire format of a k-packet generation back into a CodedPacket.

    Raises ValueError for an unknown kind, a frame shorter than the header of
    its kind, or a systematic index outside [0, k).
    """
    if len(blob) < 5:
        raise ValueError(f"a {len(blob)}-byte frame is shorter than the 5-byte header")
    gen_id, kind = struct.unpack_from(">IB", blob, 0)
    if kind not in (KIND_SYSTEMATIC, KIND_CODED):
        raise ValueError(f"unknown packet kind {kind:#x}")
    head = 7 if kind == KIND_SYSTEMATIC else 5 + k
    if len(blob) < head:
        raise ValueError(f"a {len(blob)}-byte frame is shorter than the {head}-byte header "
                         f"of a {'systematic' if kind == KIND_SYSTEMATIC else 'coded'} packet")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=head).copy()
    if kind == KIND_CODED:
        coeffs = np.frombuffer(blob, dtype=np.uint8, offset=5, count=k).copy()
        return CodedPacket(gen_id, None, coeffs, payload)
    (idx,) = struct.unpack_from(">H", blob, 5)
    _check_index(idx, k)
    return CodedPacket(gen_id, idx, None, payload)


class DecoderState:
    """Incremental Gauss-Jordan elimination for one generation.

    Holds one (k, k + L) byte matrix [coefficients | payload] in reduced
    row-echelon form: row c is stored when pivot[c] is set, has a 1 in
    column c and a 0 in every other pivot column; the other rows are zero.
    A systematic packet enters as the unit row e_i. rank reaching k makes
    the coefficient block the identity, so the payload columns are decoded.
    """

    def __init__(self, generation_id, k, payload_len):
        self.generation_id = generation_id
        self.k = k
        self.payload_len = payload_len
        self.rows = np.zeros((k, k + payload_len), dtype=np.uint8)
        self.pivot = np.zeros(k, dtype=bool)
        self.rank = 0
        self.seen_systematic = set()  # indices that arrived in systematic form

    def _check(self, pkt):
        if pkt.generation_id != self.generation_id:
            raise ValueError(
                f"packet belongs to generation {pkt.generation_id}, "
                f"decoder handles {self.generation_id}")
        if pkt.is_systematic:
            _check_index(pkt.sys_index, self.k)
        elif np.shape(pkt.coeffs) != (self.k,):
            raise ValueError(f"expected {self.k} coefficients, got shape {np.shape(pkt.coeffs)}")
        if np.shape(pkt.payload) != (self.payload_len,):
            raise ValueError(
                f"expected a {self.payload_len}-byte payload, got shape {np.shape(pkt.payload)}")

    def ingest(self, pkt):
        """Feed one packet in; returns True when it increased the rank."""
        self._check(pkt)
        k = self.k
        if pkt.is_systematic:
            self.seen_systematic.add(pkt.sys_index)
        if self.rank >= k:
            return False
        x = np.zeros(k + self.payload_len, dtype=np.uint8)
        if pkt.is_systematic:
            x[pkt.sys_index] = 1
        else:
            x[:k] = pkt.coeffs
        x[k:] = pkt.payload
        # every stored row is zero in the other pivot columns, so one
        # combination clears all of them
        hit = np.flatnonzero((x[:k] != 0) & self.pivot)
        if hit.size:
            x ^= gf_dot_rows(x[hit], self.rows[hit])
        free = np.flatnonzero(x[:k])
        if not free.size:
            return False
        p = free[0]
        x = gf_mul(INV[x[p]], x)
        hit = np.flatnonzero(self.rows[:, p])
        if hit.size:
            self.rows[hit] ^= gf_mul(self.rows[hit, p][:, None], x)
        self.rows[p] = x
        self.pivot[p] = True
        self.rank += 1
        return True

    def deliverable_prefix(self):
        """Packets deliverable before decoding: the systematic run 1..s, or k once decodable."""
        if self.rank >= self.k:
            return self.k
        s = 0
        while s in self.seen_systematic:
            s += 1
        return s

    def decode(self):
        """Recover all k payloads; requires rank == k."""
        if self.rank < self.k:
            raise ValueError(f"rank {self.rank} of {self.k}, not yet decodable")
        return self.rows[:, self.k:].copy()
