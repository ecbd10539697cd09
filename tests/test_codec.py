"""Encoder/decoder round trips, innovation bookkeeping, wire format."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedelay.codec import (
    CodedPacket,
    DecoderState,
    encode,
    pack_packet,
    systematic_packet,
    unpack_packet,
)
from codedelay.gf256 import gf_dot_rows

from .helpers import ReferenceDecoder


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_generation(rng, k, L):
    return rng.integers(0, 256, (k, L), dtype=np.uint8)


def fill_with_coded(dec, payloads, rng, gen_id=0):
    m = 0
    while dec.rank < dec.k:
        dec.ingest(encode(gen_id, payloads, m, rng))
        m += 1
    return m


class TestRoundTrip:
    @pytest.mark.parametrize("k", [1, 4, 17, 32])
    def test_all_coded(self, k):
        rng = rng_for(100 + k)
        payloads = random_generation(rng, k, 24)
        dec = DecoderState(0, k, 24)
        fill_with_coded(dec, payloads, rng)
        np.testing.assert_array_equal(dec.decode(), payloads)

    def test_mixed_and_shuffled(self):
        rng = rng_for(7)
        k, L = 8, 40
        payloads = random_generation(rng, k, L)
        pkts = [systematic_packet(3, payloads, i) for i in (0, 2, 5, 7)]
        pkts += [encode(3, payloads, m, rng) for m in range(k)]
        random.Random(7).shuffle(pkts)
        dec = DecoderState(3, k, L)
        for p in pkts:
            dec.ingest(p)
        assert dec.rank == k
        np.testing.assert_array_equal(dec.decode(), payloads)

    def test_systematic_only(self):
        rng = rng_for(8)
        k, L = 5, 10
        payloads = random_generation(rng, k, L)
        dec = DecoderState(0, k, L)
        for i in range(k):
            assert dec.ingest(systematic_packet(0, payloads, i))
        np.testing.assert_array_equal(dec.decode(), payloads)


class TestInnovation:
    def test_duplicate_systematic_not_innovative(self):
        rng = rng_for(9)
        payloads = random_generation(rng, 4, 8)
        dec = DecoderState(0, 4, 8)
        assert dec.ingest(systematic_packet(0, payloads, 1))
        assert not dec.ingest(systematic_packet(0, payloads, 1))
        assert dec.rank == 1

    def test_linear_combination_not_innovative(self):
        rng = rng_for(10)
        payloads = random_generation(rng, 6, 8)
        p1 = encode(0, payloads, 0, rng)
        p2 = encode(0, payloads, 1, rng)
        dep = CodedPacket(generation_id=0, sys_index=None,
                          coeffs=p1.coeffs ^ p2.coeffs,
                          payload=p1.payload ^ p2.payload)
        dec = DecoderState(0, 6, 8)
        assert dec.ingest(p1)
        assert dec.ingest(p2)
        assert not dec.ingest(dep)
        assert dec.rank == 2

    def test_systematic_colliding_with_coded_pivot(self):
        # A coded packet can claim column 0 as its pivot; the later systematic
        # arrival for index 0 must still be counted correctly.
        rng = rng_for(11)
        k, L = 3, 6
        payloads = random_generation(rng, k, L)
        coded = None
        while coded is None or coded.coeffs[0] == 0:
            coded = encode(0, payloads, 0, rng)
        dec = DecoderState(0, k, L)
        assert dec.ingest(coded)
        assert dec.ingest(systematic_packet(0, payloads, 0))
        assert dec.ingest(systematic_packet(0, payloads, 1))
        assert dec.rank == k
        np.testing.assert_array_equal(dec.decode(), payloads)

    def test_rank_never_decreases_and_steps_by_one(self):
        rng = rng_for(12)
        k, L = 10, 12
        payloads = random_generation(rng, k, L)
        pkts = [encode(1, payloads, m, rng) for m in range(2 * k)]
        pkts += [systematic_packet(1, payloads, i) for i in range(k)]
        random.Random(12).shuffle(pkts)
        dec = DecoderState(1, k, L)
        prev = 0
        for p in pkts:
            innovative = dec.ingest(p)
            assert dec.rank - prev == (1 if innovative else 0)
            prev = dec.rank
        assert dec.rank == k

    def test_ingest_after_decodable_still_tracks_systematic(self):
        rng = rng_for(13)
        payloads = random_generation(rng, 3, 4)
        dec = DecoderState(0, 3, 4)
        fill_with_coded(dec, payloads, rng)
        assert not dec.ingest(systematic_packet(0, payloads, 0))
        assert 0 in dec.seen_systematic

    def test_wrong_generation_rejected(self):
        rng = rng_for(14)
        payloads = random_generation(rng, 3, 4)
        dec = DecoderState(5, 3, 4)
        with pytest.raises(ValueError):
            dec.ingest(systematic_packet(6, payloads, 0))


def _malformed(k, L):
    """Packets that do not fit a (k, L) generation, by what is wrong with them."""
    payload, coeffs = np.arange(L, dtype=np.uint8), np.arange(1, k + 1, dtype=np.uint8)
    return {
        # a frame that parses under a larger generation size
        "wire index past k": unpack_packet(struct.pack(">IBH", 0, 0x00, 9) + payload.tobytes(), 16),
        "index k": CodedPacket(0, k, None, payload),
        "index -1": CodedPacket(0, -1, None, payload),
        "1-byte systematic payload": CodedPacket(0, 1, None, payload[:1]),
        "1-byte coded payload": CodedPacket(0, None, coeffs, payload[:1]),
        "long payload": CodedPacket(0, 1, None, np.zeros(L + 1, dtype=np.uint8)),
        "2 coefficients": CodedPacket(0, None, coeffs[:2], payload),
        "k + 1 coefficients": CodedPacket(0, None, np.ones(k + 1, dtype=np.uint8), payload),
        "no coefficients": CodedPacket(0, None, None, payload),
    }


class TestMalformedPackets:
    @staticmethod
    def assert_rejected(dec, pkt):
        before = dec.rank, dec.rows.copy(), dec.pivot.copy(), set(dec.seen_systematic)
        with pytest.raises(ValueError):
            dec.ingest(pkt)
        rank, rows, pivot, seen = before
        assert dec.rank == rank and dec.seen_systematic == seen
        np.testing.assert_array_equal(dec.rows, rows)
        np.testing.assert_array_equal(dec.pivot, pivot)

    @pytest.mark.parametrize("kind", list(_malformed(4, 8)))
    def test_rejected_before_touching_state(self, kind):
        rng = rng_for(30)
        k, L = 4, 8
        payloads = random_generation(rng, k, L)
        dec = DecoderState(0, k, L)
        dec.ingest(systematic_packet(0, payloads, 0))
        dec.ingest(encode(0, payloads, 0, rng))
        self.assert_rejected(dec, _malformed(k, L)[kind])
        assert dec.rank == 2
        fill_with_coded(dec, payloads, rng)
        # at rank k a systematic index is still recorded, so check again
        self.assert_rejected(dec, _malformed(k, L)[kind])
        np.testing.assert_array_equal(dec.decode(), payloads)


class TestAgainstReference:
    """The decoder and ReferenceDecoder agree packet for packet."""

    KINDS = ["systematic", "leads a coded row", "coded", "sparse", "zero", "combination"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_flags_ranks_prefixes_and_bytes(self, data):
        k = data.draw(st.integers(1, 64), label="k")
        L = data.draw(st.integers(0, 48), label="L")
        rng = rng_for(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        payloads = random_generation(rng, k, L)
        dec, ref = DecoderState(0, k, L), ReferenceDecoder(0, k, L)
        coded = []
        after = data.draw(st.integers(0, 8), label="packets after rank k")
        for m in range(6 * k + 20):
            if dec.rank == k:
                if after == 0:
                    break
                after -= 1
            kind = data.draw(st.sampled_from(self.KINDS))
            if kind == "systematic":
                pkt = systematic_packet(0, payloads, data.draw(st.integers(0, k - 1)))
            elif kind == "leads a coded row" and ref.pivots:
                pkt = systematic_packet(0, payloads, data.draw(st.sampled_from(ref.pivots)))
            elif kind == "zero":
                pkt = CodedPacket(0, None, np.zeros(k, np.uint8), np.zeros(L, np.uint8))
            elif kind == "combination" and coded:
                c = rng.integers(0, 256, len(coded), dtype=np.uint8)
                pkt = CodedPacket(0, None, gf_dot_rows(c, np.stack([p.coeffs for p in coded])),
                                  gf_dot_rows(c, np.stack([p.payload for p in coded])))
            else:
                pkt = encode(0, payloads, m, rng)
                if kind == "sparse":
                    pkt.coeffs *= rng.random(k) < 2.0 / k
                    pkt.payload = gf_dot_rows(pkt.coeffs, payloads)
                coded.append(pkt)
            assert dec.ingest(pkt) == ref.ingest(pkt)
            assert dec.rank == ref.rank
            assert dec.deliverable_prefix() == ref.deliverable_prefix()
            if dec.rank == k:
                np.testing.assert_array_equal(dec.decode(), ref.decode())
                np.testing.assert_array_equal(dec.decode(), payloads)


class TestDeliverablePrefix:
    def test_tracks_the_systematic_run(self):
        rng = rng_for(15)
        k, L = 5, 6
        payloads = random_generation(rng, k, L)
        dec = DecoderState(0, k, L)
        assert dec.deliverable_prefix() == 0
        dec.ingest(systematic_packet(0, payloads, 1))
        assert dec.deliverable_prefix() == 0  # gap at index 0
        dec.ingest(systematic_packet(0, payloads, 0))
        assert dec.deliverable_prefix() == 2
        dec.ingest(systematic_packet(0, payloads, 3))
        assert dec.deliverable_prefix() == 2
        fill_with_coded(dec, payloads, rng)
        assert dec.deliverable_prefix() == k

    def test_coded_packets_do_not_advance_it(self):
        rng = rng_for(16)
        payloads = random_generation(rng, 4, 6)
        dec = DecoderState(0, 4, 6)
        dec.ingest(encode(0, payloads, 0, rng))
        assert dec.deliverable_prefix() == 0

    def test_decode_requires_full_rank(self):
        dec = DecoderState(0, 4, 6)
        with pytest.raises(ValueError):
            dec.decode()


class TestWireFormat:
    def test_systematic_round_trip(self):
        rng = rng_for(17)
        payloads = random_generation(rng, 4, 32)
        pkt = systematic_packet(9, payloads, 2)
        blob = pack_packet(pkt, 4)
        assert len(blob) == 4 + 1 + 2 + 32
        back = unpack_packet(blob, 4)
        assert back.generation_id == 9
        assert back.sys_index == 2
        np.testing.assert_array_equal(back.payload, pkt.payload)

    def test_coded_round_trip(self):
        rng = rng_for(18)
        payloads = random_generation(rng, 6, 20)
        pkt = encode(77, payloads, 0, rng)
        blob = pack_packet(pkt, 6)
        assert len(blob) == 4 + 1 + 6 + 20
        back = unpack_packet(blob, 6)
        assert back.generation_id == 77
        assert back.sys_index is None
        np.testing.assert_array_equal(back.coeffs, pkt.coeffs)
        np.testing.assert_array_equal(back.payload, pkt.payload)

    def test_round_trip_through_decoder(self):
        rng = rng_for(19)
        k, L = 5, 16
        payloads = random_generation(rng, k, L)
        dec = DecoderState(0, k, L)
        m = 0
        while dec.rank < k:
            blob = pack_packet(encode(0, payloads, m, rng), k)
            dec.ingest(unpack_packet(blob, k))
            m += 1
        np.testing.assert_array_equal(dec.decode(), payloads)

    def test_unknown_kind_rejected(self):
        blob = struct.pack(">IB", 0, 0x02) + b"\x00" * 8
        with pytest.raises(ValueError):
            unpack_packet(blob, 4)

    def test_truncated_blob_rejected(self):
        with pytest.raises(ValueError, match="3-byte frame"):
            unpack_packet(b"\x00\x00\x00", 4)
        # coded frame cut inside the coefficient block
        with pytest.raises(ValueError, match="7-byte frame .* 9-byte header of a coded"):
            unpack_packet(struct.pack(">IB", 0, 0x01) + b"\x01\x02", 4)
        # systematic frame cut inside the index
        with pytest.raises(ValueError, match="6-byte frame .* 7-byte header of a systematic"):
            unpack_packet(struct.pack(">IB", 0, 0x00) + b"\x00", 4)

    def test_frames_at_their_header_length_carry_an_empty_payload(self):
        sys_pkt = unpack_packet(struct.pack(">IBH", 5, 0x00, 3), 4)
        coded = unpack_packet(struct.pack(">IB", 5, 0x01) + bytes([1, 2, 3, 4]), 4)
        assert sys_pkt.sys_index == 3 and sys_pkt.payload.size == 0
        assert coded.coeffs.tolist() == [1, 2, 3, 4] and coded.payload.size == 0

    @pytest.mark.parametrize("index", [4, 9, 0xFFFF])
    def test_systematic_index_past_k_rejected_on_unpack(self, index):
        blob = struct.pack(">IBH", 0, 0x00, index) + bytes(8)
        with pytest.raises(ValueError, match=f"systematic index {index} is outside"):
            unpack_packet(blob, 4)

    def test_coefficient_count_enforced_on_pack(self):
        rng = rng_for(20)
        payloads = random_generation(rng, 4, 8)
        pkt = encode(0, payloads, 0, rng)
        with pytest.raises(ValueError):
            pack_packet(pkt, 5)


class TestSenderChecks:
    @pytest.mark.parametrize("index", [-1, 4, 70_000])
    def test_systematic_packet_rejects_an_index_outside_k(self, index):
        payloads = random_generation(rng_for(22), 4, 8)
        with pytest.raises(ValueError, match=f"systematic index {index} is outside"):
            systematic_packet(0, payloads, index)

    @pytest.mark.parametrize("index", [-1, 4, 9, 70_000])
    def test_pack_packet_rejects_an_index_outside_k(self, index):
        pkt = CodedPacket(0, index, None, np.arange(8, dtype=np.uint8))
        with pytest.raises(ValueError, match=f"systematic index {index} is outside"):
            pack_packet(pkt, 4)

    @pytest.mark.parametrize("coeffs", [None, np.ones(3, np.uint8), np.ones((1, 4), np.uint8)])
    def test_pack_packet_rejects_coefficients_that_do_not_fit_k(self, coeffs):
        pkt = CodedPacket(0, None, coeffs, np.arange(8, dtype=np.uint8))
        with pytest.raises(ValueError, match="expected 4 coefficients"):
            pack_packet(pkt, 4)

    @pytest.mark.parametrize("generation_id", [-1, 2**32])
    def test_a_generation_id_outside_u32_is_rejected(self, generation_id):
        payloads = random_generation(rng_for(24), 4, 8)
        match = f"generation id {generation_id} is outside"
        with pytest.raises(ValueError, match=match):
            systematic_packet(generation_id, payloads, 0)
        rng = rng_for(25)
        with pytest.raises(ValueError, match=match):
            encode(generation_id, payloads, 0, rng)
        assert rng.integers(0, 256, 4).tolist() == rng_for(25).integers(0, 256, 4).tolist()
        for pkt in (CodedPacket(generation_id, 0, None, payloads[0]),
                    CodedPacket(generation_id, None, np.ones(4, np.uint8), payloads[0])):
            with pytest.raises(ValueError, match=match):
                pack_packet(pkt, 4)

    @pytest.mark.parametrize("generation_id", [0, 2**32 - 1])
    def test_every_generation_id_inside_u32_is_sent(self, generation_id):
        payloads = random_generation(rng_for(26), 4, 8)
        coded = encode(generation_id, payloads, 0, rng_for(27))
        for pkt in (systematic_packet(generation_id, payloads, 1), coded):
            assert unpack_packet(pack_packet(pkt, 4), 4).generation_id == generation_id

    def test_every_index_inside_k_is_sent(self):
        payloads = random_generation(rng_for(23), 4, 8)
        for i in range(4):
            back = unpack_packet(pack_packet(systematic_packet(0, payloads, i), 4), 4)
            assert back.sys_index == i
            np.testing.assert_array_equal(back.payload, payloads[i])


def test_encode_never_emits_the_zero_combination():
    rng = rng_for(21)
    payloads = random_generation(rng, 1, 4)
    for m in range(2000):
        pkt = encode(0, payloads, m, rng)
        assert pkt.coeffs.any()
