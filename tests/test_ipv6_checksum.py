"""Internet checksum: RFC 1071 behaviour and transport verification."""

import pytest
from hypothesis import given, strategies as st

from repro.ipv6.address import Ipv6Address
from repro.ipv6.checksum import (
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    transport_checksum,
    verify_transport_checksum,
)

SRC = Ipv6Address.parse("2001:db8::1")
DST = Ipv6Address.parse("2001:db8::2")


def word_loop_sum(data, initial=0):
    """RFC 1071's word-at-a-time end-around-carry loop, the reference
    ``ones_complement_sum`` must agree with."""
    total = initial & 0xFFFF
    if len(data) % 2:
        data = data + b"\x00"
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return total & 0xFFFF


def words_to_bytes(words):
    return b"".join(word.to_bytes(2, "big") for word in words)


class TestOnesComplement:
    def test_rfc1071_example(self):
        # RFC 1071 §3 example: 0001 f203 f4f5 f6f7 -> sum ddf2 (carry folded)
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert ones_complement_sum(data) == 0xddf2

    def test_empty(self):
        assert ones_complement_sum(b"") == 0
        assert internet_checksum(b"") == 0xFFFF

    def test_odd_length_padded(self):
        assert ones_complement_sum(b"\xab") == 0xab00

    def test_initial_value(self):
        assert ones_complement_sum(b"\x00\x01", initial=5) == 6

    @given(st.binary(max_size=256))
    def test_checksum_self_verifies(self, data):
        checksum = internet_checksum(data)
        total = ones_complement_sum(data, initial=checksum)
        assert total == 0xFFFF

    @given(st.binary(min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    def test_order_independent_for_word_swaps(self, data):
        # ones'-complement addition is commutative over 16-bit words
        words = [data[i:i + 2] for i in range(0, len(data), 2)]
        assert ones_complement_sum(b"".join(reversed(words))) == \
            ones_complement_sum(data)

    @given(st.binary(max_size=600), st.integers(0, 1 << 40))
    def test_matches_the_word_loop(self, data, initial):
        assert ones_complement_sum(data, initial) \
            == word_loop_sum(data, initial)

    @given(st.lists(st.integers(0, 0xFFFF), max_size=40),
           st.integers(0, 0x2FFFF), st.booleans())
    def test_matches_the_word_loop_on_multiples_of_ffff(
            self, words, initial, odd):
        """Words completed to a sum that is a multiple of 0xFFFF: the
        loop answers 0xFFFF unless everything added was zero."""
        words = words + [(-(sum(words) + (initial & 0xFFFF))) % 0xFFFF]
        data = words_to_bytes(words)
        if odd and words[-1] & 0xFF == 0:
            data = data[:-1]  # the padding byte restores the dropped 0
        expected = word_loop_sum(data, initial)
        assert ones_complement_sum(data, initial) == expected
        everything_zero = not any(data) and not initial & 0xFFFF
        assert expected == (0 if everything_zero else 0xFFFF)

    @pytest.mark.parametrize("data,initial", [
        (b"", 0), (b"", 0x10000), (b"", 0x1FFFF), (b"", 0xFFFF),
        (b"\x00", 0), (b"\x00" * 7, 0), (b"\x00" * 8, 0x30000),
        (b"\xff\xff", 0), (b"\x80\x00\x7f\xff", 0), (b"\xff", 0xFF),
        (b"\xff\xff" * 5, 0), (b"\x00\x01", 0xFFFE), (b"\x00\x01", 0xFFFF),
    ])
    def test_zero_and_all_ones_edges(self, data, initial):
        assert ones_complement_sum(data, initial) \
            == word_loop_sum(data, initial)


class TestTransport:
    def test_pseudo_header_layout(self):
        header = pseudo_header(SRC, DST, 8, 17)
        assert len(header) == 40
        assert header[:16] == SRC.to_bytes()
        assert header[16:32] == DST.to_bytes()
        assert header[32:36] == (8).to_bytes(4, "big")
        assert header[36:39] == b"\x00\x00\x00"
        assert header[39] == 17

    def test_zero_maps_to_ffff(self):
        # craft the payload whose ones'-complement total is 0xFFFF, which
        # would make the checksum zero; the encoder must emit 0xFFFF
        base = ones_complement_sum(pseudo_header(SRC, DST, 2, 17))
        payload_word = (0xFFFF - base) & 0xFFFF
        payload = payload_word.to_bytes(2, "big")
        assert internet_checksum(pseudo_header(SRC, DST, 2, 17) + payload) == 0
        assert transport_checksum(SRC, DST, 17, payload) == 0xFFFF

    @given(st.binary(max_size=128).filter(lambda b: len(b) % 2 == 0),
           st.integers(min_value=0, max_value=255))
    def test_round_trip_verifies(self, payload, proto):
        # checksum computed over payload with a zeroed trailing field,
        # then stamped into that (16-bit-aligned, as in every real
        # protocol) field, must verify as transmitted
        base = payload + b"\x00\x00"
        checksum = transport_checksum(SRC, DST, proto, base)
        assert verify_transport_checksum(
            SRC, DST, proto, payload + checksum.to_bytes(2, "big"))

    def test_corruption_detected(self):
        payload = b"hello world!"
        checksum = transport_checksum(SRC, DST, 17, payload + b"\x00\x00")
        packet = payload + checksum.to_bytes(2, "big")
        assert verify_transport_checksum(SRC, DST, 17, packet)
        corrupted = bytes([packet[0] ^ 0x40]) + packet[1:]
        assert not verify_transport_checksum(SRC, DST, 17, corrupted)

    def test_pseudo_header_validation(self):
        with pytest.raises(ValueError):
            pseudo_header(SRC, DST, -1, 17)
        with pytest.raises(ValueError):
            pseudo_header(SRC, DST, 8, 300)
