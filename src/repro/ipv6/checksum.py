"""Internet checksum (RFC 1071) and the IPv6 pseudo-header (RFC 2460 §8.1).

IPv6 itself carries no header checksum, but upper-layer protocols carried by
the router's control traffic (UDP for RIPng, ICMPv6) checksum their payload
together with a pseudo-header. The TACO Checksum functional unit implements
the same ones'-complement accumulation word by word; this module is the
reference implementation it is tested against.
"""

from __future__ import annotations

from repro.ipv6.address import Ipv6Address


def ones_complement_sum(data: bytes, initial: int = 0) -> int:
    """Accumulate 16-bit big-endian words with end-around carry.

    Odd-length input is zero-padded on the right, per RFC 1071.
    Returns the 16-bit accumulated sum (not complemented).

    End-around carry keeps a sum modulo 0xFFFF, and 2**16 is 1 modulo
    0xFFFF, so the whole input read as one big-endian integer is
    congruent to its word sum: one reduction replaces the word loop.
    The accumulator never wraps to 0x0000 once anything non-zero was
    added, so a non-zero total that is a multiple of 0xFFFF is 0xFFFF.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = (initial & 0xFFFF) + int.from_bytes(data, "big")
    return (total - 1) % 0xFFFF + 1 if total else 0


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """The RFC 1071 checksum: complement of the ones'-complement sum."""
    return (~ones_complement_sum(data, initial)) & 0xFFFF


def pseudo_header(source: Ipv6Address, destination: Ipv6Address,
                  upper_layer_length: int, next_header: int) -> bytes:
    """The IPv6 pseudo-header prepended when checksumming UDP/ICMPv6."""
    if upper_layer_length < 0 or upper_layer_length > 0xFFFFFFFF:
        raise ValueError(f"upper-layer length out of range: {upper_layer_length}")
    if not 0 <= next_header <= 0xFF:
        raise ValueError(f"next header out of range: {next_header}")
    return (source.to_bytes()
            + destination.to_bytes()
            + upper_layer_length.to_bytes(4, "big")
            + b"\x00\x00\x00"
            + bytes([next_header]))


def transport_checksum(source: Ipv6Address, destination: Ipv6Address,
                       next_header: int, payload: bytes) -> int:
    """Checksum for an upper-layer payload under IPv6, pseudo-header included.

    Per RFC 2460 §8.1 / RFC 768: if UDP computes a checksum of zero it must
    transmit 0xFFFF instead (zero means "no checksum"). We apply the same
    substitution for all transports; it is a no-op for ICMPv6 in practice.
    """
    header = pseudo_header(source, destination, len(payload), next_header)
    checksum = internet_checksum(header + payload)
    return 0xFFFF if checksum == 0 else checksum


def verify_transport_checksum(source: Ipv6Address, destination: Ipv6Address,
                              next_header: int, payload_with_checksum: bytes) -> bool:
    """True when a received payload (checksum field in place) verifies.

    The ones'-complement sum over pseudo-header plus payload, including the
    transmitted checksum, must be 0xFFFF.
    """
    header = pseudo_header(source, destination, len(payload_with_checksum), next_header)
    return ones_complement_sum(header + payload_with_checksum) == 0xFFFF
