"""Fuzz proof of the fail-stop lookup contract on corrupted tables.

Satellite of the memory-fault work: whatever state damage a table has
absorbed, ``lookup`` either answers or raises ``RoutingTableError`` —
never ``KeyError``, ``IndexError``, ``RecursionError`` or any other
structural exception, and never loops forever. The trie and Bloom
structures carry dict/array indirection that historically made them the
risky ones, so they get the densest fuzzing.
"""

import random

import pytest

from repro.errors import FaultInjectionError, RoutingTableError
from repro.faults.memory import MemoryFaultInjector
from repro.ipv6.address import Ipv6Address
from repro.routing import TABLE_KINDS, make_table
from repro.workload.fib import synthesize_fib, zipf_addresses

ROUTES = synthesize_fib(70, seed=33)
ADDRESSES = zipf_addresses(ROUTES, 25, seed=8)

#: extra fuzz rounds for the structures with pointer/dict indirection
ROUNDS = {"multibit-trie": 24, "bloom": 24}
DEFAULT_ROUNDS = 10


def loaded(kind):
    table = make_table(kind, capacity=len(ROUTES) + 8)
    table.load(ROUTES)
    return table


def assert_fail_stop(table, addresses):
    for address in addresses:
        try:
            table.lookup(address)
        except RoutingTableError:
            pass  # the one allowed failure mode


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_single_flips_never_escape_routing_error(kind):
    for seed in range(ROUNDS.get(kind, DEFAULT_ROUNDS)):
        table = loaded(kind)
        MemoryFaultInjector(seed=seed).inject(table, flips=1)
        assert_fail_stop(table, ADDRESSES)


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_burst_damage_never_escapes_routing_error(kind):
    """Many flips per table — compound damage across all sites."""
    for seed in range(ROUNDS.get(kind, DEFAULT_ROUNDS) // 2):
        table = loaded(kind)
        MemoryFaultInjector(seed=1000 + seed).inject(table, flips=12)
        assert_fail_stop(table, ADDRESSES)


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_random_addresses_on_damaged_tables(kind):
    """Probe with adversarial random addresses, not just FIB-shaped
    traffic, so corrupted dispatch paths are reached from every angle."""
    rng = random.Random(4242)
    wild = [Ipv6Address(rng.getrandbits(128)) for _ in range(40)]
    wild += [Ipv6Address(0), Ipv6Address((1 << 128) - 1)]
    for seed in range(6):
        table = loaded(kind)
        MemoryFaultInjector(seed=77 + seed).inject(table, flips=6)
        assert_fail_stop(table, wild)


def test_trie_deep_chunk_rekey_is_fail_stop():
    """Directed: re-keying trie child pages (the exact damage class
    that used to raise KeyError from dict dispatch) must stay inside
    the contract."""
    table = loaded("multibit-trie")
    count = table.memory_record_count("trie-node")
    for index in range(min(count, 8)):
        table.corrupt_memory("trie-node", index, (index * 3) % 16)
    assert_fail_stop(table, ADDRESSES)


def test_bloom_filter_bit_damage_is_fail_stop():
    """Directed: counting-Bloom vector damage produces false negatives
    and false positives, never structural exceptions."""
    table = loaded("bloom")
    count = table.memory_record_count("bloom-filter")
    for index in range(count):
        for bit in (0, 3, 11):
            table.corrupt_memory("bloom-filter", index, bit)
    assert_fail_stop(table, ADDRESSES)


def _answers_per_address(table, addresses):
    """Per-address results, or None when some address fails stop."""
    try:
        return [table.lookup(address) for address in addresses]
    except RoutingTableError:
        return None


def test_batch_lookup_is_fail_stop_too():
    """A damaged table answers a batch exactly as it answers address by
    address — results and stats — whenever every single lookup answers;
    otherwise the batch fails stop as a whole."""
    for kind in sorted(TABLE_KINDS):
        for seed in range(6):
            for flips in (1, 8):
                single, batched = loaded(kind), loaded(kind)
                for table in (single, batched):
                    MemoryFaultInjector(seed=seed).inject(table, flips=flips)
                expected = _answers_per_address(single, ADDRESSES)
                if expected is None:
                    with pytest.raises(RoutingTableError):
                        batched.lookup_batch(ADDRESSES)
                    continue
                assert batched.lookup_batch(ADDRESSES) == expected
                assert batched.stats == single.stats


@pytest.mark.parametrize("kind,site,bits", [
    ("sequential", "entry", range(128, 136)),    # prefix length
    ("cam", "cam-row", range(128, 256, 3)),      # match mask
])
def test_batch_equals_per_address_after_directed_flips(kind, site, bits):
    """Two damage classes the per-length batch index used to answer
    differently from the scan: a prefix length moved out of its group,
    and a CAM mask that is no longer its length's mask."""
    addresses = zipf_addresses(ROUTES, 400, seed=9)
    for index in (0, 20, 45):
        for bit in bits:
            single, batched = loaded(kind), loaded(kind)
            batched.lookup_batch(addresses)  # a kept index, then damage
            for table in (single, batched):
                table.corrupt_memory(site, index, bit)
            expected = _answers_per_address(single, addresses)
            if expected is None:
                with pytest.raises(RoutingTableError):
                    batched.lookup_batch(addresses)
                continue
            assert batched.lookup_batch(addresses) == expected


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_corrupt_memory_rejects_bits_outside_the_record(kind):
    """Every kind and site: bit -1 and bit == record bits raise
    FaultInjectionError and leave the structure untouched; the first
    and last bit of the record are accepted."""
    table = loaded(kind)
    for site in table.memory_sites():
        for index in (0, table.memory_record_count(site) - 1):
            record_bits = 8 * len(table.memory_record(site, index))
            before = {s: table.memory_records(s)
                      for s in table.memory_sites()}
            for bit in (-1, record_bits):
                with pytest.raises(FaultInjectionError):
                    table.corrupt_memory(site, index, bit)
            assert {s: table.memory_records(s)
                    for s in table.memory_sites()} == before
            for bit in (0, record_bits - 1):
                loaded(kind).corrupt_memory(site, index, bit)
