"""The modelled table-update cost, pinned.

Update steps are the quantity the §4 update-load argument (EXPERIMENTS
A1) is built on, and RIPng installs produce them on every router. The
figures below come from the sequential and CAM tables finding prefixes
by linear scan; however the host finds a prefix (today the exact-prefix
index in ``repro.routing.prefixorder``), it must reproduce them exactly.
"""

import random

import pytest

from repro.ipv6.address import Ipv6Address
from repro.obs import MetricsRegistry, set_registry
from repro.router import network, router
from repro.routing import make_table
from repro.routing.entry import RouteEntry
from repro.workload import generate_routes, random_prefix

KINDS = ["sequential", "balanced-tree", "cam", "multibit-trie", "bloom"]

#: per router: (table kind, inserts, removals, total update steps)
RING_STATS = {
    "r0": ("sequential", 422, 0, 122739),
    "r1": ("balanced-tree", 422, 0, 4200),
    "r2": ("cam", 422, 0, 32664),
    "r3": ("multibit-trie", 422, 0, 4403),
    "r4": ("bloom", 422, 0, 3376),
    "r5": ("sequential", 422, 0, 120809),
    "r6": ("balanced-tree", 422, 0, 4390),
    "r7": ("cam", 422, 0, 33538),
    "r8": ("multibit-trie", 422, 0, 4058),
    "r9": ("bloom", 422, 0, 3376),
}

#: total update steps of one A1 burst (25 removals + 25 inserts)
A1_BURST_STEPS = {"sequential": 5224, "cam": 1903, "balanced-tree": 514}


def mixed_ring(routers=10, prefixes=400, capacity=512, seed=2026):
    """Router *i* uses table kind *i* mod 5; a line plus a closing
    link, carrying a seeded FIB originated round-robin."""
    parse = Ipv6Address.parse
    net = network.Network()
    for i in range(routers):
        net.add_router(router.Ipv6Router(
            f"r{i}", [parse(f"2001:db8:{i:x}:1::1"),
                      parse(f"2001:db8:{i:x}:2::1")],
            table_kind=KINDS[i % len(KINDS)], table_capacity=capacity))
    for i in range(routers - 1):
        net.connect((f"r{i}", 1), (f"r{i + 1}", 0))
    last = f"r{routers - 1}"
    first_end = net.routers["r0"].add_interface(parse("2001:db8:ff0::1"))
    last_end = net.routers[last].add_interface(
        parse(f"2001:db8:ff{routers - 1}::1"))
    net.connect(("r0", first_end), (last, last_end))
    network.seed_fib_routes(net, prefixes, seed=seed)
    return net, net.run_until_converged()


def test_mixed_ring_update_cost_is_pinned():
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        net, report = mixed_ring()
    finally:
        set_registry(previous)
    assert report.converged and report.rounds == 27
    stats = {name: (r.table.kind, r.table.stats.inserts,
                    r.table.stats.removals, r.table.stats.total_update_steps)
             for name, r in net.routers.items()}
    assert stats == RING_STATS
    counters = registry.snapshot()["counters"]
    steps = {v["labels"]["kind"]: v["value"]
             for v in counters["routing_update_steps_total"]["values"]}
    per_kind = {}
    for kind, _inserts, _removals, total in RING_STATS.values():
        per_kind[kind] = per_kind.get(kind, 0) + total
    assert steps == per_kind
    updates = {(v["labels"]["kind"], v["labels"]["op"]): v["value"]
               for v in counters["routing_updates_total"]["values"]}
    assert updates == {(kind, "insert"): 844 for kind in KINDS}
    # one index build per sequential/CAM table, none refused
    builds = {(v["labels"]["kind"], v["labels"]["result"]): v["value"]
              for v in counters["routing_update_index_total"]["values"]}
    assert builds == {("sequential", "miss"): 2, ("cam", "miss"): 2}


def a1_burst(kind, seed=5):
    """EXPERIMENTS A1's burst: 25 of 100 routes withdrawn, 25 fresh
    ones learned (mirrors benchmarks/test_ablation_update_load.py)."""
    table = make_table(kind, capacity=128)
    table.load(generate_routes(100, seed=seed))
    rng = random.Random(seed)
    victims = rng.sample([r.prefix for r in table.entries()
                          if r.prefix.length > 0], 25)
    for victim in victims:
        table.remove(victim)
    for i in range(25):
        while True:
            prefix = random_prefix(rng)
            if prefix not in table:
                break
        table.insert(RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                                interface=i % 4))
    return table.stats


@pytest.mark.parametrize("kind", sorted(A1_BURST_STEPS))
def test_a1_burst_update_cost_is_pinned(kind):
    stats = a1_burst(kind)
    assert (stats.inserts, stats.removals) == (125, 25)
    assert stats.total_update_steps == A1_BURST_STEPS[kind]
