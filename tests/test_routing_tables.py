"""Routing-table implementations: semantics, invariants, cost shapes."""

import importlib.util
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.obs import MetricsRegistry, set_registry
from repro.routing import (
    BalancedTreeRoutingTable,
    BloomRoutingTable,
    CamRoutingTable,
    MultibitTrieRoutingTable,
    SequentialRoutingTable,
    TABLE_KINDS,
    make_table,
)
from repro.routing.cam import CamPhysicalModel, _CamLine
from repro.routing.entry import RouteEntry
from repro.workload.fib import FibProfile, synthesize_fib, zipf_addresses

ALL_TABLES = [SequentialRoutingTable, BalancedTreeRoutingTable,
              CamRoutingTable, MultibitTrieRoutingTable,
              BloomRoutingTable]


def entry(prefix_text, interface=0, metric=1):
    prefix = Ipv6Prefix.parse(prefix_text)
    return RouteEntry(prefix=prefix, next_hop=Ipv6Address(interface + 1),
                      interface=interface, metric=metric)


def addr(text):
    return Ipv6Address.parse(text)


@pytest.mark.parametrize("table_cls", ALL_TABLES)
class TestCommonSemantics:
    def test_longest_prefix_wins(self, table_cls):
        table = table_cls()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001::/16", 1))
        table.insert(entry("2001:db8::/32", 2))
        result = table.lookup(addr("2001:db8::1"))
        assert result.interface == 2
        assert table.lookup(addr("2001:1::1")).interface == 1
        assert table.lookup(addr("9::1")).interface == 0

    def test_miss_without_default(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32"))
        assert table.lookup(addr("3fff::1")) is None

    def test_replace_same_prefix(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001:db8::/32", 3))
        assert len(table) == 1
        assert table.lookup(addr("2001:db8::5")).interface == 3

    def test_remove(self, table_cls):
        table = table_cls()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001:db8::/32", 2))
        table.remove(Ipv6Prefix.parse("2001:db8::/32"))
        assert table.lookup(addr("2001:db8::1")).interface == 0

    def test_remove_missing_raises(self, table_cls):
        table = table_cls()
        with pytest.raises(RoutingTableError):
            table.remove(Ipv6Prefix.parse("2001:db8::/32"))

    def test_capacity_enforced(self, table_cls):
        table = table_cls(capacity=2)
        table.insert(entry("2001:a::/32"))
        table.insert(entry("2001:b::/32"))
        with pytest.raises(RoutingTableError):
            table.insert(entry("2001:c::/32"))
        # replacement of an existing prefix is always allowed
        table.insert(entry("2001:a::/32", 3))

    def test_exact_get(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32", 2))
        assert table.get(Ipv6Prefix.parse("2001:db8::/32")).interface == 2
        assert table.get(Ipv6Prefix.parse("2001:db8::/48")) is None
        assert Ipv6Prefix.parse("2001:db8::/32") in table

    def test_iteration_and_clear(self, table_cls):
        table = table_cls()
        for i, text in enumerate(("::/0", "2001::/16", "2001:db8::/32")):
            table.insert(entry(text, i))
        assert {e.interface for e in table} == {0, 1, 2}
        table.clear()
        assert len(table) == 0

    def test_stats_recorded(self, table_cls):
        table = table_cls()
        table.insert(entry("::/0"))
        table.lookup(addr("2001::1"))
        table.lookup(addr("2002::1"))
        assert table.stats.lookups == 2
        assert table.stats.hits == 2
        assert table.stats.inserts == 1


prefix_strategy = st.tuples(
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.sampled_from([0, 8, 16, 24, 32, 48, 64, 96, 128]),
).map(lambda t: Ipv6Prefix.of(Ipv6Address(t[0]), t[1]))


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=40,
                    unique=True),
           st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1),
                    min_size=1, max_size=30))
    def test_all_implementations_agree(self, prefixes, probe_values):
        tables = [make_table(kind, capacity=64) for kind in TABLE_KINDS]
        for i, prefix in enumerate(prefixes):
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                           interface=i % 4)
            for table in tables:
                table.insert(e)
        for value in probe_values:
            probe = Ipv6Address(value)
            results = [t.lookup(probe) for t in tables]
            entries = [r.entry if r else None for r in results]
            assert all(e == entries[0] for e in entries[1:])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(prefix_strategy, min_size=4, max_size=30, unique=True),
           st.data())
    def test_agreement_survives_removals(self, prefixes, data):
        tables = [make_table(kind, capacity=64) for kind in TABLE_KINDS]
        for i, prefix in enumerate(prefixes):
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                           interface=i % 4)
            for table in tables:
                table.insert(e)
        victims = data.draw(st.lists(st.sampled_from(prefixes), max_size=5,
                                     unique=True))
        for victim in victims:
            for table in tables:
                table.remove(victim)
        for table in tables:
            if hasattr(table, "check_invariants"):
                table.check_invariants()
        for prefix in prefixes:
            probe = Ipv6Address(prefix.network.value | 1)
            entries = [r.entry if (r := t.lookup(probe)) else None
                       for t in tables]
            assert all(e == entries[0] for e in entries[1:])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=30, unique=True),
           st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1),
                    min_size=1, max_size=20),
           st.data())
    def test_same_workload_same_counts(self, prefixes, probe_values, data):
        """The cross-implementation accounting contract: one workload
        produces identical hit/miss/insert/removal *counts* on every
        implementation (steps legitimately differ — that is the whole
        point of the comparison)."""
        tables = [make_table(kind, capacity=64) for kind in TABLE_KINDS]
        for i, prefix in enumerate(prefixes):
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                           interface=i % 4)
            for table in tables:
                table.insert(e)
        replaced = data.draw(st.lists(st.sampled_from(prefixes),
                                      max_size=5))
        for prefix in replaced:
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(999),
                           interface=3)
            for table in tables:
                table.insert(e)
        victims = data.draw(st.lists(st.sampled_from(prefixes),
                                     max_size=5, unique=True))
        for victim in victims:
            for table in tables:
                table.remove(victim)
        for value in probe_values:
            for table in tables:
                table.lookup(Ipv6Address(value))
        reference = tables[0].stats
        for table in tables[1:]:
            stats = table.stats
            assert stats.lookups == reference.lookups
            assert stats.hits == reference.hits
            assert stats.misses == reference.misses
            assert stats.inserts == reference.inserts
            assert stats.removals == reference.removals

    @settings(max_examples=20, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=40, unique=True),
           st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1),
                    min_size=1, max_size=20))
    def test_lookup_batch_matches_sequential_lookups(self, prefixes,
                                                     probe_values):
        """`lookup_batch` must report the same results, the same stats,
        and the same per-address steps as per-address `lookup` — for
        every implementation, including the sequential table's hashed
        batch fast path."""
        probes = [Ipv6Address(value) for value in probe_values]
        for kind in TABLE_KINDS:
            single, batched = (make_table(kind, capacity=64)
                               for _ in range(2))
            for i, prefix in enumerate(prefixes):
                e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                               interface=i % 4)
                single.insert(e)
                batched.insert(e)
            expected = [single.lookup(address) for address in probes]
            got = batched.lookup_batch(probes)
            assert got == expected
            assert batched.stats == single.stats


class TestBalancedTree:
    def test_avl_invariants_random_ops(self):
        rng = random.Random(42)
        table = BalancedTreeRoutingTable(capacity=256)
        live = []
        for step in range(400):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                table.remove(victim)
            else:
                prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)),
                                       rng.choice([8, 16, 32, 64, 128]))
                if prefix not in table:
                    table.insert(RouteEntry(prefix=prefix,
                                            next_hop=Ipv6Address(1),
                                            interface=0))
                    live.append(prefix)
            table.check_invariants()

    def test_logarithmic_height(self):
        table = BalancedTreeRoutingTable(capacity=1024)
        rng = random.Random(7)
        for i in range(500):
            prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)), 64)
            if prefix not in table:
                table.insert(RouteEntry(prefix=prefix,
                                        next_hop=Ipv6Address(1),
                                        interface=0))
        # AVL guarantees height <= 1.44 log2(n+2)
        import math
        assert table.tree_height() <= 1.44 * math.log2(len(table) + 2) + 1

    def test_nested_prefix_chain(self):
        table = BalancedTreeRoutingTable()
        for length, iface in ((0, 0), (16, 1), (32, 2), (48, 3), (64, 4)):
            table.insert(RouteEntry(
                prefix=Ipv6Prefix.of(addr("2001:db8:1:2::"), length),
                next_hop=Ipv6Address(1), interface=iface))
        assert table.lookup(addr("2001:db8:1:2::9")).interface == 4
        assert table.lookup(addr("2001:db8:1:3::9")).interface == 3
        assert table.lookup(addr("2001:db8:2::9")).interface == 2
        assert table.lookup(addr("2001:1::9")).interface == 1
        assert table.lookup(addr("9999::9")).interface == 0


class TestCostShapes:
    def test_sequential_linear_tree_log_cam_constant(self):
        rng = random.Random(3)
        kinds = {}
        for kind in TABLE_KINDS:
            table = make_table(kind, capacity=128)
            for i in range(100):
                while True:
                    prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)),
                                           64)
                    if prefix not in table:
                        break
                table.insert(RouteEntry(prefix=prefix,
                                        next_hop=Ipv6Address(1), interface=0))
            for _ in range(200):
                table.lookup(Ipv6Address(rng.getrandbits(128)))
            kinds[kind] = table.stats.mean_lookup_steps
        assert kinds["cam"] == 1.0
        assert kinds["balanced-tree"] < 20
        assert kinds["sequential"] > 50


class TestCam:
    def test_priority_order_by_length(self):
        table = CamRoutingTable()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001::/16", 2))
        lengths = [p.length for p in table.priority_order()]
        assert lengths == sorted(lengths, reverse=True)

    def test_physical_model_power_scales(self):
        model = CamPhysicalModel()
        assert model.power_at(133.0) == pytest.approx(1.75)
        assert model.power_at(66.5) == pytest.approx(0.875)
        assert model.power_at(266.0) == pytest.approx(1.75)  # capped

    def test_search_cycles_ceiling(self):
        model = CamPhysicalModel()
        assert model.search_cycles(25e6) == 1       # 40 ns at 25 MHz
        assert model.search_cycles(100e6) == 4
        assert model.search_cycles(1e9) == 40

    def test_bad_clock_rejected(self):
        model = CamPhysicalModel()
        with pytest.raises(RoutingTableError):
            model.power_at(0)
        with pytest.raises(RoutingTableError):
            model.search_cycles(-1)


@pytest.mark.parametrize("table_cls", ALL_TABLES)
class TestAccountingRegressions:
    """The routing-layer accounting bugfix sweep, pinned by regression.

    * ``clear()`` used to call ``_remove`` directly, bypassing
      ``stats.record_update`` and the ``routing_updates_total`` counter;
    * ``load()`` used to run the full per-insert path (a per-entry
      ``get`` probe plus capacity check — O(n²) on the sequential
      table);
    * the tree's replace path used to report ``_height(self._root)``
      instead of the descent actually performed.
    """

    def test_clear_records_every_removal(self, table_cls):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            table = table_cls()
            for text in ("::/0", "2001::/16", "2001:db8::/32"):
                table.insert(entry(text))
            table.clear()
            assert len(table) == 0
            assert table.stats.removals == 3
            assert table.stats.inserts == 3
            counters = registry.snapshot()["counters"]
            values = {tuple(sorted(v["labels"].items())): v["value"]
                      for v in counters["routing_updates_total"]["values"]}
            key = (("kind", table.kind), ("op", "remove"))
            assert values[key] == 3
        finally:
            set_registry(previous)

    def test_bulk_load_equivalent_to_per_insert(self, table_cls):
        routes = synthesize_fib(60, seed=5)
        bulk = table_cls(capacity=len(routes))
        bulk.load(routes)
        reference = table_cls(capacity=len(routes))
        for route in routes:
            reference.insert(route)
        assert len(bulk) == len(reference)
        assert {e.prefix: e for e in bulk} == \
            {e.prefix: e for e in reference}
        # overrides must keep the *counts* identical to the per-insert
        # path; only total_update_steps may (and should) be cheaper
        assert bulk.stats.inserts == reference.stats.inserts
        assert bulk.stats.removals == reference.stats.removals
        probes = zipf_addresses(routes, 50, seed=9)
        assert [r.entry if r else None for r in bulk.lookup_batch(probes)] \
            == [r.entry if r else None
                for r in reference.lookup_batch(probes)]

    def test_bulk_load_duplicates_collapse_to_last(self, table_cls):
        routes = [entry("2001:db8::/32", 1), entry("2001:db8::/32", 2)]
        table = table_cls(capacity=1)
        table.load(routes)  # one distinct prefix: fits capacity 1
        assert len(table) == 1
        assert table.lookup(addr("2001:db8::9")).interface == 2
        assert table.stats.inserts == 2  # both writes accounted

    def test_bulk_load_capacity_checked_up_front(self, table_cls):
        routes = synthesize_fib(20, seed=6)
        table = table_cls(capacity=10)
        with pytest.raises(RoutingTableError):
            table.load(routes)
        # no partial load: the check precedes the first write
        assert len(table) == 0
        assert table.stats.inserts == 0

    def test_bulk_load_into_populated_table(self, table_cls):
        table = table_cls(capacity=40)
        table.insert(entry("::/0", 0))
        routes = synthesize_fib(
            20, seed=7, profile=FibProfile(include_default=False))
        table.load(routes)
        assert len(table) == 21
        assert table.lookup(addr("9::1")).interface == 0


class TestReplaceCost:
    def test_tree_replace_cost_is_descent_plus_write(self):
        # Single node: the descent visits one node, plus one write.
        table = BalancedTreeRoutingTable()
        table.insert(entry("2001:db8::/32", 1))
        before = table.stats.total_update_steps
        table.insert(entry("2001:db8::/32", 2))
        assert table.stats.total_update_steps - before == 2
        assert table.lookup(addr("2001:db8::1")).interface == 2

    def test_tree_replace_cost_depends_on_node_depth(self):
        # The regression: every replace reported the tree height.
        # Replacing the root must be cheaper than replacing a leaf.
        rng = random.Random(13)
        table = BalancedTreeRoutingTable(capacity=256)
        prefixes = []
        for _ in range(128):
            prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)), 64)
            if prefix not in table:
                table.insert(RouteEntry(prefix=prefix,
                                        next_hop=Ipv6Address(1),
                                        interface=0))
                prefixes.append(prefix)

        def replace_cost(prefix):
            before = table.stats.total_update_steps
            table.insert(RouteEntry(prefix=prefix, next_hop=Ipv6Address(2),
                                    interface=1))
            return table.stats.total_update_steps - before

        costs = {replace_cost(prefix) for prefix in prefixes}
        height = table.tree_height()
        assert len(costs) > 1          # not one flat height-derived value
        assert min(costs) == 2         # the root: one comparison + write
        assert max(costs) <= height + 1

    @pytest.mark.parametrize("table_cls", ALL_TABLES)
    def test_replace_never_counts_as_fresh_insert(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001:db8::/32", 2))
        assert len(table) == 1
        assert table.stats.inserts == 2
        assert table.stats.removals == 0


def _loaded_tables(prefix_count, seed):
    routes = synthesize_fib(prefix_count, seed=seed)
    tables = [make_table(kind, capacity=len(routes))
              for kind in TABLE_KINDS]
    for table in tables:
        table.load(routes)
    return routes, tables


def _assert_tables_agree(routes, tables, probes):
    answers = [table.lookup_batch(probes) for table in tables]
    for per_table in zip(*answers):
        entries = [r.entry if r else None for r in per_table]
        assert all(e == entries[0] for e in entries[1:])


class TestScalingEquivalence:
    """LPM identical-semantics at FIB scale, all five implementations."""

    @pytest.mark.parametrize("prefix_count", (100, 1_000, 10_000))
    def test_agree_at_scale(self, prefix_count):
        routes, tables = _loaded_tables(prefix_count, seed=prefix_count)
        probes = zipf_addresses(routes, 300, seed=3)
        # off-table probes exercise the miss paths too
        rng = random.Random(4)
        probes += [Ipv6Address(rng.getrandbits(128)) for _ in range(50)]
        _assert_tables_agree(routes, tables, probes)
        for table in tables:
            if hasattr(table, "check_invariants"):
                table.check_invariants()

    @pytest.mark.parametrize("prefix_count", (1_000, 5_000))
    def test_nested_adoption_survives_bulk_load_then_removal(
            self, prefix_count):
        """Bulk load, then randomly remove a third of the routes:
        enclosing-chain adoption/release (tree), slot re-expansion and
        pruning (trie), and filter decrements (Bloom) must all keep the
        five structures in agreement."""
        routes, tables = _loaded_tables(prefix_count, seed=17)
        rng = random.Random(23)
        victims = rng.sample(routes[1:], prefix_count // 3)
        for victim in victims:
            for table in tables:
                table.remove(victim.prefix)
        for table in tables:
            assert len(table) == len(routes) - len(victims)
            if hasattr(table, "check_invariants"):
                table.check_invariants()
        gone = {victim.prefix for victim in victims}
        survivors = [r for r in routes if r.prefix not in gone]
        probes = zipf_addresses(survivors, 200, seed=29)
        probes += [Ipv6Address(rng.getrandbits(128)) for _ in range(50)]
        _assert_tables_agree(routes, tables, probes)

    @pytest.mark.slow
    @pytest.mark.parametrize("prefix_count", (100_000, 1_000_000))
    def test_agree_at_fib_scale(self, prefix_count):
        routes, tables = _loaded_tables(prefix_count, seed=41)
        probes = zipf_addresses(routes, 500, seed=43)
        _assert_tables_agree(routes, tables, probes)
        for table in tables:
            if hasattr(table, "check_invariants"):
                table.check_invariants()


class TestMultibitTrie:
    def test_search_latency_is_pipeline_depth(self):
        assert MultibitTrieRoutingTable(stride=8).search_latency_cycles() \
            == 16
        assert MultibitTrieRoutingTable(stride=4).search_latency_cycles() \
            == 32
        assert MultibitTrieRoutingTable(stride=13).search_latency_cycles() \
            == 10  # ceil(128/13)

    def test_bad_stride_rejected(self):
        with pytest.raises(RoutingTableError):
            MultibitTrieRoutingTable(stride=0)
        with pytest.raises(RoutingTableError):
            MultibitTrieRoutingTable(stride=33)

    @pytest.mark.parametrize("stride", (4, 7, 8, 13))
    def test_non_stride_aligned_lengths(self, stride):
        """Prefix lengths that fall inside a node's span (/29, /36, ...)
        exercise controlled prefix expansion; every stride must agree
        with the sequential reference."""
        routes = synthesize_fib(300, seed=31)
        reference = SequentialRoutingTable(capacity=len(routes))
        trie = MultibitTrieRoutingTable(capacity=len(routes),
                                        stride=stride)
        reference.load(routes)
        trie.load(routes)
        trie.check_invariants()
        probes = zipf_addresses(routes, 150, seed=37)
        for probe in probes:
            want = reference.lookup(probe)
            got = trie.lookup(probe)
            assert (got.entry if got else None) == \
                (want.entry if want else None)

    def test_lookup_steps_bounded_by_depth(self):
        routes = synthesize_fib(2_000, seed=47)
        trie = MultibitTrieRoutingTable(capacity=len(routes))
        trie.load(routes)
        probes = zipf_addresses(routes, 200, seed=53)
        for probe in probes:
            result = trie.lookup(probe)
            assert result.steps <= trie.max_depth()

    def test_pruning_restores_insert_built_state(self):
        """Removal must leave exactly the structure repeated inserts
        would have built: no empty interior nodes, exact node count."""
        routes = synthesize_fib(200, seed=59)
        trie = MultibitTrieRoutingTable(capacity=len(routes))
        trie.load(routes)
        rng = random.Random(61)
        for victim in rng.sample(routes, 150):
            trie.remove(victim.prefix)
            trie.check_invariants()
        rebuilt = MultibitTrieRoutingTable(capacity=len(routes))
        for route in trie:
            rebuilt.insert(route)
        assert trie.node_count() == rebuilt.node_count()
        assert trie.slot_count() == rebuilt.slot_count()

    def test_memory_grows_with_occupancy(self):
        small = MultibitTrieRoutingTable(capacity=10_000)
        big = MultibitTrieRoutingTable(capacity=10_000)
        small.load(synthesize_fib(100, seed=67))
        big.load(synthesize_fib(5_000, seed=67))
        assert big.table_memory_bytes() > small.table_memory_bytes()
        assert big.node_count() > small.node_count()


class TestBloom:
    def test_deterministic_across_instances(self):
        routes = synthesize_fib(500, seed=71)
        a = BloomRoutingTable(capacity=len(routes))
        b = BloomRoutingTable(capacity=len(routes))
        a.load(routes)
        for route in routes:
            b.insert(route)
        assert a.filter_info() == b.filter_info()
        probes = zipf_addresses(routes, 100, seed=73)
        for probe in probes:
            ra, rb = a.lookup(probe), b.lookup(probe)
            assert (ra.entry, ra.steps) == (rb.entry, rb.steps)

    def test_removal_decrements_filters(self):
        table = BloomRoutingTable()
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001:db8:1::/48", 2))
        table.remove(Ipv6Prefix.parse("2001:db8:1::/48"))
        info = table.filter_info()
        assert 48 not in info  # empty length class dropped entirely
        assert info[32][0] == 1
        table.check_invariants()

    def test_no_false_negatives_under_churn(self):
        rng = random.Random(79)
        table = BloomRoutingTable(capacity=512)
        live = []
        for _ in range(600):
            if live and rng.random() < 0.45:
                victim = live.pop(rng.randrange(len(live)))
                table.remove(victim)
            else:
                prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)),
                                       rng.choice([16, 32, 48, 64]))
                if prefix not in table:
                    table.insert(RouteEntry(prefix=prefix,
                                            next_hop=Ipv6Address(1),
                                            interface=0))
                    live.append(prefix)
        table.check_invariants()  # stored prefixes all filter-positive

    def test_expected_steps_near_constant(self):
        """The headline property: mean lookup steps stay near the
        filter-bank probe + one hash-table access as the table grows."""
        means = {}
        for count in (200, 2_000):
            routes = synthesize_fib(count, seed=83)
            table = BloomRoutingTable(capacity=len(routes))
            table.load(routes)
            table.lookup_batch(zipf_addresses(routes, 300, seed=89))
            means[count] = table.stats.mean_lookup_steps
        assert means[200] < 4.0
        assert means[2_000] < 4.0
        assert abs(means[2_000] - means[200]) < 1.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(RoutingTableError):
            BloomRoutingTable(slots_per_entry=1)
        with pytest.raises(RoutingTableError):
            BloomRoutingTable(hash_count=0)


# -- batch lookups against a per-address twin ----------------------------------

#: routes the interleaving test draws from: a FIB without a default
#: route, plus ::/0 as one more candidate, so all-miss batches exist
#: whenever ::/0 is not stored
TWIN_POOL = synthesize_fib(
    40, seed=21, profile=FibProfile(include_default=False)) + [entry("::/0")]
ALL_ONES = (1 << 128) - 1
#: ff00::/8 lies outside the pool's 2000::/3, so only ::/0 covers it
OUTSIDE_POOL = 0xFF << 120


def _routing_counters(registry):
    """Every routing_* counter series, minus the batch-index counter
    only the batched table publishes."""
    return {name: metric["values"]
            for name, metric in registry.snapshot()["counters"].items()
            if name.startswith("routing_")
            and name != "routing_batch_index_total"}


class _Twins:
    """One table answering by ``lookup_batch`` and one answering per
    address, each publishing into its own registry."""

    def __init__(self, kind):
        self.tables = [make_table(kind, capacity=len(TWIN_POOL))
                       for _ in range(2)]
        self.registries = [MetricsRegistry(enabled=True)
                           for _ in range(2)]
        self.live = {}
        self.damaged = False

    def on_both(self, action):
        """Apply *action* to both tables; both must raise alike (only
        lookups promise to fail stop: a mutator on a damaged table may
        raise anything)."""
        outcomes = []
        for table, registry in zip(self.tables, self.registries):
            previous = set_registry(registry)
            try:
                action(table)
                outcomes.append(None)
            except Exception as exc:  # noqa: BLE001 — compared below
                outcomes.append(type(exc))
            finally:
                set_registry(previous)
        assert outcomes[0] == outcomes[1]
        return outcomes[0] is None

    def on(self, side, action):
        previous = set_registry(self.registries[side])
        try:
            return action(self.tables[side])
        finally:
            set_registry(previous)


class TestBatchAgainstPerAddressTwin:
    @pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
    def test_one_sided_batches_add_only_their_own_series(self, kind):
        """Empty, all-hit and all-miss batches touch exactly the counter
        series as many single lookups would: none, no miss series, no
        hit series."""
        routes = TWIN_POOL[:-1]  # no ::/0
        hits = zipf_addresses(routes, 30, seed=41)
        misses = [Ipv6Address(OUTSIDE_POOL | i) for i in range(30)]
        for batch in ([], hits, misses, hits + misses):
            twins = _Twins(kind)
            twins.on_both(lambda t: t.load(routes))
            expected = twins.on(1, lambda t: [t.lookup(a) for a in batch])
            assert twins.on(0, lambda t: t.lookup_batch(batch)) == expected
            assert twins.tables[0].stats == twins.tables[1].stats
            counters = _routing_counters(twins.registries[0])
            assert counters == _routing_counters(twins.registries[1])
            series = counters.get("routing_lookups_total", [])
            assert {value["labels"]["outcome"] for value in series} \
                == {"miss" if result is None else "hit"
                    for result in expected}
            assert all(value["value"] > 0 for value in series)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(sorted(TABLE_KINDS)), data=st.data())
    def test_interleaved_mutations_keep_batch_equal_to_per_address(
            self, kind, data):
        """insert/remove/load/corrupt_memory interleaved with batches on
        one table: every batch equals the per-address twin in results,
        ``stats`` and every routing_* counter series."""
        twins = _Twins(kind)
        batched, single = twins.tables
        for _ in range(data.draw(st.integers(1, 16), label="ops")):
            op = data.draw(st.sampled_from(
                ("insert", "remove", "load", "corrupt", "batch")))
            if op == "insert":
                route = data.draw(st.sampled_from(TWIN_POOL))
                if twins.on_both(lambda t: t.insert(route)):
                    twins.live[route.prefix] = route
            elif op == "remove" and twins.live:
                prefix = data.draw(st.sampled_from(list(twins.live)))
                if twins.on_both(lambda t: t.remove(prefix)):
                    del twins.live[prefix]
            elif op == "load":
                routes = data.draw(st.lists(st.sampled_from(TWIN_POOL),
                                            max_size=12))
                if twins.on_both(lambda t: t.load(routes)):
                    twins.live.update((r.prefix, r) for r in routes)
            elif op == "corrupt":
                sites = [site for site in batched.memory_sites()
                         if batched.memory_record_count(site)]
                if not sites:
                    continue
                site = data.draw(st.sampled_from(sites))
                index = data.draw(st.integers(
                    0, batched.memory_record_count(site) - 1))
                try:
                    record = batched.memory_record(site, index)
                except RoutingTableError:
                    # earlier damage can desynchronise a record count
                    # from the records it counts (tree payload flips)
                    continue
                bit = data.draw(st.integers(0, 8 * len(record) - 1))
                twins.on_both(lambda t: t.corrupt_memory(site, index, bit))
                twins.damaged = True
            elif op == "batch":
                flavour = data.draw(st.sampled_from(("hit", "miss", "mixed")))
                hosts = data.draw(st.lists(st.integers(0, ALL_ONES),
                                           max_size=12))
                addresses = []
                if flavour != "miss" and twins.live:
                    routes = list(twins.live.values())
                    addresses += [Ipv6Address(
                        routes[i % len(routes)].prefix.network.value
                        | (host & ~routes[i % len(routes)].prefix.mask()
                           & ALL_ONES))
                        for i, host in enumerate(hosts)]
                if flavour != "hit":
                    addresses += [Ipv6Address(OUTSIDE_POOL | (host >> 8))
                                  for host in hosts]
                try:
                    expected = twins.on(1, lambda t: [t.lookup(a)
                                                      for a in addresses])
                except RoutingTableError:
                    # per-address fails on some address: the batch must
                    # fail stop too; the twins' stats now differ by the
                    # per-address lookups accounted before the failure
                    with pytest.raises(RoutingTableError):
                        twins.on(0, lambda t: t.lookup_batch(addresses))
                    return
                got = twins.on(0, lambda t: t.lookup_batch(addresses))
                assert got == expected
                if not twins.damaged and flavour == "hit":
                    assert None not in got
                if (not twins.damaged and flavour == "miss"
                        and Ipv6Prefix.parse("::/0") not in twins.live):
                    assert got == [None] * len(addresses)
            assert batched.stats == single.stats
            assert _routing_counters(twins.registries[0]) \
                == _routing_counters(twins.registries[1])


def _index_results(registry, kind):
    counters = registry.snapshot()["counters"]
    values = counters.get("routing_batch_index_total", {"values": []})
    return {v["labels"]["result"]: v["value"] for v in values["values"]
            if v["labels"]["kind"] == kind}


@pytest.mark.parametrize("kind", ["sequential", "cam"])
class TestLengthIndexLifetime:
    """The sequential/CAM per-length index is kept across batches and
    dropped by every mutator (``routing_batch_index_total`` shows it)."""

    ROUTES = synthesize_fib(50, seed=31)
    PROBES = zipf_addresses(ROUTES, 40, seed=32)

    def _batches(self, kind, mutate):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            table = make_table(kind, capacity=len(self.ROUTES) + 1)
            table.load(self.ROUTES)
            table.lookup_batch(self.PROBES)
            table.lookup_batch(self.PROBES)
            assert _index_results(registry, kind) == {"hit": 1, "miss": 1}
            mutate(table)
            table.lookup_batch(self.PROBES)
            after_mutation = _index_results(registry, kind)
            table.lookup_batch(self.PROBES)
            return after_mutation, _index_results(registry, kind)
        finally:
            set_registry(previous)

    @pytest.mark.parametrize("mutator", ["insert", "replace", "remove",
                                         "load", "clear-then-load"])
    def test_every_mutator_drops_the_index(self, kind, mutator):
        fresh = entry("2001:db8:ffff::/48", interface=3)
        mutate = {
            "insert": lambda t: t.insert(fresh),
            "replace": lambda t: t.insert(RouteEntry(
                prefix=self.ROUTES[5].prefix, next_hop=Ipv6Address(9),
                interface=2)),
            "remove": lambda t: t.remove(self.ROUTES[5].prefix),
            "load": lambda t: t.load([fresh]),
            "clear-then-load": lambda t: (t.clear(), t.load(self.ROUTES)),
        }[mutator]
        after_mutation, after_reuse = self._batches(kind, mutate)
        assert after_mutation == {"hit": 1, "miss": 2}
        assert after_reuse == {"hit": 2, "miss": 2}

    def test_corrupt_memory_drops_the_index(self, kind):
        site = make_table(kind).memory_sites()[0]
        # a flipped next-hop bit keeps the lines well-formed: rebuilt
        # once, then kept
        next_hop_bit = (256 if kind == "cam" else 0) + 136 + 127
        after_mutation, after_reuse = self._batches(
            kind, lambda t: t.corrupt_memory(site, 7, next_hop_bit))
        assert after_mutation == {"hit": 1, "miss": 2}
        assert after_reuse == {"hit": 2, "miss": 2}

    def test_malformed_state_never_serves_from_an_index(self, kind):
        site = make_table(kind).memory_sites()[0]
        # a flipped prefix-length bit in the middle of a length group
        # splits it (sequential); a flipped top mask bit breaks
        # mask == prefix_mask(length) (CAM)
        bad_bit = 128 + 5 if kind == "sequential" else 128

        def damage(table):
            lengths = [route.prefix.length for route in table]
            middle = next(i for i in range(1, len(lengths) - 1)
                          if lengths[i - 1] == lengths[i] == lengths[i + 1])
            table.corrupt_memory(site, middle, bad_bit)

        after_mutation, after_reuse = self._batches(kind, damage)
        assert after_mutation == {"hit": 1, "miss": 2}
        assert after_reuse == {"hit": 1, "miss": 3}

    def test_index_counter_passes_the_schema_check(self, kind, tmp_path):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            table = make_table(kind, capacity=len(self.ROUTES))
            table.load(self.ROUTES)
            table.lookup_batch(self.PROBES)
            table.lookup_batch(self.PROBES)
        finally:
            set_registry(previous)
        document = {"metrics": registry.snapshot()}
        output = tmp_path / "metrics.json"
        output.write_text(json.dumps(document))
        checker, schema = _schema_checker()
        assert checker.check(str(output), schema) == 0
        values = document["metrics"]["counters"][
            "routing_batch_index_total"]["values"]
        for label, bogus in (("result", "stale"), ("kind", "hashed")):
            original = values[0]["labels"][label]
            values[0]["labels"][label] = bogus
            output.write_text(json.dumps(document))
            assert checker.check(str(output), schema) == 1
            values[0]["labels"][label] = original


def _schema_checker():
    spec = importlib.util.spec_from_file_location(
        "check_metrics_schema",
        os.path.join(os.path.dirname(__file__), os.pardir,
                     "scripts", "check_metrics_schema.py"))
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    with open(checker.SCHEMA_PATH, encoding="utf-8") as handle:
        return checker, json.load(handle)


@pytest.mark.parametrize("kind,site,bit", [
    ("sequential", "entry", 40),  # image bit of network bit 47 (LSB-first)
    ("cam", "cam-row", 47),       # match-value bit 47 (MSB-first)
])
def test_batch_keeps_the_first_of_duplicated_keys(kind, site, bit):
    """A flip that turns 2001:db8:1::/48 into a copy of the later
    2001:db8::/48 leaves two lines with one key: the scan answers with
    the first, so the batch must too."""
    tables = [make_table(kind) for _ in range(2)]
    for table in tables:
        table.insert(entry("2001:db8:1::/48", interface=1))
        table.insert(entry("2001:db8::/48", interface=2))
        table.corrupt_memory(site, 0, bit)
    single, batched = tables
    probes = [addr("2001:db8::5")]
    expected = [single.lookup(address) for address in probes]
    assert expected[0].interface == 1
    assert batched.lookup_batch(probes) == expected


# -- exact-prefix index against the scan it replaced ---------------------------


class _ScanSequential(SequentialRoutingTable):
    """The sequential table answering exact-prefix operations by the
    linear scans the kept index replaced."""

    def _insert(self, entry):
        self._index.drop()
        steps = 0
        for i, existing in enumerate(self._entries):
            steps += 1
            if existing.prefix == entry.prefix:
                self._entries[i] = entry
                return steps + 1
        position = len(self._entries)
        for i, existing in enumerate(self._entries):
            if existing.prefix.length < entry.prefix.length:
                position = i
                break
        self._entries.insert(position, entry)
        return steps + (len(self._entries) - position)

    def _remove(self, prefix):
        self._index.drop()
        for i, existing in enumerate(self._entries):
            if existing.prefix == prefix:
                del self._entries[i]
                return i + 1 + (len(self._entries) - i)
        raise RoutingTableError(f"no such route: {prefix}")

    def get(self, prefix):
        for existing in self._entries:
            if existing.prefix == prefix:
                return existing
        return None


class _ScanCam(CamRoutingTable):
    """The CAM answering exact-prefix operations by the line scans the
    kept index replaced."""

    def _insert(self, entry):
        self._index.drop()
        prefix = entry.prefix
        for line in self._lines:
            if line.entry.prefix == prefix:
                line.entry = entry
                return 2
        position = len(self._lines)
        for i, line in enumerate(self._lines):
            if line.entry.prefix.length < prefix.length:
                position = i
                break
        self._lines.insert(position, _CamLine(
            value=prefix.network.value, mask=prefix.mask(), entry=entry))
        return 1 + (len(self._lines) - position - 1)

    def _remove(self, prefix):
        self._index.drop()
        for i, line in enumerate(self._lines):
            if line.entry.prefix == prefix:
                del self._lines[i]
                return 1 + (len(self._lines) - i)
        raise RoutingTableError(f"no such route: {prefix}")

    def get(self, prefix):
        for line in self._lines:
            if line.entry.prefix == prefix:
                return line.entry
        return None


SCAN_TWINS = {"sequential": _ScanSequential, "cam": _ScanCam}
#: the pool's prefixes with another next hop: inserts that replace
REPLACEMENTS = [RouteEntry(prefix=route.prefix, next_hop=Ipv6Address(77),
                           interface=3, metric=2) for route in TWIN_POOL]
#: a prefix no pool route holds
ABSENT = Ipv6Prefix.of(Ipv6Address(OUTSIDE_POOL), 8)
PREFIXES = [route.prefix for route in TWIN_POOL] + [ABSENT]


def _observable(table, registry):
    """What a caller can see of *table*: its entries, scan order, memory
    image, ``stats`` and routing_* counters (minus the update-index
    counter, which only the indexed table publishes)."""
    site = table.memory_sites()[0]
    order = (table.priority_order() if table.kind == "cam"
             else [stored.prefix for stored in table.memory_layout()])
    counters = {name: metric["values"]
                for name, metric in registry.snapshot()["counters"].items()
                if name.startswith("routing_")
                and name != "routing_update_index_total"}
    return (list(table), order,
            [table.memory_record(site, index)
             for index in range(table.memory_record_count(site))],
            table.stats, counters)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(SCAN_TWINS)), data=st.data())
def test_exact_prefix_index_matches_the_scans(kind, data):
    """Interleaved inserts (new and replacing), removals (present and
    absent), ``get``, ``in``, loads, clears, corruption and batches: the
    indexed table and a twin that scans answer, raise and account alike,
    and keep the same order and memory image."""
    tables = [make_table(kind, capacity=16), SCAN_TWINS[kind](capacity=16)]
    registries = [MetricsRegistry(enabled=True) for _ in tables]

    def on_both(action):
        outcomes = []
        for table, registry in zip(tables, registries):
            previous = set_registry(registry)
            try:
                outcomes.append(("ok", action(table)))
            except Exception as exc:  # noqa: BLE001 — compared below
                outcomes.append((type(exc), str(exc)))
            finally:
                set_registry(previous)
        assert outcomes[0] == outcomes[1]

    prefix_length_bit = (256 if kind == "cam" else 0) + 128
    for _ in range(data.draw(st.integers(1, 30), label="ops")):
        op = data.draw(st.sampled_from(
            ("insert", "insert", "insert", "remove", "get", "in", "load",
             "clear", "corrupt", "batch")))
        if op == "insert":
            route = data.draw(st.sampled_from(TWIN_POOL + REPLACEMENTS))
            on_both(lambda t: t.insert(route))
        elif op in ("remove", "get", "in"):
            prefix = data.draw(st.sampled_from(PREFIXES))
            on_both({"remove": lambda t: t.remove(prefix),
                     "get": lambda t: t.get(prefix),
                     "in": lambda t: prefix in t}[op])
        elif op == "load":
            routes = data.draw(st.lists(st.sampled_from(
                TWIN_POOL + REPLACEMENTS), max_size=10))
            on_both(lambda t: t.load(routes))
        elif op == "clear":
            on_both(lambda t: t.clear())
        elif op == "corrupt" and len(tables[0]):
            site = tables[0].memory_sites()[0]
            index = data.draw(st.integers(0, len(tables[0]) - 1))
            record_bits = 8 * len(tables[0].memory_record(site, index))
            bit = data.draw(st.one_of(
                st.integers(0, record_bits - 1),
                st.integers(prefix_length_bit, prefix_length_bit + 7)))
            on_both(lambda t: t.corrupt_memory(site, index, bit))
        elif op == "batch":
            hosts = data.draw(st.lists(st.integers(0, ALL_ONES),
                                       max_size=8))
            addresses = [Ipv6Address(
                PREFIXES[i % len(PREFIXES)].network.value
                | (host & ~PREFIXES[i % len(PREFIXES)].mask() & ALL_ONES))
                for i, host in enumerate(hosts)]
            on_both(lambda t: t.lookup_batch(addresses))
        assert _observable(tables[0], registries[0]) \
            == _observable(tables[1], registries[1])
    builds = registries[0].snapshot()["counters"].get(
        "routing_update_index_total", {"values": []})["values"]
    assert {value["labels"]["result"] for value in builds} <= {"miss"}


def _update_index_misses(registry, kind):
    values = registry.snapshot()["counters"].get(
        "routing_update_index_total", {"values": []})["values"]
    assert all(value["labels"]["result"] == "miss" for value in values)
    return sum(value["value"] for value in values
               if value["labels"]["kind"] == kind)


@pytest.mark.parametrize("kind", sorted(SCAN_TWINS))
class TestPrefixIndexLifetime:
    """The exact-prefix index is built on first use, kept by updates,
    dropped by bulk loads and corruption, and refused on malformed
    state (``routing_update_index_total`` counts builds and refusals)."""

    ROUTES = synthesize_fib(50, seed=31)
    FRESH = entry("2001:db8:ffff::/48", interface=3)

    def _run(self, kind, steps):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            table = make_table(kind, capacity=len(self.ROUTES) + 4)
            table.load(self.ROUTES)
            misses = []
            for step in steps:
                step(table)
                misses.append(_update_index_misses(registry, kind))
            return misses
        finally:
            set_registry(previous)

    def test_a_bulk_loaded_table_that_only_searches_never_builds(self, kind):
        probes = zipf_addresses(self.ROUTES, 40, seed=32)
        assert self._run(kind, [
            lambda t: t.lookup_batch(probes),
            lambda t: [t.lookup(address) for address in probes],
            lambda t: t.entries(),
        ]) == [0, 0, 0]

    def test_built_once_and_kept_by_updates(self, kind):
        replacement = RouteEntry(prefix=self.ROUTES[5].prefix,
                                 next_hop=Ipv6Address(9), interface=2)
        assert self._run(kind, [
            lambda t: t.get(self.ROUTES[3].prefix),
            lambda t: t.insert(self.FRESH),
            lambda t: t.insert(replacement),
            lambda t: t.remove(self.ROUTES[7].prefix),
            lambda t: self.ROUTES[7].prefix in t,
            lambda t: t.load([self.ROUTES[7], self.FRESH]),
            lambda t: t.clear(),
            lambda t: t.insert(self.FRESH),
        ]) == [1] * 8

    def test_bulk_load_and_corruption_drop_it(self, kind):
        site = make_table(kind).memory_sites()[0]
        next_hop_bit = (256 if kind == "cam" else 0) + 136 + 127
        assert self._run(kind, [
            lambda t: t.get(self.FRESH.prefix),
            lambda t: (t.clear(), t.load(self.ROUTES)),
            lambda t: t.get(self.FRESH.prefix),
            lambda t: t.corrupt_memory(site, 7, next_hop_bit),
            lambda t: t.insert(self.FRESH),
        ]) == [1, 1, 2, 2, 3]

    def test_malformed_state_is_refused_until_a_removal(self, kind):
        """A prefix-length flip that breaks the length order: the index
        is refused once, the scans answer (as the scan twin does), and
        a removal lets the index be tried again."""
        site = make_table(kind).memory_sites()[0]
        top_length_bit = (256 if kind == "cam" else 0) + 128 + 7
        twin = SCAN_TWINS[kind](capacity=len(self.ROUTES) + 4)
        twin.load(self.ROUTES)
        twin.corrupt_memory(site, 5, top_length_bit)
        replacement = RouteEntry(prefix=self.ROUTES[9].prefix,
                                 next_hop=Ipv6Address(9), interface=2)
        for step in (lambda t: t.insert(self.FRESH),
                     lambda t: t.insert(replacement)):
            step(twin)
        assert self._run(kind, [
            lambda t: t.corrupt_memory(site, 5, top_length_bit),
            lambda t: t.get(self.ROUTES[9].prefix),
            lambda t: t.insert(self.FRESH),
            lambda t: t.insert(replacement),
            lambda t: self._same(t, twin),
            lambda t: (t.remove(self.FRESH.prefix),
                       twin.remove(self.FRESH.prefix)),
            lambda t: t.get(self.ROUTES[9].prefix),
            lambda t: self._same(t, twin),
        ]) == [0, 1, 1, 1, 1, 1, 2, 2]

    @staticmethod
    def _same(table, twin):
        assert list(table) == list(twin)
        assert table.stats == twin.stats


def test_update_index_counter_passes_the_schema_check(tmp_path):
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        for kind in sorted(SCAN_TWINS):
            table = make_table(kind)
            table.insert(entry("2001:db8::/32"))
    finally:
        set_registry(previous)
    document = {"metrics": registry.snapshot()}
    values = document["metrics"]["counters"][
        "routing_update_index_total"]["values"]
    assert sorted(value["labels"]["kind"] for value in values) \
        == sorted(SCAN_TWINS)
    output = tmp_path / "metrics.json"
    output.write_text(json.dumps(document))
    checker, schema = _schema_checker()
    assert checker.check(str(output), schema) == 0
    for label, bogus in (("result", "served"), ("kind", "indexed")):
        original = values[0]["labels"][label]
        values[0]["labels"][label] = bogus
        output.write_text(json.dumps(document))
        assert checker.check(str(output), schema) == 1
        values[0]["labels"][label] = original


@pytest.mark.parametrize("kind,bit", [
    ("sequential", 40),  # image bit of network bit 47 (LSB-first)
    ("cam", 256 + 40),   # the same bit of the line's SRAM entry
])
def test_exact_prefix_operations_take_the_first_of_duplicated_prefixes(
        kind, bit):
    """A flip that turns 2001:db8:1::/48 into a copy of the later
    2001:db8::/48 stores one prefix twice: get, replace and remove act
    on the first copy, as the scans do."""
    tables = [make_table(kind), SCAN_TWINS[kind]()]
    prefix = Ipv6Prefix.parse("2001:db8::/48")
    replacement = entry("2001:db8::/48", interface=5)
    for table in tables:
        table.insert(entry("2001:db8:1::/48", interface=1))
        table.insert(entry("2001:db8::/48", interface=2))
        table.corrupt_memory(table.memory_sites()[0], 0, bit)
        assert table.get(prefix).interface == 1
    indexed, scanned = tables
    for step in (lambda t: t.insert(replacement),
                 lambda t: t.remove(prefix),
                 lambda t: t.get(prefix)):
        assert step(indexed) == step(scanned)
        assert list(indexed) == list(scanned)
        assert indexed.stats == scanned.stats
