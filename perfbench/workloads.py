"""The three benchmark workloads: seeded inputs, the timed op, its check.

Every input is generated from the run's ``--seed``: op *i* of the
process in slot *s* draws its inputs from
``random.Random(f"{seed}/{name}/{s}/{i}")``, so any process started with
the same seed and slot sees the same ops. The program
only receives the generated inputs. Each workload also checks a fixed
reference input against values stored in ``reference/``, so a change
that is meant only to speed the host up cannot move a simulated
statistic unnoticed.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, Dict, List, Optional, Sequence

from tracing import KINDS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
#: run outputs: results, span logs, scratch journals (not committed)
OUT_DIR = os.path.join(HERE, "out")
TABLE1_REFERENCE = os.path.join(REFERENCE_DIR, "table1_paper_default.txt")
EXACT_REFERENCE = os.path.join(REFERENCE_DIR, "exact_counts.json")


def _draw(seed: int, name: str, *where: object) -> random.Random:
    return random.Random("/".join(map(str, (seed, name) + where)))


class Table1Paper:
    """Op: one full Table-1 regeneration on the journaled campaign path.

    Nine configurations, CAM latency fixed-point reruns included, on a
    fresh seeded 100-entry table and 12-packet worst-case batch. Inputs
    are reused within an op but not across ops, as in a real campaign,
    so a memo only wins where real traffic would let it.
    """

    name = "table1-paper"
    why = ("the paper's evaluation loop (simulate, build, verify, "
           "estimate, journal) on the campaign path that evaluation "
           "caches and a shared sweep engine would rewrite")
    rotation = 1
    exact_ops = 1
    processes = 11

    def __init__(self, seed: int, slot: int, workdir: str):
        self.seed, self.slot = seed, slot
        self.workdir = workdir
        self.exact: Dict[str, float] = {}

    def imports(self) -> None:
        # Modules, not names: a traced run patches their attributes.
        from repro.dse import campaign, evaluator, table1
        from repro import workload
        self.campaign, self.evaluator = campaign, evaluator
        self.table1, self.workload = table1, workload

    def setup(self, tick: Callable[[], None]) -> None:
        self.imports()

    def prepare(self, index: int):
        rng = _draw(self.seed, self.name, self.slot, index)
        routes = self.workload.generate_routes(
            100, seed=rng.randrange(2 ** 31))
        packets = self.workload.worst_case_workload(
            routes, 12, seed=rng.randrange(2 ** 31))
        return routes, packets, os.path.join(self.workdir,
                                             f"op{index}.jsonl")

    def run(self, inputs):
        routes, packets, journal = inputs
        return self._campaign(routes, packets, journal)

    def _campaign(self, routes, packets, journal):
        evaluator = self.evaluator.ArchitectureEvaluator(
            routes, packets, backend="compiled")
        return self.campaign.run_table1_campaign(
            self.campaign.CampaignRunner(evaluator, journal_path=journal))

    def check(self, index: int, inputs, output) -> Optional[str]:
        os.remove(inputs[2])
        rows, result = output
        problems = []
        if len(rows) != 9:
            problems.append(f"{len(rows)} rows instead of 9")
        if result.failures:
            problems.append(f"{len(result.failures)} campaign failure(s): "
                            + "; ".join(f.render() for f in result.failures))
        violations = self.table1.shape_checks(rows)
        if violations:
            problems.append("shape checks: " + "; ".join(violations))
        return "; ".join(problems) or None

    def after_op(self, index: int, output) -> None:
        pass

    def reference(self) -> Dict[str, object]:
        """Paper-default inputs: routes seed 2003, packets seed 77."""
        routes = self.workload.generate_routes(100)
        packets = self.workload.worst_case_workload(routes, 12)
        journal = os.path.join(self.workdir, "paper-default.jsonl")
        rows, _result = self._campaign(routes, packets, journal)
        os.remove(journal)
        return {
            "table1": self.table1.render_table1(rows) + "\n",
            "cycles_per_packet": {
                f"{row.table_kind} {row.config_label}":
                    row.measured.cycles_per_packet for row in rows},
            "bus_utilization": {
                f"{row.table_kind} {row.config_label}":
                    row.measured.bus_utilization for row in rows},
        }


class _LengthOracle:
    """Longest-prefix match from one exact-match dict per prefix length;
    shares no code with the five table kinds it checks."""

    def __init__(self, routes: Sequence):
        by_length: Dict[int, dict] = {}
        for entry in routes:
            length = entry.prefix.length
            key = entry.prefix.network.value >> (128 - length)
            by_length.setdefault(length, {})[key] = entry
        self.levels = sorted(by_length.items(), reverse=True)

    def lookup(self, address):
        value = address.value
        for length, entries in self.levels:
            entry = entries.get(value >> (128 - length))
            if entry is not None:
                return entry
        return None


class FibLookup:
    """Op: one ``lookup_batch`` of 16,384 Zipf addresses on one kind.

    A seeded 100,000-prefix FIB is bulk-loaded into all five kinds during
    set-up. Kinds rotate in a fixed order and walk one address pool, so
    every kind sees the same traffic; runs end on a whole rotation. The
    batch is large because the sequential and CAM kinds rebuild per-length
    hash maps over the whole table on every ``lookup_batch`` call: at
    1,000-address batches that rebuild is ~73% of sequential's time
    (2.3k lookups/s) and hides every other kind.
    """

    name = "fib-lookup"
    why = ("bulk load plus reads of a 100k-prefix FIB in all five LPM "
           "kinds, where a packed FIB store would show; it runs no TTA "
           "code, so simulator work must leave it unchanged")
    prefixes = 100_000
    batch = 16_384
    pool_batches = 4
    rotation = len(KINDS)
    exact_ops = len(KINDS)
    processes = 3

    def __init__(self, seed: int, slot: int, workdir: str):
        self.seed = seed  # every slot loads the same FIB and pool
        self.exact: Dict[str, float] = {}

    def imports(self) -> None:
        from repro import routing
        from repro.workload import fib
        self.routing, self.fib = routing, fib

    def setup(self, tick: Callable[[], None]) -> None:
        """Calls ``tick`` between its stages, so the calibration samples
        that scale this seconds-long set-up are spread over it."""
        self.imports()
        fib = self.fib
        rng = _draw(self.seed, self.name, "setup")
        routes = fib.synthesize_fib(self.prefixes,
                                    seed=rng.randrange(2 ** 31))
        tick()
        pool = fib.zipf_addresses(routes, self.batch * self.pool_batches,
                                  seed=rng.randrange(2 ** 31))
        self.batches = [pool[i * self.batch:(i + 1) * self.batch]
                        for i in range(self.pool_batches)]
        tick()
        self.tables = self._load(routes, tick)
        for kind, table in zip(KINDS, self.tables):
            self.exact[f"routing.{kind}.memory_bytes"] = \
                table.table_memory_bytes()
        oracle = _LengthOracle(routes)
        self.expected = [[oracle.lookup(address) for address in batch]
                         for batch in self.batches]

    def _load(self, routes,
              tick: Callable[[], None] = lambda: None) -> List:
        tables = []
        for kind in KINDS:
            table = self.routing.TABLE_KINDS[kind](capacity=len(routes))
            table.load(routes)
            tables.append(table)
            tick()
        return tables

    def prepare(self, index: int):
        return index % len(KINDS), (index // len(KINDS)) % self.pool_batches

    def run(self, inputs):
        kind, batch = inputs
        return self.tables[kind].lookup_batch(self.batches[batch])

    def check(self, index: int, inputs, output) -> Optional[str]:
        kind, batch = inputs
        expected = self.expected[batch]
        wrong = sum(1 for got, want in zip(output, expected)
                    if (got.entry if got is not None else None) != want)
        wrong += abs(len(output) - len(expected))
        if wrong:
            return (f"{KINDS[kind]}: {wrong} of {len(expected)} lookups "
                    f"disagree with the per-length oracle")
        return None

    def after_op(self, index: int, output) -> None:
        if index == len(KINDS) - 1:  # every kind has answered batch 0
            for kind, table in zip(KINDS, self.tables):
                self.exact[f"routing.{kind}.steps_per_lookup"] = \
                    table.stats.total_lookup_steps / table.stats.lookups

    def reference(self) -> Dict[str, object]:
        """A small fixed FIB: lookup steps and memory per kind."""
        routes = self.fib.synthesize_fib(4096, seed=2026)
        addresses = self.fib.zipf_addresses(routes, 4096, seed=77)
        out: Dict[str, object] = {}
        for kind, table in zip(KINDS, self._load(routes)):
            table.lookup_batch(addresses)
            out[f"{kind}.lookup_steps"] = table.stats.total_lookup_steps
            out[f"{kind}.memory_bytes"] = table.table_memory_bytes()
        return out


class RipngRing:
    """Op: build a 10-router ring, originate a fresh seeded 400-prefix
    FIB round-robin and run RIPng to convergence.

    Router *i* uses table kind *i* mod 5, so the routing layer serves
    incremental inserts and removals beside a codec-heavy control plane
    (fib-lookup is bulk load plus reads).
    """

    name = "ripng-ring"
    why = ("incremental inserts under a codec-heavy RIPng control plane; "
           "a FIB layout that speeds loads and lookups but slows inserts "
           "shows a loss here")
    routers = 10
    prefixes = 400
    capacity = 512  # >= prefixes + 4 * routers, as seed_fib_routes asks
    rotation = 1
    exact_ops = 1
    processes = 7

    def __init__(self, seed: int, slot: int, workdir: str):
        self.seed, self.slot = seed, slot
        self.exact: Dict[str, float] = {}

    def imports(self) -> None:
        from repro.ipv6.address import Ipv6Address
        from repro.router import network, router
        self.address, self.network, self.router = \
            Ipv6Address, network, router

    def setup(self, tick: Callable[[], None]) -> None:
        self.imports()

    def _ring(self):
        # ring_topology gives every router one table kind; this ring mixes
        # them, wired the same way (line links plus a closing link).
        parse = self.address.parse
        net = self.network.Network()
        for i in range(self.routers):
            net.add_router(self.router.Ipv6Router(
                f"r{i}", [parse(f"2001:db8:{i:x}:1::1"),
                          parse(f"2001:db8:{i:x}:2::1")],
                table_kind=KINDS[i % len(KINDS)],
                table_capacity=self.capacity))
        for i in range(self.routers - 1):
            net.connect((f"r{i}", 1), (f"r{i + 1}", 0))
        last = f"r{self.routers - 1}"
        closing_first = net.routers["r0"].add_interface(
            parse("2001:db8:ff0::1"))
        closing_last = net.routers[last].add_interface(
            parse(f"2001:db8:ff{self.routers - 1}::1"))
        net.connect(("r0", closing_first), (last, closing_last))
        return net

    def prepare(self, index: int) -> int:
        return _draw(self.seed, self.name, self.slot,
                     index).randrange(2 ** 31)

    def run(self, fib_seed: int):
        net = self._ring()
        self.network.seed_fib_routes(net, self.prefixes, seed=fib_seed)
        return net, net.run_until_converged()

    def check(self, index: int, fib_seed, output) -> Optional[str]:
        net, report = output
        if not report.converged:
            return f"ring did not converge in {report.rounds} rounds"
        local = {prefix for router in net.routers.values()
                 for prefix, route in router.ripng.routes.items()
                 if route.learned_from is None}
        differing = [name for name, router in net.routers.items()
                     if {entry.prefix for entry in router.table} != local]
        if differing:
            return (f"prefix sets differ from the {len(local)} originated "
                    f"and connected prefixes on {', '.join(differing)}")
        return None

    def after_op(self, index: int, output) -> None:
        if index == 0:
            _net, report = output
            self.exact["router.rounds"] = report.rounds
            self.exact["router.messages"] = report.messages_delivered

    def reference(self) -> Dict[str, object]:
        """The ring with a fixed FIB seed: convergence rounds and frames."""
        _net, report = self.run(2026)
        return {"converged": report.converged, "rounds": report.rounds,
                "messages": report.messages_delivered}


WORKLOADS = {cls.name: cls for cls in (Table1Paper, FibLookup, RipngRing)}


def reference_problems(workload) -> List[str]:
    """Differences between the workload's reference values and the ones
    stored with the benchmark."""
    got = workload.reference()
    with open(EXACT_REFERENCE, encoding="utf-8") as handle:
        want = json.load(handle)[workload.name]
    if isinstance(workload, Table1Paper):
        with open(TABLE1_REFERENCE, encoding="utf-8") as handle:
            want["table1"] = handle.read()
    return [f"{workload.name} reference {key}: got {got.get(key)!r}, "
            f"stored {value!r}"
            for key, value in want.items() if got.get(key) != value]
