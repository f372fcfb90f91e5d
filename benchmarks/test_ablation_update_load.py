"""A1 — ablation of the §4 claim that routing updates are cheap.

"Statistics show that when the topology of the network stabilizes, the
routing table updates appear once in 2 minutes, which does not require
much computational effort." We quantify it: apply RIPng-style update
bursts to each table implementation, convert the measured update work
into processor cycles (via the fitted per-element cycle cost), and
compare against the forwarding cycle budget of a 2-minute interval at
line rate. The overhead must be far below 1 %; even the balanced tree's
"much more complex" insert/delete stays negligible at this cadence.
"""

from __future__ import annotations

import random

from repro.dse.config import ArchitectureConfiguration
from repro.estimation.frequency import ThroughputConstraint
from repro.programs.cycle_model import fit_cycle_model
from repro.reporting import render_rows
from repro.routing import make_table
from repro.workload import generate_routes, random_prefix
from repro.routing.entry import RouteEntry
from repro.ipv6.address import Ipv6Address

UPDATE_INTERVAL_S = 120.0  # the paper's "once in 2 minutes"
BURST_ROUTES = 25          # routes replaced per update burst


def apply_update_burst(kind: str, seed: int = 5) -> float:
    """One RIPng burst against a 100-entry table; mean steps per change."""
    table = make_table(kind, capacity=128)
    table.load(generate_routes(100, seed=seed))
    # the burst's own cost: the bulk load's writes are not changes
    load_steps = table.stats.total_update_steps
    rng = random.Random(seed)
    victims = rng.sample([r.prefix for r in table.entries()
                          if r.prefix.length > 0], BURST_ROUTES)
    for victim in victims:
        table.remove(victim)
    for i in range(BURST_ROUTES):
        while True:
            prefix = random_prefix(rng)
            if prefix not in table:
                break
        table.insert(RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                                interface=i % 4))
    return (table.stats.total_update_steps - load_steps) \
        / (2 * BURST_ROUTES)


def test_update_load_negligible(benchmark):
    constraint = ThroughputConstraint()
    budget_cycles_per_interval = {}
    overhead_rows = []

    mean_steps = benchmark.pedantic(apply_update_burst,
                                    args=("balanced-tree",),
                                    rounds=3, iterations=1)
    assert mean_steps > 0

    for kind in ("sequential", "balanced-tree", "cam"):
        config = ArchitectureConfiguration(bus_count=3, table_kind=kind)
        model = fit_cycle_model(config, sizes=(34, 100), packets=5)
        steps_per_change = apply_update_burst(kind)
        # per-element cycle cost ~ the fitted per-element search slope for
        # the RAM tables; the CAM's shuffle is one line write per step
        per_step_cycles = max(model.slope, 4.0)
        update_cycles = (2 * BURST_ROUTES) * steps_per_change \
            * per_step_cycles
        clock = constraint.required_clock(model.predict(100))
        budget = clock * UPDATE_INTERVAL_S
        budget_cycles_per_interval[kind] = budget
        overhead = update_cycles / budget
        overhead_rows.append([kind, round(steps_per_change, 1),
                              int(update_cycles), f"{overhead:.2e}"])
        # the paper's claim: updates do not influence throughput
        assert overhead < 1e-3, kind

    print()
    print(render_rows(
        ["table", "steps/change", "cycles/burst", "share of 2-min budget"],
        overhead_rows))


def test_update_cost_ordering(benchmark):
    """Update-cost structure across the three implementations.

    The balanced tree's "much more complex" maintenance is still
    logarithmic, so per change it touches *fewer* elements than either
    array-shaped store: the sequential cache shifts its tail to stay
    contiguous and the CAM shuffles lines to preserve priority order —
    the well-known TCAM update cost.
    """
    def measure_all():
        return {kind: apply_update_burst(kind)
                for kind in ("sequential", "balanced-tree", "cam")}

    steps = benchmark.pedantic(measure_all, rounds=2, iterations=1)
    assert steps["balanced-tree"] < steps["sequential"]
    assert steps["balanced-tree"] < steps["cam"]
    assert all(value > 1 for value in steps.values())
