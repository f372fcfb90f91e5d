"""The shared sweep engine: crash containment and identical accounting."""

import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest

from repro.dse import ArchitectureEvaluator, ParallelCampaignRunner
from repro.dse.config import ArchitectureConfiguration
from repro.dse.lookup_sweep import LookupSweepRunner
from repro.dse.sdc import MemorySweepRunner, SdcSweepRunner
from repro.dse.sweep import JOURNAL_VERSION, SweepEngine, load_journal
from repro.obs import MetricsRegistry, get_registry, set_registry

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the item whose measurement kills its worker process
CRASH = 5


@dataclass(frozen=True)
class Item:
    n: int

    @property
    def key(self) -> str:
        return f"item-{self.n}"

    def describe(self) -> str:
        return f"item {self.n}"

    def record(self, status, **fields):
        return {"v": JOURNAL_VERSION, "key": self.key, "n": self.n,
                "status": status, **fields}


def _offset(base):
    return base


def _measure(offset, item):
    if item.n == CRASH:
        os._exit(13)  # a segfault/OOM kill, not a Python exception
    return item.record("ok", value=offset + item.n * item.n)


def _engine(tmp_path, name, jobs):
    return SweepEngine(_measure, _offset, (100,), jobs=jobs, chunk_size=2,
                       journal_path=str(tmp_path / name))


class TestCrashContainment:
    def test_a_worker_death_is_journalled_and_the_sweep_goes_on(
            self, tmp_path):
        items = [(item.key, item) for item in map(Item, range(10))]
        engine = _engine(tmp_path, "pool.jsonl", jobs=2)
        records = engine.sweep(items)
        # the parent survived and kept plan order
        assert [r["key"] for r in records] == [key for key, _ in items]
        crashed = records[CRASH]
        assert crashed["status"] == "failed"
        assert crashed["error"] == "WorkerCrashError"
        assert "item 5" in crashed["message"]
        assert engine.worker_crashes >= 1
        journalled, _ = load_journal(str(tmp_path / "pool.jsonl"))
        assert {r["key"]: r for r in journalled}[crashed["key"]] == crashed
        # every other record is exactly the in-parent (jobs=1) one
        healthy = [pair for pair in items if pair[1].n != CRASH]
        sequential = _engine(tmp_path, "seq.jsonl", jobs=1).sweep(healthy)
        assert [r for r in records if r["key"] != crashed["key"]] \
            == sequential

    def test_every_sweep_runs_on_the_engine(self):
        for runner in (SdcSweepRunner, MemorySweepRunner,
                       LookupSweepRunner, ParallelCampaignRunner):
            assert issubclass(runner, SweepEngine)
        pools = sorted(str(path.relative_to(SRC))
                       for path in SRC.rglob("*.py")
                       if "ProcessPoolExecutor(" in path.read_text())
        assert pools == ["dse/sweep.py"]


# -- accounting ---------------------------------------------------------------------

small_factory = partial(ArchitectureEvaluator, table_entries=12,
                        packet_batch=3)
CONFIGS = [ArchitectureConfiguration(bus_count=buses, table_kind=kind)
           for kind in ("sequential", "cam") for buses in (1, 3)]

#: per sweep kind: (runner factory, run, persist-time counter prefixes,
#: resumed counter)
SWEEPS = {
    "campaign": (
        lambda **kw: ParallelCampaignRunner(small_factory, **kw),
        lambda runner: runner.run(CONFIGS),
        ("dse_evaluations_total",), "dse_resumed_total"),
    "sdc": (
        lambda **kw: SdcSweepRunner(sites=("bus", "trigger"), trials=2,
                                    seed=3, entries=12, packet_batch=3,
                                    **kw),
        lambda runner: runner.run(CONFIGS[:2]),
        ("sdc_trials_total", "sdc_outcomes_total", "sdc_injections_total"),
        "sdc_resumed_total"),
    "sdc-memory": (
        lambda **kw: MemorySweepRunner(kinds=("sequential", "cam"),
                                       prefixes=60, lookups=30, trials=2,
                                       seed=5, **kw),
        lambda runner: runner.run(),
        ("sdc_trials_total", "sdc_outcomes_total",
         "sdc_memory_injections_total"), "sdc_resumed_total"),
    "lookup-sweep": (
        lambda **kw: LookupSweepRunner(kinds=("sequential", "bloom"),
                                       prefix_counts=(100, 300),
                                       lookups=100, seed=7, **kw),
        lambda runner: runner.run(),
        ("lookup_sweep_cells_total", "routing_"),
        "lookup_sweep_resumed_total"),
}


def _counters(snapshot, prefixes):
    """{(name, labels): value} for every counter under *prefixes*."""
    out = {}
    for name, entry in snapshot["counters"].items():
        if name.startswith(prefixes):
            for value in entry["values"]:
                labels = tuple(sorted(value["labels"].items()))
                out[(name, labels)] = value["value"]
    return out


def _measured(make, run=None, records=(), **kwargs):
    """Under a fresh registry, run one sweep (or publish *records*
    through its persist hook); returns (result, snapshot)."""
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        runner = make(**kwargs)
        result = run(runner) if run is not None else None
        for record in records:
            runner._publish(record)
        return result, get_registry().snapshot()
    finally:
        set_registry(previous)


@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_sequential_parallel_and_resumed_runs_account_identically(
        kind, tmp_path):
    make, run, prefixes, resumed_name = SWEEPS[kind]
    journal = tmp_path / "sweep.jsonl"
    sequential, snapshot = _measured(make, run, jobs=1,
                                     journal_path=str(journal))
    expected = _counters(snapshot, prefixes)
    assert expected, f"{kind} published none of {prefixes}"

    _, snapshot = _measured(make, run, jobs=2)
    assert _counters(snapshot, prefixes) == expected

    # a killed run: the first half of the journal survived
    lines = journal.read_text().splitlines(keepends=True)
    kept = len(lines) // 2
    killed_journal = tmp_path / "killed.jsonl"
    killed_journal.write_text("".join(lines[:kept]))
    resumed, snapshot = _measured(make, run, jobs=2,
                                  journal_path=str(killed_journal),
                                  resume=True)
    assert resumed.records == sequential.records
    assert resumed.resumed == kept
    assert _counters(snapshot, (resumed_name,)) \
        == {(resumed_name, ()): kept}
    # replayed records are never counted again: what the killed run
    # published for them plus what the resume published adds up to the
    # uninterrupted run
    _, killed = _measured(make, records=[json.loads(line)
                                         for line in lines[:kept]], jobs=1)
    total = Counter(_counters(killed, prefixes))
    total.update(_counters(snapshot, prefixes))
    assert +total == +Counter(expected)
