"""Stable public facade for the repro package.

The one import users need::

    from repro import api

    result = api.evaluate(api.ArchitectureConfiguration(
        bus_count=3, table_kind="cam"))
    rows = api.table1(jobs=4)          # parallel sweep, identical output
    print(api.render_table1(rows))
    outcome = api.explore(max_power=25.0, jobs=4)
    report = api.run_chaos(seed=42, drop=0.10)

Every simulation entry point accepts ``backend=`` — ``"interpreter"``
(the reference loop, the default), ``"compiled"`` (the pre-decoded fast
path, bit-identical reports), or ``"auto"``. :func:`backends` lists
what is registered; see :mod:`repro.tta.backends`.

Everything here returns the library's existing dataclasses
(:class:`EvaluationResult`, :class:`Table1Row`,
:class:`ExplorationOutcome`, :class:`ResilienceReport` — each with the
uniform ``render()`` / ``to_dict()`` pair), so moving from the facade to
the deep modules later costs nothing. The deep module paths
(``repro.dse.evaluator``, ``repro.faults.scenario``, ...) remain
importable but are **not** covered by any stability promise; this module
is.

``jobs=N`` fans design-space sweeps out over a ``multiprocessing``
process pool (one evaluator per worker); the default ``jobs=1`` is the
plain sequential path. Parallel output is byte-identical to sequential
output, and the crash-safe ``journal``/``resume`` options work the same
either way.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Union

from repro.conformance import ConformanceReport
from repro.conformance import run_conformance as _run_conformance
from repro.dse.campaign import (
    CampaignPolicy,
    CampaignRunner,
    run_table1_campaign,
)
from repro.dse.config import ArchitectureConfiguration
from repro.dse.evaluator import (
    DEFAULT_EVALUATION_MAX_CYCLES,
    ArchitectureEvaluator,
    EvaluationResult,
)
from repro.dse.explorer import ExplorationOutcome, GreedyExplorer
from repro.dse.parallel import ParallelCampaignRunner
from repro.dse.pareto import DesignConstraints
from repro.dse.sdc import (
    DEFAULT_MEMORY_FLIPS,
    DEFAULT_MEMORY_LOOKUPS,
    DEFAULT_RATE,
    DEFAULT_TRIALS,
    MemorySweepResult,
    MemorySweepRunner,
    SdcSweepResult,
    SdcSweepRunner,
)
from repro.dse.lookup_sweep import (
    DEFAULT_LOOKUPS,
    DEFAULT_PREFIX_COUNTS,
    LookupSweepResult,
    LookupSweepRunner,
)
from repro.dse.space import DesignSpace
from repro.dse.table1 import Table1Row, generate_table1, render_table1
from repro.faults.control import (
    ATTACK_KINDS,
    AssaultReport,
    ControlPlaneAssault,
)
from repro.faults.flaps import FlapSchedule
from repro.faults.scenario import ChaosScenario, ResilienceReport
from repro.pcap import ReplayReport, read_pcap
from repro.pcap import replay as _replay
from repro.obs import MetricsRegistry, get_registry, render_snapshot
from repro.programs.runner import RunOptions
from repro.tta.backends import SimulatorBackend, available_backends
from repro.router.network import line_topology, ring_topology
from repro.service import (
    CampaignService,
    JobRecord,
    ServiceChaosReport,
    SupervisionPolicy,
    run_service_chaos,
)

__all__ = [
    "evaluate",
    "table1",
    "lookup_sweep",
    "explore",
    "backends",
    "conformance",
    "replay_pcap",
    "run_assault",
    "run_chaos",
    "sdc_sweep",
    "memory_sdc_sweep",
    "campaign_service",
    "service_chaos",
    "metrics",
    "metrics_registry",
    "render_metrics",
    "render_table1",
    "ArchitectureConfiguration",
    "CampaignService",
    "DesignConstraints",
    "DesignSpace",
    "EvaluationResult",
    "ExplorationOutcome",
    "FlapSchedule",
    "AssaultReport",
    "ConformanceReport",
    "JobRecord",
    "LookupSweepResult",
    "ReplayReport",
    "MemorySweepResult",
    "ResilienceReport",
    "RunOptions",
    "SdcSweepResult",
    "SimulatorBackend",
    "ServiceChaosReport",
    "SupervisionPolicy",
    "Table1Row",
]


def _evaluator_factory(entries: int, packets: int, hazards: bool,
                       backend: Optional[str] = None):
    """A picklable factory (``partial`` over the class) so the same spec
    builds the evaluator in the parent and in every pool worker —
    including the chosen simulation backend."""
    return partial(ArchitectureEvaluator, table_entries=entries,
                   packet_batch=packets, detect_hazards=hazards,
                   backend=backend)


def backends() -> List[SimulatorBackend]:
    """The registered simulation engines, in registration order.

    Each entry carries ``name``, ``description``, and an
    ``accelerated`` property (True when the backend batches state
    updates through numpy in this process). Pass an entry's ``name`` as
    the ``backend=`` argument anywhere in this facade.
    """
    return available_backends()


def _runner(factory, *, jobs: int, journal: Optional[str], resume: bool,
            cycle_budget: Optional[int]
            ) -> Union[CampaignRunner, ParallelCampaignRunner]:
    policy = CampaignPolicy(
        cycle_budget=cycle_budget or DEFAULT_EVALUATION_MAX_CYCLES)
    if jobs > 1:
        return ParallelCampaignRunner(
            factory, jobs=jobs, journal_path=journal, resume=resume,
            policy=policy)
    return CampaignRunner(factory(), journal_path=journal, resume=resume,
                          policy=policy)


def evaluate(config: ArchitectureConfiguration, *,
             entries: int = 100,
             packets: int = 12,
             hazards: bool = False,
             max_cycles: Optional[int] = None,
             backend: Optional[str] = None) -> EvaluationResult:
    """Evaluate one architecture configuration (simulate + estimate).

    *entries*/*packets* size the routing-table workload; *hazards*
    attaches the TTA hazard detector; *max_cycles* caps the simulation;
    *backend* picks the simulation engine (see :func:`backends`).
    A single evaluation always runs in-process.
    """
    factory = _evaluator_factory(entries, packets, hazards, backend)
    return factory().evaluate(config, max_cycles=max_cycles)


def table1(*, entries: int = 100,
           packets: int = 12,
           jobs: int = 1,
           journal: Optional[str] = None,
           resume: bool = False,
           cycle_budget: Optional[int] = None,
           hazards: bool = False,
           backend: Optional[str] = None) -> List[Table1Row]:
    """Regenerate the paper's Table 1 (nine rows, paper values attached).

    With ``jobs > 1`` the nine evaluations fan out over a process pool;
    the returned rows — and their rendering via :func:`render_table1` —
    are byte-identical to the sequential result. ``journal``/``resume``
    make the sweep crash-safe exactly as on the CLI. Configurations that
    fail under a journal-backed run are quarantined and absent from the
    returned rows.
    """
    factory = _evaluator_factory(entries, packets, hazards, backend)
    if jobs == 1 and journal is None and not resume and not cycle_budget:
        return generate_table1(factory())
    runner = _runner(factory, jobs=jobs, journal=journal, resume=resume,
                     cycle_budget=cycle_budget)
    rows, _ = run_table1_campaign(runner)
    return rows


def lookup_sweep(*, kinds=None,
                 prefix_counts=None,
                 lookups: int = DEFAULT_LOOKUPS,
                 seed: int = 2026,
                 jobs: int = 1,
                 journal: Optional[str] = None,
                 resume: bool = False) -> LookupSweepResult:
    """Scaling lookup sweep: every table kind at 10²–10⁶ prefixes.

    Each ``(kind, prefix_count)`` cell synthesizes a BGP-shaped FIB
    (:mod:`repro.workload.fib`), bulk-loads it, measures mean lookup
    steps under Zipf-skewed traffic, and derives required clock / area /
    power through the calibrated analytic models
    (:mod:`repro.estimation.lookup`). Defaults sweep all five kinds at
    ``(100, 1000, 10000, 100000, 1000000)`` prefixes.

    ``jobs``/``journal``/``resume`` behave exactly as in :func:`table1`:
    parallel, resumed, and sequential sweeps produce byte-identical
    output.
    """
    runner = LookupSweepRunner(
        kinds=kinds,
        prefix_counts=prefix_counts or DEFAULT_PREFIX_COUNTS,
        lookups=lookups, seed=seed, jobs=jobs, journal_path=journal,
        resume=resume)
    return runner.run()


def explore(*, space: Optional[DesignSpace] = None,
            max_area: Optional[float] = None,
            max_power: Optional[float] = None,
            jobs: int = 1,
            entries: int = 100,
            packets: int = 12,
            journal: Optional[str] = None,
            resume: bool = False,
            cycle_budget: Optional[int] = None,
            hazards: bool = False,
            backend: Optional[str] = None) -> ExplorationOutcome:
    """Run the heuristic design-space explorer.

    With ``jobs > 1`` the explorer expands each search frontier (all
    restart points, all neighbours of the current best) concurrently
    over a process pool.
    """
    constraints = DesignConstraints(max_area_mm2=max_area,
                                    max_power_w=max_power)
    factory = _evaluator_factory(entries, packets, hazards, backend)
    if jobs > 1 or journal is not None or resume or cycle_budget:
        evaluator = _runner(factory, jobs=jobs, journal=journal,
                            resume=resume, cycle_budget=cycle_budget)
    else:
        evaluator = factory()
    explorer = GreedyExplorer(evaluator, constraints)
    return explorer.explore(space or DesignSpace())


def run_chaos(*, topology: str = "line",
              routers: int = 5,
              seed: int = 0,
              drop: float = 0.0,
              corrupt: float = 0.0,
              duplicate: float = 0.0,
              reorder: float = 0.0,
              latency_steps: int = 0,
              jitter_steps: int = 0,
              flaps: Optional[FlapSchedule] = None,
              chaos_seconds: float = 300.0) -> ResilienceReport:
    """Run one seeded fault-injection scenario and report resilience.

    Same seed, same report, bit for bit, on any machine.
    """
    if topology == "line":
        network = line_topology(routers)
    elif topology == "ring":
        network = ring_topology(routers)
    else:
        raise ValueError(f"unknown topology {topology!r}; "
                         f"choose 'line' or 'ring'")
    scenario = ChaosScenario.uniform(
        network, seed=seed, drop=drop, corrupt=corrupt,
        duplicate=duplicate, reorder=reorder,
        latency_steps=latency_steps, jitter_steps=jitter_steps,
        flaps=flaps if flaps is not None and len(flaps) else None,
        chaos_seconds=chaos_seconds)
    return scenario.run()


#: CLI-friendly aliases for routing-table kinds
_TABLE_ALIASES = {"tree": "balanced-tree", "trie": "multibit-trie"}


def conformance(*, table_kind: str = "sequential",
                config: Optional[ArchitectureConfiguration] = None,
                mac: bool = True,
                mutant: Optional[str] = None,
                datapath: bool = True) -> ConformanceReport:
    """Run the table-driven forwarding conformance suite.

    The matrix crosses packet kind (tcpv6/udpv6/icmpv6), destination
    class (on-link / LPM / default / no-route) and hop limit (64/1/0),
    asserts the full forwarding contract per case — LPM selection,
    hop-limit decrement, ICMPv6 Time Exceeded / Destination Unreachable,
    my-station check, MAC rewrite, checksum preservation — and
    cross-checks the cycle-accurate TTA datapath against the golden
    model. ``table_kind`` accepts ``"tree"`` as an alias for
    ``"balanced-tree"``; *mutant* names a deliberately broken router or
    program (the suite must then fail, with case-level diagnosis).
    """
    return _run_conformance(
        table_kind=_TABLE_ALIASES.get(table_kind, table_kind),
        config=config, mac=mac, mutant=mutant, datapath=datapath)


def run_assault(*, topology: str = "line",
                routers: int = 4,
                seed: int = 2080,
                victim: Optional[str] = None,
                kinds=None,
                attack_rounds: int = 30,
                burst_per_round: int = 2) -> AssaultReport:
    """Drive an adversarial RIPng campaign at a converged network.

    Injects malformed, martian, spoofed-next-hop, withdrawal and
    oversized advertisements (seeded — same seed, same report) and
    asserts graceful degradation: no exceptions, no poisoned routes
    installed, reconvergence, and every attack visible in drop counters.
    """
    if topology == "line":
        network = line_topology(routers)
    elif topology == "ring":
        network = ring_topology(routers)
    else:
        raise ValueError(f"unknown topology {topology!r}; "
                         f"choose 'line' or 'ring'")
    assault = ControlPlaneAssault(
        network, victim=victim, seed=seed,
        kinds=tuple(kinds) if kinds else ATTACK_KINDS,
        attack_rounds=attack_rounds, burst_per_round=burst_per_round)
    return assault.run()


def replay_pcap(path: str, *,
                table_kind: str = "sequential",
                interface: int = 0) -> ReplayReport:
    """Replay a classic pcap capture through the conformance fixture,
    measuring per-packet latency (published as obs percentiles)."""
    return _replay(read_pcap(path),
                   table_kind=_TABLE_ALIASES.get(table_kind, table_kind),
                   interface=interface)


def sdc_sweep(configs, *,
              entries: int = 20,
              packets: int = 4,
              sites=None,
              trials: int = DEFAULT_TRIALS,
              rate: float = DEFAULT_RATE,
              seed: int = 0,
              max_faults: Optional[int] = None,
              jobs: int = 1,
              journal: Optional[str] = None,
              resume: bool = False,
              backend: Optional[str] = None) -> SdcSweepResult:
    """Soft-error vulnerability sweep over *configs*.

    Every configuration runs ``trials`` seeded datapath-injection trials
    per fault site (bus transfers, operand/trigger/result latches,
    socket decodes); each trial is classified against the fault-free
    golden run as ``masked`` / ``detected`` / ``sdc`` / ``crash`` /
    ``hang`` by the differential oracle (:mod:`repro.verify`). The
    result carries a per-configuration vulnerability row — SDC rate,
    detection coverage, mean faults-to-failure — plus every trial
    record, and renders to a deterministic text table.

    ``jobs``/``journal``/``resume`` behave exactly as in :func:`table1`:
    parallel, resumed, and sequential sweeps produce byte-identical
    output.
    """
    runner = SdcSweepRunner(
        entries=entries, packet_batch=packets, sites=sites,
        trials=trials, rate=rate, seed=seed, max_faults=max_faults,
        jobs=jobs, journal_path=journal, resume=resume, backend=backend)
    return runner.run(list(configs))


def memory_sdc_sweep(*, kinds=None,
                     protections=None,
                     prefixes: int = 1000,
                     lookups: int = DEFAULT_MEMORY_LOOKUPS,
                     trials: int = DEFAULT_TRIALS,
                     flips: int = DEFAULT_MEMORY_FLIPS,
                     seed: int = 0,
                     fib_seed: int = 2026,
                     jobs: int = 1,
                     journal: Optional[str] = None,
                     resume: bool = False) -> MemorySweepResult:
    """Table-state (stored FIB) soft-error vulnerability sweep.

    Where :func:`sdc_sweep` flips bits *in flight* on the datapath,
    this sweep flips bits *at rest*: each trial loads a routing table
    of every requested kind with a synthesized ``prefixes``-route FIB
    (:mod:`repro.workload.fib`), corrupts one of its memory sites
    (entries, tree nodes, CAM rows, trie node/slot arrays, Bloom
    vectors and buckets), replays Zipf traffic against the differential
    oracle, and classifies the divergence. Each (kind, protection)
    cell also prices its parity/checksum hardware via
    :func:`repro.estimation.estimate_protection_overhead`, so the
    result reads as a protection-cost-vs-SDC-rate tradeoff.

    ``jobs``/``journal``/``resume`` behave exactly as in
    :func:`sdc_sweep`: sequential, parallel, and resumed sweeps are
    byte-identical.
    """
    runner = MemorySweepRunner(
        kinds=kinds, protections=protections, prefixes=prefixes,
        lookups=lookups, trials=trials, flips=flips, seed=seed,
        fib_seed=fib_seed, jobs=jobs, journal_path=journal,
        resume=resume)
    return runner.run()


def campaign_service(root: str, *,
                     jobs: int = 1,
                     cache: bool = True,
                     heartbeat: Optional[float] = 30.0,
                     job_timeout: Optional[float] = None,
                     min_jobs: int = 1,
                     seed: int = 0) -> CampaignService:
    """Open (or create) the self-healing campaign service at *root*.

    The async-style flow::

        svc = api.campaign_service("/tmp/dse", jobs=4)
        job_id = svc.submit({"kind": "table1", "entries": 100,
                             "packets": 12})
        svc.run_pending()               # or: repro serve --root /tmp/dse
        print(svc.poll(job_id))         # progress while running
        document = svc.fetch(job_id)    # completed result + render

    Jobs execute under supervision (worker heartbeats, stall teardown,
    pool degradation, capped backoff) against a SHA-256
    integrity-checked evaluation cache shared across jobs; a service
    that crashes mid-job recovers on the next start and *resumes* from
    the job's journal — fetched results are byte-identical to an
    uninterrupted sequential run.
    """
    return CampaignService(
        root, jobs=jobs, cache=cache, seed=seed,
        supervision=SupervisionPolicy(heartbeat_seconds=heartbeat,
                                      job_timeout_seconds=job_timeout,
                                      min_jobs=min_jobs))


def service_chaos(root: Optional[str] = None, *,
                  entries: int = 10,
                  packets: int = 2,
                  jobs: int = 2,
                  seed: int = 0) -> ServiceChaosReport:
    """Run the service-level chaos campaign (see
    :mod:`repro.service.chaos`): worker kills, stalls past the heartbeat
    deadline, cache corruption/truncation, and a service crash/restart
    mid-job — each phase asserting recovery to byte-identical results
    against a clean sequential run, plus a warm-cache speedup floor.
    *root* defaults to a fresh temporary directory.
    """
    if root is None:
        import tempfile
        root = tempfile.mkdtemp(prefix="repro-service-chaos-")
    return run_service_chaos(root, entries=entries, packets=packets,
                             jobs=jobs, seed=seed)


def metrics(*, reset: bool = False) -> dict:
    """Snapshot of the process-wide metrics registry (JSON-ready).

    Every facade call above publishes into the same registry
    (:mod:`repro.obs`): simulation throughput, per-evaluation latency,
    routing-table activity, network convergence, pool utilisation.
    ``reset=True`` clears recorded values after snapshotting, so a
    caller can attribute metrics to one workload at a time. Disable the
    layer entirely with ``REPRO_NO_METRICS=1`` or
    ``metrics_registry().disable()``.
    """
    snapshot = get_registry().snapshot()
    if reset:
        get_registry().reset()
    return snapshot


def metrics_registry() -> MetricsRegistry:
    """The live process-wide registry (enable/disable/reset/instrument)."""
    return get_registry()


def render_metrics(snapshot: Optional[dict] = None) -> str:
    """Fixed-width table for a metrics snapshot (default: the live one)."""
    return render_snapshot(snapshot if snapshot is not None
                           else get_registry().snapshot())
