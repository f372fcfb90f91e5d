"""One journaled sweep engine under every design-space sweep.

The performance campaign (:mod:`repro.dse.campaign`), the datapath and
memory SDC sweeps (:mod:`repro.dse.sdc`) and the lookup-scaling sweep
(:mod:`repro.dse.lookup_sweep`) all run the same loop: plan keyed
items, replay what a journal already holds, measure the rest, and
persist every record before it counts. :class:`SweepEngine` is that
loop, once. A sweep subclasses it and supplies

* keyed items in plan order (the key is the record's journal identity);
* a picklable, top-level ``measure(context, item) -> record``;
* a per-process ``initializer(*initargs) -> context`` — the expensive
  state (evaluator, oracles, a synthesized FIB) built once per process;
* :meth:`SweepEngine._publish`, the persist hook that publishes the
  sweep's own metrics from the record.

The engine owns everything else:

* **the journal** — an fsync'd, append-only JSONL file. Opening an
  existing journal without ``resume`` is refused; ``resume`` replays it
  (a torn trailing record is discarded and the journal compacted via
  atomic temp-file + rename), so a killed sweep loses at most the
  record being written;
* **replay accounting** — each replayed record counts once, under the
  sweep's own ``resumed_metric``;
* **execution** — with ``jobs == 1`` items are measured in the parent
  on one lazily built context, with no pool and no pickling; with
  ``jobs > 1`` they fan out over a process pool in chunks, through a
  bounded in-flight window;
* **crash containment** — if a worker dies, the items in flight are
  re-probed one at a time in fresh single-worker pools; one that kills
  its prober is journalled ``failed`` with
  :class:`~repro.errors.WorkerCrashError`, one whose probe outlives the
  probe timeout with :class:`~repro.errors.WorkerStallError`;
* **supervision seams** — a heartbeat deadline (no chunk completion
  within ``heartbeat_seconds`` tears the pool down as stalled) and
  :meth:`SweepEngine._after_broken_generation` (backoff, degradation);
* **persist** — the record map, then journal append + fsync, then the
  publish hook. Metrics are published in the parent at persist time
  only, so sequential, parallel and resumed sweeps account identically.

Records come back in plan order whatever the completion order, so every
sweep renders byte-identically across job counts and resumes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignError, WorkerCrashError, WorkerStallError
from repro.obs import get_registry

JOURNAL_VERSION = 1

#: ``fork`` where available (cheap, inherits the imported package);
#: otherwise the platform default
_MP_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)

#: a planned unit of work: (journal key, item)
Keyed = Tuple[str, object]


# -- journal I/O -------------------------------------------------------------------


def write_atomic_bytes(path: str, data: bytes) -> None:
    """Write *data* to *path* via fsync'd temp file + atomic rename.

    A crash at any point leaves either the old file or the new one —
    never a torn hybrid, and never a zero-length stub. The containing
    directory is fsync'd too, so the rename itself survives power loss.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".campaign-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_atomic(path: str, text: str) -> None:
    """Write *text* to *path* via fsync'd temp file + atomic rename."""
    write_atomic_bytes(path, text.encode("utf-8"))


def _record_line(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def load_journal(path: str) -> Tuple[List[Dict[str, object]], int]:
    """Parse a journal, tolerating a crash-torn *tail* record only.

    Returns ``(records, discarded)``. A crash while appending can tear at
    most the final line, so an unparseable or incomplete **last** line is
    an expected artifact: it is counted in *discarded* (and the item
    simply re-measured). An invalid line anywhere **before** the last
    one cannot be produced by a crash — it means the journal itself is
    damaged (truncated editor save, disk corruption, concurrent writer)
    and silently re-measuring would mask data loss, so it raises
    :class:`~repro.errors.CampaignError` naming the bad line numbers.
    """
    records: List[Dict[str, object]] = []
    bad_lines: List[Tuple[int, str]] = []
    last_content_line = 0
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    for number, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        last_content_line = number
        try:
            record = json.loads(line)
        except ValueError:
            bad_lines.append((number, "unparseable JSON"))
            continue
        if not isinstance(record, dict) or record.get("v") != JOURNAL_VERSION \
                or "key" not in record or "status" not in record:
            bad_lines.append((number, "not a journal record"))
            continue
        records.append(record)
    mid_file = [(n, why) for n, why in bad_lines if n != last_content_line]
    if mid_file:
        where = ", ".join(f"line {n}: {why}" for n, why in mid_file)
        raise CampaignError(
            f"journal {path!r} is damaged mid-file ({where}); a crash can "
            f"only tear the final record, so this is journal corruption, "
            f"not a crash artifact — repair or remove the journal before "
            f"resuming")
    return records, len(bad_lines)


# -- worker side -------------------------------------------------------------------

#: (measure, context) of the sweep this pool worker serves
_worker: Optional[Tuple[Callable, object]] = None


def _init_worker(measure: Callable, initializer: Callable,
                 initargs: tuple) -> None:
    """Pool initializer: build the sweep's context once per process."""
    global _worker
    _worker = (measure, initializer(*initargs))


def _measure_chunk(items: Sequence[object]) -> List[Dict[str, object]]:
    measure, context = _worker
    return [measure(context, item) for item in items]


def _no_context() -> None:
    return None


# -- the engine --------------------------------------------------------------------


class SweepEngine:
    """Journal-backed, optionally parallel driver of one keyed sweep.

    Items must pickle and ``describe()`` themselves; the default
    :meth:`_failed` also asks them for their ``record(status,
    **fields)``. *chunk_size* ``None`` aims for about four chunks per
    worker.
    """

    #: (name, help) of the counter one replayed record increments
    resumed_metric = ("sweep_resumed_total",
                      "sweep records replayed from a journal")

    def __init__(self, measure: Callable,
                 initializer: Callable = _no_context,
                 initargs: tuple = (), *,
                 jobs: int = 1,
                 chunk_size: Optional[int] = None,
                 journal_path: Optional[str] = None,
                 resume: bool = False):
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise CampaignError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.measure = measure
        self.initializer = initializer
        self.initargs = initargs
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.journal_path = journal_path
        self.resumed = 0
        self.discarded_records = 0
        #: worker deaths observed (pool teardowns and convicted probes)
        self.worker_crashes = 0
        #: pool teardowns after a missed heartbeat deadline
        self.stalls = 0
        #: longest silence (no chunk completion) before the pool is
        #: declared stalled; ``None`` waits forever
        self.heartbeat_seconds: Optional[float] = None
        #: wall-clock ceiling for one single-item probe; ``None`` waits
        #: until the probe completes or dies
        self.probe_timeout_seconds: Optional[float] = None
        self._context = None
        self._records: Dict[str, Dict[str, object]] = {}
        self._replayed_keys: set = set()
        # cumulative worker-busy seconds (sum of chunk latencies), the
        # numerator of the pool-utilisation gauge published per sweep
        self._busy_seconds = 0.0
        if resume:
            if journal_path is None:
                raise CampaignError("resume requested without a journal")
            if os.path.exists(journal_path):
                records, discarded = load_journal(journal_path)
                self.discarded_records = discarded
                for record in records:
                    self._records[record["key"]] = record
                self._replayed_keys = set(self._records)
                if discarded:
                    # Compact away the torn tail so the journal is clean
                    # before new records are appended after it.
                    write_atomic(journal_path, "".join(
                        _record_line(r) + "\n" for r in records))
        elif journal_path is not None and os.path.exists(journal_path) \
                and os.path.getsize(journal_path) > 0:
            raise CampaignError(
                f"journal {journal_path!r} already exists; resume the "
                f"sweep (resume=True / --resume) or remove the file")

    @property
    def context(self):
        """The parent's own context, built on first use."""
        if self._context is None:
            self._context = self.initializer(*self.initargs)
        return self._context

    # -- the sweep ----------------------------------------------------------------

    def recorded(self, key: str) -> Optional[Dict[str, object]]:
        """The record held for *key*, if any; the first look at a record
        replayed from the journal counts it as resumed."""
        record = self._records.get(key)
        if record is not None and key in self._replayed_keys:
            self._replayed_keys.discard(key)
            self.resumed += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(*self.resumed_metric).inc()
        return record

    def sweep(self, items: Sequence[Keyed]) -> List[Dict[str, object]]:
        """One record per planned item, in plan order.

        Replayed and repeated keys are not measured again.
        """
        pending: List[Keyed] = []
        planned = set()
        for key, item in items:
            if self.recorded(key) is None and key not in planned:
                planned.add(key)
                pending.append((key, item))
        if self.jobs == 1:
            for key, item in pending:
                self.persist(key, self.measure(self.context, item))
        elif pending:
            self._run_pool(pending)
        return [self._records[key] for key, _ in items]

    def persist(self, key: str,
                record: Dict[str, object]) -> Dict[str, object]:
        """Record, journal and publish one freshly measured record."""
        self._append(key, record)
        self._publish(record)
        return record

    def _append(self, key: str, record: Dict[str, object]) -> None:
        self._records[key] = record
        if self.journal_path is not None:
            with open(self.journal_path, "a", encoding="utf-8") as handle:
                handle.write(_record_line(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    # -- sweep hooks --------------------------------------------------------------

    def _publish(self, record: Dict[str, object]) -> None:
        """Persist hook: publish this sweep's metrics for one fresh
        record (called after the record is journalled)."""

    def _failed(self, item, error: str, message: str) -> Dict[str, object]:
        """The ``failed`` record of an item whose worker could not
        return one (crash, stall, or an exception outside the sweep's
        contained failure classes)."""
        return item.record("failed", error=error, message=message)

    def _after_broken_generation(self, suspects: int) -> None:
        """Called once per pool generation that ended broken (crash or
        stall), after its suspects were resolved. Supervisors use this
        for backoff and pool shrinking; the engine does nothing."""

    # -- pool orchestration -------------------------------------------------------

    def _run_pool(self, pending: List[Keyed]) -> None:
        """Drive *pending* to completion across pool generations.

        Each generation either finishes cleanly or dies with a bounded
        set of in-flight suspects; suspects are resolved one by one in
        single-worker pools (crash -> quarantine, success -> record), so
        every generation makes strict progress and a deterministic
        crasher cannot deadlock or starve the sweep.
        """
        registry = get_registry()
        t0 = registry.time() if registry.enabled else 0.0
        self._busy_seconds = 0.0
        while pending:
            suspects = self._dispatch(pending)
            for key, item in suspects:
                self._probe(key, item)
            if suspects:
                self._after_broken_generation(len(suspects))
            pending = [(key, item) for key, item in pending
                       if key not in self._records]
        if registry.enabled:
            wall = registry.time() - t0
            if wall > 0:
                registry.gauge(
                    "dse_worker_utilization",
                    "fraction of pool worker-seconds spent evaluating "
                    "during the most recent sweep"
                ).set(min(self._busy_seconds / (wall * self.jobs), 1.0))

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=_MP_CONTEXT,
            initializer=_init_worker,
            initargs=(self.measure, self.initializer, self.initargs))

    def _dispatch(self, pending: List[Keyed]) -> List[Keyed]:
        """One pool generation. Persists every completed record; returns
        the items that were in flight when the pool broke ([] = clean)."""
        registry = get_registry()
        chunk_seconds = registry.histogram(
            "dse_chunk_seconds",
            "wall-clock latency per dispatched pool chunk"
        ) if registry.enabled else None
        queue_depth = registry.gauge(
            "dse_inflight_chunks",
            "chunks dispatched to the pool and not yet completed"
        ) if registry.enabled else None
        chunks = self._chunked(pending)
        in_flight: Dict[object, List[Keyed]] = {}
        submitted_at: Dict[object, float] = {}
        suspects: List[Keyed] = []
        pool = self._pool(min(self.jobs, len(chunks)))
        try:
            broken = False
            stalled = False
            while (chunks or in_flight) and not broken:
                # bounded window: at most one queued chunk per worker, so
                # a pool death voids little and suspects stay few
                while chunks and len(in_flight) < 2 * self.jobs:
                    chunk = chunks.pop(0)
                    try:
                        future = pool.submit(
                            _measure_chunk, [item for _, item in chunk])
                    except BrokenExecutor:
                        broken = True
                        suspects.extend(chunk)
                        break
                    in_flight[future] = chunk
                    if registry.enabled:
                        submitted_at[future] = registry.time()
                        registry.counter(
                            "dse_chunks_dispatched_total",
                            "chunks handed to the process pool").inc()
                if queue_depth is not None:
                    queue_depth.set(len(in_flight))
                if not in_flight:
                    break
                done, _ = wait(in_flight, timeout=self.heartbeat_seconds,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # heartbeat deadline passed with zero completions:
                    # the workers are stuck, not dead, so a join would
                    # block forever — terminate them and resolve the
                    # in-flight work through the probes
                    self._count_stall()
                    self._terminate_pool_processes(pool)
                    broken = True
                    stalled = True
                    for chunk in in_flight.values():
                        suspects.extend(chunk)
                    in_flight.clear()
                    continue
                # persist clean completions first: a future that finished
                # before the pool died still carries a usable result
                for future in done:
                    if future.exception() is None:
                        chunk = in_flight.pop(future)
                        self._observe_chunk(future, submitted_at,
                                            chunk_seconds, registry)
                        for (key, _), record in zip(chunk, future.result()):
                            self.persist(key, record)
                for future in done:
                    if future not in in_flight:
                        continue
                    chunk = in_flight.pop(future)
                    self._observe_chunk(future, submitted_at,
                                        chunk_seconds, registry)
                    exc = future.exception()
                    if isinstance(exc, BrokenExecutor):
                        broken = True
                        suspects.extend(chunk)
                    else:
                        # an exception escaped the sweep's contained
                        # failure classes: contain it per item
                        for key, item in chunk:
                            self.persist(key, self._failed(
                                item, type(exc).__name__, str(exc)))
            if broken:
                if not stalled:
                    # a stall is counted as a stall, not as a crash
                    self._count_crash()
                for chunk in in_flight.values():
                    suspects.extend(chunk)
        finally:
            if queue_depth is not None:
                queue_depth.set(0)
            pool.shutdown(wait=False, cancel_futures=True)
        return suspects

    def _observe_chunk(self, future, submitted_at, chunk_seconds,
                       registry) -> None:
        t0 = submitted_at.pop(future, None)
        if t0 is None or chunk_seconds is None:
            return
        elapsed = registry.time() - t0
        self._busy_seconds += elapsed
        chunk_seconds.observe(elapsed)

    def _probe(self, key: str, item) -> None:
        """Re-run one crash suspect alone in a fresh single-worker pool.

        A clean result clears the suspect; a second death convicts it
        (:class:`WorkerCrashError`); a probe that exceeds the probe
        timeout is terminated and convicted as :class:`WorkerStallError`.
        """
        pool = self._pool(1)
        try:
            future = pool.submit(_measure_chunk, [item])
            try:
                [record] = future.result(timeout=self.probe_timeout_seconds)
            except FuturesTimeoutError:
                self._terminate_pool_processes(pool)
                record = self._failed(
                    item, WorkerStallError.__name__,
                    f"probe of {item.describe()} made no progress within "
                    f"{self.probe_timeout_seconds}s and was terminated")
            except BrokenExecutor as exc:
                self._count_crash()
                record = self._failed(
                    item, WorkerCrashError.__name__,
                    f"worker process died evaluating {item.describe()}: "
                    f"{exc}")
            except Exception as exc:
                record = self._failed(item, type(exc).__name__, str(exc))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        self.persist(key, record)

    def _count_crash(self) -> None:
        self.worker_crashes += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "dse_worker_crashes_total",
                "pool teardowns after a worker process died").inc()

    def _count_stall(self) -> None:
        self.stalls += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "service_worker_stalls_total",
                "pool teardowns after a missed heartbeat deadline").inc()

    @staticmethod
    def _terminate_pool_processes(pool: ProcessPoolExecutor) -> None:
        """Best-effort SIGTERM of a pool's worker processes.

        Needed when workers are *stuck*, not dead: ``shutdown`` would
        join them (blocking on the very stall being escaped), so they
        are killed first and the executor observes the deaths as a
        broken pool.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # already dead / closed
                pass

    def _chunked(self, pending: Sequence[Keyed]) -> List[List[Keyed]]:
        size = self.chunk_size
        if size is None:
            # aim for ~4 chunks per worker: coarse enough to amortise
            # IPC, fine enough to keep the pool busy to the end
            size = max(1, len(pending) // (self.jobs * 4))
        return [list(pending[i:i + size])
                for i in range(0, len(pending), size)]
