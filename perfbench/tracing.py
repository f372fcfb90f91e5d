"""Span recording around calls into the program's layers.

The traced run patches the callables named in :data:`WRAP_TARGETS` from
the benchmark's own files; nothing inside ``src/`` changes. Each call
becomes a span (name, start, end, parent, op id). Spans stay in memory
and are written out when the run ends; per-layer metrics are derived
from aggregates kept while recording, so the span cap never biases them.

A target that a later refactor removes is reported as absent, with the
reason, instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

KINDS = ("sequential", "balanced-tree", "cam", "multibit-trie", "bloom")

#: Span name -> the ``module:Qualified.name`` callables it wraps. A
#: ``{kind}`` in a span name is filled from ``self.kind`` at call time.
#: Module-level functions are also rebound wherever another loaded
#: module imported them by name, so call sites resolve to the wrapper.
WRAP_TARGETS: Dict[str, Tuple[str, ...]] = {
    "dse.campaign": ("repro.dse.campaign:run_table1_campaign",),
    "dse.evaluate": ("repro.dse.evaluator:ArchitectureEvaluator.evaluate",),
    "programs.run_forwarding": ("repro.programs.runner:run_forwarding",),
    "programs.build_machine": ("repro.programs.machine:build_machine",),
    "programs.load_routes": (
        "repro.programs.machine:RouterMachine.load_routes",),
    "programs.build_forwarding_program": (
        "repro.programs.forwarding:build_forwarding_program",),
    "asm.assemble": ("repro.asm.assembler:assemble",),
    "tta.compile_program": ("repro.tta.compiled:compile_program",),
    "tta.create_simulator": ("repro.tta.backends:create_simulator",),
    "tta.run": ("repro.tta.simulator:Simulator.run",
                "repro.tta.compiled:CompiledSimulator.run"),
    "verify.expected_forwarding": (
        "repro.programs.runner:expected_forwarding",),
    "estimation": ("repro.estimation.area:estimate_area",
                   "repro.estimation.power:estimate_power"),
    "workload.synthesize_fib": ("repro.workload.fib:synthesize_fib",),
    "workload.zipf_addresses": ("repro.workload.fib:zipf_addresses",),
    "routing.{kind}.load": tuple(
        f"repro.routing:TABLE_KINDS[{kind}].load" for kind in KINDS),
    "routing.{kind}.lookup_batch": (
        "repro.routing.base:RoutingTable.lookup_batch",),
    "routing.{kind}.insert": ("repro.routing.base:RoutingTable.insert",),
    "routing.{kind}.remove": ("repro.routing.base:RoutingTable.remove",),
    "router.step": ("repro.router.network:Network.step",),
    "router.ripng_receive": (
        "repro.router.ripng_engine:RipngEngine.receive",),
    "router.ripng_tick": ("repro.router.ripng_engine:RipngEngine.tick",),
    "ipv6.checksum": ("repro.ipv6.checksum:internet_checksum",
                      "repro.ipv6.checksum:transport_checksum",
                      "repro.ipv6.checksum:verify_transport_checksum"),
}


def _count_cycles(args, result) -> Optional[Tuple[str, int]]:
    cycles = getattr(result, "cycles", None)
    return None if cycles is None else ("tta.cycles", cycles)


def _count_lookups(args, result) -> Optional[Tuple[str, int]]:
    return f"routing.{args[0].kind}.lookups", len(args[1])


#: Quantities read off a wrapped call, added to per-op counters.
COUNTERS: Dict[str, Callable] = {
    "tta.run": _count_cycles,
    "routing.{kind}.lookup_batch": _count_lookups,
}

SETUP, FIRST, WARM = "setup", "first", "warm"
#: spans kept for the span file; totals keep counting past the cap
MAX_SPANS = 200_000


def bucket_of(op: int) -> str:
    """Op -1 is set-up, op 0 the cold first op, later ops are warm."""
    return SETUP if op < 0 else FIRST if op == 0 else WARM


class SpanLog:
    """In-memory span recorder with running per-(name, bucket) totals."""

    def __init__(self):
        self.op = -1
        self.enabled = True
        self.spans: List[list] = []
        self.dropped = 0
        #: open spans: [name, start, seconds covered by children, index]
        self._stack: List[list] = []
        #: (name, bucket) -> [calls, busy seconds, child seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: (counter, bucket) -> summed quantity
        self.counts: Dict[Tuple[str, str], int] = {}
        self.absent: Dict[str, str] = {}

    def is_open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def begin(self, name: str) -> None:
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        else:
            self.dropped += 1
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def end(self) -> None:
        now = time.perf_counter()
        name, start, children, index = self._stack.pop()
        elapsed = now - start
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = now
        if self._stack:
            self._stack[-1][2] += elapsed
        total = self.totals.setdefault((name, bucket_of(self.op)),
                                       [0, 0.0, 0.0])
        total[0] += 1
        total[1] += elapsed
        total[2] += children

    def count(self, counter: str, amount: int) -> None:
        key = (counter, bucket_of(self.op))
        self.counts[key] = self.counts.get(key, 0) + amount

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent index, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def summary(self) -> Dict[str, object]:
        """JSON-ready totals handed back to the orchestrating process."""
        return {
            "totals": [[name, bucket, *values]
                       for (name, bucket), values in self.totals.items()],
            "counts": [[name, bucket, value]
                       for (name, bucket), value in self.counts.items()],
            "absent": dict(self.absent),
            "spans": len(self.spans),
            "dropped_spans": self.dropped,
        }


def _wrapper(log: SpanLog, span: str, original: Callable,
             counter: Optional[Callable]) -> Callable:
    templated = "{kind}" in span

    @functools.wraps(original)
    def traced(*args, **kwargs):
        name = span.format(kind=args[0].kind) if templated else span
        # off between traced ops, or recursion / a wrapped override's super()
        if not log.enabled or log.is_open(name):
            return original(*args, **kwargs)
        log.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            log.end()
        if counter is not None:
            counted = counter(args, result)
            if counted is not None:
                log.count(*counted)
        return result

    return traced


def _resolve(spec: str):
    """(owner, attribute, original) for ``module:Path.attr`` specs; a
    ``Name[key]`` path step indexes a mapping (``TABLE_KINDS[cam]``)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *steps, attribute = path.split(".")
    for step in steps:
        name, _, key = step.partition("[")
        owner = getattr(owner, name)
        if key:
            owner = owner[key.rstrip("]")]
    if isinstance(owner, type) and attribute not in vars(owner):
        raise AttributeError(
            f"{owner.__name__}.{attribute} is inherited, not defined there")
    return owner, attribute, getattr(owner, attribute)


class Patch:
    """The wrapped bindings; tracing can be switched off between ops."""

    def __init__(self, log: SpanLog):
        self.log = log
        #: (owner, attribute, original, wrapper)
        self.bindings: List[Tuple[object, str, Callable, Callable]] = []

    def set(self, traced: bool) -> None:
        # A module imported while tracing was on may hold a wrapper this
        # list does not know; the flag keeps such a wrapper silent.
        self.log.enabled = traced
        for owner, attribute, original, wrapper in self.bindings:
            setattr(owner, attribute, wrapper if traced else original)


def install(log: SpanLog) -> Patch:
    """Wrap every target; record a reason for each one that is missing."""
    patch = Patch(log)
    for span, specs in WRAP_TARGETS.items():
        counter = COUNTERS.get(span)
        for spec in specs:
            try:
                owner, attribute, original = _resolve(spec)
            except (ImportError, AttributeError, KeyError) as exc:
                kind = re.search(r"\[(.+)\]", spec)
                key = span.format(kind=kind.group(1)) if kind else span
                log.absent[key] = f"{spec}: {type(exc).__name__}: {exc}"
                continue
            wrapper = _wrapper(log, span, original, counter)
            owners = [owner]
            if not isinstance(owner, type):
                owners += [module for module in list(sys.modules.values())
                           if module is not owner
                           and getattr(module, "__name__", "").startswith(
                               "repro")]
            for each in owners:
                for name, value in list(vars(each).items()):
                    if value is original:
                        patch.bindings.append((each, name, original, wrapper))
    patch.set(True)
    return patch
