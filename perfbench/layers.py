"""Per-layer metrics of the traced run, derived from span totals.

``busy_s`` is wall time inside the wrapped call and ``self_s`` is busy
time minus the wrapped calls made from inside it. Unless its unit says
otherwise a metric is averaged over the warm ops, so it reads directly
against ``op_p50_ms``. Set-up metrics (unit ``s``) cover the work done
before the first op. Exact simulated counts come from the workload's
first op (the first rotation over all table kinds in fib-lookup) and
must repeat bit for bit in a second process with the same seed.

A workload reports 0 for the layers it does not drive (``tta.run.calls``
is 0 on fib-lookup, for example). A metric whose wrap target has gone
missing is left out and reported as absent with the reason.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from tracing import KINDS, SETUP, WARM

#: Exact counts reported by the workloads (see ``workloads.py``).
EXACT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("tta.cycles", "cycles"),
    *((f"routing.{kind}.steps_per_lookup", "steps/lookup") for kind in KINDS),
    *((f"routing.{kind}.memory_bytes", "bytes") for kind in KINDS),
    ("router.rounds", "rounds"),
    ("router.messages", "messages"),
)

TRACE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


class Totals:
    """Read access to one traced child's span totals and counters."""

    def __init__(self, summary: Dict[str, object], warm_ops: int):
        self.spans = {(name, bucket): (calls, busy, child)
                      for name, bucket, calls, busy, child
                      in summary["totals"]}
        self.counts = {(name, bucket): value
                       for name, bucket, value in summary["counts"]}
        self.warm_ops = max(1, warm_ops)

    def calls(self, span: str) -> float:
        return self.spans.get((span, WARM), (0, 0.0, 0.0))[0]

    def busy(self, span: str, bucket: str = WARM) -> float:
        return self.spans.get((span, bucket), (0, 0.0, 0.0))[1]

    def self_time(self, span: str) -> float:
        _calls, busy, child = self.spans.get((span, WARM), (0, 0.0, 0.0))
        return busy - child

    def count(self, counter: str) -> int:
        return self.counts.get((counter, WARM), 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: (metric, unit, spans it needs, derivation)
Spec = Tuple[str, str, Tuple[str, ...], Callable[[Totals], float]]


def _per_op(metric: str, span: str) -> Spec:
    field = metric.rsplit(".", 1)[1]
    if field == "calls":
        return (metric, "calls/op", (span,),
                lambda t: t.calls(span) / t.warm_ops)
    if field == "self_s":
        return (metric, "s/op", (span,),
                lambda t: t.self_time(span) / t.warm_ops)
    return (metric, "s/op", (span,), lambda t: t.busy(span) / t.warm_ops)


def _span_specs() -> List[Spec]:
    specs: List[Spec] = []
    for metric in (
            # table1-paper
            "dse.evaluate.calls", "dse.evaluate.busy_s",
            "dse.campaign.self_s",
            "programs.run_forwarding.self_s",
            "programs.build_machine.busy_s",
            "programs.load_routes.busy_s",
            "programs.build_forwarding_program.self_s",
            "asm.assemble.calls", "asm.assemble.busy_s",
            "tta.compile_program.calls", "tta.compile_program.busy_s",
            "tta.create_simulator.busy_s",
            "tta.run.calls", "tta.run.busy_s",
            "verify.expected_forwarding.calls",
            "verify.expected_forwarding.busy_s",
            "estimation.busy_s",
            # ripng-ring
            "router.step.calls", "router.step.busy_s",
            "router.ripng_receive.self_s", "router.ripng_tick.self_s",
            "ipv6.checksum.busy_s"):
        specs.append(_per_op(metric, metric.rsplit(".", 1)[0]))
    for kind in KINDS:
        for op in ("insert", "remove"):
            span = f"routing.{kind}.{op}"
            specs.append(_per_op(f"{span}.calls", span))
            specs.append(_per_op(f"{span}.busy_s", span))
    specs.append((
        "dse.runs_per_eval", "runs/eval",
        ("programs.run_forwarding", "dse.evaluate"),
        lambda t: _ratio(t.calls("programs.run_forwarding"),
                         t.calls("dse.evaluate"))))
    specs.append((
        "tta.cycles_per_s", "cycles/s", ("tta.run",),
        lambda t: _ratio(t.count("tta.cycles"), t.busy("tta.run"))))
    for span in ("workload.synthesize_fib", "workload.zipf_addresses"):
        specs.append((f"{span}.busy_s", "s", (span,),
                      lambda t, span=span: t.busy(span, SETUP)))
    for kind in KINDS:
        load = f"routing.{kind}.load"
        batch = f"routing.{kind}.lookup_batch"
        specs.append((f"routing.{kind}.load_s", "s", (load,),
                      lambda t, load=load: t.busy(load, SETUP)))
        specs.append((
            f"routing.{kind}.lookups_per_s", "lookups/s", (batch,),
            lambda t, kind=kind, batch=batch: _ratio(
                t.count(f"routing.{kind}.lookups"), t.busy(batch))))
    return specs


SPAN_METRICS: Tuple[Spec, ...] = tuple(_span_specs())


def declared() -> List[Tuple[str, str]]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    return ([(name, unit) for name, unit, _spans, _fn in SPAN_METRICS]
            + list(EXACT_METRICS) + list(TRACE_METRICS))


def _missing(span: str, absent: Dict[str, str]):
    if span in absent:
        return absent[span]
    for template, reason in absent.items():
        if "{kind}" in template and any(
                span == template.format(kind=kind) for kind in KINDS):
            return reason
    return None


def derive(summary: Dict[str, object], warm_ops: int,
           exact: Dict[str, float]
           ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str]]:
    """({metric: (value, unit)}, {metric: reason absent}) for one
    traced child; trace-overhead metrics are added by the caller."""
    totals = Totals(summary, warm_ops)
    absent_spans: Dict[str, str] = summary["absent"]
    metrics: Dict[str, Tuple[float, str]] = {}
    absent: Dict[str, str] = {}
    for name, unit, spans, fn in SPAN_METRICS:
        reasons = [r for r in (_missing(s, absent_spans) for s in spans) if r]
        if reasons:
            absent[name] = "; ".join(reasons)
        else:
            metrics[name] = (fn(totals), unit)
    for name, unit in EXACT_METRICS:
        reason = _missing("tta.run", absent_spans) \
            if name == "tta.cycles" else None
        if reason:
            absent[name] = reason
        else:
            metrics[name] = (exact.get(name, 0), unit)
    return metrics, absent
