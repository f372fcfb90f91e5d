#!/usr/bin/env python3
"""Validate the ``metrics`` section of an ``--output`` JSON document.

Usage::

    python scripts/check_metrics_schema.py table1.json [more.json ...]

Each document must carry a ``metrics`` key conforming to
``schemas/metrics.schema.json``. Uses ``jsonschema`` when it is
importable; otherwise falls back to a built-in validator covering the
schema subset the checked-in schema actually uses (type, required,
properties, additionalProperties, items, $ref into #/definitions), so CI
needs no extra dependency.
"""

from __future__ import annotations

import json
import os
import sys

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "schemas", "metrics.schema.json")

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "boolean": bool,
}


def _validate(instance, schema, root, path="$"):
    """Minimal draft-07 subset validator; returns a list of error strings."""
    ref = schema.get("$ref")
    if ref is not None:
        target = root
        for part in ref.lstrip("#/").split("/"):
            target = target[part]
        return _validate(instance, target, root, path)
    errors = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        if not isinstance(instance, python_type) or \
                (expected == "number" and isinstance(instance, bool)):
            return [f"{path}: expected {expected}, "
                    f"got {type(instance).__name__}"]
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in properties:
                errors.extend(_validate(value, properties[key], root,
                                        f"{path}.{key}"))
            elif isinstance(additional, dict):
                errors.extend(_validate(value, additional, root,
                                        f"{path}.{key}"))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(_validate(item, schema["items"], root,
                                    f"{path}[{i}]"))
    return errors


#: (section, metric name, label name, definitions key) rows the
#: structural pass cannot express: every such label value must be in
#: the named enum
_LABEL_DOMAINS = (
    ("counters", "sdc_outcomes_total", "outcome", "sdc_outcome"),
    ("counters", "service_jobs_total", "state", "job_state"),
    ("counters", "service_cache_requests_total", "result", "cache_result"),
    ("counters", "evaluation_cache_total", "cache", "evaluation_cache"),
    ("counters", "evaluation_cache_total", "result", "cache_result"),
    ("counters", "tta_runs_total", "backend", "simulator_backend"),
    ("counters", "tta_cycles_total", "backend", "simulator_backend"),
    ("counters", "tta_moves_total", "backend", "simulator_backend"),
    ("gauges", "tta_cycles_per_second", "backend", "simulator_backend"),
    ("gauges", "tta_moves_per_second", "backend", "simulator_backend"),
    ("histograms", "tta_run_seconds", "backend", "simulator_backend"),
    ("counters", "simulator_fallback_total", "reason", "fallback_reason"),
    ("counters", "routing_lookups_total", "kind", "routing_table_kind"),
    ("counters", "routing_lookups_total", "outcome",
     "routing_lookup_outcome"),
    ("counters", "routing_lookup_steps_total", "kind", "routing_table_kind"),
    ("counters", "routing_updates_total", "kind", "routing_table_kind"),
    ("counters", "routing_updates_total", "op", "routing_update_op"),
    ("counters", "routing_update_steps_total", "kind", "routing_table_kind"),
    ("counters", "routing_batch_index_total", "kind", "routing_table_kind"),
    ("counters", "routing_batch_index_total", "result", "cache_result"),
    ("counters", "routing_update_index_total", "kind", "routing_table_kind"),
    ("counters", "routing_update_index_total", "result", "cache_result"),
    ("counters", "routing_corruption_detected_total", "kind",
     "routing_table_kind"),
    ("counters", "routing_corruption_detected_total", "protection",
     "protection"),
    ("counters", "routing_degraded_lookups_total", "kind",
     "routing_table_kind"),
    ("counters", "routing_degraded_lookups_total", "protection",
     "protection"),
    ("counters", "sdc_memory_injections_total", "memory_site",
     "memory_site"),
    ("counters", "sdc_memory_injections_total", "protection",
     "protection"),
)


def _check_outcome_labels(metrics: dict, schema: dict) -> list:
    """Domain-check enumerated label values against their definitions."""
    errors = []
    for section, metric_name, label, definition in _LABEL_DOMAINS:
        allowed = set(schema["definitions"][definition]["enum"])
        metric = metrics.get(section, {}).get(metric_name)
        if not isinstance(metric, dict):
            continue
        for i, entry in enumerate(metric.get("values", [])):
            value = entry.get("labels", {}).get(label)
            if value not in allowed:
                errors.append(
                    f"$.{section}.{metric_name}.values[{i}]: {label} "
                    f"{value!r} is not one of {sorted(allowed)}")
    return errors


def check(document_path: str, schema: dict) -> int:
    with open(document_path, encoding="utf-8") as handle:
        document = json.load(handle)
    metrics = document.get("metrics")
    if metrics is None:
        print(f"{document_path}: FAIL — no 'metrics' section")
        return 1
    try:
        import jsonschema
    except ImportError:
        errors = _validate(metrics, schema, schema)
    else:
        validator = jsonschema.Draft7Validator(schema)
        errors = [f"$.{'.'.join(map(str, e.absolute_path))}: {e.message}"
                  for e in validator.iter_errors(metrics)]
    errors.extend(_check_outcome_labels(metrics, schema))
    if errors:
        print(f"{document_path}: FAIL")
        for error in errors:
            print(f"  {error}")
        return 1
    counts = {section: len(metrics[section])
              for section in ("counters", "gauges", "histograms")}
    print(f"{document_path}: OK — "
          + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
    return 0


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    return max(check(path, schema) for path in argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
