"""Bounded in-process memos for the evaluation path.

One evaluation rebuilds three things that depend on far less than the
evaluation itself:

* the assembled forwarding program — on the machine's shape and the
  generator's knobs (``program``, :mod:`repro.programs.forwarding`);
* the compiled backend's generated schedule — on the program, the
  machine's shape and strictness (``codegen``, :mod:`repro.tta.compiled`);
* the golden forwarding expectations — on the routes and packets
  (``golden``, :mod:`repro.programs.runner`).

Each is memoized in an :class:`EvaluationMemo` keyed on exactly those
inputs. No memo may hold a machine, processor or data memory: cached
values name ports and FUs by string, never by object, so dropping a run's
result frees its 2¹⁷-word memory whatever the memos hold.

Every lookup counts into ``evaluation_cache_total{cache,result}``
(``result`` is ``hit`` or ``miss``); with the metrics registry disabled
that costs one attribute check.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, TypeVar

from repro.obs import get_registry

T = TypeVar("T")

CACHE_METRIC = "evaluation_cache_total"
CACHE_HELP = "evaluation memo lookups, by memo and outcome"


class EvaluationMemo:
    """A least-recently-used map holding at most *maxsize* entries.

    Not locked: evaluations run one at a time per process (parallel
    sweeps use worker processes, each with its own memos).
    """

    def __init__(self, name: str, maxsize: int):
        self.name = name
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[object]:
        """The value stored under *key* (now the most recent), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        registry = get_registry()
        if registry.enabled:
            registry.counter(CACHE_METRIC, CACHE_HELP,
                             ("cache", "result")).inc(
                cache=self.name, result="miss" if value is None else "hit")
        return value

    def put(self, key: Hashable, value: T) -> T:
        """Store *value*, evicting the least recent entry past the bound."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
