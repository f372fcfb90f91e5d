"""Exact-prefix index over a scan-ordered line array.

The sequential table and the CAM keep their lines in scan (priority)
order: prefix lengths non-increasing, arrival order within a length.
Their exact-prefix operations — ``get``, membership, insert (replace or
new) and remove — need the scan position of a prefix and, for a new
prefix, the first line holding a shorter one. The modelled update cost
is defined by those two scans; the host need not perform them. This
index answers both with one dict probe and one bisect:

* each stored prefix maps to an order key
  ``(128 - length) << 64 | arrival``;
* a sorted list of the keys runs parallel to the owner's lines.

Keys ascend in scan order, so the bisect of a prefix's key is its scan
position, and the bisect of a fresh key (an arrival later than every
stored one) is the first slot holding a shorter prefix — where the scan
would place a new line.

The index is built on the first exact-prefix call after :meth:`drop`
and kept in step by :meth:`add` and :meth:`discard`; the owner drops it
on a bulk load and on memory corruption, so a table that is bulk-loaded
and then only searched never builds it. It is built only for
well-formed lines — lengths non-increasing in scan order, no prefix
stored twice. Only memory corruption can break these rules; the calls
then scan the owner's prefixes instead, until a removal or a drop lets
the index be tried again.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional

from repro.ipv6.address import ADDRESS_BITS, Ipv6Prefix
from repro.obs import get_registry

#: the owner's stored prefixes, in scan order
Prefixes = Callable[[], Iterable[Ipv6Prefix]]

_ARRIVAL_BITS = 64

_STALE = object()


class PrefixOrder:
    """The exact-prefix index one scan-ordered table keeps."""

    __slots__ = ("kind", "_order", "_keys", "_arrivals")

    def __init__(self, kind: str):
        self.kind = kind
        self.drop()

    def drop(self) -> None:
        """Forget the index; the next exact-prefix call rebuilds it."""
        self._order: object = _STALE
        self._keys: List[int] = []
        self._arrivals = 0

    def find(self, prefix: Ipv6Prefix, prefixes: Prefixes) -> Optional[int]:
        """Scan position of the first line holding *prefix*, or None."""
        if self._ready(prefixes):
            key = self._order.get(prefix)  # type: ignore[attr-defined]
            return None if key is None else bisect_left(self._keys, key)
        return next((position for position, stored in enumerate(prefixes())
                     if stored == prefix), None)

    def add(self, prefix: Ipv6Prefix, prefixes: Prefixes) -> int:
        """Record *prefix*, which the owner does not store yet; returns
        the slot its line goes to: the first holding a shorter prefix."""
        length = prefix.length
        if not self._ready(prefixes):
            stored = list(prefixes())
            return next((position for position, other in enumerate(stored)
                         if other.length < length), len(stored))
        key = (ADDRESS_BITS - length) << _ARRIVAL_BITS | self._arrivals
        self._arrivals += 1
        position = bisect_left(self._keys, key)
        self._keys.insert(position, key)
        self._order[prefix] = key  # type: ignore[index]
        return position

    def discard(self, prefix: Ipv6Prefix, prefixes: Prefixes
                ) -> Optional[int]:
        """Forget *prefix*; returns the scan position of the line the
        owner deletes, or None when it is not stored."""
        if not self._ready(prefixes):
            position = self.find(prefix, prefixes)
            self.drop()  # the removal may leave well-formed lines
            return position
        key = self._order.pop(prefix, None)  # type: ignore[attr-defined]
        if key is None:
            return None
        position = bisect_left(self._keys, key)
        del self._keys[position]
        return position

    def _ready(self, prefixes: Prefixes) -> bool:
        """Build the index if it was dropped; False when the owner's
        lines are not well-formed and calls must scan."""
        if self._order is _STALE:
            self._order = self._build(prefixes())
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "routing_update_index_total",
                    "exact-prefix index builds and refusals on state "
                    "that is not well-formed (result=miss); calls served "
                    "by a kept index are not counted", ("kind", "result")
                ).inc(kind=self.kind, result="miss")
        return self._order is not None

    def _build(self, prefixes: Iterable[Ipv6Prefix]
               ) -> Optional[Dict[Ipv6Prefix, int]]:
        order: Dict[Ipv6Prefix, int] = {}
        keys: List[int] = []
        previous = ADDRESS_BITS << 1  # above any stored (8-bit) length
        for arrival, prefix in enumerate(prefixes):
            length = prefix.length
            if length > previous or prefix in order:
                return None
            previous = length
            key = (ADDRESS_BITS - length) << _ARRIVAL_BITS | arrival
            order[prefix] = key
            keys.append(key)
        self._keys, self._arrivals = keys, len(keys)
        return order
