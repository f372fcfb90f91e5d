"""Per-prefix-length hash index over a scan-ordered line array.

The sequential table and the CAM both keep their lines in scan
(priority) order, longest prefix first, and answer a lookup with the
first line that matches. A batch can ask the same question of one
exact-match dict per prefix length instead, probing the lengths in scan
order: one probe per distinct length rather than one comparison per
line. The index is built on the first batch after a change and kept for
later batches; every mutator of the owning table calls :meth:`drop`.
Each key maps to a payload the owner picks and reads back: the CAM its
stored entry (no object of the index's own per line), the sequential
table the scan position its step count needs.

The index is only built when it provably returns the line the scan
would return:

* every length is in 0..128, and a line that stores its own match mask
  (the CAM) stores exactly the mask of its length — so a line matches
  an address iff ``address & mask == key``;
* each length's lines are contiguous in scan order, so probing the
  groups in order visits candidate lines in scan order;
* a duplicated key keeps its first line, the one the scan reaches first.

Only memory corruption can break these rules. The index then reports
``None`` and the owner answers the batch per address from its scan.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ipv6.address import ADDRESS_BITS, Ipv6Address, prefix_mask
from repro.obs import get_registry

#: one scan-order line: (prefix length, stored mask or None, match key,
#: payload); a None mask means the mask of the line's length
Line = Tuple[int, Optional[int], int, object]

_Groups = Tuple[Tuple[int, Dict[int, object]], ...]

_STALE = object()


def _build(lines: Iterable[Line]) -> Optional[_Groups]:
    """``(mask, {key: payload of its first line})`` per length in scan
    order, or None when the lines break a rule in the module docstring."""
    groups: List[Tuple[int, Dict[int, object]]] = []
    seen = set()
    current = mask = -1
    table: Dict[int, object] = {}
    for length, stored_mask, key, payload in lines:
        if length != current:
            if length in seen or not 0 <= length <= ADDRESS_BITS:
                return None
            seen.add(length)
            current, mask, table = length, prefix_mask(length), {}
            groups.append((mask, table))
        if stored_mask is not None and stored_mask != mask:
            return None
        table.setdefault(key, payload)
    return tuple(groups)


class LengthIndex:
    """The per-length index one table keeps across batches."""

    __slots__ = ("kind", "_groups")

    def __init__(self, kind: str):
        self.kind = kind
        self._groups: object = _STALE

    def drop(self) -> None:
        """Forget the index; the next batch rebuilds it."""
        self._groups = _STALE

    def search(self, lines: Callable[[], Iterable[Line]],
               addresses: Sequence[Ipv6Address]) -> Optional[List[object]]:
        """Payload of the first line matching each address (None when
        none does), or None when the lines are not well-formed.

        *lines* yields the owner's lines in scan order; it is only
        called when the index has to be rebuilt.
        """
        groups = self._groups
        reused = groups is not _STALE
        if not reused:
            groups = self._groups = _build(lines())
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "routing_batch_index_total",
                "lookup batches served by a kept per-length index (hit) "
                "or not (miss: rebuilt, or state not well-formed)",
                ("kind", "result")
            ).inc(kind=self.kind,
                  result="hit" if reused and groups is not None else "miss")
        if groups is None:
            return None
        out: List[object] = []
        append = out.append
        for address in addresses:
            value = address.value
            payload = None
            for mask, table in groups:  # type: ignore[union-attr]
                payload = table.get(value & mask)
                if payload is not None:
                    break
            append(payload)
        return out
