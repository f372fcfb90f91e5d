"""Sequential routing table: entries laid out linearly in cache memory.

This is the paper's first implementation option ("a cache memory in which
the entries are organized sequentially", §4). A lookup scans every entry
because a *longest* match requires seeing all candidates unless the scan
order guarantees specificity; we keep entries sorted by descending prefix
length, so the first hit is the longest match and the scan can stop there —
still linear in the worst case (a miss examines all entries), exactly the
behaviour that drives the 6 GHz requirement in Table 1.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.routing.base import DEFAULT_CAPACITY, RoutingTable
from repro.routing.entry import RouteEntry
from repro.routing.lengthindex import LengthIndex, Line
from repro.routing.memimage import ENTRY_BITS, corrupt_entry, pack_entry
from repro.routing.prefixorder import PrefixOrder


class SequentialRoutingTable(RoutingTable):
    """Linear-scan table over a specificity-ordered entry list."""

    kind = "sequential"

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__(capacity)
        self._entries: List[RouteEntry] = []
        self._index = LengthIndex(self.kind)
        self._order = PrefixOrder(self.kind)

    # -- core operations -----------------------------------------------------
    #
    # The kept exact-prefix index (repro.routing.prefixorder) finds a
    # prefix's scan position and a new prefix's slot. The steps model a
    # linear scan of the cache memory up to that position.

    def _insert(self, entry: RouteEntry) -> int:
        self._index.drop()
        entries = self._entries
        position = self._order.find(entry.prefix, self._prefixes)
        if position is not None:
            entries[position] = entry
            return position + 2  # entries compared up to it, one write
        # A new prefix is compared with every entry, then placed keeping
        # descending prefix-length order (stable within a length class).
        scanned = len(entries)
        position = self._order.add(entry.prefix, self._prefixes)
        entries.insert(position, entry)
        # Shifting the tail models the memory writes a real cache-memory
        # table performs to keep the array contiguous.
        return scanned + (len(entries) - position)

    def _remove(self, prefix: Ipv6Prefix) -> int:
        self._index.drop()
        position = self._order.discard(prefix, self._prefixes)
        if position is None:
            raise RoutingTableError(f"no such route: {prefix}")
        del self._entries[position]
        return position + 1 + (len(self._entries) - position)

    def _lookup(self, address: Ipv6Address) -> Tuple[Optional[RouteEntry], int]:
        steps = 0
        for entry in self._entries:
            steps += 1
            if entry.matches(address):
                return entry, steps
        return None, steps

    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        position = self._order.find(prefix, self._prefixes)
        return None if position is None else self._entries[position]

    def _prefixes(self) -> Iterator[Ipv6Prefix]:
        return (entry.prefix for entry in self._entries)

    # -- bulk fast paths ------------------------------------------------------

    def load(self, entries: "list[RouteEntry]") -> None:
        """Single-sort bulk build (the per-insert path is O(n²)).

        Only valid from an empty table; otherwise falls back to the
        accounted per-insert path. Placement is identical to repeated
        ``insert``: descending prefix length, stable by first arrival
        within a length class, later duplicates replacing earlier ones
        in place. The bulk cost is one write per stored entry.
        """
        if self._entries:
            super().load(entries)
            return
        self._check_bulk_capacity(entries)
        merged: Dict[Ipv6Prefix, RouteEntry] = {}
        for entry in entries:
            merged[entry.prefix] = entry
        self._index.drop()
        self._order.drop()
        self._entries = sorted(
            merged.values(), key=lambda entry: -entry.prefix.length)
        self._account_bulk_load(len(entries), len(merged))

    def _lookup_batch(
            self, addresses: Sequence[Ipv6Address]
    ) -> Tuple[List[Optional[RouteEntry]], List[int]]:
        """Answer a batch from the kept per-length index: a hit at scan
        position *i* costs ``i + 1`` steps, a miss ``len(self)`` — what
        the linear scan reports. Damaged state falls back to the scan."""
        positions = self._index.search(self._index_lines, addresses)
        if positions is None:
            return super()._lookup_batch(addresses)
        entries = self._entries
        miss = len(entries)
        return ([None if p is None else entries[p] for p in positions],
                [miss if p is None else p + 1 for p in positions])

    def _index_lines(self) -> "Iterator[Line]":
        return ((entry.prefix.length, None, entry.prefix.network.value,
                 position)
                for position, entry in enumerate(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(list(self._entries))

    # -- memory-state corruption seam ------------------------------------------

    def memory_sites(self) -> Tuple[str, ...]:
        return ("entry",)

    def memory_record_count(self, site: str) -> int:
        if site != "entry":
            return super().memory_record_count(site)
        return len(self._entries)

    def memory_record(self, site: str, index: int) -> bytes:
        if site != "entry":
            return super().memory_record(site, index)
        self._check_memory_index(site, index, len(self._entries))
        return pack_entry(self._entries[index])

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        if site != "entry":
            return super().corrupt_memory(site, index, bit)
        self._check_memory_index(site, index, len(self._entries))
        self._check_memory_bit(site, bit, ENTRY_BITS)
        self._index.drop()
        self._order.drop()
        before = self._entries[index]
        self._entries[index] = corrupt_entry(before, bit)
        return f"entry[{index}] bit {bit} ({before.prefix})"

    # -- memory image (for the TACO data memory) ------------------------------

    def memory_layout(self) -> List[RouteEntry]:
        """The scan order, used to serialise the table into data memory."""
        return list(self._entries)

    def table_memory_bytes(self) -> int:
        """On-chip cache footprint: the 16-word RTU stride per entry."""
        return len(self._entries) * 64
