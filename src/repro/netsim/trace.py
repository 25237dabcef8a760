"""A tcpdump-analog packet tap.

The paper measures the wireless vs. resolver split of each DNS lookup "using
both dig from the client side and tcpdump at P-GW".  :class:`PacketTrace`
reproduces that method: attach it to a network, filter on a host name, and
read back timestamped records to compute per-segment timings.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.netsim.network import Network
from repro.netsim.packet import Datagram


class TraceRecord(NamedTuple):
    """One observed packet event."""

    time: float
    host: str
    event: str  # "send" | "forward" | "deliver" | "drop"
    src: str
    dst: str
    size: int
    protocol: str


class PacketTrace:
    """Collects :class:`TraceRecord` entries from a network tap."""

    def __init__(self, network: Network,
                 host_filter: Optional[str] = None,
                 event_filter: Optional[str] = None) -> None:
        self._network = network
        self._host_filter = host_filter
        self._event_filter = event_filter
        self.records: List[TraceRecord] = []
        # The network applies the host filter: it never queues hop
        # events at hosts no tap watches.
        network.add_tap(self._observe, host=host_filter)

    def _observe(self, time: float, host: str, event: str,
                 datagram: Datagram) -> None:
        if self._event_filter is not None and event != self._event_filter:
            return
        self.records.append(TraceRecord(
            time=time, host=host, event=event,
            src=str(datagram.src), dst=str(datagram.dst),
            size=datagram.size, protocol=datagram.protocol))

    def close(self) -> None:
        """Stop capturing."""
        self._network.remove_tap(self._observe)

    def clear(self) -> None:
        """Drop all captured records (keep capturing)."""
        self.records.clear()

    def between(self, start: float, end: float) -> List[TraceRecord]:
        """Records with ``start <= time <= end``."""
        return [record for record in self.records if start <= record.time <= end]

    def first(self, event: Optional[str] = None) -> Optional[TraceRecord]:
        """The first record (optionally of one event kind), or None."""
        for record in self.records:
            if event is None or record.event == event:
                return record
        return None

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        scope = self._host_filter or "*"
        return f"PacketTrace(host={scope}, records={len(self.records)})"
