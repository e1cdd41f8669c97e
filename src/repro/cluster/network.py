"""The interconnect model for the simulated cluster.

Every transfer between simulated nodes goes through
:meth:`NetworkModel.transfer`, which pickles the payload (so the byte count
is the real serialised size, not an estimate) and charges

    time = latency + bytes / bandwidth

to the simulated clock.  Defaults approximate the gigabit-Ethernet cluster
the paper used (latency 0.5 ms, ~110 MB/s effective bandwidth).  Broadcast
and all-reduce helpers express their cost in terms of point-to-point
transfers the way MPI implementations do.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field


@dataclass
class TransferRecord:
    """One recorded transfer between two nodes."""

    source: int
    destination: int
    n_bytes: int
    seconds: float
    label: str = ""


@dataclass
class NetworkModel:
    """Tracks bytes moved between nodes and converts them to simulated time.

    Attributes:
        latency_seconds: per-message fixed cost.
        bandwidth_bytes_per_second: sustained point-to-point bandwidth.
        transfers: the log of every transfer since the last :meth:`reset`.

    :attr:`total_bytes` and :attr:`total_seconds` are running counters kept
    by :meth:`transfer`, so reading them costs O(1) however long the log
    grows (every cluster phase reads them twice).  They equal the sums over
    :attr:`transfers` as long as the log is changed only through
    :meth:`transfer` and :meth:`reset`, from one thread at a time (the
    cluster moves data on the driver, between phases).
    """

    latency_seconds: float = 0.0005
    bandwidth_bytes_per_second: float = 110e6
    transfers: list[TransferRecord] = field(default_factory=list)
    _total_bytes: int = field(default=0, init=False, repr=False, compare=False)
    _total_seconds: float = field(default=0.0, init=False, repr=False, compare=False)

    def cost_of(self, n_bytes: int) -> float:
        """Simulated seconds to move ``n_bytes`` point to point."""
        return self.latency_seconds + n_bytes / self.bandwidth_bytes_per_second

    def transfer(self, payload, source: int, destination: int, label: str = "") -> tuple[object, float]:
        """Move ``payload`` from one node to another.

        The payload is serialised and deserialised (a real copy, like MPI
        send/recv of a Python object), the transfer is recorded, and the
        deserialised object plus the simulated seconds are returned.
        """
        if source == destination:
            return payload, 0.0
        wire = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        seconds = self.cost_of(len(wire))
        self.transfers.append(
            TransferRecord(source=source, destination=destination,
                           n_bytes=len(wire), seconds=seconds, label=label)
        )
        self._total_bytes += len(wire)
        self._total_seconds += seconds
        return pickle.loads(wire), seconds

    def broadcast(self, payload, source: int, destinations: list[int], label: str = "") -> tuple[list, float]:
        """Send the same payload to several nodes; returns copies and total seconds."""
        copies = []
        total = 0.0
        for destination in destinations:
            copy, seconds = self.transfer(payload, source, destination, label=label or "broadcast")
            copies.append(copy)
            total += seconds
        return copies, total

    def gather(self, payloads: list, sources: list[int], destination: int, label: str = "") -> tuple[list, float]:
        """Collect one payload from each source node at ``destination``."""
        gathered = []
        total = 0.0
        for payload, source in zip(payloads, sources, strict=True):
            copy, seconds = self.transfer(payload, source, destination, label=label or "gather")
            gathered.append(copy)
            total += seconds
        return gathered, total

    def all_reduce_cost(self, n_bytes: int, n_nodes: int) -> float:
        """Simulated seconds for a ring all-reduce of ``n_bytes`` per node."""
        if n_nodes <= 1:
            return 0.0
        # Ring all-reduce: 2 (n-1) steps, each moving n_bytes / n.
        steps = 2 * (n_nodes - 1)
        return steps * self.cost_of(max(1, n_bytes // n_nodes))

    # -- accounting -------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Bytes moved since the last :meth:`reset`."""
        return self._total_bytes

    @property
    def total_seconds(self) -> float:
        """Simulated network seconds charged since the last :meth:`reset`."""
        return self._total_seconds

    def reset(self) -> None:
        self.transfers.clear()
        self._total_bytes = 0
        self._total_seconds = 0.0
