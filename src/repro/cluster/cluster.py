"""The simulated cluster: per-node execution plus a parallel time model.

How the simulation works (the substrate's design notes):

* every node's work runs for real, in this process, and is timed per node;
* the *simulated parallel elapsed time* of a phase is the maximum per-node
  compute time (the nodes would have run concurrently) plus the network
  time charged by the :class:`~repro.cluster.network.NetworkModel`;
* per-node data really is partitioned — a node only sees its partition — so
  algorithms that need data from other nodes must move it through the
  network model and pay for it.

That reproduces the paper's multi-node behaviour: more nodes reduce the
max-per-node compute term but grow the communication term, which is why no
system shows linear speedup and some regress from one node to two.

Executor choice and timing semantics
------------------------------------

:meth:`Cluster.run_on_nodes` supports two executors:

* ``"threads"`` (the default) dispatches the per-node work items to one
  process-wide fragment pool (see below).  The heavy per-node work is
  numpy, which releases the GIL, so fragments genuinely overlap and the
  *real* wall clock of a phase approaches the slowest fragment on
  multi-core hosts.  Per-node compute is measured with
  :func:`time.thread_time` (per-thread CPU seconds), so scheduler
  interference between concurrently running fragments does not inflate
  any node's measurement — the simulated max-per-node + network model is
  unchanged by the executor choice.
* ``"sequential"`` is the deterministic fallback: nodes run one after
  another and are wall-clock timed (:func:`time.perf_counter`), exactly
  the pre-threading behaviour.  Use it when profiling per-node work or
  when thread-CPU clocks are unreliable (e.g. under some profilers).

Caveat recorded deliberately: ``thread_time`` counts only the submitting
thread, so per-node kernels that fan out into their *own* thread pools
(multi-threaded BLAS) would be under-counted on the threaded path; the
per-node work the engines submit is single-threaded numpy.

The fragment pool
-----------------

Every threaded phase in the process shares one ``ThreadPoolExecutor`` of
``os.cpu_count()`` workers.  It is created on the first threaded phase,
its idle workers live until the interpreter exits, and a forked child
process starts with no pool and creates its own.  A phase submits one item
per node, so at most ``min(n_nodes, cpu_count)`` of its fragments run at
once; a Lanczos SVD runs several hundred phases, and the pool makes each
one cost a queue hand-off instead of starting and joining threads.  The
pool is not per cluster because one process commonly keeps several
clusters alive, and each would hold its own idle threads.

A fragment that itself calls :meth:`Cluster.run_on_nodes` runs the inner
phase on its own worker thread, node after node, still timed with
``thread_time``: queuing the inner items behind the outer ones on a
pool that the outer phase already fills would wait forever.

Phase accounting is O(1) in history: a phase reads the network model's
running totals, never its transfer log.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster.network import NetworkModel

#: Valid values for :attr:`Cluster.executor`.
EXECUTORS = ("threads", "sequential")

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_worker = threading.local()


def _mark_worker() -> None:
    _worker.in_pool = True


def _make_pool(max_workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=max_workers, initializer=_mark_worker,
                              thread_name_prefix="cluster-fragment")


def _fragment_pool() -> ThreadPoolExecutor:
    """The process-wide fragment pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _make_pool(os.cpu_count() or 1)
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_pool)


def _timed_on_thread(node_id: int, work: Callable[[int], object]) -> tuple[object, float]:
    started = time.thread_time()
    output = work(node_id)
    return output, time.thread_time() - started


@dataclass
class NodeTiming:
    """Accumulated compute seconds for one simulated node."""

    node_id: int
    compute_seconds: float = 0.0


@dataclass
class ParallelRunResult:
    """Result of one parallel phase.

    Attributes:
        outputs: per-node outputs, in node order.
        elapsed_seconds: simulated parallel elapsed time of the phase
            (max per-node compute + network seconds charged during it).
        per_node_seconds: measured compute seconds per node (thread-CPU
            seconds on the threaded executor, wall clock sequentially).
        network_seconds: network seconds charged during the phase.
        wall_seconds: real (non-simulated) wall clock of the whole
            dispatch — what the driver process actually waited.  On the
            threaded executor this approaches the slowest fragment;
            sequentially it is the sum of all fragments.
    """

    outputs: list
    elapsed_seconds: float
    per_node_seconds: list[float]
    network_seconds: float
    wall_seconds: float = 0.0


@dataclass
class Cluster:
    """A fixed-size simulated cluster.

    Attributes:
        n_nodes: number of nodes.
        network: the interconnect model shared by all phases.
        executor: ``"threads"`` (concurrent fragments, per-thread CPU
            timing) or ``"sequential"`` (the deterministic fallback) —
            see the module docstring for the timing semantics.
    """

    n_nodes: int
    network: NetworkModel = field(default_factory=NetworkModel)
    executor: str = "threads"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}; expected one of {EXECUTORS}")
        self.node_timings = [NodeTiming(node_id=i) for i in range(self.n_nodes)]
        self._simulated_elapsed = 0.0

    # -- execution ----------------------------------------------------------------

    def run_on_nodes(self, per_node_work: Sequence[Callable[[int], object]]) -> ParallelRunResult:
        """Run one callable per node "in parallel".

        Args:
            per_node_work: one zero/one-argument callable per node; each is
                invoked with its node id.

        Returns:
            A :class:`ParallelRunResult`; the phase's elapsed time is also
            added to the cluster's running simulated clock.
        """
        if len(per_node_work) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} work items, got {len(per_node_work)}"
            )
        network_before = self.network.total_seconds
        wall_started = time.perf_counter()
        if self.executor == "threads" and self.n_nodes > 1:
            outputs, per_node_seconds = self._run_threaded(per_node_work)
        else:
            outputs, per_node_seconds = self._run_sequential(per_node_work)
        wall_seconds = time.perf_counter() - wall_started
        for node_id, seconds in enumerate(per_node_seconds):
            self.node_timings[node_id].compute_seconds += seconds
        network_seconds = self.network.total_seconds - network_before
        phase_elapsed = (max(per_node_seconds) if per_node_seconds else 0.0) + network_seconds
        self._simulated_elapsed += phase_elapsed
        return ParallelRunResult(
            outputs=outputs,
            elapsed_seconds=phase_elapsed,
            per_node_seconds=per_node_seconds,
            network_seconds=network_seconds,
            wall_seconds=wall_seconds,
        )

    @staticmethod
    def _run_sequential(per_node_work: Sequence[Callable[[int], object]]) -> tuple[list, list[float]]:
        outputs, per_node_seconds = [], []
        for node_id, work in enumerate(per_node_work):
            started = time.perf_counter()
            outputs.append(work(node_id))
            per_node_seconds.append(time.perf_counter() - started)
        return outputs, per_node_seconds

    @staticmethod
    def _run_threaded(per_node_work: Sequence[Callable[[int], object]]) -> tuple[list, list[float]]:
        # Per-node work must not touch shared driver state: the engines'
        # fragments are pure compute over their own partition (network
        # transfers happen between phases, on the driver).  Timing uses the
        # per-thread CPU clock so concurrent fragments do not inflate each
        # other's measurement.  The pool is shared by every phase in the
        # process and outlives them; a phase dispatched from inside a
        # fragment runs on that fragment's worker (see the module notes).
        if getattr(_worker, "in_pool", False):
            paired = [
                _timed_on_thread(node_id, work) for node_id, work in enumerate(per_node_work)
            ]
        else:
            pool = _fragment_pool()
            futures = [
                pool.submit(_timed_on_thread, node_id, work)
                for node_id, work in enumerate(per_node_work)
            ]
            try:
                paired = [future.result() for future in futures]
            except BaseException:
                # No fragment of a failed phase runs on after it: drop the
                # ones not started, wait for the ones running.
                for future in futures:
                    if not future.cancel():
                        future.exception()
                raise
        outputs = [output for output, _seconds in paired]
        per_node_seconds = [seconds for _output, seconds in paired]
        return outputs, per_node_seconds

    def map_partitions(self, partitions: Sequence, function: Callable[[object, int], object]) -> ParallelRunResult:
        """Apply ``function(partition, node_id)`` to each node's partition."""
        if len(partitions) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} partitions, got {len(partitions)}"
            )
        work = [
            (lambda node_id, part=part: function(part, node_id))
            for part in partitions
        ]
        return self.run_on_nodes(work)

    # -- data movement ----------------------------------------------------------------

    def scatter(self, partitions: Sequence, source: int = 0, label: str = "scatter") -> ParallelRunResult:
        """Distribute partitions from a source node to every node.

        The source's own partition is free; the others pay network cost.
        """
        if len(partitions) != self.n_nodes:
            raise ValueError("need one partition per node")
        network_before = self.network.total_seconds
        outputs = []
        for node_id, partition in enumerate(partitions):
            copy, _ = self.network.transfer(partition, source, node_id, label=label)
            outputs.append(copy)
        network_seconds = self.network.total_seconds - network_before
        self._simulated_elapsed += network_seconds
        return ParallelRunResult(
            outputs=outputs,
            elapsed_seconds=network_seconds,
            per_node_seconds=[0.0] * self.n_nodes,
            network_seconds=network_seconds,
        )

    def gather(self, per_node_values: Sequence, destination: int = 0, label: str = "gather") -> ParallelRunResult:
        """Collect one value from every node at the destination node."""
        if len(per_node_values) != self.n_nodes:
            raise ValueError("need one value per node")
        network_before = self.network.total_seconds
        gathered, _ = self.network.gather(
            list(per_node_values), sources=list(range(self.n_nodes)),
            destination=destination, label=label,
        )
        network_seconds = self.network.total_seconds - network_before
        self._simulated_elapsed += network_seconds
        return ParallelRunResult(
            outputs=gathered,
            elapsed_seconds=network_seconds,
            per_node_seconds=[0.0] * self.n_nodes,
            network_seconds=network_seconds,
        )

    # -- accounting ---------------------------------------------------------------------

    @property
    def simulated_elapsed_seconds(self) -> float:
        """Total simulated parallel elapsed time across all phases so far."""
        return self._simulated_elapsed

    def reset_clock(self) -> None:
        """Zero the simulated clock and per-node compute counters."""
        self._simulated_elapsed = 0.0
        self.network.reset()
        for timing in self.node_timings:
            timing.compute_seconds = 0.0
