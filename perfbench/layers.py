"""Per-layer tracing for the benchmark: spans around each layer's public calls.

The tracer wraps functions *where callers look them up*: engines bind
``run_shared_plan`` / ``run_plan`` / kernels with ``from ... import``, so a
module-level function is replaced in every loaded ``repro`` module whose
namespace holds it, and a method is replaced on its defining class.
:meth:`Tracer.uninstall` puts every original back.

Each span records its self time: its duration minus the time of the spans it
opened (its children).  The stack of open spans is per thread; spans opened
on the cluster executor's worker threads are roots there, so their time also
lies inside the calling thread's ``cluster.run_on_nodes`` span.  Counts (bytes,
jobs, transfers, skipped chunks) are taken at the same boundaries from the
call's arguments, result or receiver.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One traced callable: ``owner.attr`` opens a span called ``span``.

    ``probe(args, kwargs)`` runs before the call and its value is handed to
    ``after(tracer, args, kwargs, result, seconds, probed)``, which records
    counts.  A call made while the innermost open span is ``skip_under`` is
    not traced (its time stays with that span).
    """

    owner: str
    attr: str
    span: str
    probe: Callable | None = None
    after: Callable | None = None
    skip_under: str | None = None


def _stats_probe(args, kwargs):
    stats = kwargs.get("stats")
    return None if stats is None else (stats, dict(vars(stats)))


def _stats_after(skipped: str, scanned: str, prefix: str):
    def after(tracer, _args, _kwargs, _result, _seconds, probed):
        if probed is None:
            return
        stats, before = probed
        tracer.count(f"{prefix}_skipped", getattr(stats, skipped) - before[skipped])
        tracer.count(f"{prefix}_scanned", getattr(stats, scanned) - before[scanned])
    return after


def _udf_after(tracer, args, _kwargs, _result, _seconds, _probed):
    tracer.count("colstore.udf_bytes_marshalled", args[0].calls[-1].bytes_marshalled)


def _csv_after(tracer, _args, _kwargs, result, _seconds, _probed):
    tracer.count("rlang.csv_bytes", len(result))


def _compact_after(tracer, args, _kwargs, _result, _seconds, _probed):
    tracer.count("colstore.delta.compactions", 1)
    tracer.count("colstore.delta.rows_rewritten", args[0].sealed_table.row_count)


def _len_probe(args, _kwargs):
    return len(args[0])


def _synopsis_after(tracer, args, _kwargs, _result, seconds, before):
    if len(args[0]) > before:
        tracer.count("colstore.synopsis_builds", 1)
        tracer.count("colstore.synopsis_build_ms", seconds * 1000.0)
    else:
        tracer.count("colstore.synopsis_hits", 1)


def _job_after(tracer, args, _kwargs, _result, _seconds, _probed):
    engine = args[0]
    tracer.count("mapreduce.shuffle_bytes", engine.history[-1].counters.shuffle_bytes)
    tracer.track_length("mapreduce.history_len", engine, len(engine.history))


def _run_on_nodes_after(tracer, _args, _kwargs, result, _seconds, _probed):
    tracer.count("cluster.node_cpu_ms", sum(result.per_node_seconds) * 1000.0)


def _transfer_probe(args, _kwargs):
    return len(args[0].transfers)


def _transfer_after(tracer, args, _kwargs, _result, _seconds, before):
    network = args[0]
    if len(network.transfers) > before:
        tracer.count("cluster.transfers", 1)
        tracer.count("cluster.transfer_bytes", network.transfers[-1].n_bytes)
    tracer.track_length("cluster.transfer_log_len", network, len(network.transfers))


_ARRAY_STATS = _stats_after("chunks_skipped", "chunks_scanned", "arraydb.chunks")
_CLUSTER_STATS = _stats_after("partitions_skipped", "partitions_scanned",
                              "cluster.partitions")

#: Every traced boundary, layer by layer.  Several kernels of one kind share
#: a span name: ``linalg.lanczos`` covers every SVD kernel (Lanczos, the
#: dense truncated SVD, Madlib's power iteration), ``linalg.qr_regression``
#: every least-squares fit, and so on.
HOOKS: tuple[Hook, ...] = (
    Hook("repro.datagen.dataset:GenBaseDataset", "generate", "datagen.generate"),
    Hook("repro.core.engines.base:Engine", "load", "core.load"),
    Hook("repro.plan.optimizer", "optimize", "plan.optimize"),
    Hook("repro.colstore.planner", "run_plan", "colstore.run_plan"),
    Hook("repro.colstore.udf:UdfHost", "call", "colstore.udf", after=_udf_after),
    Hook("repro.colstore.delta:DeltaStore", "append", "colstore.delta.append"),
    Hook("repro.colstore.delta:DeltaStore", "delete", "colstore.delta.delete"),
    Hook("repro.colstore.delta:DeltaStore", "delete_where", "colstore.delta.delete"),
    Hook("repro.colstore.delta:DeltaStore", "compact", "colstore.delta.compact",
         after=_compact_after),
    Hook("repro.colstore.synopsis:SynopsisCatalog", "uniform", "colstore.synopsis",
         probe=_len_probe, after=_synopsis_after),
    Hook("repro.colstore.synopsis:SynopsisCatalog", "stratified", "colstore.synopsis",
         probe=_len_probe, after=_synopsis_after),
    Hook("repro.rlang.bridge", "run_shared_plan", "rlang.run_shared_plan"),
    Hook("repro.rlang.io", "dataframe_to_csv_string", "rlang.csv_export",
         after=_csv_after),
    Hook("repro.rlang.io", "dataframe_from_csv_string", "rlang.csv_import"),
    Hook("repro.relational.bridge", "run_shared_plan", "relational.run_shared_plan"),
    Hook("repro.relational.udf:UdfRegistry", "call", "relational.udf",
         skip_under="colstore.udf"),
    Hook("repro.arraydb.bridge", "run_shared_plan", "arraydb.run_shared_plan",
         probe=_stats_probe, after=_ARRAY_STATS),
    Hook("repro.mapreduce.engine:MapReduceEngine", "run", "mapreduce.job",
         after=_job_after),
    Hook("repro.cluster.bridge", "run_shared_plan", "cluster.run_shared_plan",
         probe=_stats_probe, after=_CLUSTER_STATS),
    Hook("repro.cluster.cluster:Cluster", "run_on_nodes", "cluster.run_on_nodes",
         after=_run_on_nodes_after),
    Hook("repro.cluster.network:NetworkModel", "transfer", "cluster.transfer",
         probe=_transfer_probe, after=_transfer_after),
    *(Hook("repro.cluster.scalapack:ScaLAPACK", name, "cluster.scalapack")
      for name in ("column_means", "covariance", "linear_regression", "matvec",
                   "lanczos_svd", "gemm")),
    Hook("repro.linalg.lanczos", "lanczos_svd", "linalg.lanczos"),
    Hook("repro.linalg.lanczos", "lanczos_eigsh", "linalg.lanczos"),
    Hook("repro.linalg.blas", "truncated_svd", "linalg.lanczos"),
    Hook("repro.linalg.naive", "power_iteration_svd", "linalg.lanczos"),
    Hook("repro.linalg.qr", "linear_regression", "linalg.qr_regression"),
    Hook("repro.linalg.blas", "linear_regression", "linalg.qr_regression"),
    Hook("repro.linalg.naive", "linear_regression", "linalg.qr_regression"),
    Hook("repro.linalg.biclustering", "cheng_church", "linalg.biclustering"),
    Hook("repro.linalg.covariance", "covariance_matrix", "linalg.covariance"),
    Hook("repro.linalg.covariance", "top_covariant_pairs", "linalg.covariance"),
    Hook("repro.linalg.blas", "covariance_matrix", "linalg.covariance"),
    Hook("repro.linalg.naive", "covariance_matrix", "linalg.covariance"),
    Hook("repro.linalg.wilcoxon", "enrichment_analysis", "linalg.wilcoxon"),
    Hook("repro.linalg.wilcoxon", "rank_sum_test", "linalg.wilcoxon"),
    Hook("repro.linalg.naive", "wilcoxon_rank_sum", "linalg.wilcoxon"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Collects span self times and boundary counts while installed."""

    def __init__(self):
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._lengths: dict[str, dict[int, int]] = defaultdict(dict)
        self._keep: list = []  # receivers of tracked lengths (ids stay unique)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.paused = False

    # -- recording ---------------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def track_length(self, name: str, owner, length: int) -> None:
        """Record the latest length of a log owned by ``owner``."""
        with self._lock:
            if id(owner) not in self._lengths[name]:
                self._keep.append(owner)
            self._lengths[name][id(owner)] = length

    def total_length(self, name: str) -> int:
        """Sum of the latest tracked lengths over every owner."""
        return sum(self._lengths[name].values())

    @contextmanager
    def pause(self):
        """Run a block untraced (warm-up and answer checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function: Callable, hook: Hook) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if tracer.paused or (hook.skip_under and stack and stack[-1][0] == hook.skip_under):
                return function(*args, **kwargs)
            probed = hook.probe(args, kwargs) if hook.probe else None
            frame = [hook.span, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                with tracer._lock:
                    tracer.self_ms[hook.span] += (seconds - frame[1]) * 1000.0
                    tracer.calls[hook.span] += 1
            if hook.after:
                hook.after(tracer, args, kwargs, result, seconds, probed)
            return result

        traced.traced_span = hook.span
        return traced

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        for hook in HOOKS:
            owner = _resolve(hook.owner)
            if isinstance(owner, type):
                raw = owner.__dict__[hook.attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(raw.__func__, hook))
                else:
                    replacement = self.wrap(raw, hook)
                setattr(owner, hook.attr, replacement)
                self._undo.append((owner, hook.attr, raw))
                continue
            original = getattr(owner, hook.attr)
            if hasattr(original, "traced_span"):
                continue  # the same function object, already wrapped under another name
            traced = self.wrap(original, hook)
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: The per-layer metrics a traced run reports: name → (unit, better, value).
#: ``value(tracer, n_ops)`` reads the tracer after the traced pass; every
#: ``_ms`` metric is span self time summed over the pass.
LAYER_METRICS: dict[str, tuple[str, str, Callable]] = {
    "datagen.generate_ms": ("ms", "lower", lambda t, n: t.self_ms["datagen.generate"]),
    "core.load_ms": ("ms", "lower", lambda t, n: t.self_ms["core.load"]),
    "plan.optimize_calls": ("count/op", "lower", lambda t, n: t.calls["plan.optimize"] / n),
    "plan.optimize_ms": ("ms", "lower", lambda t, n: t.self_ms["plan.optimize"]),
    "colstore.run_plan_calls": ("count", "lower", lambda t, n: t.calls["colstore.run_plan"]),
    "colstore.run_plan_ms": ("ms", "lower", lambda t, n: t.self_ms["colstore.run_plan"]),
    "colstore.udf_calls": ("count", "lower", lambda t, n: t.calls["colstore.udf"]),
    "colstore.udf_bytes_marshalled": (
        "bytes", "lower", lambda t, n: t.counts["colstore.udf_bytes_marshalled"]),
    "colstore.delta.append_ms": ("ms", "lower", lambda t, n: t.self_ms["colstore.delta.append"]),
    "colstore.delta.delete_ms": ("ms", "lower", lambda t, n: t.self_ms["colstore.delta.delete"]),
    "colstore.delta.compact_ms": (
        "ms", "lower", lambda t, n: t.self_ms["colstore.delta.compact"]),
    "colstore.delta.compactions": (
        "count", "lower", lambda t, n: t.counts["colstore.delta.compactions"]),
    "colstore.delta.rows_rewritten": (
        "count", "lower", lambda t, n: t.counts["colstore.delta.rows_rewritten"]),
    "colstore.synopsis_builds": (
        "count", "lower", lambda t, n: t.counts["colstore.synopsis_builds"]),
    "colstore.synopsis_hit_ratio": ("ratio", "higher", lambda t, n: _ratio(
        t.counts["colstore.synopsis_hits"],
        t.counts["colstore.synopsis_hits"] + t.counts["colstore.synopsis_builds"])),
    "colstore.synopsis_build_ms": (
        "ms", "lower", lambda t, n: t.counts["colstore.synopsis_build_ms"]),
    "rlang.run_shared_plan_ms": ("ms", "lower", lambda t, n: t.self_ms["rlang.run_shared_plan"]),
    "rlang.csv_export_ms": ("ms", "lower", lambda t, n: t.self_ms["rlang.csv_export"]),
    "rlang.csv_import_ms": ("ms", "lower", lambda t, n: t.self_ms["rlang.csv_import"]),
    "rlang.csv_bytes": ("bytes", "lower", lambda t, n: t.counts["rlang.csv_bytes"]),
    "relational.run_shared_plan_calls": (
        "count", "lower", lambda t, n: t.calls["relational.run_shared_plan"]),
    "relational.run_shared_plan_ms": (
        "ms", "lower", lambda t, n: t.self_ms["relational.run_shared_plan"]),
    "relational.udf_ms": ("ms", "lower", lambda t, n: t.self_ms["relational.udf"]),
    "arraydb.run_shared_plan_ms": (
        "ms", "lower", lambda t, n: t.self_ms["arraydb.run_shared_plan"]),
    "arraydb.chunks_skipped_ratio": ("ratio", "higher", lambda t, n: _ratio(
        t.counts["arraydb.chunks_skipped"],
        t.counts["arraydb.chunks_skipped"] + t.counts["arraydb.chunks_scanned"])),
    "mapreduce.job_ms": ("ms", "lower", lambda t, n: t.self_ms["mapreduce.job"]),
    "mapreduce.jobs_run": ("count", "lower", lambda t, n: t.calls["mapreduce.job"]),
    "mapreduce.shuffle_bytes": ("bytes", "lower", lambda t, n: t.counts["mapreduce.shuffle_bytes"]),
    "mapreduce.history_len": (
        "count", "lower", lambda t, n: t.total_length("mapreduce.history_len")),
    "cluster.run_shared_plan_ms": (
        "ms", "lower", lambda t, n: t.self_ms["cluster.run_shared_plan"]),
    "cluster.partitions_skipped_ratio": ("ratio", "higher", lambda t, n: _ratio(
        t.counts["cluster.partitions_skipped"],
        t.counts["cluster.partitions_skipped"] + t.counts["cluster.partitions_scanned"])),
    "cluster.run_on_nodes_calls": ("count", "lower", lambda t, n: t.calls["cluster.run_on_nodes"]),
    "cluster.run_on_nodes_ms": ("ms", "lower", lambda t, n: t.self_ms["cluster.run_on_nodes"]),
    "cluster.node_cpu_ms": ("ms", "lower", lambda t, n: t.counts["cluster.node_cpu_ms"]),
    "cluster.transfers": ("count", "lower", lambda t, n: t.counts["cluster.transfers"]),
    "cluster.transfer_bytes": ("bytes", "lower", lambda t, n: t.counts["cluster.transfer_bytes"]),
    "cluster.transfer_ms": ("ms", "lower", lambda t, n: t.self_ms["cluster.transfer"]),
    "cluster.transfer_log_len": (
        "count", "lower", lambda t, n: t.total_length("cluster.transfer_log_len")),
    "cluster.scalapack_ms": ("ms", "lower", lambda t, n: t.self_ms["cluster.scalapack"]),
    "linalg.lanczos_ms": ("ms", "lower", lambda t, n: t.self_ms["linalg.lanczos"]),
    "linalg.qr_regression_ms": ("ms", "lower", lambda t, n: t.self_ms["linalg.qr_regression"]),
    "linalg.biclustering_ms": ("ms", "lower", lambda t, n: t.self_ms["linalg.biclustering"]),
    "linalg.covariance_ms": ("ms", "lower", lambda t, n: t.self_ms["linalg.covariance"]),
    "linalg.wilcoxon_ms": ("ms", "lower", lambda t, n: t.self_ms["linalg.wilcoxon"]),
}
