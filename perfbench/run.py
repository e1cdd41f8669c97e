"""GenBase end-to-end benchmark: one workload, one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload inmem-medium --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work once untraced and once with spans around every layer's public calls,
and prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Earlier lines record the noise controls and a
readable table.  See ``README.md`` in this directory for the workloads and
what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread: multi-threaded BLAS on two shared cores made dense
# kernels' times spread widely.  Must be set before numpy is imported.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from layers import LAYER_METRICS, Tracer  # noqa: E402
from speed import REFERENCE_SECONDS, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: End-to-end metrics: name → (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "cell_geomean_ms": ("ms", "lower"),
    "dm_ms_per_query": ("ms", "lower"),
    "analytics_ms_per_query": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics not read from spans: the tracing overhead (untraced
#: against traced pass) and two write-side figures of the untraced pass.
PASS_METRICS = {
    "trace.overhead_pct": ("%", "lower"),
    "write_p90_ms": ("ms", "lower"),
    "stored_bytes_per_live_byte": ("ratio", "lower"),
}


@dataclass
class Record:
    """One timed operation; times are as measured, ``slowdown`` scales them."""

    cell: str
    started: float
    seconds: float
    write: bool
    error: str
    # The phase split of a read: wall-clock parts, and the simulated
    # seconds a cluster engine added (not scaled by the slowdown).
    dm_seconds: float = 0.0
    analytics_seconds: float = 0.0
    dm_added: float = 0.0
    analytics_added: float = 0.0
    slowdown: float = 1.0


@dataclass
class Pass:
    """One set-up plus its warm-up and timed loop."""

    setup_seconds: list[tuple[float, float]]  # (seconds, slowdown) per set-up
    warm_up_failed: int
    warm_up_ops: int
    records: list[Record]
    probe: SpeedProbe
    state: object


def run_pass(workload, seed: int, seconds: float, setup_repeats: int,
             tracer: Tracer | None = None) -> Pass:
    paused = tracer.pause if tracer else contextlib.nullcontext
    probe = SpeedProbe()
    setup_intervals = []
    for _ in range(setup_repeats):
        state = None
        gc.collect()
        probe.sample()
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_intervals.append((started, time.perf_counter()))
        probe.sample()
    gc.collect()
    with paused():
        warm_up_failed, warm_up_ops = state.warm_up()
    gc.collect()
    records = []
    for _ in range(workload.n_rounds(seconds)):
        for cell in state.cells():
            probe.maybe_sample()
            started = time.perf_counter()
            try:
                outcome = cell.run()
                error = ""
            except Exception as exc:  # a failed operation is counted, not fatal
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            if not error:
                with paused():
                    error = cell.check(outcome)
            records.append(_record(cell, started, elapsed, outcome, error))
    probe.sample()
    for record in records:
        record.slowdown = probe.slowdown(record.started, record.started + record.seconds)
    setup_seconds = [(end - start, probe.slowdown(start, end)) for start, end in setup_intervals]
    return Pass(setup_seconds, warm_up_failed, warm_up_ops, records, probe, state)


def _record(cell, started: float, elapsed: float, outcome, error: str) -> Record:
    record = Record(cell.name, started, elapsed, cell.write, error)
    timer = outcome.timer if outcome is not None else None
    if timer is not None:
        record.dm_added = timer.added_data_management_seconds
        record.analytics_added = timer.added_analytics_seconds
        record.dm_seconds = timer.data_management_seconds - record.dm_added
        record.analytics_seconds = timer.analytics_seconds - record.analytics_added
    elif not cell.write:  # a store read with no analytics stage
        record.dm_seconds = elapsed
    return record


def by_cell(run: Pass) -> dict[str, list[Record]]:
    cells: dict[str, list[Record]] = {}
    for record in run.records:
        cells.setdefault(record.cell, []).append(record)
    return cells


def cell_medians(run: Pass, normalised: bool = True) -> dict[str, float]:
    return {cell: statistics.median(_scaled(r, r.seconds, normalised) for r in records)
            for cell, records in by_cell(run).items()}


def harrell_davis(values, q: float) -> float:
    """The Harrell–Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights.  Where the latencies of different cells leave a gap at the
    quantile (the slow cells' count puts the median right between two
    groups), the plain sample quantile jumps across the gap from run to
    run; this estimate moves smoothly.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_density = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ ordered)


def _scaled(record: Record, seconds: float, normalised: bool) -> float:
    return seconds / record.slowdown if normalised else seconds


def end_to_end_metrics(run: Pass, normalised: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``normalised`` divides every time by its slowdown."""
    records = run.records
    latencies_ms = np.array([_scaled(r, r.seconds, normalised) for r in records]) * 1000.0
    medians_ms = [seconds * 1000.0 for seconds in cell_medians(run, normalised).values()]
    reads = [rs for rs in by_cell(run).values() if not rs[0].write]

    def per_query_ms(phase: str) -> float:
        return statistics.fmean(
            statistics.median(_scaled(r, getattr(r, f"{phase}_seconds"), normalised)
                              + getattr(r, f"{phase}_added") for r in rs) * 1000.0
            for rs in reads)

    return {
        "setup_s": statistics.median(seconds / (slowdown if normalised else 1.0)
                                     for seconds, slowdown in run.setup_seconds),
        "ops_per_s": len(records) / float(np.sum(latencies_ms) / 1000.0),
        "op_p50_ms": harrell_davis(latencies_ms, 0.5),
        "op_p90_ms": harrell_davis(latencies_ms, 0.9),
        "cell_geomean_ms": float(np.exp(np.mean(np.log(medians_ms)))),
        "dm_ms_per_query": per_query_ms("dm"),
        "analytics_ms_per_query": per_query_ms("analytics"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def write_p90_ms(run: Pass) -> float:
    writes = [r.seconds / r.slowdown * 1000.0 for r in run.records if r.write]
    return harrell_davis(writes, 0.9) if writes else 0.0


def environment(workload_name: str, seed: int, seconds: float, n_rounds: int) -> dict:
    """The noise controls this run used, printed before the result."""
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "rounds": n_rounds,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "setup_repeats": SETUP_REPEATS,
        "order": "round-robin over cells (delta-mixed: a seeded order within each round)",
        "warm_up": "one verified, untimed pass over the read cells",
        "gc_collect_after_setup": True,
        "engines_rebuilt_between_queries": False,
        "load": "closed loop, one client",
        "times": f"divided by the speed probe's slowdown (reference {REFERENCE_SECONDS} s)",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds,
                                          workload.n_rounds(args.seconds))))
    if args.trace:
        metrics, units, passes = _traced(workload, args.seed, args.seconds)
    else:
        run = run_pass(workload, args.seed, args.seconds, SETUP_REPEATS)
        metrics = end_to_end_metrics(run)
        units = {name: unit for name, (unit, _better) in END_TO_END.items()}
        passes = [run]
        for name, value in end_to_end_metrics(run, normalised=False).items():
            print(f"measured {name:27s} {value:14.6f} {units[name]}")

    attempted = sum(len(p.records) + p.warm_up_ops for p in passes)
    errors = [r for p in passes for r in p.records if r.error]
    failed = len(errors) + sum(p.warm_up_failed for p in passes)
    for record in errors[:10]:
        print(f"failed {record.cell}: {record.error}")
    for cell, seconds in cell_medians(passes[0]).items():
        print(f"cell {cell:36s} {seconds * 1000.0:12.3f} ms median")
    print(f"ops {sum(len(p.records) for p in passes)}  failed_ops_share "
          f"{failed / attempted:.6f}  median slowdown "
          + " ".join(f"{p.probe.median_slowdown():.3f}" for p in passes))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _traced(workload, seed: int, seconds: float):
    untraced = run_pass(workload, seed, seconds, setup_repeats=1)
    untraced_ops_per_s = end_to_end_metrics(untraced)["ops_per_s"]
    measured = {
        "write_p90_ms": write_p90_ms(untraced),
        "stored_bytes_per_live_byte": untraced.state.stored_bytes_per_live_byte(),
    }
    untraced.state = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, seed, seconds, setup_repeats=1, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_ops_per_s = end_to_end_metrics(traced)["ops_per_s"]
    n_ops = len(traced.records)
    slowdown = traced.probe.median_slowdown()
    metrics = {name: float(value(tracer, n_ops)) / (slowdown if unit == "ms" else 1.0)
               for name, (unit, _better, value) in LAYER_METRICS.items()}
    metrics["trace.overhead_pct"] = (
        100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s)
    metrics.update(measured)
    units = {name: unit for name, (unit, _better, _value) in LAYER_METRICS.items()}
    units.update({name: unit for name, (unit, _better) in PASS_METRICS.items()})
    traced.state = None
    return metrics, units, [untraced, traced]


if __name__ == "__main__":
    sys.exit(main())
