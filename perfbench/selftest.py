"""The benchmark's own tests: its checks can fail and its counts repeat.

Run from the repository root (the file name keeps it out of the tier-1
suite, so name it explicitly)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import run  # sets the BLAS threads and puts src/ on the path first
import numpy as np
import pytest

from layers import LAYER_METRICS, Tracer
from workloads import Cell, DeltaWorkload, GenBaseWorkload, Outcome

TINY = GenBaseWorkload("tiny", (("columnstore-udf", "tiny"), ("postgres-r", "tiny")),
                       n_nodes=1, rounds_per_second=1.0)
TINY_DELTA = DeltaWorkload(size="tiny", rounds_per_second=5.0)

#: Counts a traced run must repeat exactly on one seed.
EXACT_COUNTS = ("plan.optimize_calls", "colstore.synopsis_builds",
                "colstore.delta.compactions", "mapreduce.history_len",
                "cluster.transfer_log_len")


class _Corrupting:
    """A workload whose first operation of ``cell_name`` returns a damaged answer."""

    def __init__(self, workload, cell_name: str, damage):
        self.workload = workload
        self.cell_name = cell_name
        self.damage = damage

    def n_rounds(self, seconds):
        return self.workload.n_rounds(seconds)

    def setup(self, seed):
        state = self.workload.setup(seed)
        original_cells = state.cells
        damaged = []

        def cells():
            out = []
            for cell in original_cells():
                if cell.name == self.cell_name and not damaged:
                    damaged.append(cell)
                    cell = replace(cell, run=lambda c=cell: self.damage(c.run()))
                out.append(cell)
            return out

        state.cells = cells
        return state


def _failures(workload, seconds=2.0) -> list:
    result = run.run_pass(workload, seed=3, seconds=seconds, setup_repeats=1)
    return [r for r in result.records if r.error]


def test_clean_runs_have_no_failures():
    assert _failures(TINY) == []
    assert _failures(TINY_DELTA) == []


def _bump_summary(key):
    def damage(outcome: Outcome) -> Outcome:
        outcome.value.summary[key] += 1
        return outcome
    return damage


def test_corrupted_genbase_answer_counts_as_failed():
    failures = _failures(_Corrupting(TINY, "columnstore-udf/regression",
                                     _bump_summary("n_selected_genes")))
    assert [f.cell for f in failures] == ["columnstore-udf/regression"]


def _scale_covariance(outcome: Outcome) -> Outcome:
    outcome.value.payload["covariance"] = outcome.value.payload["covariance"] * 1.001
    return outcome


def _shift_estimate(outcome: Outcome) -> Outcome:
    answer = outcome.value
    width = answer.ci_high - answer.ci_low
    outcome.value = replace(answer, estimate=answer.estimate + 10 * width,
                            ci_low=answer.ci_low + 10 * width,
                            ci_high=answer.ci_high + 10 * width)
    return outcome


@pytest.mark.parametrize("cell_name, damage", [
    ("q1-regression", _bump_summary("n_patients")),
    ("q2-covariance", _scale_covariance),
    ("q5-statistics", _bump_summary("n_sampled_patients")),
    ("approx-mean", _shift_estimate),
])
def test_corrupted_delta_read_counts_as_failed(cell_name, damage):
    failures = _failures(_Corrupting(TINY_DELTA, cell_name, damage))
    assert [f.cell for f in failures] == [cell_name]


def test_lost_write_counts_as_failed():
    state = TINY_DELTA.setup(3)
    append = state._cells["append-patient"]
    outcome = append.run()
    before, changed, expected = outcome.value
    outcome.value = ((before[0] - 1, before[1]), changed, expected)
    assert append.check(outcome)


class _OneCell:
    """A workload (and its own state) whose every round is one given cell."""

    def __init__(self, cell: Cell):
        self.cell = cell

    def setup(self, seed):
        return self

    def warm_up(self):
        return 0, 0

    def cells(self):
        return [self.cell]

    def n_rounds(self, seconds):
        return 1


def test_failed_operation_is_recorded_not_raised():
    def boom():
        raise RuntimeError("engine fell over")

    result = run.run_pass(_OneCell(Cell("boom", boom, lambda outcome: "")),
                          seed=3, seconds=1, setup_repeats=1)
    assert [r.error for r in result.records] == ["RuntimeError: engine fell over"]


def _traced_counts(workload) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(workload, seed=5, seconds=2.0, setup_repeats=1, tracer=tracer)
    finally:
        tracer.uninstall()
    n_ops = len(result.records)
    return {name: LAYER_METRICS[name][2](tracer, n_ops) for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", [
    TINY_DELTA,
    GenBaseWorkload("tiny-hadoop", (("hadoop", "tiny"),), n_nodes=1, rounds_per_second=1.0),
    GenBaseWorkload("tiny-cluster", (("pbdr", "tiny"),), n_nodes=2, rounds_per_second=1.0),
])
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert any(first.values())


def test_tracer_uninstall_restores_every_binding():
    import repro.core.engines.postgres as postgres
    import repro.relational.bridge as bridge

    original = postgres.run_shared_plan
    tracer = Tracer()
    tracer.install()
    try:
        assert postgres.run_shared_plan is not original
        assert postgres.run_shared_plan is bridge.run_shared_plan
    finally:
        tracer.uninstall()
    assert postgres.run_shared_plan is original is bridge.run_shared_plan


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_names = list(LAYER_METRICS) + list(run.PASS_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    units = {**{n: u for n, (u, _b) in run.END_TO_END.items()},
             **{n: u for n, (u, _b, _v) in LAYER_METRICS.items()},
             **{n: u for n, (u, _b) in run.PASS_METRICS.items()}}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


def test_oracle_pivot_matches_the_dataset_before_any_write():
    state = TINY_DELTA.setup(3)
    micro, _patients = state.oracle()
    matrix, patients, genes = state._pivot(np.ones(len(micro["gene_id"]), dtype=bool))
    assert np.array_equal(matrix, state.dataset.expression_matrix[np.ix_(patients, genes)])
