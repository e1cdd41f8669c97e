"""The benchmark's four workloads: set-up, operations and answer checks.

Every workload is a closed loop with one client: each operation starts only
when the previous one has returned.  A run does a fixed amount of work —
``rounds_per_second * seconds`` rounds — so that two runs on one seed do
the same work even where time per query grows with history (see
``README.md``).  The seed is the only input: it seeds the generated
datasets, the query parameters' sampling, the order of each
``delta-mixed`` round and the rows that workload writes and deletes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.colstore import planner
from repro.core.engines import make_engine
from repro.core.engines.colstore_engine import ColumnStoreUdfEngine
from repro.core.queries import selected_gene_ids, statistics_patient_ids
from repro.core.runner import BenchmarkRunner, QueryResult, RunStatus
from repro.core.spec import QUERY_NAMES, QueryParameters, default_parameters
from repro.core.timing import PhaseTimer
from repro.datagen import GenBaseDataset
from repro.linalg.wilcoxon import enrichment_analysis
from repro.plan import Scan, approx_mean, col


@dataclass
class SplitTimer(PhaseTimer):
    """A :class:`PhaseTimer` that also keeps the seconds engines *add*.

    Cluster engines charge simulated time — per-node CPU seconds plus the
    network model's seconds — through ``add_*``; only the part the ``with``
    blocks time on the wall clock follows the machine's current speed.
    """

    added_data_management_seconds: float = 0.0
    added_analytics_seconds: float = 0.0

    def add_data_management(self, seconds: float) -> None:
        super().add_data_management(seconds)
        self.added_data_management_seconds += seconds

    def add_analytics(self, seconds: float) -> None:
        super().add_analytics(seconds)
        self.added_analytics_seconds += seconds


@dataclass
class Outcome:
    """What one operation returned, handed to its check after the clock stops."""

    value: object
    timer: SplitTimer | None = None


@dataclass
class Cell:
    """One (engine, query) pair, or one operation kind on ``delta-mixed``.

    ``run()`` performs the operation and returns an :class:`Outcome`;
    ``check(outcome)`` returns ``""`` for a correct answer or a reason.
    """

    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str]
    write: bool = False


def _closest_bound(values: np.ndarray, target: int) -> int:
    """The integer ``b`` for which ``count(values < b)`` is closest to ``target``."""
    ordered = np.sort(values)
    bounds = np.unique(ordered) + 1
    counts = np.searchsorted(ordered, bounds, side="left")
    return int(bounds[np.argmin(np.abs(counts - target))])


def fixed_size_parameters(dataset: GenBaseDataset, seed: int) -> QueryParameters:
    """Query parameters whose selections have the same size on every seed.

    The defaults' selectivities hold only in expectation: on ``large`` the
    Q1/Q4 gene filter keeps 117–154 genes depending on the seed, and the
    SVD's cost follows.  Fixing the selected counts (a quarter of the
    genes, a third of the patients for Q2, a seventh for Q3) keeps the
    work of one run the same across seeds while the data still varies.
    """
    spec = dataset.spec
    genes, patients = dataset.genes, dataset.patients
    threshold = _closest_bound(genes.function, round(spec.n_genes / 4))
    ids, counts = np.unique(patients.disease_id, return_counts=True)
    target = round(spec.n_patients / 3)
    subsets: dict[int, tuple[int, ...]] = {0: ()}  # patient count -> diseases
    for disease, count in zip(ids.tolist(), counts.tolist()):
        for total, chosen in list(subsets.items()):
            if total + count <= target:
                subsets.setdefault(total + count, chosen + (disease,))
    males = patients.age[patients.gender == 1]
    return replace(
        default_parameters(spec, seed=seed),
        gene_function_fraction=threshold / spec.n_functions,
        covariance_diseases=frozenset(subsets[max(subsets)]),
        bicluster_gender=1,
        bicluster_max_age=_closest_bound(males, round(spec.n_patients / 7)),
    )


# --------------------------------------------------------------------------- #
# GenBase query workloads
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class GenBaseWorkload:
    """Q1–Q5 on several engines; one round runs every cell once."""

    name: str
    engines: tuple[tuple[str, str], ...]  # (engine, dataset size)
    n_nodes: int
    rounds_per_second: float

    def setup(self, seed: int) -> "GenBaseState":
        datasets = {size: GenBaseDataset.generate(size, seed=seed)
                    for size in sorted({size for _engine, size in self.engines})}
        options = {"n_nodes": self.n_nodes} if self.n_nodes > 1 else {}
        engines = []
        for engine_name, size in self.engines:
            engine = make_engine(engine_name, **options)
            engine.load(datasets[size])
            engines.append(engine)
        return GenBaseState(seed, datasets, engines)

    def n_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.rounds_per_second))


class GenBaseState:
    """Loaded engines plus the verdict cache for their answers."""

    def __init__(self, seed: int, datasets: dict, engines: list):
        self.datasets = datasets
        self.engines = engines
        self.parameters = {size: fixed_size_parameters(ds, seed)
                           for size, ds in datasets.items()}
        self._verdicts: dict[tuple, str] = {}

    def warm_up(self) -> tuple[int, int]:
        """Run every cell once through the verifying runner.

        Returns ``(failed, attempted)``.
        """
        runner = BenchmarkRunner(timeout_seconds=None, verify=True)
        failed = attempted = 0
        for engine in self.engines:
            size = engine.dataset.spec.name
            for query in QUERY_NAMES:
                if engine.capabilities.supports(query):
                    result = runner.run(query, engine, engine.dataset,
                                        parameters=self.parameters[size])
                    failed += result.status is not RunStatus.OK
                    attempted += 1
        return failed, attempted

    def stored_bytes_per_live_byte(self) -> float:
        """Not measured: these workloads never write."""
        return 0.0

    def cells(self) -> list[Cell]:
        """Round-robin order: every engine's Q1, then every engine's Q2, ..."""
        return [self._cell(engine, query)
                for query in QUERY_NAMES for engine in self.engines
                if engine.capabilities.supports(query)]

    def _cell(self, engine, query: str) -> Cell:
        parameters = self.parameters[engine.dataset.spec.name]

        def run() -> Outcome:
            timer = SplitTimer()
            return Outcome(engine.run(query, parameters, timer), timer)

        def check(outcome: Outcome) -> str:
            return self.verify(engine, query, outcome.value)

        return Cell(f"{engine.name}/{query}", run, check)

    def verify(self, engine, query: str, output) -> str:
        """The runner's reference check, computed once per distinct answer.

        ``BenchmarkRunner._verify`` reads only the query, the answer's
        summary, the dataset and the parameters, so one verdict per
        distinct (dataset, query, summary) equals checking every answer.
        """
        size = engine.dataset.spec.name
        key = (size, query, tuple(sorted((k, repr(v)) for k, v in output.summary.items())))
        verdict = self._verdicts.get(key)
        if verdict is None:
            result = QueryResult(engine=engine.name, query=query, dataset_size=size,
                                 status=RunStatus.OK, output=output)
            verdict = BenchmarkRunner._verify(result, engine.dataset,
                                              self.parameters[size])
            self._verdicts[key] = verdict
        return verdict


# --------------------------------------------------------------------------- #
# delta-mixed: reads, approximate reads and whole-patient writes on one store
# --------------------------------------------------------------------------- #

#: One round of the mix, run in a seeded order.  Writes are a sixth of the
#: operations: at 300 microarray rows per patient, the 25 % compaction
#: threshold of the 120,000-row ``medium`` table is crossed once per ~600
#: operations, so compaction cycles several times per run.  Every round
#: holds the same operations, so every seed does the same kinds of work.
DELTA_ROUND = (
    ("q1-regression",) * 2 + ("q2-covariance",) * 2 + ("q5-statistics",) * 2
    + ("approx-mean",) * 4 + ("append-patient", "delete-patient")
)

#: The approximate read: a 5 % sampled mean over the whole microarray.
APPROX_FRACTION = 0.05


@dataclass(frozen=True)
class DeltaWorkload:
    """A seeded read/write mix on the ``medium`` column store."""

    name: str = "delta-mixed"
    size: str = "medium"
    rounds_per_second: float = 8.0

    def setup(self, seed: int) -> "DeltaState":
        dataset = GenBaseDataset.generate(self.size, seed=seed)
        engine = ColumnStoreUdfEngine()
        engine.load(dataset)
        for table in ("microarray", "patients"):
            engine.store.writable(table)
        return DeltaState(seed, dataset, engine)

    def n_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.rounds_per_second))


class DeltaState:
    """The written store, the seeded mix and the numpy oracle."""

    def __init__(self, seed: int, dataset: GenBaseDataset, engine: ColumnStoreUdfEngine):
        self.dataset = dataset
        self.engine = engine
        self.store = engine.store
        self.parameters = fixed_size_parameters(dataset, seed)
        self.rng = np.random.default_rng(seed)
        # Q5's sampled patients are never deleted, so Q5 always has a sample.
        self.protected = set(statistics_patient_ids(dataset, self.parameters).tolist())
        self.live_patients = [int(p) for p in dataset.patients.patient_id]
        self.next_patient = int(dataset.patients.patient_id.max()) + 1
        self._oracle_key: tuple | None = None
        self._oracle: tuple[dict, dict] | None = None
        cells = {
            "q1-regression": Cell("q1-regression", self._query("regression"), self._check_q1),
            "q2-covariance": Cell("q2-covariance", self._query("covariance"), self._check_q2),
            "q5-statistics": Cell("q5-statistics", self._query("statistics"), self._check_q5),
            "approx-mean": Cell("approx-mean", self._approx_mean, self._check_approx),
            "append-patient": Cell("append-patient", self._append, self._check_write, True),
            "delete-patient": Cell("delete-patient", self._delete, self._check_write, True),
        }
        self._cells = cells
        self._order_rng = np.random.default_rng([seed, 1])

    def warm_up(self) -> tuple[int, int]:
        """Run each read kind once, checked; returns ``(failed, attempted)``."""
        reads = ("q1-regression", "q2-covariance", "q5-statistics", "approx-mean")
        failed = sum(bool(self._cells[kind].check(self._cells[kind].run())) for kind in reads)
        return failed, len(reads)

    def cells(self) -> list[Cell]:
        """One round: the operations of :data:`DELTA_ROUND` in a seeded order."""
        return [self._cells[DELTA_ROUND[int(i)]]
                for i in self._order_rng.permutation(len(DELTA_ROUND))]

    # -- operations ---------------------------------------------------------------

    def _query(self, query: str):
        def run() -> Outcome:
            timer = SplitTimer()
            return Outcome(self.engine.run(query, self.parameters, timer), timer)
        return run

    def _approx_mean(self) -> Outcome:
        plan = approx_mean(Scan("microarray"), "expression_value",
                           fraction=APPROX_FRACTION, seed=0)
        return Outcome(planner.run_plan(plan, self.store))

    def _append(self) -> Outcome:
        spec = self.dataset.spec
        patient = self.next_patient
        self.next_patient += 1
        genes = self.dataset.genes.gene_id.astype(np.int64)
        rng = self.rng
        before = self._live_rows()
        self.store.append("microarray", {
            "gene_id": genes,
            "patient_id": np.full(len(genes), patient, dtype=np.int64),
            "expression_value": rng.normal(size=len(genes)),
        })
        self.store.append("patients", {
            "patient_id": np.array([patient], dtype=np.int64),
            "age": rng.integers(18, 95, size=1),
            "gender": rng.integers(0, 2, size=1),
            "zipcode": rng.integers(1000, 99999, size=1),
            "disease_id": rng.integers(1, spec.n_diseases + 1, size=1),
            "drug_response": rng.normal(size=1),
        })
        self._compact()
        self.live_patients.append(patient)
        return Outcome((before, (len(genes), 1), (len(genes), 1)))

    def _delete(self) -> Outcome:
        candidates = [p for p in self.live_patients if p not in self.protected]
        patient = candidates[int(self.rng.integers(len(candidates)))]
        before = self._live_rows()
        deleted = (self.store.delete_where("microarray", col("patient_id") == patient),
                   self.store.delete_where("patients", col("patient_id") == patient))
        self._compact()
        self.live_patients.remove(patient)
        return Outcome((before, (-deleted[0], -deleted[1]),
                        (-len(self.dataset.genes.gene_id), -1)))

    def _compact(self) -> None:
        for table in ("microarray", "patients"):
            self.store.writable(table).maybe_compact()

    def _live_rows(self) -> tuple[int, int]:
        return (self.store.live_row_count("microarray"),
                self.store.live_row_count("patients"))

    # -- checks: a numpy oracle over the snapshots' logical arrays ------------------

    def oracle(self) -> tuple[dict, dict]:
        key = (self.store.store_version("microarray"), self.store.store_version("patients"))
        if key != self._oracle_key:
            self._oracle = (self.store.snapshot("microarray").logical_arrays(),
                            self.store.snapshot("patients").logical_arrays())
            self._oracle_key = key
        return self._oracle

    def _pivot(self, keep_rows: np.ndarray):
        micro, _patients = self.oracle()
        patient = micro["patient_id"][keep_rows]
        gene = micro["gene_id"][keep_rows]
        patients, row = np.unique(patient, return_inverse=True)
        genes, column = np.unique(gene, return_inverse=True)
        matrix = np.zeros((len(patients), len(genes)))
        matrix[row, column] = micro["expression_value"][keep_rows]
        return matrix, patients, genes

    def _check_q1(self, outcome: Outcome) -> str:
        micro, patients = self.oracle()
        genes = selected_gene_ids(self.dataset, self.parameters)
        matrix, patient_ids, gene_ids = self._pivot(np.isin(micro["gene_id"], genes))
        order = np.argsort(patients["patient_id"])
        at = order[np.searchsorted(patients["patient_id"], patient_ids, sorter=order)]
        response = patients["drug_response"][at]
        design = np.column_stack([np.ones(len(matrix)), matrix])
        fitted = design @ np.linalg.lstsq(design, response, rcond=None)[0]
        r_squared = 1.0 - np.sum((response - fitted) ** 2) / np.sum((response - response.mean()) ** 2)
        return _compare(outcome.value.summary, {
            "n_selected_genes": len(gene_ids), "n_patients": len(patient_ids),
        }, {"r_squared": r_squared})

    def _check_q2(self, outcome: Outcome) -> str:
        micro, patients = self.oracle()
        diseases = np.asarray(sorted(self.parameters.covariance_diseases))
        chosen = patients["patient_id"][np.isin(patients["disease_id"], diseases)]
        matrix, patient_ids, _genes = self._pivot(np.isin(micro["patient_id"], chosen))
        expected = np.cov(matrix, rowvar=False)
        got = outcome.value.payload["covariance"]
        if got.shape != expected.shape or not np.allclose(got, expected, rtol=1e-9, atol=1e-12):
            return "q2 covariance differs from the oracle"
        return _compare(outcome.value.summary, {"n_selected_patients": len(patient_ids)}, {})

    def _check_q5(self, outcome: Outcome) -> str:
        micro, _patients = self.oracle()
        sampled = np.array(sorted(self.protected))
        matrix, patient_ids, gene_ids = self._pivot(np.isin(micro["patient_id"], sampled))
        expected = enrichment_analysis(matrix.mean(axis=0),
                                       self.dataset.ontology.membership[gene_ids],
                                       alpha=self.parameters.statistics_alpha)
        got = outcome.value.payload
        if not np.allclose(got.p_values, expected.p_values, rtol=1e-9, atol=1e-12):
            return "q5 p-values differ from the oracle"
        return _compare(outcome.value.summary, {
            "n_sampled_patients": len(patient_ids), "n_terms": len(expected.go_ids),
        }, {})

    def _check_approx(self, outcome: Outcome) -> str:
        micro, _patients = self.oracle()
        exact = float(micro["expression_value"].mean())
        answer = outcome.value
        width = answer.ci_high - answer.ci_low
        if not answer.ci_low <= answer.estimate <= answer.ci_high:
            return "approx estimate outside its own interval"
        # The 95 % interval misses the exact mean 5 % of the time; three
        # interval widths (about 12 standard errors) never should.
        if abs(answer.estimate - exact) > 3 * width:
            return f"approx estimate {answer.estimate} too far from exact {exact}"
        return ""

    def _check_write(self, outcome: Outcome) -> str:
        before, changed, expected_change = outcome.value
        after = self._live_rows()
        expected = tuple(b + d for b, d in zip(before, expected_change))
        if changed != expected_change or after != expected:
            return f"live rows {after} after changing {changed}, expected {expected}"
        return ""

    def stored_bytes_per_live_byte(self) -> float:
        """Encoded bytes held over plain bytes of the live rows, all tables."""
        stored = plain = 0
        for name in self.store.table_names():
            table = self.store.effective_table(name)
            stored += table.compressed_bytes
            width = sum(table.column(c).dtype.itemsize for c in table.column_names)
            plain += self.store.live_row_count(name) * width
        return stored / plain


def _compare(summary: dict, exact: dict, approximate: dict) -> str:
    for key, expected in exact.items():
        if summary.get(key) != expected:
            return f"{key}: got {summary.get(key)!r}, oracle {expected!r}"
    for key, expected in approximate.items():
        got = summary.get(key)
        if got is None or abs(got - expected) > 1e-6 * max(1.0, abs(expected)):
            return f"{key}: got {got!r}, oracle {expected!r}"
    return ""


WORKLOADS = {
    "inmem-medium": GenBaseWorkload(
        "inmem-medium",
        (("columnstore-udf", "medium"), ("columnstore-r", "medium"),
         ("scidb", "medium"), ("vanilla-r", "medium")),
        n_nodes=1, rounds_per_second=1.6),
    "tuple-small": GenBaseWorkload(
        "tuple-small",
        (("postgres-madlib", "small"), ("postgres-r", "small"), ("hadoop", "tiny")),
        n_nodes=1, rounds_per_second=1.0),
    "cluster-large": GenBaseWorkload(
        "cluster-large",
        (("scidb-cluster", "large"), ("columnstore-udf-cluster", "large"),
         ("pbdr", "large"), ("columnstore-pbdr", "large")),
        n_nodes=4, rounds_per_second=0.4),
    "delta-mixed": DeltaWorkload(),
}
