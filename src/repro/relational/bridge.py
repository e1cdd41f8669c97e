"""Execute shared logical plans (:mod:`repro.plan`) on the row store.

The column store runs shared plans through
:func:`repro.colstore.planner.run_plan`; this module is the row-store
counterpart, so one plan object — built once per GenBase query in
:mod:`repro.core.queries` — drives both architectures.  It is also the
only way a row-store query runs: the fluent
:class:`~repro.relational.query.Query` builder emits the same shared nodes
and executes through :func:`run_shared_plan`.

Planning happens once, in the *shared* optimizer, against a
:class:`RelationalPlanCatalog` (schemas plus row counts — the row store
keeps no per-column statistics): it pushes single-side total predicates
below joins, prunes projections through them and annotates each join's
build side.  Lowering is then a one-to-one structural translation onto the
Volcano operators of :mod:`repro.relational.operators`:

* Scan → :class:`~repro.relational.operators.SeqScan`, Filter →
  :class:`~repro.relational.operators.Filter`, Project →
  :class:`~repro.relational.operators.Project`;
* Join → :class:`~repro.relational.operators.HashJoin` built on the
  annotated ``build_side`` (``"auto"`` builds on the left input, as
  written) plus one positional ``Project`` to the shared output convention
  — left columns, then right columns minus the right key, a non-key name
  collision on the right suffixed ``_right``;
* the terminals return the same shapes as the column-store executor:
  ``Aggregate`` → :class:`~repro.relational.operators.HashAggregate` +
  :class:`~repro.relational.operators.Sort`, ``(group_keys, aggregates)``
  sorted by key with NaN keys forming one group sorted last; ``Pivot`` →
  ``(matrix, row_labels, column_labels)``.

One deliberate difference from the column store: the relational ``Pivot``
labels rows/columns in first-seen order (the streaming Volcano convention
of :meth:`QueryResultSet.pivot`), not sorted order.  GenBase consumers
align through the returned labels, so both conventions are equivalent
downstream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.plan import logical
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import ColumnStats, PlanCatalog, optimize
from repro.plan.verify import maybe_verify_rewrite
from repro.relational import operators as ops
from repro.relational.schema import ColumnType, Schema

if TYPE_CHECKING:
    from repro.relational.catalog import Database

#: Shared Aggregate function names → relational HashAggregate names.
_AGGREGATE_NAMES = {"mean": "avg"}

#: Row-store column types → the numpy dtypes their values materialise as.
_COLUMN_DTYPES = {
    ColumnType.INT: np.dtype(np.int64),
    ColumnType.FLOAT: np.dtype(np.float64),
    ColumnType.STRING: np.dtype(str),
    ColumnType.BOOL: np.dtype(np.bool_),
}


class RelationalPlanCatalog(PlanCatalog):
    """Expose a row-store :class:`Database`'s schemas to the shared optimizer.

    The row store keeps no per-column statistics, so ``stats_of`` answers
    with the table's row count only — enough for the join build-side rule
    to compare post-filter cardinality estimates, while selectivity falls
    back to the structural (shape-based) defaults.
    """

    def __init__(self, db: "Database"):
        self.db = db

    def columns_of(self, table: str) -> list[str] | None:
        if table not in self.db:
            return None
        return list(self.db.table(table).schema.names)

    def stats_of(self, table: str, column: str) -> ColumnStats | None:
        if table not in self.db:
            return None
        schema = self.db.table(table).schema
        if not schema.has_column(column):
            return None
        return ColumnStats(row_count=self.db.table(table).row_count)

    def dtype_of(self, table: str, column: str) -> np.dtype | None:
        if table not in self.db:
            return None
        schema = self.db.table(table).schema
        if not schema.has_column(column):
            return None
        return _COLUMN_DTYPES[schema.type_of(column)]


class QueryResultSet:
    """Materialised query output: schema + row tuples."""

    def __init__(self, schema: Schema, rows: list[tuple]):
        self.schema = schema
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    @property
    def rows(self) -> list[tuple]:
        return self._rows

    def column(self, name: str) -> list:
        """Extract one output column as a Python list."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows]

    def to_array(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """Convert (a projection of) the result to a float numpy array.

        This is the "restructure the information as a matrix" step the
        GenBase queries call for when the engine is relational.
        """
        if columns is None:
            columns = list(self.schema.names)
        indices = [self.schema.index_of(name) for name in columns]
        if not self._rows:
            return np.empty((0, len(indices)))
        return np.asarray(
            [[row[i] for i in indices] for row in self._rows], dtype=np.float64
        )

    def pivot(self, row_key: str, column_key: str, value: str) -> tuple[np.ndarray, list, list]:
        """Pivot a long-format result into a dense matrix.

        Args:
            row_key: column whose distinct values index matrix rows.
            column_key: column whose distinct values index matrix columns.
            value: column providing cell values.

        Returns:
            ``(matrix, row_labels, column_labels)`` with labels in first-seen
            order (all NaN labels of a FLOAT key are one label); missing
            combinations are filled with 0.0.
        """
        row_index = self.schema.index_of(row_key)
        column_index = self.schema.index_of(column_key)
        value_index = self.schema.index_of(value)
        row_float = self.schema.type_of(row_key) is ColumnType.FLOAT
        column_float = self.schema.type_of(column_key) is ColumnType.FLOAT

        row_labels: dict[object, int] = {}
        column_labels: dict[object, int] = {}
        triples = []
        for row in self._rows:
            r = row[row_index]
            c = row[column_index]
            if row_float and r != r:
                r = ops.NAN
            if column_float and c != c:
                c = ops.NAN
            if r not in row_labels:
                row_labels[r] = len(row_labels)
            if c not in column_labels:
                column_labels[c] = len(column_labels)
            triples.append((row_labels[r], column_labels[c], row[value_index]))

        matrix = np.zeros((len(row_labels), len(column_labels)), dtype=np.float64)
        for r, c, v in triples:
            matrix[r, c] = v
        return matrix, list(row_labels), list(column_labels)


def optimize_shared_plan(plan: logical.PlanNode, db: "Database") -> logical.PlanNode:
    """Run the shared optimizer with the database's schemas and row counts."""
    return optimize(plan, RelationalPlanCatalog(db))


def lower_shared_plan(plan: logical.PlanNode, db: "Database") -> ops.Operator:
    """Lower a relational-algebra shared plan onto the Volcano operators.

    Accepts Scan / Filter / Project / Join subtrees (terminals are handled
    by :func:`run_shared_plan`).  Lowering is a pure structural
    translation: every shared node becomes its operator, in place, so an
    unoptimized plan runs exactly as written.
    """
    if isinstance(plan, logical.Scan):
        return ops.SeqScan(db.table(plan.table))
    if isinstance(plan, logical.Filter):
        return ops.Filter(lower_shared_plan(plan.child, db), plan.predicate)
    if isinstance(plan, logical.Project):
        return ops.Project(lower_shared_plan(plan.child, db), plan.columns)
    if isinstance(plan, logical.Join):
        return _lower_join(plan, lower_shared_plan(plan.left, db),
                           lower_shared_plan(plan.right, db))
    raise TypeError(
        f"cannot lower plan node {type(plan).__name__} onto the row store"
    )


def _lower_join(plan: logical.Join, left: ops.Operator, right: ops.Operator) -> ops.Operator:
    """HashJoin on the annotated build side, projected to the shared columns."""
    left_schema, right_schema = left.output_schema, right.output_schema
    kept = [i for i, name in enumerate(right_schema.names) if name != plan.right_key]
    shared = left_schema.concat(Schema([right_schema.columns[i] for i in kept]))
    n_left, n_right = len(left_schema), len(right_schema)
    if plan.build_side == "right":
        joined = ops.HashJoin(right, left, plan.right_key, plan.left_key)
        indices = [n_right + i for i in range(n_left)] + kept
    else:
        joined = ops.HashJoin(left, right, plan.left_key, plan.right_key)
        indices = list(range(n_left)) + [n_left + i for i in kept]
    return ops.Project(joined, shared.names, indices=indices)


def run_shared_plan(plan: logical.PlanNode, db: "Database", optimized: bool = True,
                    observation: PlanObservation | None = None):
    """Execute a shared logical plan against the row store.

    Relational-algebra plans return a materialised :class:`QueryResultSet`;
    :class:`~repro.plan.logical.Aggregate` returns ``(group_keys,
    aggregates)`` as numpy arrays sorted by key (the shared contract);
    :class:`~repro.plan.logical.Pivot` returns ``(matrix, row_labels,
    column_labels)`` with labels in first-seen row order.

    Args:
        plan: the shared logical plan tree.
        db: the row-store database holding the scanned tables.
        optimized: run the shared optimizer first (pass False to execute the
            plan exactly as written — the equivalence tests compare both).
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality.

    With the ``REPRO_VERIFY_PLANS`` debug flag set, the optimizer rewrite
    is checked by the static verifier (:mod:`repro.plan.verify`).
    """
    if optimized:
        written = plan
        plan = optimize_shared_plan(plan, db)
        maybe_verify_rewrite(written, plan, RelationalPlanCatalog(db))
    if observation is not None:
        observation.engine = "postgres"
    if isinstance(plan, logical.Aggregate):
        function = _AGGREGATE_NAMES.get(plan.function, plan.function)
        value = "*" if plan.function == "count" else plan.value
        aggregated = ops.HashAggregate(
            lower_shared_plan(plan.child, db), [plan.group_by],
            [(function, value, "agg")],
        )
        rows = list(ops.Sort(aggregated, [plan.group_by]))
        keys = np.asarray([row[0] for row in rows])
        aggregates = np.asarray([row[1] for row in rows], dtype=np.float64)
        if observation is not None:
            observation.output_rows = int(len(keys))
        return keys, aggregates
    if isinstance(plan, logical.Pivot):
        result = _materialise(lower_shared_plan(plan.child, db))
        matrix, row_labels, column_labels = result.pivot(
            plan.row_key, plan.column_key, plan.value
        )
        if observation is not None:
            observation.output_rows = int(len(row_labels))
            observation.output_cells = int(matrix.size)
        return matrix, row_labels, column_labels
    result = _materialise(lower_shared_plan(plan, db))
    if observation is not None:
        observation.output_rows = int(len(result))
    return result


def _materialise(operator: ops.Operator) -> QueryResultSet:
    return QueryResultSet(schema=operator.output_schema, rows=list(operator))


def explain_shared_plan(plan: logical.PlanNode, db: "Database") -> str:
    """Render the shared-optimized plan the row store executes one-to-one."""
    return logical.explain(optimize_shared_plan(plan, db))
