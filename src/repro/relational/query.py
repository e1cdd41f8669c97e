"""Fluent query builder over the shared logical plans.

This is the public query API of the row store::

    rows = (
        db.query("gene_metadata")
          .where(col("function") < lit(250))
          .join(db.query("microarray"), on=("gene_id", "gene_id"))
          .select("patient_id", "gene_id", "expression_value")
          .rows()
    )

Each verb validates its column names eagerly and wraps one
:mod:`repro.plan.logical` node; ``rows()`` / ``run()`` / ``count()`` hand
the plan to :func:`repro.relational.bridge.run_shared_plan`, which
optimizes it once with the shared optimizer and runs it on the Volcano
operators.  ``join`` follows the shared convention: the output keeps the
left columns, then the right columns minus the right key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.plan import logical
from repro.plan.expressions import Expression, require_expression
from repro.plan.optimizer import output_columns
from repro.relational import bridge
from repro.relational.bridge import QueryResultSet

if TYPE_CHECKING:
    from repro.relational.catalog import Database


def _scanned_tables(node: logical.PlanNode) -> list[str]:
    """Names of the base tables a plan reads (for error messages)."""
    if isinstance(node, logical.Scan):
        return [node.table]
    names: list[str] = []
    for child in node.children():
        names.extend(_scanned_tables(child))
    return names


class Query:
    """An immutable builder wrapping a shared logical plan over one database."""

    def __init__(self, db: "Database", node: logical.PlanNode):
        self._db = db
        self._node = node

    # -- validation ----------------------------------------------------------------

    def _check_columns(self, names: Sequence[str]) -> None:
        """Raise KeyError naming the column and table(s) for unknown columns.

        Every relational verb validates eagerly, so a typo surfaces at the
        call site instead of deep inside operator binding at execution time
        — mirroring the column store's behaviour.
        """
        available = output_columns(self._node, bridge.RelationalPlanCatalog(self._db))
        known = set(available)
        for name in names:
            if name not in known:
                tables = _scanned_tables(self._node)
                raise KeyError(
                    f"no column {name!r} in query over table(s) "
                    f"{', '.join(repr(t) for t in tables)}; has {available}"
                )

    # -- relational verbs ---------------------------------------------------------

    def where(self, predicate: Expression) -> "Query":
        """Filter rows by a predicate expression."""
        require_expression(predicate, "Query.where")
        self._check_columns(sorted(predicate.columns_referenced()))
        return Query(self._db, logical.Filter(self._node, predicate))

    def select(self, *columns: str) -> "Query":
        """Project to the named columns."""
        self._check_columns(columns)
        return Query(self._db, logical.Project(self._node, tuple(columns)))

    def join(self, other: "Query", on: tuple[str, str]) -> "Query":
        """Equi-join with another query; ``on`` is (left_key, right_key).

        The output keeps this query's columns, then ``other``'s columns
        minus ``right_key``.
        """
        if other._db is not self._db:
            raise ValueError("cannot join queries over different databases")
        left_key, right_key = on
        self._check_columns([left_key])
        other._check_columns([right_key])
        return Query(self._db, logical.Join(self._node, other._node, left_key, right_key))

    # -- execution -----------------------------------------------------------------

    def logical_plan(self) -> logical.PlanNode:
        """Return the unoptimized shared plan (for tests/EXPLAIN)."""
        return self._node

    def explain(self) -> str:
        """Render the optimized shared plan as text."""
        return bridge.explain_shared_plan(self._node, self._db)

    def run(self) -> QueryResultSet:
        """Execute and wrap the result with its schema."""
        return bridge.run_shared_plan(self._node, self._db)

    def rows(self) -> list[tuple]:
        """Execute the query and materialise all result rows."""
        return self.run().rows

    def count(self) -> int:
        """Execute and count result rows."""
        return len(self.run())
