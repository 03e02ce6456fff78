"""Selectivity estimation: statistics first, magic numbers as fallback.

This is the module the paper had to modify in SQL Server (Sec 7.2): "we
had to modify the selectivity estimation module to accept the selectivity
of such predicates as a parameter rather than using the default magic
number".  Here that parameter is the ``overrides`` mapping from
:class:`~repro.optimizer.variables.SelectivityVariable` to a value in
[0, 1]; an override applies only to variables that lack statistics, which
is exactly the hook MNSA needs.

Resolution order for each variable:

1. an applicable, *visible* statistic (histogram or prefix density);
2. an entry in ``overrides``;
3. the magic number for the predicate kind.

When a :class:`~repro.learned.CorrectionStore` is attached, the resolved
filter / join / group selectivity is additionally passed through the
store's learned multiplicative correction (clamped to [0, 1]) before the
cost model sees it; a :class:`~repro.learned.SketchJoinEstimator`, when
attached, replaces the single-predicate join estimate with a sketch
estimate where one is available.  Both hooks receive raw table/column
names, so this module stays independent of the learned package.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.catalog import ColumnRef, ColumnType
from repro.concurrency import protocol
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import OptimizerError
from repro.optimizer.variables import (
    GroupByVariable,
    JoinVariable,
    PredicateVariable,
    SelectivityVariable,
    join_variables_of,
)
from repro.sql.predicates import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    LikePredicate,
    Predicate,
)

_MAX_LIKE_CODES = 512

#: "not read yet" in an estimator's memo, where ``None`` is an answer
_UNREAD = object()


class SelectivityEstimator:
    """Estimates selectivities for one query-optimization call.

    Args:
        database: the :class:`~repro.storage.Database` (for statistics and
            string dictionaries).
        config: optimizer configuration (magic numbers).
        overrides: optional mapping variable -> forced selectivity in
            [0, 1], applied only where statistics are missing.
        corrections: optional :class:`~repro.learned.CorrectionStore`
            whose learned factors adjust every resolved selectivity.
        join_estimator: optional
            :class:`~repro.learned.SketchJoinEstimator` consulted for
            single-predicate equijoin selectivities.
        use_statistics: when False, skip every statistics lookup and
            resolve all variables through overrides / magic numbers — the
            service's degraded mode
            (:class:`~repro.optimizer.cache.OptimizationRequest`'s
            ``degraded`` flag).  The estimator then takes no statistics
            lock at all.
        memo: what this estimator reads of the visible statistics — a
            column's histogram, a histogram-backed selectivity, a
            distinct count, a density — depends on no override and no
            correction, so it is read once and kept in this dict: by
            default a private one, or one shared by the estimators of an
            :meth:`Optimizer.probe <repro.optimizer.Optimizer.probe>`
            call, which guarantees them one statistics state.
    """

    # repro-lint: optimize-path
    # repro-lint: plan-state-exempt=_join_cache: per-invocation memo on an estimator that lives for exactly one optimizer call; it never outlives the plan it shaped
    # repro-lint: plan-state-exempt=_memo: per-invocation memo, private to one optimizer call or owned by the stack frame of one Optimizer.probe call; it never outlives the plans that call shaped

    # R012, read side: every statistics lookup that can shape an
    # estimate must go through the manager's drop-list-aware accessors
    # (``self._db.stats.*``), never a raw statistics container — a
    # hidden (drop-listed or ignored) statistic must not feed a plan.
    _droplist_reads = protocol(
        "stat-drop-list",
        rule="R012",
        states=("visible", "hidden"),
        initial="visible",
        reads=(
            "predicate_has_statistics",
            "_histogram_selectivity",
            "_try_joint_estimate",
            "_join_group_selectivity",
        ),
        delegate="stats",
    )

    def __init__(
        self,
        database,
        config: OptimizerConfig = DEFAULT_CONFIG,
        overrides: Optional[Dict[SelectivityVariable, float]] = None,
        corrections=None,
        join_estimator=None,
        use_statistics: bool = True,
        memo: Optional[dict] = None,
    ) -> None:
        self._db = database
        self._config = config
        self._magic = config.magic
        self._overrides = dict(overrides or {})
        self._corrections = corrections
        self._join_estimator = join_estimator
        self._use_statistics = use_statistics
        self._join_cache: Dict[JoinVariable, float] = {}
        #: ColumnRef -> histogram, Predicate -> histogram selectivity,
        #: (table, frozenset) -> density, (table, tuple) -> distinct count,
        #: (table, x, y) -> joint histogram lookup
        self._memo: dict = {} if memo is None else memo
        for variable, value in self._overrides.items():
            if not 0.0 <= value <= 1.0:
                raise OptimizerError(
                    f"override for {variable} must be in [0, 1], got {value}"
                )

    # ------------------------------------------------------------------
    # encoding helpers
    # ------------------------------------------------------------------

    def _encode(self, ref: ColumnRef, value):
        """Map a literal into the stored domain (string -> code)."""
        ctype = self._db.schema.column(ref).type
        if ctype == ColumnType.STRING:
            code = self._db.table(ref.table).string_dictionary(
                ref.column
            ).lookup(value)
            return code  # None if the string never occurs
        return value

    # ------------------------------------------------------------------
    # single predicates
    # ------------------------------------------------------------------

    def _histogram_for(self, ref: ColumnRef):
        """The visible histogram over ``ref``, or None."""
        found = self._memo.get(ref, _UNREAD)
        if found is _UNREAD:
            found = self._memo[ref] = self._db.stats.histogram_for(ref)
        return found

    def predicate_has_statistics(self, predicate: Predicate) -> bool:
        """True if a visible histogram covers the predicate's column."""
        if not self._use_statistics:
            return False
        (ref,) = predicate.columns()
        return self._histogram_for(ref) is not None

    # joins use join magic separately
    # repro-lint: dispatch=Predicate except=JoinPredicate
    def _magic_for(self, predicate: Predicate) -> float:
        kind = predicate.kind
        magic = self._magic
        if isinstance(predicate, ComparisonPredicate):
            if predicate.op == "=":
                return magic.equality
            if predicate.op == "<>":
                return magic.inequality
            return magic.range_
        if isinstance(predicate, BetweenPredicate):
            return magic.between
        if isinstance(predicate, InPredicate):
            n = min(len(predicate.values), self._config.max_in_list_items)
            return min(1.0, n * magic.in_list_per_item)
        if isinstance(predicate, LikePredicate):
            return magic.like
        raise OptimizerError(f"no magic number for predicate kind {kind}")

    # repro-lint: dispatch=Predicate except=JoinPredicate
    def _histogram_selectivity(self, predicate: Predicate) -> float:
        (ref,) = predicate.columns()
        histogram = self._histogram_for(ref)
        assert histogram is not None
        if isinstance(predicate, ComparisonPredicate):
            value = self._encode(ref, predicate.value)
            if value is None:
                # string literal absent from the data
                return 0.0 if predicate.op == "=" else 1.0
            if predicate.op == "=":
                return histogram.selectivity_equal(value)
            if predicate.op == "<>":
                return histogram.selectivity_not_equal(value)
            if predicate.op == "<":
                return histogram.selectivity_range(
                    high=value, high_inclusive=False
                )
            if predicate.op == "<=":
                return histogram.selectivity_range(high=value)
            if predicate.op == ">":
                return histogram.selectivity_range(
                    low=value, low_inclusive=False
                )
            return histogram.selectivity_range(low=value)
        if isinstance(predicate, BetweenPredicate):
            return histogram.selectivity_range(
                low=predicate.low, high=predicate.high
            )
        if isinstance(predicate, InPredicate):
            encoded = [
                self._encode(predicate.column, v) for v in predicate.values
            ]
            return histogram.selectivity_in(
                [v for v in encoded if v is not None]
            )
        if isinstance(predicate, LikePredicate):
            dictionary = self._db.table(
                predicate.column.table
            ).string_dictionary(predicate.column.column)
            codes = dictionary.codes_matching_like(predicate.pattern)
            if codes.shape[0] > _MAX_LIKE_CODES:
                # too many matches to enumerate; estimate by distinct share
                ndv = max(1.0, histogram.distinct_count)
                return min(1.0, codes.shape[0] / ndv)
            return histogram.selectivity_in(codes.tolist())
        raise OptimizerError(f"unsupported predicate {predicate}")

    def predicate_selectivity(self, predicate: Predicate) -> float:
        """Selectivity of one selection predicate (resolution order above)."""
        if self.predicate_has_statistics(predicate):
            found = self._memo.get(predicate, _UNREAD)
            if found is _UNREAD:
                found = self._memo[predicate] = self._histogram_selectivity(
                    predicate
                )
            return found
        variable = PredicateVariable(predicate)
        if variable in self._overrides:
            return self._overrides[variable]
        return self._magic_for(predicate)

    # ------------------------------------------------------------------
    # conjunctions on one table
    # ------------------------------------------------------------------

    def _box_bounds(self, predicate: Predicate):
        """Closed interval covered by a boxable predicate, or None.

        Boxable: equality and range comparisons plus BETWEEN, over
        orderable domains.  IN / LIKE / inequality are not boxable.
        """
        if isinstance(predicate, BetweenPredicate):
            return (predicate.low, predicate.high)
        if not isinstance(predicate, ComparisonPredicate):
            return None
        (ref,) = predicate.columns()
        value = self._encode(ref, predicate.value)
        if value is None:
            return None
        if predicate.op == "=":
            return (value, value)
        if predicate.op in ("<", "<="):
            return (None, value)
        if predicate.op in (">", ">="):
            return (value, None)
        return None

    def _try_joint_estimate(self, table: str, predicates):
        """Estimate a pair of boxable predicates through a joint
        histogram, if one covers their columns.

        Returns ``(selectivity, covered_predicates)`` or ``None``.
        """
        if not self._use_statistics:
            return None
        boxable = {}
        for predicate in predicates:
            bounds = self._box_bounds(predicate)
            if bounds is None:
                continue
            (ref,) = predicate.columns()
            # one boxable predicate per column (first wins)
            boxable.setdefault(ref.column, (predicate, bounds))
        columns = list(boxable)
        for i, cx in enumerate(columns):
            for cy in columns[i + 1 :]:
                found = self._memo.get((table, cx, cy), _UNREAD)
                if found is _UNREAD:
                    found = self._db.stats.joint_for_columns(table, (cx, cy))
                    self._memo[table, cx, cy] = found
                if found is None:
                    continue
                joint, x_name, y_name = found
                pred_x, (x_lo, x_hi) = boxable[x_name]
                pred_y, (y_lo, y_hi) = boxable[y_name]
                selectivity = joint.selectivity_box(
                    x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi
                )
                return selectivity, {pred_x, pred_y}
        return None

    def table_filter_selectivity(
        self, table: str, predicates: Iterable[Predicate]
    ) -> float:
        """Combined selectivity of a table's selection conjunction.

        Resolution order: a joint (2-D) histogram covering a pair of
        boxable predicates, if enabled and present; then a multi-column
        prefix density covering the equality conjunction (SQL Server's
        density path); then per-predicate independence.
        """
        predicates = list(predicates)
        correction_columns = {
            ref.column
            for predicate in predicates
            for ref in predicate.columns()
        }
        joint_total = 1.0
        joint_result = self._try_joint_estimate(table, predicates)
        if joint_result is not None:
            selectivity, covered = joint_result
            joint_total = selectivity
            predicates = [p for p in predicates if p not in covered]
        equality = [
            p
            for p in predicates
            if isinstance(p, ComparisonPredicate) and p.op == "="
        ]
        others = [p for p in predicates if p not in equality]
        total = 1.0
        covered = False
        if len(equality) >= 2 and self._use_statistics:
            columns = {p.column.column for p in equality}
            if len(columns) == len(equality):
                density = self._density_for(table, columns)
                if density is not None:
                    total *= density
                    covered = True
        if not covered:
            for predicate in equality:
                total *= self.predicate_selectivity(predicate)
        for predicate in others:
            total *= self.predicate_selectivity(predicate)
        total = min(1.0, max(0.0, total * joint_total))
        if self._corrections is not None and correction_columns:
            total = self._corrections.correct_filter(
                table, correction_columns, total
            )
        return total

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _density_for(self, table: str, columns) -> Optional[float]:
        """Density of a visible statistic covering exactly ``columns``."""
        key = (table, frozenset(columns))
        found = self._memo.get(key, _UNREAD)
        if found is _UNREAD:
            found = self._memo[key] = self._db.stats.density_for_columns(
                table, key[1]
            )
        return found

    def _side_distinct(self, table: str, columns) -> Optional[float]:
        """Estimated distinct count of a join side's column set."""
        if not self._use_statistics:
            return None
        key = (table, tuple(columns))
        found = self._memo.get(key, _UNREAD)
        if found is _UNREAD:
            found = self._memo[key] = self._read_side_distinct(*key)
        return found

    def _read_side_distinct(self, table: str, columns) -> Optional[float]:
        if len(columns) == 1:
            histogram = self._histogram_for(ColumnRef(table, columns[0]))
            if histogram is not None:
                return max(1.0, histogram.distinct_count)
        return self._db.stats.distinct_for_columns(table, columns)

    def join_has_statistics(self, variable: JoinVariable) -> bool:
        """True if at least one side's distinct count is known."""
        left_table, right_table = variable.tables
        left_cols = [p.side_for(left_table).column for p in variable.predicates]
        right_cols = [
            p.side_for(right_table).column for p in variable.predicates
        ]
        return (
            self._side_distinct(left_table, left_cols) is not None
            or self._side_distinct(right_table, right_cols) is not None
        )

    def join_group_selectivity(self, variable: JoinVariable) -> float:
        """Selectivity of a table pair's join conjunction.

        Resolution order:

        1. for a single-column join with histograms on *both* sides,
           align the histograms (:meth:`Histogram.join_selectivity`) —
           exact on disjoint or partially overlapping domains where the
           global ndv rule fails;
        2. the containment assumption ``1 / max(known ndv)`` over the
           joined column sets;
        3. an override, then the join magic number.

        A single-predicate join consults the attached sketch estimator
        first (its estimate, when usable, replaces the resolution chain),
        and the final value passes through the learned join correction.
        """
        cached = self._join_cache.get(variable)
        if cached is not None:
            return cached
        selectivity = self._join_group_selectivity(variable)
        left_table, right_table = variable.tables
        if self._join_estimator is not None and len(variable.predicates) == 1:
            sketched = self._join_estimator.join_selectivity(
                variable.predicates[0].side_for(left_table),
                variable.predicates[0].side_for(right_table),
            )
            if sketched is not None:
                selectivity = sketched
        if self._corrections is not None:
            selectivity = self._corrections.correct_join(
                left_table,
                [p.side_for(left_table).column for p in variable.predicates],
                right_table,
                [p.side_for(right_table).column for p in variable.predicates],
                selectivity,
            )
        self._join_cache[variable] = selectivity
        return selectivity

    def _join_group_selectivity(self, variable: JoinVariable) -> float:
        left_table, right_table = variable.tables
        left_cols = [p.side_for(left_table).column for p in variable.predicates]
        right_cols = [
            p.side_for(right_table).column for p in variable.predicates
        ]
        if (
            len(variable.predicates) == 1
            and self._config.enable_histogram_join_estimation
            and self._use_statistics
        ):
            left_hist = self._histogram_for(
                ColumnRef(left_table, left_cols[0])
            )
            right_hist = self._histogram_for(
                ColumnRef(right_table, right_cols[0])
            )
            if left_hist is not None and right_hist is not None:
                return left_hist.join_selectivity(right_hist)
        left_ndv = self._side_distinct(left_table, left_cols)
        right_ndv = self._side_distinct(right_table, right_cols)
        known = [n for n in (left_ndv, right_ndv) if n is not None]
        if known:
            return 1.0 / max(known)
        if variable in self._overrides:
            return self._overrides[variable]
        return self._magic.join

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def group_by_fraction(self, variable: GroupByVariable) -> float:
        """Fraction of a table's rows that are distinct in its group columns.

        The Sec 4.1 aggregation extension: "a selectivity variable that
        indicates the fraction of rows in the table with distinct values
        of the column(s) in the clause".
        """
        rows = max(1, self._db.row_count(variable.table))
        distinct = self._side_distinct(variable.table, variable.columns)
        if distinct is not None:
            fraction = min(1.0, distinct / rows)
        elif variable in self._overrides:
            fraction = self._overrides[variable]
        else:
            fraction = self._magic.group_by_fraction
        if self._corrections is not None:
            fraction = self._corrections.correct_group(
                variable.table, variable.columns, fraction
            )
        return fraction

    def group_by_has_statistics(self, variable: GroupByVariable) -> bool:
        return self._side_distinct(variable.table, variable.columns) is not None

    # ------------------------------------------------------------------
    # the MNSA hook: which variables are forced onto magic numbers?
    # ------------------------------------------------------------------

    def missing_variables(self, query) -> List[SelectivityVariable]:
        """Variables of ``query`` that must fall back to magic numbers.

        This is step (a) of the Sec 4.1 test: "identify which selectivity
        variables of Q are forced to use default magic numbers due to lack
        of available statistics in the existing set S".
        """
        missing: List[SelectivityVariable] = []
        covered_by_density = set()
        for table in query.tables:
            equality = [
                p
                for p in query.predicates_of(table)
                if isinstance(p, ComparisonPredicate) and p.op == "="
            ]
            if len(equality) >= 2 and self._use_statistics:
                columns = {p.column.column for p in equality}
                if len(columns) == len(equality):
                    density = self._density_for(table, columns)
                    if density is not None:
                        covered_by_density.update(equality)
        for predicate in query.predicates:
            if predicate in covered_by_density:
                continue
            if not self.predicate_has_statistics(predicate):
                missing.append(PredicateVariable(predicate))
        for variable in join_variables_of(query):
            if not self.join_has_statistics(variable):
                missing.append(variable)
        for table in query.tables:
            group_cols = query.group_by_columns_of(table)
            if group_cols:
                variable = GroupByVariable(
                    table, tuple(ref.column for ref in group_cols)
                )
                if not self.group_by_has_statistics(variable):
                    missing.append(variable)
        return missing
