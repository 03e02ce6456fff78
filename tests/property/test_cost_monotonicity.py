"""Property test of the paper's cost-monotonicity assumption (Sec 4.1).

"By and large, it is a safe assumption that the optimizer-estimated cost
of an SPJ query is monotonic in the values of the selectivity variables."
MNSA's correctness rests on this, so we verify it holds by construction
in our optimizer: raising any statistics-less selectivity variable never
lowers the estimated cost of the chosen plan.  The hypothesis tests probe
one ``simple_db`` query densely; :class:`TestRagsCostMonotonicity` checks
the same two properties on RAGS queries over TPC-D, on both join
enumerators.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OptimizerConfig
from repro.datagen import make_tpcd_database
from repro.optimizer import OptimizationRequest, Optimizer
from repro.sql.builder import QueryBuilder
from repro.workload import generate_workload

from tests.util import simple_db


@pytest.fixture(scope="module")
def setup():
    db = simple_db()
    query = (
        QueryBuilder(db.schema)
        .join("emp.dept_id", "dept.id")
        .where("emp.age", "<", 30)
        .where("emp.salary", ">", 50_000.0)
        .group_by("emp.dept_id")
        .aggregate("count")
        .build()
    )
    opt = Optimizer(db)
    variables = opt.magic_variables(query)
    return db, opt, query, variables


unit = st.floats(
    min_value=0.0005,
    max_value=0.9995,
    allow_nan=False,
    allow_infinity=False,
)


class TestCostMonotonicity:
    @given(values=st.lists(unit, min_size=4, max_size=4), bump=unit)
    @settings(max_examples=60, deadline=None)
    def test_raising_one_variable_never_lowers_cost(
        self, setup, values, bump
    ):
        db, opt, query, variables = setup
        assert len(variables) == 4
        base_overrides = dict(zip(variables, values))
        base_cost = opt.optimize_request(
            OptimizationRequest(query, base_overrides)
        ).cost
        for variable in variables:
            raised = dict(base_overrides)
            raised[variable] = min(0.9995, raised[variable] + bump / 2)
            raised_cost = opt.optimize_request(
                OptimizationRequest(query, raised)
            ).cost
            assert raised_cost >= base_cost - 1e-9

    @given(values=st.lists(unit, min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_cost_between_plow_and_phigh(self, setup, values):
        """The Sec 4.1 argument: every assignment inside [eps, 1-eps] costs
        between Cost(P_low) and Cost(P_high)."""
        db, opt, query, variables = setup
        epsilon = 0.0005
        low = opt.optimize_request(
            OptimizationRequest(query, {v: epsilon for v in variables})
        ).cost
        high = opt.optimize_request(
            OptimizationRequest(query, {v: 1 - epsilon for v in variables})
        ).cost
        mid = opt.optimize_request(
            OptimizationRequest(query, dict(zip(variables, values)))
        ).cost
        assert low - 1e-9 <= mid <= high + 1e-9

    @given(values=st.lists(unit, min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_rows_monotone_too(self, setup, values):
        db, opt, query, variables = setup
        overrides = dict(zip(variables, values))
        base = opt.optimize_request(OptimizationRequest(query, overrides))
        raised = {
            v: min(0.9995, s * 1.5) for v, s in overrides.items()
        }
        more = opt.optimize_request(OptimizationRequest(query, raised))
        assert more.rows >= base.rows - 1e-9


EPSILON = 0.0005


@pytest.fixture(scope="module")
def rags_queries():
    """The 17 queries of U25-C-20 over TPC-D scale 0.002, z = 2, with no
    statistics: every selectivity variable is a magic variable."""
    db = make_tpcd_database(scale=0.002, z=2.0, seed=42)
    return db, generate_workload(db, "U25-C-20", seed=7).queries()


def _cost_function(optimizer, query):
    def cost(overrides):
        request = OptimizationRequest(query, overrides)
        return optimizer.optimize_request(request).cost

    return cost


def _assignments(variables, rng, count=6):
    """``count`` seeded assignments of ``variables`` in [eps, 1 - eps]."""
    return [
        {v: rng.uniform(EPSILON, 1 - EPSILON) for v in variables}
        for _ in range(count)
    ]


@pytest.mark.parametrize("bushy", [False, True], ids=["left_deep", "bushy"])
class TestRagsCostMonotonicity:
    def test_raising_one_variable_never_lowers_cost(
        self, rags_queries, bushy
    ):
        db, queries = rags_queries
        optimizer = Optimizer(db, OptimizerConfig(enable_bushy_joins=bushy))
        rng = random.Random(7)
        violations, checked = [], 0
        for index, query in enumerate(queries):
            variables = optimizer.magic_variables(query)
            cost = _cost_function(optimizer, query)
            for values in _assignments(variables, rng):
                base = cost(values)
                for variable in variables:
                    raised = dict(values)
                    raised[variable] = rng.uniform(values[variable], 1 - EPSILON)
                    checked += 1
                    if cost(raised) < base * (1 - 1e-9):
                        violations.append((index, str(variable)))
        assert checked > 100
        assert violations == []

    def test_cost_between_plow_and_phigh(self, rags_queries, bushy):
        db, queries = rags_queries
        optimizer = Optimizer(db, OptimizerConfig(enable_bushy_joins=bushy))
        rng = random.Random(11)
        violations = []
        for index, query in enumerate(queries):
            variables = optimizer.magic_variables(query)
            cost = _cost_function(optimizer, query)
            low = cost({v: EPSILON for v in variables})
            high = cost({v: 1 - EPSILON for v in variables})
            for values in _assignments(variables, rng):
                mid = cost(values)
                if not low * (1 - 1e-9) <= mid <= high * (1 + 1e-9):
                    violations.append((index, low, mid, high))
        assert len(queries) >= 10
        assert violations == []
