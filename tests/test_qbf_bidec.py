"""Tests for the QBF engines STEP-QD / STEP-QB / STEP-QDB.

The central property: on functions small enough for brute force, the QBF
engines must return partitions achieving the *exact optimum* of their target
metric (disjointness for STEP-QD, balancedness for STEP-QB, the combined sum
for STEP-QDB) over all non-trivial decomposable partitions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.function import BooleanFunction
from repro.circuits.generators import decomposable_by_construction, parity_tree
from repro.core import qbf_bidec
from repro.core.checks import RelaxationChecker, check_decomposable
from repro.core.mus_partition import mus_find_partition
from repro.core.qbf_bidec import (
    GenericQbfPartitionSolver,
    QbfPartitionSolver,
    metric_value,
    qbf_decompose,
    qbf_decompose_all_targets,
)
from repro.core.spec import ENGINE_STEP_QB, ENGINE_STEP_QD, ENGINE_STEP_QDB
from repro.errors import DecompositionError
from repro.utils.timer import Deadline

from tests.reference import best_metric

TARGET_TO_METRIC = {
    "disjointness": "shared",
    "balancedness": "imbalance",
    "combined": "combined",
}


def _run_engine(f, operator, target, backend="specialised", strategy="auto"):
    checker = RelaxationChecker(f, operator)
    bootstrap = mus_find_partition(checker)
    return qbf_decompose(
        checker,
        target,
        bootstrap=bootstrap,
        strategy=strategy,
        per_call_timeout=10.0,
        deadline=Deadline(60.0),
        backend=backend,
    )


class TestBoundQueries:
    def test_query_true_and_false_bounds(self):
        aig, xa, xb, xc = decomposable_by_construction("or", 2, 2, 1, seed=7)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        solver = QbfPartitionSolver(checker, "disjointness")
        table, n = f.truth_table(), f.num_inputs
        optimum = best_metric(table, n, "or", "shared")
        assert optimum is not None
        feasible = solver.query(optimum, deadline=Deadline(30.0))
        assert feasible.status is True
        assert feasible.partition is not None
        assert metric_value(feasible.partition, "disjointness") <= optimum
        if optimum > 0:
            infeasible = solver.query(optimum - 1, deadline=Deadline(30.0))
            assert infeasible.status is False

    def test_returned_partition_is_decomposable(self):
        aig, *_ = decomposable_by_construction("or", 2, 2, 1, seed=9)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        solver = QbfPartitionSolver(checker, "balancedness")
        answer = solver.query(1, deadline=Deadline(30.0))
        if answer.status:
            assert check_decomposable(f, "or", answer.partition)

    def test_blocking_clauses_shared_across_bounds(self):
        f = BooleanFunction.from_output(parity_tree(4), "p")
        checker = RelaxationChecker(f, "or")
        solver = QbfPartitionSolver(checker, "disjointness")
        first = solver.query(2, deadline=Deadline(30.0))
        refinements_after_first = solver.stats.refinements
        solver.query(2, deadline=Deadline(30.0))
        # The second identical query reuses the learned blocking clauses, so
        # it cannot need more refinements than the first one did.
        assert solver.stats.refinements <= 2 * max(refinements_after_first, 1)
        assert first.status in (True, False)

    def test_unknown_target_rejected(self):
        f = BooleanFunction.from_truth_table(0b1000, 2)
        checker = RelaxationChecker(f, "or")
        with pytest.raises(DecompositionError):
            QbfPartitionSolver(checker, "area")


class TestEngineResults:
    @pytest.mark.parametrize(
        "target,engine_name",
        [
            ("disjointness", ENGINE_STEP_QD),
            ("balancedness", ENGINE_STEP_QB),
            ("combined", ENGINE_STEP_QDB),
        ],
    )
    def test_engine_names_and_validity(self, target, engine_name):
        aig, *_ = decomposable_by_construction("or", 2, 2, 1, seed=37)
        f = BooleanFunction.from_output(aig, "f")
        result = _run_engine(f, "or", target)
        assert result.engine == engine_name
        assert result.decomposed
        assert check_decomposable(f, "or", result.partition)

    def test_not_decomposable_function(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)  # XOR
        result = _run_engine(f, "or", "disjointness")
        assert not result.decomposed

    def test_never_worse_than_bootstrap(self):
        aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=3)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        bootstrap = mus_find_partition(checker)
        assert bootstrap is not None
        result = qbf_decompose(
            checker, "disjointness", bootstrap=bootstrap, deadline=Deadline(60.0)
        )
        assert result.decomposed
        assert metric_value(result.partition, "disjointness") <= metric_value(
            bootstrap, "disjointness"
        )

    def test_all_targets_helper(self):
        aig, *_ = decomposable_by_construction("or", 2, 2, 1, seed=12)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        results = qbf_decompose_all_targets(checker, deadline=Deadline(60.0))
        assert set(results) == {ENGINE_STEP_QD, ENGINE_STEP_QB, ENGINE_STEP_QDB}
        assert all(r.decomposed for r in results.values())

    def test_invalid_strategy_rejected(self):
        f = BooleanFunction.from_truth_table(0b1000, 2)
        checker = RelaxationChecker(f, "or")
        with pytest.raises(DecompositionError):
            qbf_decompose(checker, "disjointness", strategy="random-walk")

    def test_invalid_backend_rejected(self):
        f = BooleanFunction.from_truth_table(0b1000, 2)
        checker = RelaxationChecker(f, "or")
        with pytest.raises(DecompositionError):
            qbf_decompose(checker, "disjointness", backend="oracle")


class TestOptimality:
    @pytest.mark.parametrize("strategy", ["auto", "mi", "md", "bin"])
    def test_strategies_reach_the_same_optimum(self, strategy):
        aig, *_ = decomposable_by_construction("or", 2, 2, 1, seed=55)
        f = BooleanFunction.from_output(aig, "f")
        table, n = f.truth_table(), f.num_inputs
        expected = best_metric(table, n, "or", "shared")
        result = _run_engine(f, "or", "disjointness", strategy=strategy)
        assert result.decomposed
        assert result.optimum_proven
        assert metric_value(result.partition, "disjointness") == expected

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.sampled_from(["or", "and", "xor"]),
        st.sampled_from(["disjointness", "balancedness", "combined"]),
    )
    def test_optimum_matches_brute_force(self, table, operator, target):
        n = 4
        expected = best_metric(table, n, operator, TARGET_TO_METRIC[target])
        f = BooleanFunction.from_truth_table(table, n)
        result = _run_engine(f, operator, target)
        if expected is None:
            assert not result.decomposed
            return
        assert result.decomposed
        assert result.optimum_proven
        assert metric_value(result.partition, target) == expected
        names = f.input_names
        assert check_decomposable(f, operator, result.partition)

    def test_generic_backend_agrees_with_specialised(self):
        aig, *_ = decomposable_by_construction("or", 2, 2, 0, seed=77)
        f = BooleanFunction.from_output(aig, "f")
        specialised = _run_engine(f, "or", "disjointness", backend="specialised")
        generic = _run_engine(f, "or", "disjointness", backend="generic")
        assert specialised.decomposed == generic.decomposed
        if specialised.decomposed:
            assert metric_value(specialised.partition, "disjointness") == metric_value(
                generic.partition, "disjointness"
            )


class TestBoundQueryTemplate:
    @pytest.mark.parametrize("target", ["disjointness", "balancedness", "combined"])
    @pytest.mark.parametrize("num_inputs", [2, 3, 5])
    def test_template_equals_a_fresh_encoding(self, target, num_inputs):
        from repro.core.qbf_models import (
            ControlVariables,
            add_nontrivial_constraint,
            add_target_constraint,
            maximum_bound,
        )
        from repro.sat.cnf import CNF

        names = [f"in{i}" for i in range(num_inputs)]
        for bound in range(maximum_bound(target, num_inputs) + 1):
            cnf = CNF()
            controls = ControlVariables.allocate(cnf, names)
            add_nontrivial_constraint(cnf, controls)
            add_target_constraint(cnf, controls, target, bound)
            template = qbf_bidec.bound_query_template(num_inputs, target, bound)
            assert template.num_vars == cnf.num_vars
            assert list(template.clauses) == cnf.clauses
            assert qbf_bidec.bound_query_template(num_inputs, target, bound) is template

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(qbf_bidec, "TEMPLATE_CACHE_SIZE", 3)
        monkeypatch.setattr(qbf_bidec, "_templates", type(qbf_bidec._templates)())
        first = qbf_bidec.bound_query_template(4, "disjointness", 0)
        for bound in (1, 2):
            qbf_bidec.bound_query_template(4, "disjointness", bound)
        assert qbf_bidec.bound_query_template(4, "disjointness", 0) is first
        qbf_bidec.bound_query_template(4, "balancedness", 0)
        assert len(qbf_bidec._templates) == 3
        # The least recently used entry (bound 1) was evicted, not bound 0.
        assert (4, "disjointness", 1) not in qbf_bidec._templates
        assert qbf_bidec.bound_query_template(4, "disjointness", 0) is first

    def test_bad_bounds_are_not_cached(self):
        with pytest.raises(DecompositionError):
            qbf_bidec.bound_query_template(4, "disjointness", -1)
        assert (4, "disjointness", -1) not in qbf_bidec._templates
