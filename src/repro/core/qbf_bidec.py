"""QBF-based bi-decomposition with optimum variable partitions.

This module implements the paper's contribution: the engines STEP-QD
(optimum disjointness), STEP-QB (optimum balancedness) and STEP-QDB
(optimum combined cost, weights 1/1).  Each engine answers a sequence of
2QBF queries — "does a non-trivial partition with target metric at most
``k`` exist?" — and searches over ``k`` for the optimum with the strategies
discussed in section IV.A.6 (monotonically increasing, monotonically
decreasing, binary search and the hybrid default).

Two QBF back-ends are available:

* ``specialised`` (default): the counterexample-guided loop of formula (9)
  instantiated for this problem.  Candidate partitions come from a SAT
  solver over the control variables constrained by ``fN``, ``fT`` and the
  blocking clauses learned so far; each candidate is verified with the
  incremental :class:`repro.core.checks.RelaxationChecker`; a falsifying
  witness is turned into one blocking clause over the control variables
  (the variables whose copies differ in the witness cannot all stay
  relaxed).  Blocking clauses are sound for every bound ``k`` and are
  therefore shared across the whole optimum search.  The ``fN`` plus ``fT``
  CNF of a query depends only on the input count, the target and the
  bound (the control variables are numbered by position), so it is encoded
  once per process and kept packed in a small LRU cache
  (:func:`bound_query_template`); every query still gets a fresh solver.

* ``generic``: the same formula handed to the general-purpose AReQS-style
  solver in :mod:`repro.qbf.cegar`; used for cross-validation and for the
  ablation benchmark.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.checks import RelaxationChecker
from repro.core.partition import VariablePartition
from repro.core.qbf_models import (
    ControlVariables,
    add_nontrivial_constraint,
    add_target_constraint,
    build_matrix_function,
    maximum_bound,
)
from repro.core.result import BiDecResult, SearchStatistics
from repro.core.spec import (
    ENGINE_STEP_QB,
    ENGINE_STEP_QD,
    ENGINE_STEP_QDB,
    check_operator,
)
from repro.errors import DecompositionError
from repro.qbf.cegar import CegarTwoQbfSolver
from repro.sat.cnf import CNF, PackedCNF
from repro.sat.solver import Solver
from repro.utils.timer import Deadline, Stopwatch

TARGET_DISJOINTNESS = "disjointness"
TARGET_BALANCEDNESS = "balancedness"
TARGET_COMBINED = "combined"

TARGETS = (TARGET_DISJOINTNESS, TARGET_BALANCEDNESS, TARGET_COMBINED)

ENGINE_BY_TARGET = {
    TARGET_DISJOINTNESS: ENGINE_STEP_QD,
    TARGET_BALANCEDNESS: ENGINE_STEP_QB,
    TARGET_COMBINED: ENGINE_STEP_QDB,
}

STRATEGY_MI = "mi"
STRATEGY_MD = "md"
STRATEGY_BIN = "bin"
STRATEGY_AUTO = "auto"
STRATEGIES = (STRATEGY_MI, STRATEGY_MD, STRATEGY_BIN, STRATEGY_AUTO)


def metric_value(partition: VariablePartition, target: str) -> int:
    """The discrete counter the target metric bounds (|XC|, imbalance, sum)."""
    normalized = partition.normalized()
    if target == TARGET_DISJOINTNESS:
        return normalized.shared_count
    if target == TARGET_BALANCEDNESS:
        return normalized.imbalance
    if target == TARGET_COMBINED:
        return normalized.combined_count
    raise DecompositionError(f"unknown target metric {target!r}")


#: Bound-query templates kept per process.  A sweep over the paper's suite
#: touches 97 (inputs, target, bound) keys, 0.5 MB packed; the bound keeps a
#: long-running service's memory flat whatever its traffic.
TEMPLATE_CACHE_SIZE = 128

_templates: "OrderedDict[Tuple[int, str, int], PackedCNF]" = OrderedDict()
_templates_lock = threading.Lock()


def bound_query_template(num_inputs: int, target: str, bound: int) -> PackedCNF:
    """The packed ``fN`` plus ``fT`` CNF of one bound query.

    The control variables come first, by position: ``alpha`` of input ``i``
    is variable ``i + 1`` and its ``beta`` is ``num_inputs + i + 1``, which
    is what :meth:`ControlVariables.allocate` assigns on an empty CNF.
    """
    key = (num_inputs, target, bound)
    with _templates_lock:
        template = _templates.get(key)
        if template is not None:
            _templates.move_to_end(key)
            return template
    cnf = CNF()
    controls = ControlVariables.allocate(cnf, range(num_inputs))
    add_nontrivial_constraint(cnf, controls)
    add_target_constraint(cnf, controls, target, bound)
    template = PackedCNF(cnf)
    with _templates_lock:
        _templates[key] = template
        if len(_templates) > TEMPLATE_CACHE_SIZE:
            _templates.popitem(last=False)
    return template


@dataclass
class BoundQueryResult:
    """Answer to one 2QBF query "is there a partition with metric <= k?"."""

    status: Optional[bool]
    partition: Optional[VariablePartition] = None
    iterations: int = 0


class QbfPartitionSolver:
    """Answers bound queries with the specialised CEGAR loop of formula (9)."""

    def __init__(self, checker: RelaxationChecker, target: str) -> None:
        if target not in TARGETS:
            raise DecompositionError(f"unknown target metric {target!r}")
        self.checker = checker
        self.target = target
        self.variables = list(checker.variables)
        # The control variables of every query's template (positional).
        self._controls = ControlVariables.allocate(CNF(), self.variables)
        # Blocking clauses over the control literals; each clause says "at
        # least one of these controls must be turned off".  They are
        # consequences of the matrix alone, hence valid for every bound.
        self._blocking: List[List[int]] = []
        self.stats = SearchStatistics()

    # -- one bound query -----------------------------------------------------------

    def query(
        self,
        bound: int,
        deadline: Optional[Deadline] = None,
        max_refinements: Optional[int] = None,
    ) -> BoundQueryResult:
        """Decide whether a non-trivial partition with metric <= bound exists."""
        controls = self._controls
        candidate_solver = Solver()
        candidate_solver.add_cnf(
            bound_query_template(len(self.variables), self.target, bound)
        )
        for clause in self._blocking:
            candidate_solver.add_clause(clause)

        result = BoundQueryResult(status=None)
        self.stats.qbf_calls += 1
        self.stats.bound_sequence.append(bound)
        while True:
            if deadline is not None and deadline.expired:
                return result
            if max_refinements is not None and result.iterations >= max_refinements:
                return result
            result.iterations += 1
            self.stats.qbf_iterations += 1

            candidate_answer = candidate_solver.solve(deadline=deadline)
            if candidate_answer.status is None:
                return result
            if candidate_answer.status is False:
                result.status = False
                return result
            alpha = {
                name: candidate_answer.model.get(controls.alpha[name], False)
                for name in self.variables
            }
            beta = {
                name: candidate_answer.model.get(controls.beta[name], False)
                for name in self.variables
            }
            self.stats.sat_calls += 1
            outcome = self.checker.check_alpha_beta(alpha, beta, deadline=deadline)
            if outcome.decomposable is None:
                return result
            if outcome.decomposable:
                partition = VariablePartition.from_alpha_beta(self.variables, alpha, beta)
                result.status = True
                result.partition = partition.normalized()
                return result
            clause = self._clause_literals(
                self._blocking_clause(outcome.witness_diff_a, outcome.witness_diff_b),
                controls,
            )
            self._blocking.append(clause)
            self.stats.refinements += 1
            candidate_solver.add_clause(clause)

    @staticmethod
    def _blocking_clause(diff_a: Set[str], diff_b: Set[str]) -> List[Tuple[str, str]]:
        clause = [(name, "a") for name in sorted(diff_a)]
        clause += [(name, "b") for name in sorted(diff_b)]
        if not clause:
            raise DecompositionError(
                "internal error: a falsifying witness with no differing copies"
            )
        return clause

    @staticmethod
    def _clause_literals(
        clause: Sequence[Tuple[str, str]], controls: ControlVariables
    ) -> List[int]:
        literals = []
        for name, side in clause:
            var = controls.alpha[name] if side == "a" else controls.beta[name]
            literals.append(-var)
        return literals


class GenericQbfPartitionSolver:
    """Bound queries answered through the general AReQS-style 2QBF solver."""

    def __init__(self, checker: RelaxationChecker, target: str) -> None:
        if target not in TARGETS:
            raise DecompositionError(f"unknown target metric {target!r}")
        self.checker = checker
        self.target = target
        self.variables = list(checker.variables)
        self.stats = SearchStatistics()
        self._matrix, self._exist_names, self._universal_names = build_matrix_function(
            checker.function, checker.operator
        )

    def query(
        self,
        bound: int,
        deadline: Optional[Deadline] = None,
        max_refinements: Optional[int] = None,
    ) -> BoundQueryResult:
        solver = CegarTwoQbfSolver(self._matrix, self._exist_names, self._universal_names)
        cnf = CNF()
        controls = ControlVariables.allocate(cnf, self.variables)
        add_nontrivial_constraint(cnf, controls)
        add_target_constraint(cnf, controls, self.target, bound)
        var_map: Dict[str, int] = {}
        for name in self.variables:
            var_map[f"alpha:{name}"] = controls.alpha[name]
            var_map[f"beta:{name}"] = controls.beta[name]
        solver.add_exist_cnf(cnf, var_map)
        self.stats.qbf_calls += 1
        self.stats.bound_sequence.append(bound)
        answer = solver.solve(deadline=deadline, max_iterations=max_refinements)
        self.stats.qbf_iterations += answer.iterations
        self.stats.refinements += len(answer.counterexamples)
        if answer.status is None:
            return BoundQueryResult(status=None, iterations=answer.iterations)
        if answer.status is False:
            return BoundQueryResult(status=False, iterations=answer.iterations)
        alpha = {
            name: answer.model.get(f"alpha:{name}", False) for name in self.variables
        }
        beta = {name: answer.model.get(f"beta:{name}", False) for name in self.variables}
        partition = VariablePartition.from_alpha_beta(self.variables, alpha, beta)
        return BoundQueryResult(
            status=True, partition=partition.normalized(), iterations=answer.iterations
        )


# ---------------------------------------------------------------------------
# optimum search over the bound k
# ---------------------------------------------------------------------------


def qbf_decompose(
    checker: RelaxationChecker,
    target: str,
    bootstrap: Optional[VariablePartition] = None,
    strategy: str = STRATEGY_AUTO,
    per_call_timeout: Optional[float] = 4.0,
    deadline: Optional[Deadline] = None,
    backend: str = "specialised",
) -> BiDecResult:
    """Run one QBF engine (STEP-QD / STEP-QB / STEP-QDB) on one function.

    Parameters
    ----------
    bootstrap:
        A known-valid partition (typically the STEP-MG result) providing the
        initial upper bound on the target metric; without it the upper bound
        defaults to the maximum meaningful value (section IV.A.6).
    strategy:
        ``"mi"``, ``"md"``, ``"bin"`` or ``"auto"`` (binary search between
        the bootstrap bound and zero — the hybrid the paper recommends).
    per_call_timeout:
        Wall-clock budget for each individual 2QBF query (the paper uses 4
        seconds per QBF call).
    """
    if target not in TARGETS:
        raise DecompositionError(f"unknown target metric {target!r}")
    if strategy not in STRATEGIES:
        raise DecompositionError(f"unknown search strategy {strategy!r}")
    operator = check_operator(checker.operator)
    engine_name = ENGINE_BY_TARGET[target]
    stopwatch = Stopwatch().start()

    if backend == "specialised":
        solver: QbfPartitionSolver | GenericQbfPartitionSolver = QbfPartitionSolver(
            checker, target
        )
    elif backend == "generic":
        solver = GenericQbfPartitionSolver(checker, target)
    else:
        raise DecompositionError(f"unknown QBF backend {backend!r}")

    num_vars = len(checker.variables)
    upper = maximum_bound(target, num_vars)
    best_partition: Optional[VariablePartition] = None
    if bootstrap is not None:
        bootstrap.validate_against(checker.variables)
        best_partition = bootstrap.normalized()
        upper = min(upper, metric_value(best_partition, target))

    timed_out = False

    def run_query(bound: int) -> BoundQueryResult:
        nonlocal timed_out
        if deadline is not None and deadline.expired:
            timed_out = True
            return BoundQueryResult(status=None)
        call_deadline = (
            deadline.sub_deadline(per_call_timeout)
            if deadline is not None
            else Deadline(per_call_timeout)
        )
        answer = solver.query(bound, deadline=call_deadline)
        if answer.status is None:
            timed_out = True
        return answer

    lowest_feasible = upper + 1
    optimum_proven = False

    if best_partition is not None:
        lowest_feasible = metric_value(best_partition, target)

    bounds = _bound_schedule(strategy, upper)
    highest_infeasible = -1
    for bound in bounds:
        if bound >= lowest_feasible or bound <= highest_infeasible:
            continue
        if deadline is not None and deadline.expired:
            timed_out = True
            break
        answer = run_query(bound)
        if answer.status is True and answer.partition is not None:
            lowest_feasible = min(lowest_feasible, metric_value(answer.partition, target))
            if best_partition is None or metric_value(answer.partition, target) < metric_value(
                best_partition, target
            ):
                best_partition = answer.partition
        elif answer.status is False:
            highest_infeasible = max(highest_infeasible, bound)
        else:
            break

    if best_partition is not None and (
        highest_infeasible == metric_value(best_partition, target) - 1
        or metric_value(best_partition, target) == 0
    ):
        optimum_proven = True

    elapsed = stopwatch.stop()
    stats = solver.stats
    return BiDecResult(
        engine=engine_name,
        operator=operator,
        decomposed=best_partition is not None,
        partition=best_partition,
        optimum_proven=optimum_proven,
        cpu_seconds=elapsed,
        timed_out=timed_out,
        stats=stats,
    )


def _bound_schedule(strategy: str, upper: int) -> List[int]:
    """The sequence of bounds to query for a given search strategy.

    Feasibility is monotone in the bound, and the caller skips bounds already
    implied by earlier answers, so any enumeration of ``0..upper`` is correct;
    the strategies only differ in the order (and therefore in how quickly the
    interval collapses).
    """
    if upper < 0:
        return []
    ascending = list(range(0, upper + 1))
    if strategy == STRATEGY_MI:
        return ascending
    if strategy == STRATEGY_MD:
        return list(reversed(ascending))
    # Binary search order (also the "auto" hybrid): repeatedly probe the
    # middle of the remaining interval.  Pre-computing the visit order keeps
    # the driver loop simple; skipped bounds cost nothing.
    order: List[int] = []
    intervals = [(0, upper)]
    while intervals:
        low, high = intervals.pop(0)
        if low > high:
            continue
        mid = (low + high) // 2
        order.append(mid)
        intervals.append((low, mid - 1))
        intervals.append((mid + 1, high))
    return order


def qbf_decompose_all_targets(
    checker: RelaxationChecker,
    bootstrap: Optional[VariablePartition] = None,
    per_call_timeout: Optional[float] = 4.0,
    deadline: Optional[Deadline] = None,
) -> Dict[str, BiDecResult]:
    """Convenience helper: run STEP-QD, STEP-QB and STEP-QDB on one function."""
    results = {}
    for target in TARGETS:
        sub_deadline = deadline.sub_deadline(None) if deadline is not None else None
        results[ENGINE_BY_TARGET[target]] = qbf_decompose(
            checker,
            target,
            bootstrap=bootstrap,
            per_call_timeout=per_call_timeout,
            deadline=sub_deadline,
        )
    return results
