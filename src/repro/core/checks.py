"""SAT-based decomposability checks.

The foundation is Proposition 1 of the paper (Lee–Jiang, DAC'08): for a
non-trivial partition ``{XA | XB | XC}``, ``f`` is OR bi-decomposable iff

    f(XA, XB, XC)  AND  NOT f(XA', XB, XC)  AND  NOT f(XA, XB', XC)

is unsatisfiable.  The AND case is the dual (apply the OR check to ``NOT f``)
and the XOR case uses the four-copy "rectangle" condition.

Rather than rebuilding a formula per candidate partition, the
:class:`RelaxationChecker` encodes the paper's formula (2) once — every
input variable gets relaxation controls ``alpha_x`` / ``beta_x`` guarding the
equalities between the original and the instantiated copies — and each
partition check becomes a single incremental SAT call under assumptions.
This is the engine behind all partition-search strategies (LJH, STEP-MG and
the QBF refinement loop) as well as the source of:

* *needed equalities* (from UNSAT cores): variables whose equality was used
  in the refutation, which the heuristic engines use to grow partitions; and
* *counterexample difference sets* (from SAT models): variables whose copies
  differ in a falsifying witness, which become the QBF blocking clauses.

The copy-CNF is encoded once per checker and kept packed; the solver is
created on the first check.  :meth:`RelaxationChecker.fork` hands an engine
the same encoding on a fresh solver, so the engines of one cone share the
encoding work but never a solver: a shared solver's learned clauses and
activities would change every later engine's search.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.aig.function import BooleanFunction
from repro.core.partition import VariablePartition
from repro.core.spec import AND, OR, XOR, check_operator
from repro.errors import DecompositionError
from repro.sat.cnf import CNF, PackedCNF
from repro.sat.solver import Solver
from repro.sat.tseitin import encode_relaxed_equiv, encode_xor
from repro.utils.timer import Deadline


@dataclass
class CheckOutcome:
    """Result of one decomposability check.

    ``decomposable`` is ``True`` (the check formula is UNSAT), ``False``
    (a falsifying witness exists) or ``None`` (budget exhausted).
    """

    decomposable: Optional[bool]
    needed_alpha: Set[str] = field(default_factory=set)
    needed_beta: Set[str] = field(default_factory=set)
    witness_diff_a: Set[str] = field(default_factory=set)
    witness_diff_b: Set[str] = field(default_factory=set)
    witness: Dict[str, bool] = field(default_factory=dict)


class RelaxationChecker:
    """Incremental decomposability checker for one function and operator."""

    def __init__(self, function: BooleanFunction, operator: str) -> None:
        self.function = function
        self.operator = check_operator(operator)
        self.variables: List[str] = list(function.input_names)
        if len(self.variables) < 2:
            raise DecompositionError(
                "bi-decomposition requires a function with at least two inputs"
            )
        self.sat_calls = 0

        cnf = CNF()
        # Shared (original) copy of the inputs plus one instantiated copy per
        # formula instantiation.
        self._x0 = {name: cnf.new_var() for name in self.variables}
        self._x1 = {name: cnf.new_var() for name in self.variables}
        self._x2 = {name: cnf.new_var() for name in self.variables}
        self._alpha = {name: cnf.new_var() for name in self.variables}
        self._beta = {name: cnf.new_var() for name in self.variables}
        self._x3: Dict[str, int] = {}

        out0 = self._encode_copy(cnf, self._x0)
        out1 = self._encode_copy(cnf, self._x1)
        out2 = self._encode_copy(cnf, self._x2)
        for name in self.variables:
            encode_relaxed_equiv(cnf, self._x0[name], self._x1[name], self._alpha[name])
            encode_relaxed_equiv(cnf, self._x0[name], self._x2[name], self._beta[name])

        if self.operator == OR:
            cnf.add_unit(out0)
            cnf.add_unit(-out1)
            cnf.add_unit(-out2)
        elif self.operator == AND:
            # AND decomposability of f == OR decomposability of NOT f.
            cnf.add_unit(-out0)
            cnf.add_unit(out1)
            cnf.add_unit(out2)
        else:  # XOR: the rectangle condition needs the doubly instantiated copy.
            self._x3 = {name: cnf.new_var() for name in self.variables}
            out3 = self._encode_copy(cnf, self._x3)
            for name in self.variables:
                encode_relaxed_equiv(
                    cnf, self._x1[name], self._x3[name], self._beta[name]
                )
                encode_relaxed_equiv(
                    cnf, self._x2[name], self._x3[name], self._alpha[name]
                )
            parity01 = cnf.new_var()
            parity23 = cnf.new_var()
            parity = cnf.new_var()
            encode_xor(cnf, parity01, out0, out1)
            encode_xor(cnf, parity23, out2, out3)
            encode_xor(cnf, parity, parity01, parity23)
            cnf.add_unit(parity)

        self._cnf = PackedCNF(cnf)
        self._solver = None

    def fork(self) -> "RelaxationChecker":
        """A checker over the same encoding with its own solver, loaded now.

        Loading counts its level-0 propagations as solver work, so an engine
        forks inside its work window even when it never runs a check.
        """
        twin = copy.copy(self)
        twin.sat_calls = 0
        twin._load()
        return twin

    def _load(self) -> Solver:
        solver = self._solver = Solver()
        solver.add_cnf(self._cnf)
        return solver

    def _encode_copy(self, cnf: CNF, input_vars: Dict[str, int]) -> int:
        mapping = self.function.to_cnf(
            cnf,
            input_vars={
                node: input_vars[self.function.aig.input_name(node)]
                for node in self.function.inputs
            },
        )
        return mapping.output_literal

    # -- checks -------------------------------------------------------------------

    def check_partition(
        self,
        partition: VariablePartition,
        deadline: Optional[Deadline] = None,
        conflict_budget: Optional[int] = None,
    ) -> CheckOutcome:
        """Check decomposability under an explicit partition."""
        partition.validate_against(self.variables)
        alpha = {name: name in set(partition.xa) for name in self.variables}
        beta = {name: name in set(partition.xb) for name in self.variables}
        return self.check_alpha_beta(
            alpha, beta, deadline=deadline, conflict_budget=conflict_budget
        )

    def check_alpha_beta(
        self,
        alpha: Mapping[str, bool],
        beta: Mapping[str, bool],
        deadline: Optional[Deadline] = None,
        conflict_budget: Optional[int] = None,
    ) -> CheckOutcome:
        """Check decomposability under a relaxation assignment.

        ``alpha[name] = True`` relaxes the first instantiated copy for that
        variable (the variable may differ there, i.e. it belongs to ``XA``),
        ``beta[name] = True`` relaxes the second copy (``XB``); both false
        means the variable is shared (``XC``).
        """
        self.sat_calls += 1
        assumptions: List[int] = []
        for name in self.variables:
            a_var = self._alpha[name]
            b_var = self._beta[name]
            assumptions.append(a_var if alpha.get(name, False) else -a_var)
            assumptions.append(b_var if beta.get(name, False) else -b_var)
        solver = self._solver
        if solver is None:
            solver = self._load()
        result = solver.solve(
            assumptions=assumptions,
            deadline=deadline,
            conflict_budget=conflict_budget,
        )
        if result.status is None:
            return CheckOutcome(decomposable=None)
        if result.status is False:
            core = set(result.core)
            needed_alpha = {
                name for name in self.variables if -self._alpha[name] in core
            }
            needed_beta = {
                name for name in self.variables if -self._beta[name] in core
            }
            return CheckOutcome(
                decomposable=True, needed_alpha=needed_alpha, needed_beta=needed_beta
            )
        model = result.model
        diff_a: Set[str] = set()
        diff_b: Set[str] = set()
        for name in self.variables:
            base = model.get(self._x0[name], False)
            if model.get(self._x1[name], False) != base:
                diff_a.add(name)
            if model.get(self._x2[name], False) != base:
                diff_b.add(name)
            if self.operator == XOR and self._x3:
                third = model.get(self._x3[name], False)
                if third != model.get(self._x2[name], False):
                    diff_a.add(name)
                if third != model.get(self._x1[name], False):
                    diff_b.add(name)
        witness = {name: model.get(self._x0[name], False) for name in self.variables}
        return CheckOutcome(
            decomposable=False,
            witness_diff_a=diff_a,
            witness_diff_b=diff_b,
            witness=witness,
        )


def check_decomposable(
    function: BooleanFunction,
    operator: str,
    partition: VariablePartition,
    deadline: Optional[Deadline] = None,
) -> bool:
    """One-shot decomposability check (builds a fresh checker)."""
    if partition.is_trivial:
        raise DecompositionError("the check requires a non-trivial partition")
    checker = RelaxationChecker(function, operator)
    outcome = checker.check_partition(partition, deadline=deadline)
    if outcome.decomposable is None:
        raise DecompositionError("decomposability check exhausted its budget")
    return outcome.decomposable


def check_or_decomposable(
    function: BooleanFunction, partition: VariablePartition
) -> bool:
    """Proposition 1: OR bi-decomposability under a fixed partition."""
    return check_decomposable(function, OR, partition)


def check_and_decomposable(
    function: BooleanFunction, partition: VariablePartition
) -> bool:
    """AND bi-decomposability (dual of the OR check)."""
    return check_decomposable(function, AND, partition)


def check_xor_decomposable(
    function: BooleanFunction, partition: VariablePartition
) -> bool:
    """XOR bi-decomposability (four-copy rectangle condition)."""
    return check_decomposable(function, XOR, partition)
