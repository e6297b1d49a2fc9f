"""Clause ingest: the kernel's C hygiene against the pure-Python reference.

``CKernelSolver`` hands whole batches of DIMACS clauses to the kernel, which
validates literals, drops duplicates and tautologies and grows ``num_vars``
in C.  ``PySolver.add_clause`` stays the specification: for every corner of
that hygiene both substrates must return the same clause ids, reach the same
``num_vars``, ``ok`` flag and propagation count, and raise the same
``SolverError`` text.  The variable-range tests run on both substrates; the
differential ones skip when the kernel is not built.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import CnfError, SolverError
from repro.sat.cnf import CNF, PackedCNF
from repro.sat.solver import (
    MAX_VAR,
    CKernelSolver,
    PySolver,
    kernel_available,
    kernel_forced_pure,
)

needs_kernel = pytest.mark.skipif(
    not kernel_available() or kernel_forced_pure(),
    reason="compiled kernel not built or disabled via STEP_PURE_PYTHON",
)

SUBSTRATES = [PySolver, pytest.param(CKernelSolver, marks=needs_kernel)]

OUT_OF_RANGE = f"variable {2**32 + 1} is out of range (the solver supports 1..{MAX_VAR})"


def _state(solver):
    return {
        "num_vars": solver.num_vars,
        "ok": solver.ok,
        "propagations": solver.propagations,
    }


def _attempt(action):
    """``action()``'s value, or the type and text of the error it raised."""
    try:
        return ("ok", action())
    except (SolverError, TypeError) as exc:
        return (type(exc).__name__, str(exc))


def _cnf(num_vars, clauses):
    """A CNF holding ``clauses`` verbatim (bypassing CNF's own validation)."""
    cnf = CNF(num_vars)
    cnf.clauses = [tuple(clause) if isinstance(clause, list) else clause for clause in clauses]
    return cnf


def _via_cnf(solver, num_vars, clauses, packed=False):
    cnf = _cnf(num_vars, clauses)
    outcome = _attempt(lambda: solver.add_cnf(PackedCNF(cnf) if packed else cnf))
    return outcome, _state(solver), solver.solve().status


def _via_clauses(solver, clauses):
    outcomes = [_attempt(lambda clause=clause: solver.add_clause(clause)) for clause in clauses]
    return outcomes, _state(solver), solver.solve().status


# Corner cases of the reference hygiene: (num_vars declared by the CNF, clauses).
CORNER_CASES = {
    "duplicate literals": (3, [(1, 1, 2), (2, 2), (-3, -3, -3), (1, -2, 1)]),
    "tautology still grows num_vars": (2, [(1, 2), (5, -5), (3, 7, -3, 9), (-1,)]),
    "tautology before an invalid literal": (1, [(2, -2, 0), (1,)]),
    "True as a literal": (2, [(1, 2), (3, True), (4,)]),
    "False as a literal": (2, [(1,), (False,)]),
    "zero mid-CNF": (2, [(1, 2), (3, 0, 4), (5,)]),
    "non-int literal mid-CNF": (2, [(1, 2), (6, "x"), (5,)]),
    "float literal": (1, [(1,), (2.0,)]),
    "out of range mid-CNF": (1, [(1,), (4, 2**32 + 1, 6), (7,)]),
    "negative out of range": (1, [(-(2**40),)]),
    "level-0 unit conflict": (2, [(1,), (-1, 2), (-2,), (3, 4), (-3,)]),
    "empty clause": (2, [(1, 2), (), (2,)]),
    "satisfied and falsified at level 0": (3, [(1,), (1, 2), (-1, 3, 2), (-1, -3)]),
    "non-iterable clause": (2, [(1, 2), 7, (3,)]),
}


@needs_kernel
class TestIngestDifferential:
    @pytest.mark.parametrize("label", sorted(CORNER_CASES))
    def test_add_cnf_matches_the_reference(self, label):
        num_vars, clauses = CORNER_CASES[label]
        reference = _via_cnf(PySolver(), num_vars, clauses)
        assert _via_cnf(CKernelSolver(), num_vars, clauses) == reference, label

    @pytest.mark.parametrize("label", sorted(CORNER_CASES))
    def test_add_clause_matches_the_reference(self, label):
        _, clauses = CORNER_CASES[label]
        reference = _via_clauses(PySolver(), clauses)
        assert _via_clauses(CKernelSolver(), clauses) == reference, label

    @pytest.mark.parametrize(
        "label",
        sorted(
            label
            for label, (_, clauses) in CORNER_CASES.items()
            if all(
                isinstance(c, tuple) and all(type(lit) is int and 0 < abs(lit) <= MAX_VAR for lit in c)
                for c in clauses
            )
        ),
    )
    def test_packed_cnf_matches_the_reference(self, label):
        num_vars, clauses = CORNER_CASES[label]
        reference = _via_cnf(PySolver(), num_vars, clauses, packed=True)
        assert reference == _via_cnf(PySolver(), num_vars, clauses)
        assert _via_cnf(CKernelSolver(), num_vars, clauses, packed=True) == reference

    def test_invalid_literal_stops_the_cnf_after_earlier_clauses(self):
        num_vars, clauses = CORNER_CASES["zero mid-CNF"]
        for solver in (PySolver(), CKernelSolver()):
            with pytest.raises(SolverError, match="invalid literal 0"):
                solver.add_cnf(_cnf(num_vars, clauses))
            # The first clause kept its id; the failed clause allocated its
            # prefix (variable 3) but took no id.
            assert solver.num_vars == 3
            assert solver.add_clause([5]) == 1

    def test_a_clause_iterable_may_grow_the_clause_list(self):
        # Unpacking a generator clause runs Python code mid-batch; here it
        # grows (and reallocates) the very list being ingested.
        def run(solver):
            cnf = CNF(4)

            def grow():
                cnf.clauses.extend([(3, 4)] * 1000)
                yield 2

            cnf.clauses[:] = [(1,), grow(), (-4,)]
            return solver.add_cnf(cnf), _state(solver)

        assert run(CKernelSolver()) == run(PySolver())

    def test_generators_are_accepted(self):
        for solver in (PySolver(), CKernelSolver()):
            assert solver.add_clause(lit for lit in (1, 2, 2)) == 0
            with pytest.raises(SolverError, match="invalid literal True"):
                solver.add_clause(lit for lit in (3, True))
            assert solver.num_vars == 3


class TestVariableRange:
    """Variables beyond the kernel's int32 literal encoding are rejected."""

    @needs_kernel
    def test_kernel_exports_the_same_limit(self):
        from repro.sat import _ckernel

        assert _ckernel.MAX_VAR == MAX_VAR == 2**30 - 1

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_huge_variable_does_not_alias_a_small_one(self, substrate):
        solver = substrate()
        with pytest.raises(SolverError) as info:
            solver.add_clause([2**32 + 1])
        assert str(info.value) == OUT_OF_RANGE
        assert solver.num_vars == 0
        solver.add_clause([-1])
        assert solver.solve().status is True
        assert solver.model() == {1: False}

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @pytest.mark.parametrize("lit", [MAX_VAR + 1, -(MAX_VAR + 1), -(2**63), 2**64])
    def test_clause_ingest(self, substrate, lit):
        solver = substrate()
        with pytest.raises(SolverError, match="out of range"):
            solver.add_clause([1, lit])
        assert solver.num_vars == 1

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_cnf_ingest(self, substrate):
        solver = substrate()
        cnf = CNF()
        cnf.add_clause([2**32 + 1])
        with pytest.raises(SolverError) as info:
            solver.add_cnf(cnf)
        assert str(info.value) == OUT_OF_RANGE
        assert solver.num_vars == 0

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_assumptions(self, substrate):
        solver = substrate()
        solver.add_clause([1, 2])
        with pytest.raises(SolverError) as info:
            solver.solve(assumptions=[1, 2**32 + 1])
        assert str(info.value) == OUT_OF_RANGE
        assert solver.num_vars == 2
        assert solver.solve(assumptions=[-1]).status is True

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_ensure_var(self, substrate):
        solver = substrate()
        with pytest.raises(SolverError, match="out of range"):
            solver._ensure_var(MAX_VAR + 1)
        assert solver.num_vars == 0

    def test_packed_cnf_rejects_literals_beyond_int32(self):
        cnf = CNF()
        cnf.add_clause([2**32 + 1])
        with pytest.raises(CnfError):
            PackedCNF(cnf)


class TestPackedCnf:
    def test_round_trip(self):
        cnf = CNF(7)
        for clause in [(1, -2), (3,), (), (-4, 5, -6)]:
            cnf.clauses.append(clause)
        packed = PackedCNF(cnf)
        assert packed.num_vars == 7
        assert list(packed.clauses) == cnf.clauses
        assert packed.buffer.tolist() == [1, -2, 0, 3, 0, 0, -4, 5, -6, 0]

    @needs_kernel
    def test_kernel_rejects_malformed_buffers(self):
        from array import array

        solver = CKernelSolver()
        with pytest.raises(ValueError, match="0 terminator"):
            solver._c.add_clauses(array("i", [1, 2]))
        with pytest.raises(TypeError, match="int32"):
            solver._c.add_clauses(array("q", [1, 0]))
        assert solver._c.add_clauses(array("i")) == (0, (), 0, 0, False)


# ----------------------------------------------------------- lockstep machine

VARS = 6
literal = st.integers(min_value=1, max_value=VARS).flatmap(
    lambda var: st.sampled_from([var, -var])
)
odd_literal = st.sampled_from([0, True, False, MAX_VAR + 1, -(2**40), "x"])
clause = st.lists(
    st.one_of(literal, literal, literal, literal, literal, literal, literal, literal, odd_literal),
    max_size=4,
)


class LockstepIngest(RuleBasedStateMachine):
    """PySolver and CKernelSolver driven through identical operations."""

    def __init__(self):
        super().__init__()
        self.pure = PySolver()
        self.kern = CKernelSolver()
        self.pure._reduce_base = self.kern._reduce_base = 8

    def _both(self, action):
        outcome = _attempt(lambda: action(self.pure))
        assert _attempt(lambda: action(self.kern)) == outcome
        return outcome

    @rule(lits=clause)
    def add_clause(self, lits):
        self._both(lambda solver: solver.add_clause(lits))

    @rule(clauses=st.lists(clause, max_size=5), extra=st.integers(0, 3))
    def add_cnf(self, clauses, extra):
        num_vars = max(
            [abs(lit) for c in clauses for lit in c if type(lit) is int and 0 < abs(lit) <= VARS]
            + [0]
        )
        self._both(lambda solver: solver.add_cnf(_cnf(num_vars + extra, clauses)))

    @rule(
        assumptions=st.lists(literal, max_size=3),
        budget=st.one_of(st.none(), st.integers(0, 3)),
    )
    def solve(self, assumptions, budget):
        def run(solver):
            result = solver.solve(assumptions=assumptions, conflict_budget=budget)
            return (
                result.status,
                result.model,
                result.core,
                result.conflicts,
                result.decisions,
                result.propagations,
                solver.model(),
                solver.core(),
            )

        self._both(run)

    @precondition(lambda self: self.pure.num_vars < VARS + 4)
    @rule()
    def new_var(self):
        self._both(lambda solver: solver.new_var())

    @rule(assumptions=st.lists(st.sampled_from([0, 1, -2, MAX_VAR + 1]), min_size=1, max_size=2))
    def solve_with_odd_assumptions(self, assumptions):
        self._both(lambda solver: solver.solve(assumptions=assumptions).status)

    @invariant()
    def same_state(self):
        assert _state(self.kern) == _state(self.pure)
        assert (self.kern.conflicts, self.kern.decisions) == (
            self.pure.conflicts,
            self.pure.decisions,
        )


LockstepIngest.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestLockstepIngest = needs_kernel(LockstepIngest.TestCase)
