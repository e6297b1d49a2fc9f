"""Differential tests: the compiled kernel vs the pure-Python reference.

The compiled kernel (:mod:`repro.sat._ckernel`) promises *decision-for-
decision* identity with :class:`repro.sat.solver.PySolver`: same VSIDS
tie-breaking, same restart schedule, same learned clauses, same models.
These tests run both substrates over the solver-fuzz instance corpus and
demand identical verdicts, models, cores, and work counters — not merely
equisatisfiable answers.  Every model is additionally verified against
the CNF so that an agreeing-but-wrong pair cannot pass.

All kernel-backed tests skip when the extension is not built (the
pure-Python-only CI job) and run against the pure path regardless, so
``STEP_PURE_PYTHON=1`` still exercises the non-differential assertions.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.sat.solver import (
    CKernelSolver,
    PURE_PYTHON_ENV,
    PySolver,
    Solver,
    active_kernel_name,
    kernel_available,
    kernel_forced_pure,
)
from repro.utils.rng import deterministic_rng
from repro.utils.timer import Deadline

from tests.test_solver_fuzz import INSTANCES, model_satisfies, random_3cnf

needs_kernel = pytest.mark.skipif(
    not kernel_available() or kernel_forced_pure(),
    reason="compiled kernel not built or disabled via STEP_PURE_PYTHON",
)


def _run(solver, clauses, assumptions=(), **solve_kwargs):
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=list(assumptions), **solve_kwargs)
    observation = {
        "status": result.status,
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "propagations": solver.propagations,
    }
    if result.status is True:
        observation["model"] = solver.model()
    if result.status is False and assumptions:
        observation["core"] = solver.core()
    return observation


class TestFactoryDispatch:
    @needs_kernel
    def test_default_factory_returns_the_kernel(self):
        assert isinstance(Solver(), CKernelSolver)
        assert active_kernel_name() == "c"

    def test_proof_mode_forces_the_pure_path(self):
        # Proof logging is a pure-Python feature; the factory must never
        # hand back the kernel when a resolution proof was requested.
        solver = Solver(proof=True)
        assert isinstance(solver, PySolver)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().status is False
        assert solver.proof().has_refutation

    def test_env_override_forces_the_pure_path(self, monkeypatch):
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        assert kernel_forced_pure()
        assert isinstance(Solver(), PySolver)
        assert active_kernel_name() == "python"
        monkeypatch.setenv(PURE_PYTHON_ENV, "0")
        assert not kernel_forced_pure()


@needs_kernel
class TestFuzzMatrix:
    @pytest.mark.parametrize("label,num_vars,clauses", INSTANCES)
    def test_identical_verdicts_models_and_counters(self, label, num_vars, clauses):
        pure = _run(PySolver(), clauses)
        kern = _run(CKernelSolver(), clauses)
        assert kern == pure, f"substrates diverged on {label}"
        if pure["status"] is True:
            assert model_satisfies(pure["model"], clauses)

    @pytest.mark.parametrize("label,num_vars,clauses", INSTANCES[:12])
    def test_identical_assumption_cores(self, label, num_vars, clauses):
        rng = deterministic_rng(f"assume-{label}")
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 3)
        ]
        pure = _run(PySolver(), clauses, assumptions)
        kern = _run(CKernelSolver(), clauses, assumptions)
        assert kern == pure, f"substrates diverged on {label} under assumptions"
        if pure["status"] is True:
            augmented = list(clauses) + [(lit,) for lit in assumptions]
            assert model_satisfies(pure["model"], augmented)

    def test_identical_incremental_trajectories(self):
        label, num_vars, clauses = INSTANCES[0]
        half = len(clauses) // 2
        pure, kern = PySolver(), CKernelSolver()
        first = (_run(pure, clauses[:half]), _run(kern, clauses[:half]))
        second = (_run(pure, clauses[half:]), _run(kern, clauses[half:]))
        assert first[1] == first[0]
        assert second[1] == second[0]


def _pigeonhole(holes):
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


@needs_kernel
class TestBudgetsAndDeadlines:
    def test_conflict_budget_stops_both_substrates_at_the_same_point(self):
        clauses = _pigeonhole(6)
        pure = _run(PySolver(), clauses, conflict_budget=5)
        kern = _run(CKernelSolver(), clauses, conflict_budget=5)
        assert pure["status"] is None
        assert kern == pure

    def test_expired_deadline_returns_unknown_on_both(self):
        clauses = [[1, 2], [-1, 2]]
        pure = _run(PySolver(), clauses, deadline=Deadline(0.0))
        kern = _run(CKernelSolver(), clauses, deadline=Deadline(0.0))
        assert pure["status"] is None
        assert kern == pure


class _ScriptedDeadline:
    """Duck-typed deadline: ``expired`` is False for ``quota`` reads, then True."""

    def __init__(self, quota):
        self.quota = quota
        self.reads = 0

    @property
    def expired(self):
        self.reads += 1
        return self.reads > self.quota


@needs_kernel
class TestDeadlineProgramPoints:
    """Deadlines are polled at the same program points on both substrates.

    A duck-typed deadline is read through ``expired`` by both, so a
    count-scripted one must stop them after the same read with the same
    counters.  A real :class:`Deadline` is polled on the kernel's own
    perf-counter clock instead, with the same semantics.
    """

    CLAUSES = _pigeonhole(6)
    QUOTAS = list(range(0, 40)) + [57, 100, 333, 1000, 3000, 10**6]

    @pytest.mark.parametrize("quota", QUOTAS)
    def test_scripted_deadline_stops_both_after_the_same_read(self, quota):
        pure_deadline, kern_deadline = _ScriptedDeadline(quota), _ScriptedDeadline(quota)
        pure = _run(PySolver(), self.CLAUSES, deadline=pure_deadline)
        kern = _run(CKernelSolver(), self.CLAUSES, deadline=kern_deadline)
        assert kern == pure
        assert kern_deadline.reads == pure_deadline.reads
        assert pure["status"] is (None if quota < pure_deadline.reads else False)

    def test_real_deadline_is_not_read_by_the_kernel(self, monkeypatch):
        reads = []

        def counting(deadline):
            reads.append(deadline)
            return False

        monkeypatch.setattr(Deadline, "expired", property(counting))
        kern = _run(CKernelSolver(), self.CLAUSES, deadline=Deadline(600.0))
        assert reads == []
        pure = _run(PySolver(), self.CLAUSES, deadline=Deadline(600.0))
        assert len(reads) > 1000
        assert kern == pure
        assert kern["status"] is False

    def test_deadline_subclasses_keep_attribute_polling(self):
        class Counting(Deadline):
            reads = 0

            @property
            def expired(self):
                Counting.reads += 1
                return False

        kern = _run(CKernelSolver(), self.CLAUSES, deadline=Counting(None))
        assert Counting.reads > 1000
        assert kern == _run(CKernelSolver(), self.CLAUSES)

    def test_unlimited_deadline_never_expires(self):
        unbounded = _run(CKernelSolver(), self.CLAUSES)
        assert _run(CKernelSolver(), self.CLAUSES, deadline=Deadline(None)) == unbounded
        assert _run(PySolver(), self.CLAUSES, deadline=Deadline(None)) == unbounded
        assert unbounded["status"] is False

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Deadline(0.0),
            lambda: Deadline(0),
            lambda: Deadline(600.0).sub_deadline(0.0),
            lambda: Deadline(0.0).sub_deadline(600.0),
            lambda: Deadline(1.0, _start=time.perf_counter() - 5.0),
        ],
        ids=["zero", "int-zero", "sub-zero", "parent-zero", "started-long-ago"],
    )
    def test_expired_deadline_stops_at_the_first_poll(self, make):
        first_poll = _run(CKernelSolver(), self.CLAUSES, deadline=_ScriptedDeadline(0))
        assert first_poll["status"] is None
        assert _run(CKernelSolver(), self.CLAUSES, deadline=make()) == first_poll
        assert _run(PySolver(), self.CLAUSES, deadline=make()) == first_poll

    @pytest.mark.parametrize(
        "make",
        [lambda: Deadline(600.0).sub_deadline(None), lambda: Deadline(None).sub_deadline(600.0)],
        ids=["parent-bounded", "child-bounded"],
    )
    def test_live_sub_deadline_lets_the_search_finish(self, make):
        assert _run(CKernelSolver(), self.CLAUSES, deadline=make()) == _run(
            CKernelSolver(), self.CLAUSES
        )

    def test_kernel_clock_cuts_a_long_search_short(self):
        # Pigeonhole 9-into-8 takes seconds of kernel search; a 50 ms
        # deadline must stop it mid-search.
        clauses = _pigeonhole(8)
        solver = CKernelSolver()
        started = time.perf_counter()
        result = _run(solver, clauses, deadline=Deadline(0.05))
        assert time.perf_counter() - started < 5.0
        assert result["status"] is None
        assert result["conflicts"] > 0


@needs_kernel
class TestLbdReductionDifferential:
    @pytest.mark.parametrize("trial", range(6))
    def test_tiny_reduce_base_keeps_the_substrates_in_lockstep(self, trial):
        # A reduce base far below the default forces many reduction
        # rounds; any divergence in LBD scoring, the stable worst-first
        # sort, or locked/glue retention shows up as a counter mismatch.
        num_vars = 40 + 5 * trial
        clauses = random_3cnf(num_vars, int(num_vars * 4.3), f"lbd-diff-{trial}")
        pure, kern = PySolver(), CKernelSolver()
        pure._reduce_base = 30
        kern._reduce_base = 30
        assert kern._reduce_base == 30
        assert _run(kern, clauses) == _run(pure, clauses)


FINGERPRINT_SCRIPT = """
import json

from repro.circuits.generators import decomposable_by_construction
from repro.core.engine import BiDecomposer, EngineOptions
from repro.core.scheduler import BatchScheduler

aig, *_ = decomposable_by_construction("or", 6, 6, 2, seed="kernel-diff")
scheduler = BatchScheduler(BiDecomposer(EngineOptions(output_timeout=120.0)))
report = scheduler.run(aig, "or", ["STEP-MG", "STEP-QD"])
print(json.dumps({
    "kernel": report.schedule["solver_kernel"],
    "stats": report.schedule["solver_stats"],
    "fingerprint": report.fingerprint_hex(),
}))
"""


@needs_kernel
def test_engine_fingerprints_identical_across_substrates():
    """The tentpole acceptance check: kernel-on and kernel-off runs of the
    same schedule must produce bit-identical report fingerprints and
    identical aggregate solver statistics."""
    outputs = {}
    for substrate, forced in (("c", "0"), ("python", "1")):
        env = dict(os.environ)
        env[PURE_PYTHON_ENV] = forced
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", FINGERPRINT_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        import json

        outputs[substrate] = json.loads(proc.stdout)
    assert outputs["c"]["kernel"] == "c"
    assert outputs["python"]["kernel"] == "python"
    assert outputs["c"]["stats"] == outputs["python"]["stats"]
    assert outputs["c"]["stats"]["propagations"] > 0
    assert outputs["c"]["fingerprint"] == outputs["python"]["fingerprint"]
