"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of ``repro`` in place
(class attributes, and every module attribute bound to a wrapped
function), so each call becomes a span: name, start, end, parent span and
request id.  Spans are kept in memory; server processes write theirs out
when they exit (:meth:`Tracer.dump`).

Self time is a span's duration minus the time its child spans cover.  The
clause-level calls (``CNF.add_clause``, solver ``add_clause``/``solve``
and the relaxation checks) run hundreds of thousands of times a pass, so
they are only aggregated -- count, total and self time -- and not kept as
individual records.

``mark()`` snapshots the aggregates; the benchmark marks the start and end
of every timed pass or request window and takes differences, so set-up and
warm-up work never enters a per-layer number.  Server processes mark on
``SIGUSR1`` (see ``launcher.py``).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span names that are aggregated only.
HOT = frozenset(
    {"sat.encode", "sat.ingest", "sat.search", "checks.call", "checks.partition"}
)

#: Span-name prefixes that are not program layers: the entry points and the
#: benchmark's own calibrations.  Coverage counts neither.
NOT_LAYERS = ("api.", "bench.")

#: Counter names filled by wrappers that count rather than time.
COUNTERS = (
    "sat.totalizer_calls",
    "sat.solvers",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "qbf.improved",
    "service.reply_bytes",
    "service.replies",
)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        # Re-entrant: a server's SIGUSR1 handler may mark while the thread it
        # interrupted holds the lock.
        self._lock = threading.RLock()
        # name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        # Wall time inside at least one span of a program layer.
        self.covered_s = 0.0
        self.spans: List[Tuple[str, float, float, Optional[str], object]] = []
        # (start, end) of every outermost program-layer span, hot ones included.
        self.outer: List[Tuple[float, float]] = []
        self.marks: List[Dict[str, object]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.layer_depth = 0
        return stack

    @property
    def request_id(self):
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    def _enter(self, name: str) -> list:
        stack = self._stack()
        layer = not name.startswith(NOT_LAYERS)
        frame = [name, time.monotonic(), 0.0, layer and self._local.layer_depth == 0]
        if layer:
            self._local.layer_depth += 1
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.monotonic()
        stack = self._local.stack
        stack.pop()
        name, start, children, outermost = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if not name.startswith(NOT_LAYERS):
            self._local.layer_depth -= 1
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children
            if outermost:
                self.covered_s += duration
                self.outer.append((start, end))
        if name not in HOT:
            self.spans.append(
                (name, start, end, parent[0] if parent else None, self.request_id)
            )

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def traced(self, function: Callable, name, on_result=None) -> Callable:
        """``function`` wrapped in a span; ``name`` may be ``f(args, kwargs)``."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def traced_generator(self, function: Callable, name: str) -> Callable:
        """A generator function wrapped so its span covers the iteration."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                yield from function(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- snapshots ---------------------------------------------------------------

    def mark(self) -> None:
        with self._lock:
            self.marks.append(
                {
                    "t": time.monotonic(),
                    "cpu": time.process_time(),
                    "covered": self.covered_s,
                    "totals": {k: list(v) for k, v in self.totals.items()},
                    "counts": dict(self.counts),
                }
            )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"marks": self.marks, "spans": self.spans, "outer": self.outer}, handle)

    # -- installation ------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_function(self, original, wrapper) -> None:
        """Rebind every ``repro`` module attribute that is ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap the public functions each layer metric is measured at."""
        import repro.api  # noqa: F401 - loads the modules that get wrapped
        import repro.cli  # noqa: F401
        import repro.core.qbf_models  # noqa: F401
        import repro.core.scheduler  # noqa: F401
        import repro.service.client
        import repro.service.daemon  # noqa: F401
        import repro.service.router  # noqa: F401
        from repro.aig import signature
        from repro.aig.function import BooleanFunction
        from repro.api.aio import AsyncSession
        from repro.api.session import Session
        from repro.core import extract, qbf_bidec
        from repro.core.checks import RelaxationChecker
        from repro.core.engine import BiDecomposer
        from repro.core.scheduler import BatchScheduler
        from repro.sat import cardinality, cnf, solver
        from repro.service import protocol

        def method(cls, attr, name, on_result=None):
            self._replace(cls, attr, self.traced(cls.__dict__[attr], name, on_result))

        method(cnf.CNF, "add_clause", "sat.encode")
        for cls in (solver.PySolver, solver.CKernelSolver):
            method(cls, "add_clause", "sat.ingest")
            method(cls, "solve", "sat.search")
        method(RelaxationChecker, "__init__", "checks.build")
        method(RelaxationChecker, "check_alpha_beta", "checks.call")
        method(RelaxationChecker, "check_partition", "checks.partition")

        def improved(result) -> None:
            if result.status and result.partition is not None:
                self.count("qbf.improved")

        method(qbf_bidec.QbfPartitionSolver, "query", "qbf.query", improved)

        def engine_span(args, kwargs) -> str:
            engine = kwargs.get("engine", args[3] if len(args) > 3 else "STEP-QD")
            return "engine." + engine.lower().replace("-", "_")

        # Solver work is sampled around each engine call, the window the
        # engine driver itself attributes to a result.
        decompose = BiDecomposer.__dict__["decompose_function"]
        self._replace(
            BiDecomposer,
            "decompose_function",
            self._with_work(self.traced(decompose, engine_span)),
        )
        method(BatchScheduler, "plan", "scheduler.plan")
        from_output = BooleanFunction.__dict__["from_output"].__func__
        self._replace(
            BooleanFunction,
            "from_output",
            classmethod(self.traced(from_output, "aig.cone")),
        )
        for cls, attr in ((Session, "run_suite"), (Session, "submit"), (Session, "run")):
            method(cls, attr, "api." + attr)
        self._replace(
            Session,
            "as_completed",
            self.traced_generator(Session.__dict__["as_completed"], "api.as_completed"),
        )
        method(AsyncSession, "submit", "api.async_submit")

        for module, attr, name in (
            (extract, "extract_functions", "extract"),
            (signature, "canonical_cone_signature", "aig.signature"),
            (protocol, "encode_report", "service.encode"),
            (protocol, "decode_report", "service.decode"),
        ):
            original = getattr(module, attr)
            self._replace_function(original, self.traced(original, name))
        for module, attr, name in (
            (cardinality, "totalizer_outputs", "sat.totalizer_calls"),
            (solver, "Solver", "sat.solvers"),
        ):
            original = getattr(module, attr)
            self._replace_function(original, self._counting(original, name))
        client = repro.service.client
        self._replace(client, "decode_frame", self._frame_sizer(client.decode_frame))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _counting(self, function: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return function(*args, **kwargs)

        return wrapper

    def _with_work(self, function: Callable) -> Callable:
        """``function`` plus the solver work it did, sampled on this thread."""
        from repro.sat.solver import solver_work_snapshot

        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            before = solver_work_snapshot()
            try:
                return function(*args, **kwargs)
            finally:
                after = solver_work_snapshot()
                for index, kind in enumerate(("conflicts", "decisions", "propagations")):
                    tracer.count("sat." + kind, after[index] - before[index])

        return wrapper

    def _frame_sizer(self, decode_frame: Callable) -> Callable:
        """Count the bytes of every ``result`` frame a client reads."""
        tracer = self

        @functools.wraps(decode_frame)
        def wrapper(line):
            frame = decode_frame(line)
            if frame.get("type") == "result":
                tracer.count("service.reply_bytes", len(line))
                tracer.count("service.replies")
            return frame

        return wrapper


# -- window arithmetic ------------------------------------------------------------


def window_deltas(*mark_lists: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum of (end - start) over the mark pairs (0,1), (2,3), ... of each list."""
    totals: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    delta = {"totals": totals, "counts": counts, "covered": 0.0, "wall": 0.0, "cpu": 0.0}
    for marks in mark_lists:
        for start, end in zip(marks[0::2], marks[1::2]):
            delta["covered"] += end["covered"] - start["covered"]
            delta["wall"] += end["t"] - start["t"]
            delta["cpu"] += end["cpu"] - start["cpu"]
            for name, values in end["totals"].items():
                before = start["totals"].get(name, [0, 0.0, 0.0])
                entry = totals.setdefault(name, [0, 0.0, 0.0])
                for index in range(3):
                    entry[index] += values[index] - before[index]
            for name, value in end["counts"].items():
                counts[name] = counts.get(name, 0) + value - start["counts"].get(name, 0)
    return delta


def union(intervals) -> List[Tuple[float, float]]:
    """Sorted, disjoint cover of ``(start, end)`` intervals."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def covered_share(spans, windows) -> float:
    """Share of the ``windows`` cover that lies inside some span."""
    spans, windows = union(spans), union(windows)
    total = sum(end - start for start, end in windows)
    inside = 0.0
    index = 0
    for start, end in windows:
        while index < len(spans) and spans[index][1] <= start:
            index += 1
        probe = index
        while probe < len(spans) and spans[probe][0] < end:
            inside += min(end, spans[probe][1]) - max(start, spans[probe][0])
            probe += 1
    return inside / total if total else 0.0


def layer_metrics(delta: Dict[str, object], units: int) -> Dict[str, float]:
    """The span-derived per-layer metrics, per timed pass or request."""
    totals = delta["totals"]
    counts = delta["counts"]

    def calls(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[0] / units

    def self_ms(*names: str) -> float:
        return sum(totals.get(name, [0, 0.0, 0.0])[2] for name in names) * 1000.0 / units

    def count(name: str) -> float:
        return counts.get(name, 0) / units

    queries = totals.get("qbf.query", [0])[0]
    api = [name for name in totals if name.startswith("api.")]
    replies = counts.get("service.replies", 0)
    return {
        "sat.encode_calls": calls("sat.encode"),
        "sat.encode_ms": self_ms("sat.encode"),
        "sat.totalizer_calls": count("sat.totalizer_calls"),
        "sat.solvers": count("sat.solvers"),
        "sat.ingest_calls": calls("sat.ingest"),
        "sat.ingest_ms": self_ms("sat.ingest"),
        "sat.solve_calls": calls("sat.search"),
        "sat.search_ms": self_ms("sat.search"),
        "sat.conflicts": count("sat.conflicts"),
        "sat.decisions": count("sat.decisions"),
        "sat.propagations": count("sat.propagations"),
        "checks.builds": calls("checks.build"),
        "checks.build_ms": self_ms("checks.build"),
        "checks.calls": calls("checks.call"),
        "checks.call_ms": self_ms("checks.call", "checks.partition"),
        "qbf.queries": calls("qbf.query"),
        "qbf.query_ms": self_ms("qbf.query"),
        "qbf.improved_share": counts.get("qbf.improved", 0) / queries if queries else 0.0,
        "engine.ljh_ms": self_ms("engine.ljh"),
        "engine.step_mg_ms": self_ms("engine.step_mg"),
        "engine.step_qd_ms": self_ms("engine.step_qd"),
        "engine.step_qb_ms": self_ms("engine.step_qb"),
        "engine.step_qdb_ms": self_ms("engine.step_qdb"),
        "extract.calls": calls("extract"),
        "extract.ms": self_ms("extract"),
        "aig.cones": calls("aig.cone"),
        "aig.cone_ms": self_ms("aig.cone"),
        "aig.signature_ms": self_ms("aig.signature"),
        "scheduler.plan_ms": self_ms("scheduler.plan"),
        "api.self_ms": self_ms(*api),
        "service.encode_ms": self_ms("service.encode"),
        "service.decode_ms": self_ms("service.decode"),
        "service.reply_bytes": counts.get("service.reply_bytes", 0) / replies
        if replies
        else 0.0,
    }
