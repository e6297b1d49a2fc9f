"""Answer check that does not trust the SAT/QBF stack, and its reference file.

Two checks decide whether a report is correct:

1. Every claimed partition is re-checked by the benchmark's own truth-table
   evaluation of the circuit: for OR, ``f == (forall XB. f) or (forall XA.
   f)`` with ``XA`` and ``XB`` non-empty and disjoint.  The largest suite
   support is 12 inputs, so a truth table is one Python integer of at most
   2**14 bits.
2. The verdicts (``decomposed``) of all five engines, and the QBF engines'
   ``optimum_proven`` flags and proven metric values, must equal
   ``answers.json``.  That file was generated once by this module on the
   pure-Python solver (``STEP_PURE_PYTHON=1``).

Answers are compared, not report fingerprints: fingerprints include the
solver's work counters, which a change to clause encoding may alter on
purpose without changing any answer.

Regenerate the reference (it also picks the cold catalog; ~8 minutes)::

    python3 perfbench/answers.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence

import inputs

#: Cold-catalog circuits per family.
COLD_PER_FAMILY = 160

QBF_TARGET = {"STEP-QD": "shared", "STEP-QB": "imbalance", "STEP-QDB": "combined"}


# -- truth tables ------------------------------------------------------------------


class TruthTables:
    """Truth tables of one circuit's outputs over all its primary inputs."""

    def __init__(self, aig) -> None:
        count = len(aig.inputs)
        size = 1 << count
        self.full = (1 << size) - 1
        self.shift: Dict[str, int] = {}
        self.mask: Dict[str, int] = {}
        values = {0: 0}
        for position, node in enumerate(aig.inputs):
            period = 1 << (position + 1)
            ones = ((1 << (1 << position)) - 1) << (1 << position)
            mask = ones * (self.full // ((1 << period) - 1))
            name = aig.input_name(node)
            self.shift[name] = 1 << position
            self.mask[name] = mask
            values[node] = mask
        for node in range(aig.num_nodes):
            if node in values:
                continue
            if not aig.is_and(node):
                raise ValueError(f"{aig.name}: node {node} is neither input nor AND")
            a, b = aig.fanins(node)
            values[node] = self._lit(values, a) & self._lit(values, b)
        self.outputs = {name: self._lit(values, lit) for name, lit in aig.outputs}

    def _lit(self, values: Dict[int, int], lit: int) -> int:
        value = values[lit >> 1]
        return value ^ self.full if lit & 1 else value

    def forall(self, table: int, names: Sequence[str]) -> int:
        for name in names:
            mask, shift = self.mask[name], self.shift[name]
            both = (table & ~mask & self.full) & ((table & mask) >> shift)
            table = both | (both << shift)
        return table

    def or_partition_holds(self, output: str, xa, xb, xc) -> bool:
        names = list(xa) + list(xb) + list(xc)
        if not xa or not xb or len(set(names)) != len(names):
            return False
        if any(name not in self.mask for name in names):
            return False
        table = self.outputs[output]
        return table == self.forall(table, xb) | self.forall(table, xa)


def partition_problem(tables: TruthTables, report) -> Optional[str]:
    """``output/engine`` of the first claimed partition that is not valid."""
    for output in report.outputs:
        for engine, result in output.results.items():
            if not result.decomposed:
                continue
            part = result.partition
            if part is None or not tables.or_partition_holds(
                output.output_name, part.xa, part.xb, part.xc
            ):
                return f"{output.output_name}/{engine}"
    return None


def metric(partition, target: str) -> int:
    shared = len(partition.xc)
    imbalance = abs(len(partition.xa) - len(partition.xb))
    return {"shared": shared, "imbalance": imbalance, "combined": shared + imbalance}[
        target
    ]


# -- answers -------------------------------------------------------------------------


def answer_of(engine: str, result) -> List[int]:
    """The comparable answer of one engine: verdict, plus optimum for QBF."""
    if engine not in QBF_TARGET:
        return [int(result.decomposed)]
    proven = int(bool(result.decomposed and result.optimum_proven))
    value = metric(result.partition, QBF_TARGET[engine]) if proven else -1
    return [int(result.decomposed), proven, value]


def report_answers(report) -> Dict[str, List[List[int]]]:
    """``{output: [answer per engine]}``; ``[]`` for skipped outputs."""
    table: Dict[str, List[List[int]]] = {}
    for output in report.outputs:
        if not output.results:
            table[output.output_name] = []
            continue
        table[output.output_name] = [
            answer_of(engine, output.results[engine]) for engine in inputs.ENGINES
        ]
    return table


class AnswerChecker:
    """Checks reports against truth tables and the reference answers."""

    def __init__(self, answers: Dict[str, object]) -> None:
        self.reference: Dict[str, Dict[str, List[List[int]]]] = {}
        self.reference.update(answers["suite"])
        self.reference.update(answers["cold"])
        self._tables: Dict[str, TruthTables] = {}

    def problem(self, request, report) -> Optional[str]:
        """``None`` when the report is correct, else what is wrong."""
        name = request.name
        expected = self.reference.get(name)
        if expected is None:
            return f"{name}: no reference answers"
        tables = self._tables.get(name)
        if tables is None:
            tables = self._tables[name] = TruthTables(request.circuit)
        invalid = partition_problem(tables, report)
        if invalid is not None:
            return f"{name}/{invalid}: invalid partition"
        got = report_answers(report)
        if got != expected:
            return f"{name}: answers {got} differ from reference {expected}"
        return None


# -- reference generation ----------------------------------------------------------


def _cone_keys(aig) -> Optional[List[str]]:
    from repro.aig.function import BooleanFunction
    from repro.aig.signature import canonical_cone_signature

    keys = []
    for index in range(min(len(aig.outputs), inputs.MAX_OUTPUTS)):
        function = BooleanFunction.from_output(aig, index)
        if function.num_inputs < 2:
            return None
        keys.append(
            repr(canonical_cone_signature(function.aig, function.root, function.inputs))
        )
    return keys


def _run(session, request):
    report = session.run(request)
    if any(
        result.timed_out for output in report.outputs for result in output.results.values()
    ):
        return None
    invalid = partition_problem(TruthTables(request.circuit), report)
    if invalid is not None:
        raise SystemExit(f"{request.name}/{invalid}: the solver claimed an invalid partition")
    return report_answers(report)


def write_reference(per_family: int) -> Dict[str, object]:
    from repro.api import Session
    from repro.sat.solver import active_kernel_name

    session = Session()
    suite = {}
    seen = set()
    for request in inputs.suite_requests():
        answers = _run(session, request)
        if answers is None:
            raise SystemExit(f"{request.name}: timed out on the reference run")
        suite[request.name] = answers
        seen.update(_cone_keys(request.circuit) or [])
    catalog: List[List[str]] = []
    cold = {}
    taken = {family: 0 for family in inputs.COLD_FAMILIES}
    index = 0
    while min(taken.values()) < per_family:
        family = inputs.COLD_FAMILIES[index % len(inputs.COLD_FAMILIES)]
        seed = f"cold-{index}"
        index += 1
        if taken[family] >= per_family:
            continue
        circuit = inputs.cold_circuit(family, seed)
        keys = _cone_keys(circuit)
        if keys is None or seen.intersection(keys) or len(set(keys)) < len(keys):
            continue
        answers = _run(session, inputs.request_for(circuit, seed, extract=False))
        if answers is None:
            continue
        seen.update(keys)
        taken[family] += 1
        catalog.append([family, seed])
        cold[seed] = answers
        if len(catalog) % 100 == 0:
            print(f"{len(catalog)} cold entries", file=sys.stderr, flush=True)
    return {
        "version": 1,
        "generated_with_kernel": active_kernel_name(),
        "engines": list(inputs.ENGINES),
        "suite": suite,
        "cold_catalog": catalog,
        "cold": cold,
    }


def main() -> int:
    os.environ["STEP_PURE_PYTHON"] = "1"
    inputs.add_source_path()
    reference = write_reference(COLD_PER_FAMILY)
    with open(inputs.ANSWERS_PATH, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"{len(reference['suite'])} suite circuits, {len(reference['cold'])} cold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
