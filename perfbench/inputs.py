"""The benchmark's inputs: the paper suite, the warm pool and the cold catalog.

Every input is a :class:`repro.api.DecompositionRequest` over the OR
operator with all five paper engines and the sweep's scaled budgets
(2 s per QBF call, 15 s per output, at most 4 outputs per circuit):

* ``suite_requests`` -- the Table I-IV suite (18 circuits, 46 outputs),
  ``extract=False`` as in the paper sweep;
* ``hot_requests`` -- the same 18 circuits with extraction on, the pool
  the warm service traffic repeats;
* ``cold_requests`` -- the cold catalog (``answers.json``): circuits of
  the suite's random families at suite widths, each listed once and
  chosen so that no two catalog cones share a canonical signature.

Run as a script it is the set-up probe: ``python3 perfbench/inputs.py
WORKLOAD`` imports the stack, loads the solver kernel, builds the
workload's inputs and prints ``ready``; the caller times it from spawn to
that line.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ANSWERS_PATH = os.path.join(HERE, "answers.json")

ENGINES = ("LJH", "STEP-MG", "STEP-QD", "STEP-QB", "STEP-QDB")
OPERATOR = "or"
PER_CALL_S = 2.0
PER_OUTPUT_S = 15.0
MAX_OUTPUTS = 4

#: Cold-catalog families: the suite's random generators at the suite's
#: widths (``s38417``, ``clma``, ``s38584.1``, ``pair`` and ``mm9a``).
COLD_FAMILIES = ("aig12", "aig11", "dnf12", "dnf10", "bidec")


def add_source_path() -> None:
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def request_for(aig, name: str, extract: bool):
    from repro.api import Budgets, DecompositionRequest, Parallelism

    return DecompositionRequest(
        circuit=aig,
        operator=OPERATOR,
        engines=ENGINES,
        budgets=Budgets(per_call=PER_CALL_S, per_output=PER_OUTPUT_S),
        parallelism=Parallelism(jobs=1, backend="serial"),
        name=name,
        max_outputs=MAX_OUTPUTS,
        extract=extract,
    )


def suite_requests(extract: bool = False) -> list:
    from repro.circuits.suites import quality_suite

    return [request_for(row.aig, row.name, extract) for row in quality_suite("small")]


def hot_requests() -> list:
    return suite_requests(extract=True)


def cold_circuit(family: str, seed: str):
    """One cold-catalog circuit; ``seed`` also names it."""
    from repro.circuits import generators

    # The output count (1-4) of the random-AIG families comes from the seed.
    outputs = 1 + sum(seed.encode()) % 4
    if family == "aig12":
        return generators.random_aig(12, 60, outputs, seed=seed, name=seed)
    if family == "aig11":
        return generators.random_aig(11, 45, outputs, seed=seed, name=seed)
    if family == "dnf12":
        return generators.random_dnf(12, 18, 4, seed=seed, name=seed)
    if family == "dnf10":
        return generators.random_dnf(10, 14, 3, seed=seed, name=seed)
    if family == "bidec":
        aig, _, _, _ = generators.decomposable_by_construction(
            "or", 4, 4, 2, seed=seed, name=seed
        )
        return aig
    raise ValueError(f"unknown cold family {family!r}")


def load_answers() -> Dict[str, object]:
    with open(ANSWERS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def cold_requests(catalog: Sequence[Tuple[str, str]]) -> List[Tuple[str, object]]:
    """``(family, request)`` for every catalog entry."""
    return [
        (family, request_for(cold_circuit(family, seed), seed, extract=True))
        for family, seed in catalog
    ]


def build(workload: str) -> Dict[str, object]:
    """Everything a workload sends, built from source data."""
    if workload == "paper_sweep":
        return {"requests": suite_requests()}
    inputs = {"requests": hot_requests()}
    if workload == "service_cold":
        inputs["cold"] = cold_requests(load_answers()["cold_catalog"])
    return inputs


def _probe(workload: str) -> int:
    add_source_path()
    import repro.api  # noqa: F401 - the import is part of set-up
    from repro.sat.solver import Solver, active_kernel_name

    if workload != "paper_sweep":
        import repro.service.client  # noqa: F401

    Solver()  # loads the kernel extension
    build(workload)
    print(f"ready kernel={active_kernel_name()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_probe(sys.argv[1]))
