"""Start ``repro.cli.main`` (``step serve`` / ``step route``) for the benchmark.

Usage: ``python3 perfbench/launcher.py serve --socket 127.0.0.1:0 ...``

The first line on standard output is ``perfbench kernel: c|python``, the
solver substrate of this process; ``repro``'s own banner with the bound
address follows.  With ``PERFBENCH_TRACE_OUT=PATH`` set, the layer
wrappers of ``tracer.py`` are installed before the CLI starts, every
``SIGUSR1`` snapshots the span aggregates, and the spans are written to
PATH when the server exits.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

inputs.add_source_path()


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE_OUT")
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer().install()
        signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.mark())
    from repro.cli import main as cli_main
    from repro.sat.solver import active_kernel_name

    print(f"perfbench kernel: {active_kernel_name()}", flush=True)
    try:
        return cli_main(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
