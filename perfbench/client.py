"""Run one spec-funnel CLI command in this fresh interpreter and report its cost.

    python3 perfbench/client.py --src <checkout>/src [--spans PATH] -- <spec-funnel args>

Importing spec_funnel is the set-up; the harness counts it from process
start to the ``ready_at`` stamp on CLOCK_MONOTONIC, which every process on
the host shares. The timed region is one call of the public entry point
``spec_funnel.cli.main``. With ``--spans`` the call is traced (see
tracing.py) and the spans are written to that path afterwards.

The last line of standard output is a JSON report: exit code, wall and CPU
seconds of the timed call, peak resident memory of this process and, when
traced, the per-layer numbers.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the spec_funnel package")
    parser.add_argument("--spans", help="trace the command and write its spans here")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="arguments for spec-funnel, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import numpy
    import requests
    import spec_funnel
    import spec_funnel.cli

    package = Path(spec_funnel.__file__).resolve().parent
    if package.parent != Path(args.src).resolve():
        sys.exit(f"imported spec_funnel from {package}, not from {args.src}")
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    ready_at = time.monotonic()

    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = spec_funnel.cli.main(argv)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start

    report = {
        "exit": code,
        "ready_at": ready_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "requests": requests.__version__,
        },
    }
    if tracer is not None:
        metrics, call_ms, thread_self_s = tracing.layer_metrics(tracer.spans)
        report.update(layers=metrics, call_ms=call_ms, thread_self_s=thread_self_s)
        tracing.write_spans(tracer.spans, args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
