"""Traced stand-in for ``python -m mgt.cli``: same arguments, same stdout.

Used only by the traced cli pass. It splits one cold CLI run into interpreter
start (launch to the first line of this script), ``import mgt.cli`` and
``cli.main``, wraps mgt's functions with the tracer between import and main,
and writes the raw trace as the last line of stderr.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t_launch = float(os.environ["TAUBENCH_T_LAUNCH"])
    t0 = time.perf_counter()
    from mgt import cli

    import_s = time.perf_counter() - t0
    import tracer as tracing

    tr = tracing.install(tracing.Tracer(), loaded_only=True)
    t1 = time.perf_counter()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t1
        sys.stdout.flush()
        snap = tr.take()
        snap["stats"].update({"cli_interp_s": T_START - t_launch, "cli_import_s": import_s,
                              "cli_main_s": main_s})
        print("TAUBENCH-TRACE " + json.dumps(snap), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
