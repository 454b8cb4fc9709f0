"""One benchmark pass in a fresh process: set up, then run the op list once.

The driver starts this script with the pass spec on stdin and the launch time
(``time.monotonic``, which is system-wide) on the command line, so set-up time
covers interpreter start, ``import mgt`` and building the inputs. An op runs
as one or more segments, and every segment is bracketed by the reference loop;
the result goes to stdout as one JSON object.

Run only by ``run.py``.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

import workloads
from refloop import REF_NOMINAL, reference_seconds


def main() -> int:
    t_launch = float(sys.argv[1])
    spec = json.load(sys.stdin)
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    wl = workloads.WORKLOADS[spec["workload"]]
    importlib.import_module("mgt")
    for module in wl["imports"]:
        importlib.import_module(module)
    prepared = wl["prepare"](spec, root, spec["trace"])
    setup_raw = time.monotonic() - t_launch

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
        layers: dict = {}

    reference_seconds()  # first call in a fresh interpreter warms the loop up
    ref_prev = reference_seconds()
    setup_ref = ref_prev
    ops = []
    for op in [] if spec["setup_only"] else spec["ops"]:
        raw = norm = 0.0
        output = error = None
        for segment in wl["segments"](op, prepared):
            t0 = time.perf_counter()
            try:
                output = segment()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            seg = time.perf_counter() - t0
            ref_next = reference_seconds()
            factor = REF_NOMINAL / ((ref_prev + ref_next) / 2)
            raw += seg
            norm += seg * factor
            if tracer is not None:
                snaps = [tracer.take()] + prepared.get("cli_traces", [])
                if "cli_traces" in prepared:
                    prepared["cli_traces"] = []
                for snap in snaps:
                    tracing.absorb(layers, snap, factor)
            ref_prev = ref_next
            if error is not None:
                break
        ops.append({"id": op["id"], "raw": raw, "norm": norm, "ref": ref_prev,
                    "output": output, "error": error})

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_raw": setup_raw, "setup_ref": setup_ref, "ops": ops,
              "peak_rss_kb": usage}
    if tracer is not None:
        result["layers"] = layers
        result["bound"] = sorted(tracer.bound)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
