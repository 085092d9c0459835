"""One benchmark round in a fresh, single-threaded process.

    python3 perfbench/worker.py '<json spec>'

The spec names the checkout root, workload, seed, size, the artifact
directory, whether to trace, whether to check outputs against the
reference, and ``mode``: "setup" stops after set-up.  The last line of
standard output is the round's result as one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main(spec: dict) -> dict:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]](spec["seed"], spec["size"], Path(spec["workdir"]))
    tracer = None
    t0 = perf_counter()
    wl.imports()
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    wl.prepare()
    out = {"setup_s": perf_counter() - t0}
    if spec["mode"] == "setup":
        return out

    t0 = perf_counter()
    wl.run(tracer)
    out["run_s"] = perf_counter() - t0 - wl.untimed_s
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["extra"] = wl.extra
    out["fingerprints"] = wl.fingerprints()
    if spec["check"]:
        from reference import load_golden

        out["failed"] = wl.check(load_golden())
    if spec.get("record"):
        out["observed"] = wl.observed()
    if tracer is not None:
        from tracer import layer_metrics

        out["per_layer"] = layer_metrics(tracer)
        if spec.get("trace_out"):
            Path(spec["trace_out"]).write_text(json.dumps(tracer.span_records()))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
