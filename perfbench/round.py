"""One round of an in-process workload, run in a fresh interpreter.

    python3 perfbench/round.py WORKLOAD SEED MODE

MODE is ``plain`` (timed set-up and ops), ``trace`` (ops under the span
tracer), ``alloc`` (ops under tracemalloc) or ``setup`` (set-up only).  The
round prints one JSON object on its last line of output.  Every op is timed
by CPU time between two ticks of the reference kernel; an op that raises
keeps its time and counts as failed.  Checks run after the timed region, once
the peak resident set has been read.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from kernel import R0, SpeedProbe
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"  # span dumps of traced rounds


def main(workload: str, seed: int, mode: str) -> dict:
    probe = SpeedProbe()
    specs = workloads.plan(workload, seed)
    probe.tick()
    start = time.process_time()
    ctx = workloads.Context(workload)
    setup_raw = time.process_time() - start
    probe.tick()
    if mode == "setup":
        return {"setup_raw": setup_raw, "setup": probe.normalise([setup_raw])[0],
                "kernel": probe.median()}

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if workload == "integral_sln":
            # traced re-build, so the per-layer run shows what construction costs
            for n in ctx.algebras:
                ctx.algebras[n] = ctx.affdef.sln(n)
    elif mode == "alloc":
        import tracemalloc

        tracemalloc.start()

    raw, wall, outputs = [], [], []
    for spec in specs:
        start, start_wall = time.process_time(), time.perf_counter()
        try:
            if tracer is not None and workload == "cli_mix":
                output = tracer.run_span("cli.command", lambda: workloads.run_op(ctx, workload, spec))
            else:
                output = workloads.run_op(ctx, workload, spec)
        except Exception as exc:  # the op failed; it keeps its time and counts as failed
            output = exc
        raw.append(time.process_time() - start)
        wall.append(time.perf_counter() - start_wall)
        probe.tick()
        outputs.append(output)
    setup, *norm = probe.normalise([setup_raw] + raw)
    out = {"setup_raw": setup_raw, "setup": setup, "raw": raw, "norm": norm, "wall": wall,
           "kernel": probe.median()}
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "alloc":
        out["alloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, probe)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")

    verdicts = [workloads.check_op(workload, spec, o, ctx) for spec, o in zip(specs, outputs)]
    out["failed"] = sum(v == "failed" for v in verdicts)
    errors = [v for v in verdicts if v.startswith("wrong")]
    if workload == "normal_order_mixed" and mode == "plain":
        errors += workloads.swap_checks(ctx, specs, seed)
    out["errors"] = errors
    return out


def layer_metrics(tracer, probe) -> dict:
    """Per-layer counts and self times, normalised like the op times."""
    from tracer import COUNTED, TIMED

    scale = R0 / probe.median()
    self_times = tracer.self_times()
    calls = tracer.span_counts()
    out = {f"{name}.calls": calls[name] for name in COUNTED}
    out.update({f"{name}.self_s": self_times.get(name, 0.0) * scale for name in TIMED})
    out["liealg.bracket_elt.calls"] = tracer.counts["liealg.bracket_elt"]
    out["scalar.linform.count"] = tracer.counts["scalar.linform"]
    applies = calls["pbw.apply_mode"]
    out["pbw.apply_mode.distinct_share"] = tracer.apply_distinct / applies if applies else 0.0
    out["pbw.state_terms_max"] = tracer.state_terms_max
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    sys.stdout.write(json.dumps(result) + "\n")
