"""Benchmark for affdef: one workload per invocation, metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of an in-process workload runs
in a fresh interpreter (``round.py``) so that no round sees another's warm
state; ``cli_mix`` runs one ``python -m affdef.cli`` child at a time and times
each by its CPU time.  With ``--trace 0`` the end-to-end metrics are printed,
with ``--trace 1`` the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"  # results and span dumps, ignored by git
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from kernel import SpeedProbe  # noqa: E402

CHILD_TIMEOUT_S = 150
TAIL_MIN_OPS = 40  # the tail percentile needs at least ten ops beyond it
IMPORT_PROBES = 5
MIN_ROUNDS = 2  # so that every median is taken over more than one process
CLI_SETUPS = 5  # set-up children per cli_mix run, whose median is setup_s


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, env: dict) -> dict:
    """Run one child to its end; return exit code, output, CPU and wall time, peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "code": proc.returncode,
        "stdout": out.decode(),
        "stderr": err[0].decode(),
        "cpu": usage.ru_utime + usage.ru_stime,
        "wall": time.perf_counter() - start,
        "rss_mib": usage.ru_maxrss / 1024,
    }


def run_round(workload: str, seed: int, mode: str, env: dict) -> dict:
    res = run_child([sys.executable, str(HERE / "round.py"), workload, str(seed), mode], env)
    if res["code"] != 0:
        raise BenchError(f"{workload} round ({mode}) exited {res['code']}:\n{res['stderr']}")
    return json.loads(res["stdout"].splitlines()[-1])


def run_cli_round(specs: list, env: dict) -> dict:
    """One child per invocation, timed by its CPU time and normalised by the parent's kernel."""
    probe = SpeedProbe()
    probe.tick()
    cpu, wall, rss, verdicts = [], [], [], []
    for argv in specs:
        res = run_child([sys.executable, "-m", "affdef.cli", *argv], env)
        probe.tick()
        cpu.append(res["cpu"])
        wall.append(res["wall"])
        rss.append(res["rss_mib"])
        verdicts.append(workloads.check_cli(argv, res["code"], res["stdout"], res["stderr"]))
    return {
        "norm": probe.normalise(cpu), "raw": cpu, "wall": wall, "rss_mib": max(rss),
        "kernel": probe.median(),
        "failed": sum(v == "failed" for v in verdicts),
        "errors": [v for v in verdicts if v.startswith("wrong")],
    }


def repeat_for(seconds: float, min_rounds: int, one_round) -> list:
    """Whole rounds until the next one would end after ``seconds`` (at least ``min_rounds``)."""
    rounds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(one_round())
        last = time.perf_counter() - t
        if len(rounds) >= min_rounds and time.perf_counter() - start + last > seconds:
            return rounds


def tail(pooled: list, pool_size: int) -> float:
    """The quantile that leaves ten ops beyond it in a pool of ``pool_size`` ops.

    ``pool_size`` is fixed per workload (whole rounds, at least 40 ops), so the
    percentile does not move with the number of rounds a run fits; all rounds
    of the run are pooled to estimate it.
    """
    ordered = sorted(pooled)
    return ordered[len(ordered) - 1 - (10 * len(ordered)) // pool_size]


def end_to_end(workload: str, seed: int, seconds: float, env: dict) -> tuple:
    specs = workloads.plan(workload, seed)
    pool = math.ceil(TAIL_MIN_OPS / len(specs))  # rounds that hold 40 ops
    min_rounds = max(pool, MIN_ROUNDS)
    if workload == "cli_mix":
        setups = [run_round(workload, seed, "setup", env) for _ in range(CLI_SETUPS)]
        rounds = repeat_for(seconds, min_rounds, lambda: run_cli_round(specs, env))
    else:
        rounds = repeat_for(seconds, min_rounds, lambda: run_round(workload, seed, "plain", env))
        setups = rounds
    for i, r in enumerate(rounds, 1):
        print(f"{workload} round {i}: run {sum(r['norm']):.4f} normalised CPU s (raw CPU"
              f" {sum(r['raw']):.4f} s, wall {sum(r['wall']):.4f} s), kernel median"
              f" {r['kernel'] * 1e3:.3f} ms, peak RSS {r['rss_mib']:.2f} MiB")
    for i, s in enumerate(setups, 1):
        print(f"{workload} set-up {i}: {s['setup']:.4f} normalised CPU s, {s['setup_raw']:.4f} raw CPU s,"
              f" kernel median {s['kernel'] * 1e3:.3f} ms")
    pooled = [t for r in rounds for t in r["norm"]]
    metrics = {
        "run_s": statistics.median(sum(r["norm"]) for r in rounds),
        "op_p50_s": statistics.median(pooled),
        "op_tail_s": tail(pooled, pool * len(specs)),
        "setup_s": statistics.median(s["setup"] for s in setups),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in rounds),
    }
    units = {"run_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    return rounds, {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}


def import_cost(env: dict) -> float:
    """Child CPU time of a fresh ``import affdef.cli`` minus that of ``python -c pass``."""
    def cpu(code):
        return statistics.median(
            run_child([sys.executable, "-c", code], env)["cpu"] for _ in range(IMPORT_PROBES)
        )
    return cpu("import affdef.cli") - cpu("pass")


PER_LAYER_UNITS = {
    "liealg.validate.calls": "count",
    "liealg.validate.self_s": "s",
    "liealg.bracket_elt.calls": "count",
    "liealg.sln.self_s": "s",
    "pbw.apply_mode.calls": "count",
    "pbw.apply_mode.self_s": "s",
    "pbw.apply_mode.distinct_share": "ratio",
    "pbw.normal_order.calls": "count",
    "pbw.normal_order.self_s": "s",
    "pbw.state_terms_max": "terms",
    "deform.evaluate.calls": "count",
    "deform.evaluate.self_s": "s",
    "deform.master_commute.calls": "count",
    "deform.master_commute.self_s": "s",
    "scalar.linform.count": "count",
    "rigidity.pipeline.self_s": "s",
    "rigidity.eliminate.calls": "count",
    "rigidity.eliminate.self_s": "s",
    "singular.is_singular.self_s": "s",
    "cli.import_s": "s",
    "cli.command.self_s": "s",
    "mem.alloc_peak_mib": "MiB",
    "trace.overhead_s": "s",
}


def per_layer(workload: str, seed: int, env: dict) -> tuple:
    plain = run_round(workload, seed, "plain", env)
    traced = run_round(workload, seed, "trace", env)
    alloc = run_round(workload, seed, "alloc", env)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = sum(traced["norm"]) - sum(plain["norm"])
    layers["mem.alloc_peak_mib"] = alloc["alloc_peak_mib"]
    layers["cli.import_s"] = import_cost(env)
    for name, r in (("untraced", plain), ("traced", traced), ("tracemalloc", alloc)):
        print(f"{workload} {name} run: {sum(r['norm']):.4f} normalised CPU s, {sum(r['raw']):.4f} raw CPU s,"
              f" kernel median {r['kernel'] * 1e3:.3f} ms")
    for name in sorted(layers):
        print(f"  {name} = {layers[name]}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return [plain, traced, alloc], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affdef" / "__init__.py").is_file():
        print(f"error: no affdef sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            rounds, metrics = per_layer(args.workload, args.seed, env)
        else:
            rounds, metrics = end_to_end(args.workload, args.seed, args.seconds, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print(e)
    result = {
        "correct": not errors,
        "attempted": sum(len(r["norm"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
