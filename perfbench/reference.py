"""Reference figures for the ROADMAP baselines, timed like the benchmark's ops.

    python3 perfbench/reference.py

Each case runs REPEATS times, each time in a fresh interpreter started the
way the benchmark starts its rounds (``run.run_child`` with ``run.child_env``),
between two runs of the reference kernel.  It is reported in raw CPU seconds
and in CPU seconds at reference speed (``raw * R0 / r``).  The printed table
is the one kept in README.md.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from kernel import SpeedProbe
from run import child_env, run_child

REPEATS = 3


def _integral_sl2_16(A):
    g = A.sl2()
    return lambda: A.integral_pipeline(g, 16)


def _integral_sl5_4(A):
    g = A.sln(5)
    return lambda: A.integral_pipeline(g, 4)


def _build_sl5(A):
    return lambda: A.sln(5)


def _normal_order_f8e8(A):
    g = A.sl2()
    word = [A.Mode(g.index("f"), -1)] * 8 + [A.Mode(g.index("e"), -1)] * 8
    return lambda: A.normal_order(g, word, 1)


# Each case builds its inputs untimed and returns the call to time.
CASES = {
    "integral sl2 k=16": _integral_sl2_16,
    "integral sln(5) k=4, after construction": _integral_sl5_4,
    "sln(5) construction": _build_sl5,
    "normal_order(f(-1)^8 e(-1)^8)": _normal_order_f8e8,
}


def child(name: str) -> dict:
    import affdef

    op = CASES[name](affdef)
    probe = SpeedProbe()
    probe.tick()
    start = time.process_time()
    op()
    raw = time.process_time() - start
    probe.tick()
    return {"raw": raw, "norm": probe.normalise([raw])[0]}


def main() -> int:
    env = child_env()
    print("| case | normalised CPU s (median) | raw CPU s (median) | runs |")
    print("| --- | --- | --- | --- |")
    for name in CASES:
        runs = []
        for _ in range(REPEATS):
            res = run_child([sys.executable, str(Path(__file__).resolve()), "--child", name], env)
            if res["code"] != 0:
                print(f"error: case {name!r} exited {res['code']}:\n{res['stderr']}", file=sys.stderr)
                return 1
            runs.append(json.loads(res["stdout"].splitlines()[-1]))
        norm = statistics.median(r["norm"] for r in runs)
        raw = statistics.median(r["raw"] for r in runs)
        print(f"| {name} | {norm:.3f} | {raw:.3f} | {REPEATS} |")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2])))
        sys.exit(0)
    sys.exit(main())
