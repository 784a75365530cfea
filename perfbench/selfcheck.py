"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Corrupted outputs are caught: every workload is run with every op's
   output corrupted (one term or one count changed) and must report every
   op failed, then with every third op corrupted and must report exactly
   that share in ok_ops_ratio.
2. Traced counts repeat: two traced runs with the same seed must give
   identical per-op counts.

Each run is a fresh `run.py` process, waited for before the next starts.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

COUNT_METRICS = (
    "qexpr.qfrac_built", "qexpr.qfrac_poly_den_share", "series.exp_calls", "series.log_calls",
    "localfields.algebras_enumerated", "stringy.result_terms", "padic.solutions_found",
    "padic.points_tested_computed", "padic.useful_ratio", "cli.output_bytes",
)


def run(workload: str, seed: int, trace: int, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        every = run(workload, 7, 0, "--corrupt-every", "1")
        if every["failed"] != every["attempted"] or every["correct"]:
            problems.append(f"{workload}: {every['failed']} of {every['attempted']} corrupted outputs caught")
        third = run(workload, 7, 0, "--corrupt-every", "3")
        want = third["attempted"] // 3
        ratio = third["metrics"]["ok_ops_ratio"]["value"]
        if third["failed"] != want or ratio != (third["attempted"] - want) / third["attempted"]:
            problems.append(f"{workload}: every third op corrupted, {third['failed']} failed, ok_ops_ratio {ratio}")
        print(f"{workload}: corrupted {every['attempted']}/{every['attempted']} -> failed {every['failed']}; "
              f"corrupted {want}/{third['attempted']} -> failed {third['failed']}, ok_ops_ratio {ratio:.4f}")

        first, second = run(workload, 11, 1), run(workload, 11, 1)
        for key in COUNT_METRICS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{workload}: traced {key} differs between identical runs: {a} != {b}")
        shown = ", ".join(f"{k}={first['metrics'][k]['value']:g}" for k in COUNT_METRICS
                          if first["metrics"][k]["value"])
        print(f"{workload}: traced counts repeat: {shown}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
