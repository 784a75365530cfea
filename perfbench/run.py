"""wildmckay benchmark: seeded CLI workloads run as one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload mass-series --seed 1 --seconds 20 --trace 0

One client in one process sends each op through the public entry point
`wildmckay.cli.main(argv, stdout=buffer)`, waits for it, checks the output
against an oracle that does not use wildmckay, and sends the next.  The ops
of a workload form a pass; passes repeat until `--seconds` have elapsed, and
only whole passes are measured, so every run measures the same op mix.

Times are reported in reference seconds.  On a shared two-core machine the
speed of the core changes by up to 2x over tens of seconds, for wall and CPU
time alike.  So a fixed calibration loop (`speed_probe`) runs right before
and right after every op, and the op's time is scaled by REF_PROBE_S over
the mean of those two probes: the time the op would take on a core where
the probe takes REF_PROBE_S.  Raw seconds are kept in the result file.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from spans recorded around the package's public functions (see tracing.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Run details (git sha, Python, nproc, seed) go to the lines before
it and to .perfbench-out/ in the repository root, along with generated
inputs and the trace spans.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
REF_PROBE_S = 0.002

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from oracles import Mismatch  # noqa: E402


def speed_probe() -> float:
    """Seconds taken by a fixed mix of the interpreter work wildmckay does:
    big-integer Fraction sums, dict updates, modular powers and a sort."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + pow(i, 7, 1000003)
    sorted(table.items())
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_cli():
    """Import wildmckay afresh (dropping any earlier import) and return its CLI."""
    for name in [m for m in sys.modules if m == "wildmckay" or m.startswith("wildmckay.")]:
        del sys.modules[name]
    return importlib.import_module("wildmckay.cli")


def setup(name: str, seed: int):
    """Import, input generation and warm-up; returns (cli, workload, reference seconds)."""
    probe = speed_probe()
    start = time.perf_counter()
    cli = import_cli()
    workload = workloads.build(name, seed, OUT / "inputs" / f"{name}-seed{seed}")
    for argv in workload.warmup:
        code = cli.main(argv, stdout=io.StringIO())
        if code != 0:
            raise SystemExit(f"warm-up command failed with exit {code}: {' '.join(argv)}")
    seconds = time.perf_counter() - start
    return cli, workload, seconds * 2 * REF_PROBE_S / (probe + speed_probe())


class Client:
    """Closed-loop client: runs ops one at a time and checks each output."""

    def __init__(self, corrupt_every: int = 0):
        self.corrupt_every = corrupt_every
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.raw: list[float] = []
        self.scales: list[float] = []
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.output_bytes = 0

    def run_op(self, cli, op, on_start=None) -> None:
        self.attempted += 1
        buffer = io.StringIO()
        if on_start is not None:
            on_start(self.attempted)
        probe = speed_probe()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(list(op.argv), stdout=buffer)
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall1, cpu1 = time.perf_counter(), time.process_time()
        scale = 2 * REF_PROBE_S / (probe + speed_probe())
        self.raw.append(wall1 - wall0)
        self.scales.append(scale)
        self.latencies.append((wall1 - wall0) * scale)
        self.cpu.append((cpu1 - cpu0) * scale)
        text = buffer.getvalue()
        self.output_bytes += len(text.encode())
        try:
            if code != 0:
                raise Mismatch(f"exit {code}")
            report, rows = workloads.load_output(op.fmt, text)
            if self.corrupt_every and self.attempted % self.corrupt_every == 0:
                op.corrupt(report, rows)
                report, rows = workloads.load_output(op.fmt, workloads.dump_output(op.fmt, report, rows))
            op.check(report, rows)
        except Exception as exc:  # any unreadable or wrong output counts as failed
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")

    def run_pass(self, cli, ops, on_start=None) -> tuple[float, float]:
        """Run every op once; returns the reference (wall, cpu) seconds inside the CLI."""
        first = len(self.latencies)
        for op in ops:
            self.run_op(cli, op, on_start)
        return sum(self.latencies[first:]), sum(self.cpu[first:])


def run_passes(client, cli, ops, seconds, on_start=None, min_passes=1) -> list[tuple[float, float]]:
    """Whole passes until `seconds` of wall time have gone; per-pass CLI time."""
    deadline = time.perf_counter() + seconds
    times = []
    while len(times) < min_passes or time.perf_counter() < deadline:
        times.append(client.run_pass(cli, ops, on_start))
    return times


def end_to_end(name, seed, seconds, corrupt_every):
    """Per-pass figures are medians over passes; latency quantiles are over all ops."""
    setups = [setup(name, seed) for _ in range(SETUP_REPEATS)]
    cli, workload, _ = setups[-1]
    client = Client(corrupt_every)
    passes = run_passes(client, cli, workload.ops, seconds, min_passes=3)
    size = len(workload.ops)
    ok_ratio = (client.attempted - client.failed) / client.attempted
    metrics = {
        "setup_s": (statistics.median(s[2] for s in setups), "s"),
        "ops_per_s": (size / statistics.median(wall for wall, _ in passes), "1/s"),
        "op_p50_s": (statistics.median(client.latencies), "s"),
        "op_p90_s": (statistics.quantiles(client.latencies, n=10)[8], "s"),
        "cpu_per_op_s": (statistics.median(cpu for _, cpu in passes) / size, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_ops_ratio": (ok_ratio, "ratio"),
    }
    notes = {
        "latency_samples": len(client.latencies),
        "ops_per_pass": size,
        "failed_ops_ratio": 1 - ok_ratio,
        "raw_op_p50_s": statistics.median(client.raw),
        "raw_ops_per_s": client.attempted / sum(client.raw),
    }
    return client, metrics, notes


def traced(name, seed, seconds):
    import tracing

    cli, workload, _ = setup(name, seed)
    client = Client()
    untraced = run_passes(client, cli, workload.ops, seconds / 3)
    tracer = tracing.install(sys.modules)
    cli = sys.modules["wildmckay.cli"]
    client.output_bytes = 0
    first_traced = client.attempted + 1
    traced_times = run_passes(client, cli, workload.ops, seconds * 2 / 3, on_start=tracer.start_op)
    traced_ops = client.attempted - first_traced + 1
    metrics = tracer.layer_metrics(traced_ops, lambda op: client.scales[op - 1])
    metrics["cli.output_bytes"] = (client.output_bytes / traced_ops, "bytes/op")
    metrics["trace.overhead_ratio"] = (
        statistics.median(w for w, _ in traced_times) / statistics.median(w for w, _ in untraced), "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{name}-seed{seed}.json", {"workload": name, "seed": seed})
    notes = {"traced_ops": traced_ops, "spans": len(tracer.spans),
             "untraced_passes": len(untraced), "traced_passes": len(traced_times)}
    return client, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0, metavar="K",
                        help="self-check only: corrupt the output of every K-th op before checking it")
    args = parser.parse_args(argv)
    if not (SRC / "wildmckay" / "cli.py").is_file():
        print(f"error: no wildmckay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        client, metrics, notes = traced(args.workload, args.seed, args.seconds)
    else:
        client, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, args.corrupt_every)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "notes": notes,
        "failures": client.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "latencies_ref_s": client.latencies,
        "latencies_raw_s": client.raw,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"# {args.workload} seed={args.seed} sha={record['git_sha']} python={record['python']} nproc={record['nproc']}")
    for key, value in notes.items():
        print(f"#   {key} = {value}")
    for key, (value, unit) in metrics.items():
        print(f"#   {key:32s} {value:14.6g} {unit}")
    for failure in client.failures:
        print(f"#   FAILED {failure}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
