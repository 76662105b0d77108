"""End-to-end benchmark of the dualtoeplitz command line.

    python3 perfbench/run.py --workload sparse-elim --seed 1 --seconds 40 --trace 0

Run from the repository root.  One client runs the workload's commands one
at a time, each in a fresh interpreter (``python -m dualtoeplitz.cli`` with
``src`` on the path), pass after pass until ``--seconds`` are used: a closed
loop with one client, since the package is single-threaded.  Every output is
checked (see ``checks.py``); a wrong exit code or a failed check counts as a
failed command.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
in-process harness in ``layers.py`` and prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads are in
``workloads.py``; ``--list`` prints a workload's commands for the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# The figures were taken with the pure-Python kernel; a run with another
# kernel measures a different program and is refused rather than compared.
BASELINE_BACKEND = "python"
# The tail is the same percentile in every run, so runs with different pass
# counts stay comparable.  Of p75, p90 and p99 it is the only one that keeps
# about ten samples beyond it in a 40-second run of every workload: dense-elim
# completes 4-6 passes of 11 commands (3 on a slow host, which the stdout line
# then shows as fewer than ten beyond).
TAIL_PERCENTILE = 75
COMMAND_TIMEOUT_S = 150
# Median time of reference.py in a fresh interpreter on the 2-vCPU Xeon host
# the benchmark was built on, in a quiet period.  Timings are reported in
# seconds at that host speed (see at_reference).
REFERENCE_S = 0.08
# Each timing is scaled by the median of the REFERENCE_WINDOW reference runs
# nearest to it: half before it, half after.  The host's speed moves by tens
# of percent within a 40-second run, so one factor per run leaves that drift
# in.  Twenty runs on the 2-vCPU build host, rescaled offline, gave a mean
# run-to-run spread of 0.07 with windows of 2 to 8, 0.10 with 16 and 0.125
# with one factor per run; 4 was the best (see README.md).
REFERENCE_WINDOW = 4

END_TO_END_UNITS = {
    "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s", "topN_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def timed(args: list[str], env) -> tuple[float, int, bytes]:
    """Run a child to completion: seconds, exit code, stdout.

    communicate() without a timeout blocks in waitpid, so the child's end is
    seen at once; with a timeout it would poll with sleeps of up to 50 ms.
    A timer kills a child that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    return time.perf_counter() - start, proc.returncode, out


def fresh(argv, env) -> tuple[float, int, bytes]:
    """One command in a fresh interpreter: seconds, exit code, stdout."""
    return timed([sys.executable, "-m", "dualtoeplitz.cli", *argv], env)


def setup_sample(env) -> float:
    """Fresh interpreter plus ``import dualtoeplitz.cli``, via ``--help``."""
    dt, code, out = fresh(["--help"], env)
    if code != 0 or b"usage:" not in out:
        raise RuntimeError("dualtoeplitz.cli --help failed")
    return dt


def tail(samples: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE latency and how many samples lie beyond it."""
    value = statistics.quantiles(samples, n=100)[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in samples if x > value)


def reference_sample(env) -> float:
    """The fixed reference job in a fresh interpreter."""
    dt, code, _ = timed([sys.executable, str(HERE / "reference.py")], env)
    if code != 0:
        raise RuntimeError("reference job failed")
    return dt


def at_reference(timings: list[tuple[float, int]], refs: list[float]) -> list[float]:
    """Each (seconds, number of reference runs before it) in seconds at REFERENCE_S."""
    half = REFERENCE_WINDOW // 2
    return [dt * REFERENCE_S / statistics.median(refs[max(0, i - half):i + half]) for dt, i in timings]


def measure(cmds, seconds: float, env, check) -> tuple[dict, int, int, list[str]]:
    """Untraced fresh-process passes until the time is used.

    The reference job runs before every command.  Every timing is scaled
    by it (see at_reference), which takes out the host's speed at that
    moment; the raw figures are printed too.
    """
    # (seconds, reference runs before it)
    latencies: list[list[tuple[float, int]]] = [[] for _ in cmds]
    digests: list[list[tuple[int, bytes]]] = [[] for _ in cmds]
    first_out: dict[int, bytes] = {}
    refs: list[float] = []
    setups: list[tuple[float, int]] = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for k, cmd in enumerate(cmds):
            refs.append(reference_sample(env))
            dt, code, out = fresh(cmd.argv, env)
            latencies[k].append((dt, len(refs)))
            digests[k].append((code, hashlib.sha256(out).digest()))
            first_out.setdefault(k, out)
        # set-up samples spread over the run, between passes
        setups += [(setup_sample(env), len(refs)) for _ in range(2)]
        passes += 1
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    attempted = failed = 0
    notes = []
    for k, cmd in enumerate(cmds):
        problems = check(cmd, first_out[k], digests[k][0][0])
        if problems:
            notes.append(f"FAILED {cmd.text}: {'; '.join(problems)}")
        want = hashlib.sha256(first_out[k]).digest()
        for code, digest in digests[k]:
            attempted += 1
            failed += bool(problems or code != 0 or digest != want)
    top = next(k for k, cmd in enumerate(cmds) if cmd.top)

    def summary(rows: list[list[float]], setup: list[float]) -> dict:
        samples = [dt for row in rows for dt in row]
        return {
            "wall_s": statistics.median(sum(row[q] for row in rows) for q in range(passes)),
            "cmd_p50_s": statistics.median(samples),
            "cmd_tail_s": tail(samples)[0],
            "topN_s": statistics.median(rows[top]),
            "setup_s": statistics.median(setup),
        }

    raw_rows = [[dt for dt, _ in row] for row in latencies]
    raw = summary(raw_rows, [dt for dt, _ in setups])
    metrics = summary([at_reference(row, refs) for row in latencies], at_reference(setups, refs))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["ok_frac"] = (attempted - failed) / attempted
    notes.append(f"{passes} passes, {attempted} commands, {len(setups)} set-up samples")
    notes.append(f"host speed: {len(refs)} reference runs, median {statistics.median(refs):.4f} s "
                 f"(REFERENCE_S {REFERENCE_S} s)")
    notes.append("unscaled: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()))
    notes.append(f"cmd_tail_s is p{TAIL_PERCENTILE} of {attempted} command latencies "
                 f"({tail([dt for row in raw_rows for dt in row])[1]} beyond it)")
    notes.append(f"topN command: {cmds[top].text}")
    for k, cmd in enumerate(cmds):
        notes.append(f"  unscaled median {statistics.median(raw_rows[k]):8.4f} s  {cmd.text}")
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print the commands and exit")
    args = parser.parse_args(argv)

    if not (SRC / "dualtoeplitz" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import dualtoeplitz
    import checks
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cmds = generate(args.workload, args.seed)
    if args.list:
        for cmd in cmds:
            print(cmd.text)
        return 0

    backend = dualtoeplitz.BACKEND_NAME
    env_record = {
        "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
        "backend": backend, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    print("env: " + json.dumps(env_record, sort_keys=True))
    if backend != BASELINE_BACKEND:
        print(f"error: backend {backend!r} is not the {BASELINE_BACKEND!r} backend the "
              "benchmark's figures were taken with; runs are not comparable", file=sys.stderr)
        return 3

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def check(cmd, out, code):
        return checks.check_output(cmd, out, code, backend, args.workload, args.seed)

    if args.trace:
        import layers

        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed, notes = layers.run_traced(
            cmds, args.seconds, lambda cmd: fresh(cmd.argv, env), check, path)
        units = {name: layers.unit(name) for name in metrics}
    else:
        metrics, attempted, failed, notes = measure(cmds, args.seconds, env, check)
        units = END_TO_END_UNITS
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
