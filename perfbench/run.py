"""kvquad benchmark: end-to-end CLI jobs in worker processes, checked byte for byte.

Usage:
    python3 perfbench/run.py --workload kv2_cold --seed 1 --seconds 28 --trace 0

Each job is one argv passed to ``kvquad.cli.main`` inside a worker process
(``worker.py``) that imports ``kvquad`` from this checkout's ``src/``.  The loop
is closed: one client, one worker at a time, the next job only after the
previous one returned.  Every job's exit code and stdout digest are compared
with ``golden.json``; a mismatch is a failed job.

The whole run is pinned to one CPU.  Right before and after every timed sample
the benchmark times the reference kernel of ``reference.py`` on that CPU, and
rescales the sample to reference speed, so the drift of a shared host's speed
does not read as a change of the program.  Raw wall times are kept too.

With ``--trace 0`` the run reports the end-to-end metrics (``setup_s``,
``job_s``, ``peak_rss_mb``).  With ``--trace 1`` it alternates untraced and
traced jobs and reports the per-layer metrics of ``tracer.py``, plus
``trace.overhead_ratio``.  Human-readable lines come first; the last stdout
line is the JSON result.  The full record, with the environment and every
sample, is written to ``perfbench/results/``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, kernel_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
GOLDEN = BENCH / "golden.json"

# Job sizes and the reasons for them are in README.md.  "{seed}" is replaced
# by the benchmark seed.
WORKLOADS = {
    "kv2_cold": {"argv": ["verify", "--suite", "theorem", "--order", "9", "--seed", "{seed}"],
                 "warm": False},
    "kv3_cold": {"argv": ["verify", "--suite", "propU", "--order", "7"], "warm": False},
    "homo_cold": {"argv": ["verify", "--suite", "homo", "--order", "9"], "warm": False},
    "solve_warm": {"argv": ["solve-kv", "--order", "9", "--gauge", "4"], "warm": True},
}
MIN_JOBS = 3          # timed jobs per cold run, however short --seconds is
SETUP_ONLY = 10       # extra spawn-to-ready samples per cold run
WARM_WORKERS = 3      # warm workers per untraced run, each one setup_s sample
WATCHDOG_S = 170      # a run never outlives this

UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def job_argv(workload: str, seed: int) -> list[str]:
    return [a.replace("{seed}", str(seed)) for a in WORKLOADS[workload]["argv"]]


class Worker:
    """One worker process; ``setup_s`` is the time from spawn to ready."""

    def __init__(self, warmup: list[str] = ()):
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(ROOT), *warmup],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()} "
                             "(is this a kvquad checkout with src/kvquad?)")
        return json.loads(line)

    def job(self, argv: list[str], trace: bool) -> dict:
        request = {"argv": argv, "trace": trace}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise BenchError(f"traced run failed: {reply['error']}")
        return reply

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class HostSpeed:
    """Reference-kernel timings taken between the timed samples of a run."""

    def __init__(self):
        kernel_s()  # untimed: warms the kernel's code paths
        self.last = kernel_s()
        self.samples = [self.last]

    def scale(self) -> float:
        """Time the kernel again; return the factor that rescales the sample
        timed since its last run to reference speed."""
        before, self.last = self.last, kernel_s()
        self.samples.append(self.last)
        return NOMINAL_S / ((before + self.last) / 2)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every worker it starts, to one CPU."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Run:
    """Jobs of one workload, checked against the golden output."""

    def __init__(self, workload: str, seed: int, seconds: float, golden: dict):
        self.workload = workload
        self.argv = job_argv(workload, seed)
        self.seconds = seconds
        self.expected = golden[workload]
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list] = {}

    def job(self, worker: Worker, trace: bool = False) -> dict:
        reply = worker.job(self.argv, trace)
        self.attempted += 1
        if (reply["exit"], reply["sha256"]) != (self.expected["exit"], self.expected["sha256"]):
            self.fail(f"{'traced ' if trace else ''}argv {self.argv}: exit {reply['exit']!r}, "
                      f"stdout sha256 {reply['sha256']} ({reply['bytes']} B); expected exit "
                      f"{self.expected['exit']}, sha256 {self.expected['sha256']} "
                      f"({self.expected['bytes']} B)")
        return reply

    def fail(self, message: str):
        self.failed += 1
        print(f"FAIL {self.workload} {message}", file=sys.stderr)

    def untraced(self) -> dict:
        """End-to-end metrics; times are rescaled to reference speed."""
        spec = WORKLOADS[self.workload]
        setup, jobs, rss, wall = [], [], [], []
        with Worker():
            pass  # untimed: writes bytecode caches and warms the page cache
        speed = HostSpeed()
        start = perf_counter()
        if spec["warm"]:
            for i in range(WARM_WORKERS):
                share_end = self.seconds * (i + 1) / WARM_WORKERS
                with Worker(self.argv) as worker:
                    setup.append(worker.setup_s * speed.scale())
                    while True:  # at least one job per worker
                        reply = self.job(worker)
                        jobs.append(reply["job_s"] * speed.scale())
                        wall.append(reply["job_s"])
                        if perf_counter() - start >= share_end:
                            break
                rss.append(reply["maxrss_kb"] / 1024)
        else:
            for _ in range(SETUP_ONLY):
                with Worker() as worker:
                    pass
                setup.append(worker.setup_s * speed.scale())
            while len(jobs) < MIN_JOBS or perf_counter() - start < self.seconds:
                with Worker() as worker:
                    reply = self.job(worker)
                factor = speed.scale()
                setup.append(worker.setup_s * factor)
                jobs.append(reply["job_s"] * factor)
                wall.append(reply["job_s"])
                rss.append(reply["maxrss_kb"] / 1024)
        self.samples = {"setup_s": setup, "job_s": jobs, "peak_rss_mb": rss,
                        "job_wall_s": wall, "reference_s": speed.samples}
        return {name: {"value": statistics.median(self.samples[name]), "unit": unit,
                       "n": len(self.samples[name])}
                for name, unit in UNITS.items()}

    def traced(self) -> dict:
        """Alternate untraced and traced jobs; per-layer metrics of the traced ones."""
        from tracer import metric_units

        units = metric_units()
        spec = WORKLOADS[self.workload]
        untraced, traced, layers = [], [], []
        warm = Worker(self.argv) if spec["warm"] else None
        try:
            speed = HostSpeed()
            start = perf_counter()
            while not traced or perf_counter() - start < self.seconds:
                pair = []
                for trace in (False, True):
                    if warm is not None:
                        reply = self.job(warm, trace)
                    else:
                        with Worker() as worker:
                            reply = self.job(worker, trace)
                    pair.append((reply, speed.scale()))
                (plain, plain_factor), (tr, factor) = pair
                if tr["sha256"] != plain["sha256"]:
                    self.fail(f"argv {self.argv}: traced stdout differs from untraced stdout")
                untraced.append(plain["job_s"] * plain_factor)
                traced.append(tr["job_s"] * factor)
                layers.append({name: value * factor if units[name] == "s" else value
                               for name, value in tr["layers"].items()})
        finally:
            if warm is not None:
                warm.close()
        self.samples = {"untraced_job_s": untraced, "traced_job_s": traced, "layers": layers,
                        "reference_s": speed.samples}

        metrics = {}
        for name, unit in units.items():
            if name == "trace.overhead_ratio":
                value = statistics.median(traced) / statistics.median(untraced) - 1
            elif unit == "s":
                value = statistics.median(job[name] for job in layers)
            else:  # counts and the hit ratio are exact: take the first traced job's
                values = [job[name] for job in layers]
                if len(set(values)) > 1:
                    print(f"note: {name} differs between traced jobs: {values}", file=sys.stderr)
                value = values[0]
            metrics[name] = {"value": value, "unit": unit, "n": len(traced)}
        return metrics


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kvquad").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _watchdog(signum, frame):
    raise BenchError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kvquad" / "cli.py").is_file():
        print(f"error: no kvquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    cpu = pin_to_one_cpu()
    run = Run(args.workload, args.seed, args.seconds, golden)
    try:
        metrics = run.traced() if args.trace else run.untraced()
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    env["cpu"] = cpu
    reference = statistics.median(run.samples["reference_s"])
    record = {"env": env, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics, "samples": run.samples}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']} (n={m['n']})")
    print(f"{args.workload} reference kernel = {reference} s median, "
          f"{NOMINAL_S} s at reference speed")
    if "job_wall_s" in run.samples:
        print(f"{args.workload} job wall time = {statistics.median(run.samples['job_wall_s'])} s "
              "median, not rescaled")
    print(f"{args.workload} fail_ratio = {run.failed / run.attempted} "
          f"({run.failed} of {run.attempted} jobs)")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
