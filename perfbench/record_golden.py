"""Record golden.json: the exit code and stdout digest of every workload's job.

Usage:
    python3 perfbench/record_golden.py

Run it only at a commit whose output is known to be right; the benchmark then
fails every job whose output differs.  A job argv that takes the benchmark
seed is run with several seeds, which must all print the same bytes.
"""

import json
import sys

from run import GOLDEN, WORKLOADS, Worker, environment, job_argv

SEEDS = (0, 1, 7)


def main() -> int:
    golden = {"recorded_at": environment("all", 0, 0, 0)["git_commit"]}
    for workload, spec in WORKLOADS.items():
        seeds = SEEDS if any("{seed}" in a for a in spec["argv"]) else SEEDS[:1]
        outcomes = set()
        for seed in seeds:
            with Worker() as worker:
                reply = worker.job(job_argv(workload, seed), trace=False)
            outcomes.add((reply["exit"], reply["sha256"], reply["bytes"]))
        if len(outcomes) != 1:
            print(f"error: {workload} output depends on the seed: {outcomes}", file=sys.stderr)
            return 1
        (code, digest, size), = outcomes
        golden[workload] = {"argv": spec["argv"], "exit": code, "sha256": digest, "bytes": size}
        print(f"{workload}: exit {code}, {size} B, sha256 {digest}")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
