"""Benchmark worker: imports kvquad from a checkout and runs CLI jobs on request.

Started by ``run.py`` as ``python3 worker.py ROOT [WARMUP_ARG ...]``.  It puts
``ROOT/src`` first on ``sys.path``, imports ``kvquad`` (refusing any other copy),
runs the optional warm-up argv untimed, then writes ``{"ready": true}``.  Each
request line on stdin is ``{"argv": [...], "trace": bool}``.  The reply line
holds the wall time of ``kvquad.cli.main(argv)``, its exit code, the SHA-256
and length of what it printed, the process's peak RSS and, for traced jobs,
the per-layer metrics.
An empty request line or end of input stops the worker.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def _import_kvquad(root: str):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import kvquad.cli

    found = os.path.realpath(kvquad.__file__)
    if os.path.commonpath([found, src]) != src:
        raise ImportError(f"kvquad imported from {found}, not from {src}")
    return kvquad.cli


def _run(cli, argv):
    """Run one job; returns (seconds, exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crashing job is a failed job, not a dead worker
            code = f"exception: {exc!r}"
        seconds = perf_counter() - t0
    return seconds, code, out.getvalue().encode("utf-8")


def main():
    reply = sys.stdout
    root, warmup = sys.argv[1], sys.argv[2:]
    cli = _import_kvquad(root)
    if warmup:
        _run(cli, warmup)
    tracer = None
    print(json.dumps({"ready": True}), file=reply, flush=True)
    for line in sys.stdin:
        if not line.strip():
            break
        request = json.loads(line)
        layers = None
        if request["trace"]:
            if tracer is None:
                from tracer import Tracer
                tracer = Tracer()
            try:
                tracer.install()
            except LookupError as exc:
                print(json.dumps({"error": str(exc)}), file=reply, flush=True)
                return
            try:
                seconds, code, stdout = _run(cli, request["argv"])
            finally:
                tracer.uninstall()
            layers = tracer.metrics()
        else:
            seconds, code, stdout = _run(cli, request["argv"])
        print(json.dumps({
            "job_s": seconds,
            "exit": code,
            "sha256": hashlib.sha256(stdout).hexdigest(),
            "bytes": len(stdout),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": layers,
        }), file=reply, flush=True)


if __name__ == "__main__":
    main()
