"""Benchmark worker: one fresh interpreter per measured pass.

Usage (from the checkout root, with PYTHONPATH=src):

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py jobs JOBS_JSON DEADLINE_S TRACE
    python3 perfbench/worker.py kernels

Every mode prints "ready" as soon as ``qdiam.cli`` is imported and its
parser built; the parent times the launch up to that line as set-up.
``jobs`` then runs each argv of JOBS_JSON in order through
``qdiam.cli.main`` with stdout and stderr captured, stopping at DEADLINE_S
seconds, and prints one JSON line: each job's exit code and output, the
job list's wall time, its wall time at the reference host speed (see
speed.py), the peak resident set size and, with TRACE=1, the spans and
counters of the trace.  ``kernels`` prints the kernel
micro-timings.  The worker runs no threads and starts no processes.
"""

import contextlib
import io
import json
import signal
import sys
import time
import traceback

from speed import SpeedSampler


class JobTimeout(BaseException):
    """Raised by the interval timer when the pass runs past its deadline."""


def _on_alarm(signum, frame):
    raise JobTimeout


def peak_rss_kb():
    """High-water resident set of this process image, in KiB.

    VmHWM belongs to the address space created at exec; ru_maxrss would also
    count the parent's memory that the child shared before exec.  Without
    VmHWM the worker fails, and the pass's jobs count as failed.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_jobs(cli_main, argvs, deadline_s, tracer=None):
    records = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline_s, 0.001))
    sampler = SpeedSampler()
    start = time.perf_counter()
    sampler.start()
    timed_out = False
    for job_id, argv in enumerate(argvs):
        rec = {"exit": None, "stdout": "", "stderr": "", "error": None}
        records.append(rec)
        if timed_out:
            rec["error"] = "timeout"
            continue
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rec["exit"] = cli_main(argv)
                else:
                    with tracer.job(job_id):
                        rec["exit"] = cli_main(argv)
        except JobTimeout:
            timed_out = True
            rec["error"] = "timeout"
        except SystemExit as exc:  # argparse rejects the argv
            rec["exit"] = exc.code
        except Exception:  # noqa: BLE001 - recorded, the job counts as failed
            rec["error"] = traceback.format_exc()
        rec["seconds"] = time.perf_counter() - t0
        rec["stdout"], rec["stderr"] = out.getvalue(), err.getvalue()
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return records, wall, sampler.stop()


def main(argv):
    mode = argv[0]
    tracer = None
    if mode == "jobs" and argv[3] == "1":
        import spans
        tracer = spans.Tracer()
        # Before qdiam.cli is imported, so import-time constructions count.
        tracer.install_field_new()
    import qdiam.cli
    qdiam.cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0
    if mode == "kernels":
        import kernels
        result = kernels.measure()
    elif mode == "jobs":
        argvs = json.loads(argv[1])
        deadline_s = float(argv[2])
        if tracer is not None:
            tracer.install()
        records, wall, norm_wall = run_jobs(qdiam.cli.main, argvs, deadline_s,
                                            tracer)
        result = {"jobs": records, "wall_s": wall, "norm_wall_s": norm_wall,
                  "peak_rss_kb": peak_rss_kb()}
        if tracer is not None:
            result["trace"] = tracer.dump()
    else:
        sys.stderr.write(f"unknown worker mode {mode!r}\n")
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
