"""qdiam benchmark: fixed CLI workloads, checked for exactness, with a trace.

Run from the root of a checkout (no install needed, src/ is imported):

    python3 perfbench/run.py --workload clique-search --seed 1 --seconds 5 --trace 0

Each pass starts one fresh worker (perfbench/worker.py) that runs the
workload's jobs in order through ``qdiam.cli.main``; there are no threads
and no pools.  Passes repeat until ``--seconds`` of measuring have elapsed
(at least one pass, none started that cannot finish before the run's
deadline).  Every job's output is checked; failures are counted in
``failed`` out of ``attempted``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``norm_wall_s`` (median pass time of the job list at the reference host
speed, see speed.py; the raw ``wall_s`` is printed on the line before),
``setup_s`` (median over SETUP_LAUNCHES set-up-only launches of the time
from launching a worker to its being ready: interpreter start, ``import
qdiam.cli`` and the parser, also at the reference host speed) and
``peak_rss_mb`` (median peak resident memory of the pass workers).  With ``--trace 1`` the run makes an untraced pass, then a traced
pass on the same jobs, then the kernel micro-timings, and reports the
per-layer metrics; ``trace.overhead_s`` is the traced pass's wall time minus
the untraced pass's, which is reported beside it as ``trace.untraced_wall_s``.
Results and traces are written to .perfbench_out/ in the checkout.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(ROOT, "docs", "search_report.schema.json")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_LAUNCHES = 15
SETUP_LOOPS = 5  # calibration loops timed on each side of a set-up launch
RUN_DEADLINE_S = 150.0  # worker time in one run; checks and reporting follow
KILL_GRACE_S = 5.0


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def environment():
    """Python, cores, CPU model and git commit."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.setup_times = []
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def launch(self, *args):
        """Start a worker, wait for "ready" and its exit.

        Returns (stdout after "ready", stderr, exit code, seconds from the
        launch to "ready" or None).
        """
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return "", "run deadline reached before launch", None, None
        t0 = time.perf_counter()
        ready = None
        proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                                env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            if select.select([proc.stdout], [], [], remaining)[0]:
                if proc.stdout.readline() == "ready\n":
                    ready = time.perf_counter() - t0
            out, err = proc.communicate(timeout=self.deadline - time.perf_counter()
                                        + KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return "", "worker killed at the run deadline", None, None
        return out, err, proc.returncode, ready

    def setup(self):
        """One set-up-only launch; its time to "ready" at the reference speed.

        This process times the calibration loop (see speed.py) just before
        and just after the launch; the median loop time gives the host's
        slowdown, which scales the launch's set-up time.
        """
        loops = [speed.loop_seconds() for _ in range(SETUP_LOOPS)]
        _, _, code, ready = self.launch("setup")
        loops += [speed.loop_seconds() for _ in range(SETUP_LOOPS)]
        if code == 0 and ready is not None:
            self.setup_times.append(ready * speed.REF_LOOP_S
                                    / statistics.median(loops))

    def worker_json(self, *args):
        out, err, code, _ = self.launch(*args)
        if code != 0 or not out.strip():
            return None, err.strip() or f"worker exit code {code}"
        return json.loads(out.strip().splitlines()[-1]), None

    def run_pass(self, jobs, workdir, trace):
        os.makedirs(workdir, exist_ok=True)
        argvs = [[a.replace("{work}", workdir) for a in job.argv] for job in jobs]
        budget = self.deadline - time.perf_counter()
        result, err = self.worker_json("jobs", json.dumps(argvs), f"{budget:.3f}",
                                       "1" if trace else "0")
        if result is None:
            result = {"jobs": [{"exit": None, "stdout": "", "stderr": "",
                                "error": f"worker failed: {err}"} for _ in jobs],
                      "wall_s": None, "norm_wall_s": None, "peak_rss_kb": None}
        return result


def run_passes(runner, jobs, run_dir, seconds):
    """(labels, results) of plain passes until `seconds` of measuring."""
    labels, results = [], []
    measure_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        labels.append(f"pass{len(results)}")
        results.append(runner.run_pass(jobs, os.path.join(run_dir, labels[-1]), False))
        now = time.perf_counter()
        if now - measure_start >= seconds or now + (now - t0) > runner.deadline:
            return labels, results


def check_passes(checker, jobs, run_dir, labels, results):
    """Check every job of every pass; returns (failed, per-job report)."""
    failed = 0
    report = []
    for label, result in zip(labels, results):
        workdir = os.path.join(run_dir, label)
        for job, rec in zip(jobs, result["jobs"]):
            problems = checker.check(job, rec, workdir)
            report.append({"pass": label, "argv": job.argv, "expected": job.source,
                           "exit": rec["exit"], "seconds": rec.get("seconds"),
                           "problems": problems})
            if problems:
                failed += 1
                print(f"FAILED {label} {' '.join(job.argv)}: " + "; ".join(problems[:3]))
    return failed, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    for path in (os.path.join(SRC, "qdiam", "cli.py"), SCHEMA):
        if not os.path.isfile(path):
            fail(f"{os.path.relpath(path, ROOT)} not found; run from the root "
                 f"of a qdiam checkout")
    sys.path.insert(0, SRC)
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{sorted(workloads.WORKLOADS)}")
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    if args.workload != "family-check":
        print(f"note: {args.workload} runs fixed tuples; --seed is ignored")
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    runner = Runner(start + RUN_DEADLINE_S)
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            labels = ["plain", "traced"]
            passes = [runner.run_pass(jobs, os.path.join(run_dir, label),
                                      label == "traced") for label in labels]
        else:
            for _ in range(SETUP_LAUNCHES):
                runner.setup()
            labels, passes = run_passes(runner, jobs, run_dir, args.seconds)
        failed, report = check_passes(checks.Checker(SCHEMA), jobs, run_dir,
                                      labels, passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(jobs) * len(passes)

    metrics = {}
    walls = [p["wall_s"] for p in passes if p["wall_s"] is not None]
    if args.trace:
        kernels, err = runner.worker_json("kernels")
        attempted += 1
        if kernels is None:
            failed += 1
            print(f"FAILED kernel micro-timings: {err}")
        traced = passes[-1].get("trace")
        if traced is not None:
            metrics.update({k: {"value": v, "unit": u}
                            for k, (v, u) in spans.layer_metrics(traced).items()})
        metrics.update({k: {"value": v, "unit": "ns"} for k, v in (kernels or {}).items()})
        plain_wall, traced_wall = (p["wall_s"] for p in passes)
        if plain_wall is not None and traced_wall is not None:
            metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall,
                                           "unit": "s"}
            metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    else:
        rss = [p["peak_rss_kb"] / 1024 for p in passes if p["peak_rss_kb"] is not None]
        norm_walls = [p["norm_wall_s"] for p in passes if p["norm_wall_s"] is not None]
        if walls:
            print(f"wall_s {statistics.median(walls):.3f} (host slowdown "
                  f"{statistics.median(walls) / statistics.median(norm_walls):.3f})")
            metrics["norm_wall_s"] = {"value": statistics.median(norm_walls),
                                      "unit": "s"}
            metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
        if runner.setup_times:
            metrics["setup_s"] = {"value": statistics.median(runner.setup_times),
                                  "unit": "s"}

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "passes": labels, "pass_wall_s": walls,
              "pass_norm_wall_s": [p["norm_wall_s"] for p in passes],
              "setup_s": runner.setup_times,
              "jobs": report, "result": line}
    if args.trace:
        record["trace"] = passes[-1].get("trace")
    name = "trace" if args.trace else "result"
    with open(os.path.join(OUT, f"{name}-{args.workload}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
