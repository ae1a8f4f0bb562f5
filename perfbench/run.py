"""Job-corpus benchmark of the shukla CLI.

    python3 perfbench/run.py --workload hh_build --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload's job list (perfbench/workloads.py) through
shukla.cli.parse + shukla.cli.run in a closed loop: one job at a time, in
one process, no threads.  A pass runs every job once; passes repeat
until the next one would end after --seconds.  Every job's report is
checked against its golden (perfbench/goldens.json) and against the same
job's report in the first pass of the run.  End-to-end times are scaled to
a reference host speed measured while they run (HostClock), since the
host this runs on is shared and its speed drifts.

With --trace 0 the last line of output reports the end-to-end metrics;
with --trace 1, untraced and traced passes alternate and the last line
reports the per-layer metrics of perfbench/tracer.py plus the tracing
overhead.  The line before it holds the details: pass times, quartiles,
failures and the environment.  --smoke runs one tiny job per workload
both ways and checks metric names, units and goldens.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, metric_specs
from workloads import SMOKE, WORKLOADS, permuted

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"

# The report fields that carry groups; the rest (vars, nmax, ...) echo input.
GOLDEN_FIELDS = ("hh", "hc", "layers", "agree", "all_agree", "witness")

END_TO_END = {
    "wall_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Spans that must record calls on each workload: the layers README.md says
# the workload measures.  A rename or inlining then fails the run loudly.
EXPECTED_SPANS = {
    "hh_build": ("cli.parse", "models.koszul_model", "gammaforms.build_gamma_forms",
                 "gammaforms.hh_assemble", "dpalgebra.basis_slice",
                 "dpalgebra.derivation_matrix", "linalg.homology_at",
                 "linalg.invariant_factors_sparse", "linalg.integer_rank"),
    "hc_hodge": ("cli.parse", "gammaforms.build_gamma_forms", "gammaforms.hc_assemble",
                 "gammaforms.hh_layers", "mixed.cyclic_total", "mixed._cyclic_matrix",
                 "mixed._column_graded_pieces", "linalg.homology_at",
                 "linalg.kernel_basis", "linalg.subquotient"),
    "bar_oracle": ("cli.parse", "baroracle.from_presentation", "baroracle.cyclic_mixed",
                   "mixed.hochschild_total", "mixed.cyclic_total", "mixed._total_matrix",
                   "mixed._cyclic_matrix", "linalg.homology_at",
                   "linalg.invariant_factors_sparse", "linalg.integer_rank",
                   "crystalline.hodge_hh", "crystalline.hc_layers_small"),
}

# Child process timed by setup_s: interpreter start, package import, and
# parsing of every job text of the workload.
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from shukla.cli import parse
for text in json.loads(sys.stdin.read()):
    parse(text)
print("ready", flush=True)
"""
SETUPS_PER_JOB = 2


def load_cli():
    """Import shukla.cli from the source tree next to the benchmark."""
    if not (SRC / "shukla" / "cli.py").is_file():
        sys.exit(f"run.py: no package source at {SRC / 'shukla'}")
    sys.path.insert(0, str(SRC))
    from shukla import cli
    return cli


def golden_view(report):
    return {k: report[k] for k in GOLDEN_FIELDS if k in report}


class Runner:
    """Runs passes over one job list and checks every report."""

    def __init__(self, cli, jobs, goldens):
        self.cli = cli
        self.jobs = jobs
        self.texts = [job.text() for job in jobs]
        missing = [job.name for job in jobs if job.name not in goldens]
        if missing:
            raise RuntimeError(f"no golden for {missing}")
        self.goldens = goldens
        self.first_reports = {}
        self.attempted = 0
        self.failures = []

    def run_pass(self, clock, tracer=None, between=None):
        """Run every job once, each timed by clock; returns the timings
        (HostClock.timing).  between() runs untimed after each job."""
        cli = self.cli
        timings = []
        for job, text in zip(self.jobs, self.texts):
            if tracer is not None:
                tracer.begin_job()
            encoded = error = None
            ok = False
            with clock.timing() as timed:
                try:
                    spec = cli.parse(text)
                    report, ok = cli.run(spec, job.command)
                    encoded = json.dumps(report, indent=2, sort_keys=True)
                except Exception:  # a raising job is a failed job, not a crash
                    error = traceback.format_exc(limit=-3)
            timings.append(timed)
            self.attempted += 1
            self._check(job, ok, encoded, error)
            if between is not None:
                between()
        return timings

    def _check(self, job, ok, encoded, error):
        if error is None and not ok:
            error = "ok=False"
        if error is None and golden_view(json.loads(encoded)) != self.goldens[job.name]:
            error = "groups differ from golden"
        if error is None:
            first = self.first_reports.setdefault(job.name, encoded)
            if first != encoded:
                error = "report differs from the first pass of this run"
        if error is not None:
            self.failures.append({"job": job.name, "error": error})


# The host is shared, and its speed drifts by up to 2x from one second to
# the next: a fixed loop of ~0.2 ms reads 0.2-0.4 ms within one second,
# and whole 40 s runs ran 1.5-1.9x slow.  So a timing also measures the
# host's speed while it runs: a SIGALRM handler runs a fixed probe every
# PROBE_INTERVAL_S of wall time, and the time is scaled by PROBE_REF_S
# over the mean probe time.  The scaled time is the time the call would
# take at the speed at which the probe takes PROBE_REF_S, its fastest time
# on the 2-vCPU Xeon VM (Python 3.11) the benchmark was built on.  The
# probe does work of the kind the package does (dict rows of small ints,
# tuple keys, integer row operations) and never calls shukla, so a change
# to the package moves the scaled times and not the probe.
PROBE_ROWS = [{(i * 7 + k * 13) % 23: (i * k) % 11 + 1 for k in range(6)}
              for i in range(23)]
PROBE_REF_S = 0.00018
PROBE_INTERVAL_S = 0.02


def probe_kernel():
    acc = {}
    for i, row in enumerate(PROBE_ROWS):
        for j, v in row.items():
            for k, w in PROBE_ROWS[j].items():
                key = (i % 7, k)
                acc[key] = (acc.get(key, 0) + v * w) % 1000003
    return len(acc)


class HostClock:
    """Times blocks of code, and with sample=True the host's speed while
    they run."""

    def __init__(self, sample=True):
        self.sample = sample
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def timing(self, in_process=True):
        """Time the with-block.  The dict it yields gets "seconds" and,
        when sampling, "scaled" at the end of the block.  With in_process
        the block runs in this process, so the handler's own time is taken
        out of the block's; a block that waits on a child process runs
        alongside the handler instead (2 vCPUs)."""
        out = {}
        if self.sample:
            self.samples = []
            self._tick()  # at least one sample, however short the block
            self.spent = 0.0
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            if self.sample:
                signal.signal(signal.SIGALRM, previous)
        out["seconds"] = t1 - t0
        if self.sample:
            if in_process:
                out["seconds"] -= self.spent
            out["scaled"] = out["seconds"] * PROBE_REF_S / statistics.fmean(self.samples)


def setup_once(payload, clock):
    """Time spawning an interpreter until it has imported shukla and
    parsed the job texts in payload (a JSON list); returns the timing."""
    proc = None
    try:
        with clock.timing(in_process=False) as timed:
            proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    text=True)
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc is not None:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return timed


def summary(values):
    """Median, quartiles, count and the highest percentile with at least
    ten samples beyond it (None below eleven samples)."""
    n = len(values)
    quartiles = statistics.quantiles(values, n=4) if n > 1 else [values[0]] * 3
    tail = None
    if n >= 11:
        p = int(100 * (n - 10) / n)
        tail = {"percentile": p,
                "value": statistics.quantiles(values, n=100, method="inclusive")[p - 1]}
    return {"n": n, "min": min(values), "q1": quartiles[0],
            "median": statistics.median(values), "q3": quartiles[2],
            "max": max(values), "tail": tail}


def environment():
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }


def timed_passes(seconds, one_pass):
    """Call one_pass() until the next call would end after `seconds`,
    judged by the median call so far; at least once."""
    took = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return


def best_of(job_times):
    """Sum of each job's fastest time in the run."""
    return sum(min(ts) for ts in job_times)


def measure_untraced(runner, seconds):
    payload = json.dumps(runner.texts)
    clock = HostClock()
    setup_once(payload, clock)  # page cache and bytecode warm-up, not measured
    setups = []
    passes = []

    def set_up():
        # set-up spawns after each job spread the samples over the run
        for _ in range(SETUPS_PER_JOB):
            setups.append(setup_once(payload, clock))

    timed_passes(seconds, lambda: passes.append(runner.run_pass(clock, between=set_up)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [[t["scaled"] for t in p] for p in passes]
    raw = [[t["seconds"] for t in p] for p in passes]
    setup_scaled = [t["scaled"] for t in setups]
    metrics = {
        "wall_s": statistics.median(sum(p) for p in scaled),
        "slowest_job_s": statistics.median(max(p) for p in scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_scaled),
    }
    detail = {
        "pass_s": summary([sum(p) for p in scaled]),
        "job_s": {job.name: summary(ts) for job, ts in zip(runner.jobs, zip(*scaled))},
        "setup_s": summary(setup_scaled),
        # the same, as measured, before scaling to the reference host speed
        "raw_pass_s": summary([sum(p) for p in raw]),
        "raw_job_s": {job.name: summary(ts) for job, ts in zip(runner.jobs, zip(*raw))},
        "raw_setup_s": summary([t["seconds"] for t in setups]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, detail


def measure_traced(runner, seconds, expected_spans):
    tracer = Tracer()
    clock = HostClock(sample=False)  # the probe would run inside traced spans
    plain_s = [[] for _ in runner.jobs]
    traced_s = [[] for _ in runner.jobs]
    per_pass = []

    def one_pass():
        for ts, t in zip(plain_s, runner.run_pass(clock)):
            ts.append(t["seconds"])
        tracer.reset()
        tracer.install()
        try:
            timings = runner.run_pass(clock, tracer=tracer)
        finally:
            tracer.uninstall()
        for ts, t in zip(traced_s, timings):
            ts.append(t["seconds"])
        per_pass.append(tracer.metrics())

    timed_passes(seconds, one_pass)
    silent = [s for s in expected_spans if per_pass[0][f"{s}.calls"] == 0]
    if silent:
        raise RuntimeError(f"expected spans recorded no calls: {silent}")
    # median_low: each value is one pass's reading, and counts stay whole
    metrics = {name: {"value": statistics.median_low(p[name] for p in per_pass),
                      "unit": unit}
               for name, unit, _ in metric_specs()}
    plain_wall = best_of(plain_s)
    traced_wall = best_of(traced_s)
    metrics["trace_overhead"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "traced_passes": len(per_pass)}
    return metrics, detail


def run_workload(cli, jobs, goldens, seconds, trace, expected_spans):
    runner = Runner(cli, jobs, goldens)
    if trace:
        metrics, detail = measure_traced(runner, seconds, expected_spans)
    else:
        metrics, detail = measure_untraced(runner, seconds)
    failed = len(runner.failures)
    detail.update({
        "jobs": [job.name for job in jobs],
        "attempted": runner.attempted,
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures[:10],
    })
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def smoke(cli, goldens):
    """One tiny job per workload, untraced and traced; checks that the
    metric names and units match BENCHMARK.json and every golden holds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, _ = run_workload(cli, SMOKE[workload], goldens, 0, trace,
                                     EXPECTED_SPANS[workload])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed")
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok"}))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    env = environment()
    cli = load_cli()
    goldens = json.loads(GOLDENS.read_text())
    if args.smoke:
        return smoke(cli, goldens)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    jobs = permuted(WORKLOADS[args.workload], args.seed)
    result, detail = run_workload(cli, jobs, goldens, args.seconds, args.trace,
                                  EXPECTED_SPANS[args.workload])
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **detail}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
