"""grassket benchmark: one closed-loop client, one process, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

A run imports grassket from ``src/`` of the checkout, builds its inputs from
``--seed``, runs one untimed warm-up job, then runs jobs back to back for
``--seconds`` seconds, each with the next measurement seed of the workload's
fixed seed list, and checks every output.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` every other job runs with the span tracer of ``spans.py``
installed and the metrics are the per-layer ones.  The line before it holds
the details: environment, job count, tail percentile, failures, accuracy.

``--workload all`` runs every workload in child processes, untraced, traced
and once more with one BLAS thread, and prints a table of all of them.

BLAS threading is left at the machine default; the single-thread reference
sets OPENBLAS_NUM_THREADS=1 in the child's environment only.  Storage MB/s
figures are page-cache throughput: caches are never dropped.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (T0 must precede every import it measures)
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("overlap-exact", "overlap-sketched", "chance-level", "dense-store")
SETUP_REPEATS = 3  # set-ups per untraced run: this process plus two children
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def load_program():
    """Import grassket from this checkout's ``src/``; None when it is missing."""
    if not (SRC / "grassket" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import grassket

    if not Path(grassket.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return grassket


def environment(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v, "unset (one thread per core)")
                    for v in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
        "storage_throughput": "page cache (caches not dropped)",
    }


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_ticks():
    """(steal, total) CPU ticks of the machine, to tell neighbours' load from ours."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def tail(times):
    """Highest order statistic with at least ten jobs beyond it, and its percentile."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Runner:
    """Runs one workload's jobs, checks them and tallies operations."""

    def __init__(self, workload, seeds, tracer=None):
        self.workload = workload
        self.seeds = seeds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.messages = []
        self.accuracy = []

    def run_job(self, state, seed, job_id=None):
        """Run and check one job; returns its wall time (job only, not checks)."""
        traced = self.tracer is not None and job_id is not None
        output, error = None, None
        with self.tracer.recording(job_id) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                output = self.workload.job(state, seed)
            except Exception:  # a job that raises is a failed operation
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
        if error is None:
            try:
                outcome = self.workload.check(state, seed, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            from workloads import Outcome

            print(error, file=sys.stderr)
            outcome = Outcome(self.workload.ops_per_job,
                              [("job", error.strip().splitlines()[-1])])
        self.tally(outcome)
        return elapsed

    def tally(self, outcome):
        if outcome is None:
            return
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.known_defects += len(outcome.known_defects)
        for op, message in outcome.failures:
            if op not in outcome.known_defects and len(self.messages) < 20:
                self.messages.append(f"{op}: {message}")
        if outcome.accuracy is not None:
            self.accuracy.append(outcome.accuracy)

    def loop(self, state, seconds):
        """Jobs back to back for ``seconds``; traced and untraced alternate when tracing."""
        times = {True: [], False: []}
        start = time.perf_counter()
        n = 0
        while n < (2 if self.tracer else 1) or time.perf_counter() - start < seconds:
            traced = self.tracer is not None and n % 2 == 0
            seed = self.seeds[(1 + n) % len(self.seeds)]  # seeds[0] is the warm-up's
            times[traced].append(self.run_job(state, seed, n if traced else None))
            n += 1
        return times[False], times[True]


def set_up(name, seed, work_dir, tracer=None):
    """Imports, inputs and one untimed warm-up job; returns the live pieces."""
    import workloads

    workload = workloads.WORKLOADS[name]
    seeds = workloads.job_seeds(seed, NAMES.index(name))
    with tracer.recording("setup") if tracer else contextlib.nullcontext():
        state = workload.setup(seed, work_dir)
    # the warm-up job is not counted; every timed job repeats its checks
    Runner(workload, seeds).run_job(state, seeds[0])
    return workload, state, Runner(workload, seeds, tracer)


def child_setup_seconds(name, seed):
    """Set-up time of a fresh process, as the median's other samples."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(name, seed, seconds, trace):
    """One benchmark run; returns (result line dict, detail dict)."""
    work_dir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    workload, state, runner = set_up(name, seed, work_dir, tracer)
    setup_s = time.perf_counter() - T0

    start_ticks = cpu_ticks()
    try:
        untraced, traced = runner.loop(state, seconds)
    finally:
        runner.tally(workload.finish(state))
    end_ticks = cpu_ticks()
    steal = None
    if start_ticks and end_ticks:
        steal = (end_ticks[0] - start_ticks[0]) / max(end_ticks[1] - start_ticks[1], 1)

    detail = {"workload": name, "trace": trace, "environment": environment(seed),
              "jobs": len(untraced) + len(traced), "fail_ratio": runner.failed / runner.attempted,
              "known_defect_failures": runner.known_defects, "failures": runner.messages,
              "cpu_steal_share": steal}
    if runner.accuracy:
        detail[workload.accuracy_name] = statistics.median(runner.accuracy)

    if trace:
        traced_jobs = list(range(0, 2 * len(traced), 2))
        metrics = spans.per_layer_metrics(tracer, traced_jobs, "setup")
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        detail["traced_job_p50_s"] = statistics.median(traced)
        detail["untraced_job_p50_s"] = statistics.median(untraced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{name}-seed{seed}-{os.getpid()}.json"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        setups = [setup_s] + [child_setup_seconds(name, seed)
                              for _ in range(SETUP_REPEATS - 1)]
        job_tail, percentile = tail(untraced)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "job_p50_s": (statistics.median(untraced), "s"),
            "job_tail_s": (job_tail, "s"),
            "jobs_per_s": (len(untraced) / sum(untraced), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail["setup_samples_s"] = setups
        detail["job_times_s"] = untraced
        detail["job_tail_percentile"] = percentile

    correct = runner.failed == runner.known_defects
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, detail


def report_all(seconds, seed):
    """Every workload untraced, traced and single-threaded, as one table."""
    single = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    passes = (("default", 0, None), ("traced", 1, None), ("1-thread", 0, single))
    status = 0
    for name in NAMES:
        print(f"== {name}")
        for label, trace, env in passes:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"  {label}: failed (exit {proc.returncode}) {proc.stderr[-500:]}")
                status = 1
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            if trace:
                print(f"  {label}: tracing overhead "
                      f"{detail['traced_job_p50_s'] - detail['untraced_job_p50_s']:.4f} s "
                      f"per job; spans in {detail['spans_file']}")
                top = sorted(((m["value"], k) for k, m in result["metrics"].items()
                              if k.endswith(".self_s")), reverse=True)[:5]
                for value, key in top:
                    print(f"      {key} = {value:.4f} s")
                continue
            cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
            cells.append(f"fail_ratio={detail['fail_ratio']:.4g}")
            for key in ("overlap_err", "eigval_rel_err", "chance_max_abs_z"):
                if key in detail:
                    cells.append(f"{key}={detail[key]:.4g}")
            print(f"  {label}: " + "  ".join(cells))
            if label == "default":
                print(f"      jobs={detail['jobs']} tail=p{detail['job_tail_percentile']:.0f} "
                      f"correct={result['correct']} env={json.dumps(detail['environment'])}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if load_program() is None:
        print(f"grassket sources not found under {SRC}", file=sys.stderr)
        return 3
    if args.workload == "all":
        return report_all(args.seconds, args.seed)
    if args.setup_only:
        work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        workload, state, _ = set_up(args.workload, args.seed, work_dir)
        setup_s = time.perf_counter() - T0
        workload.finish(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
