"""qgraph benchmark: fixed CLI job lists, checked against independent oracles.

    python3 perfbench/run.py --workload star-modesum --seed 1 --seconds 35 --trace 0

Run from the repository root.  The benchmark imports ``qgraph`` from
``src/`` and calls ``qgraph.cli.main`` in this process, one job after the
other (a closed loop with one client).  It repeats the workload's job list
until ``--seconds`` would be exceeded and prints a report followed by one
JSON line.  The first pass is a warm-up: its outputs are the reference every
later pass must match byte for byte, but its times are not used.  At least
three timed passes follow it, so that each job's median time survives one
slow pass.

Every job runs right after the fixed computation of :mod:`reference`, and
the job times are rescaled by one factor, ``reference.NOMINAL_S`` over the
median time of that computation in the timed passes: they are the times on a
host on which it takes its nominal time.  Set-up times are rescaled the same
way by the reference runs made beside them.  This takes out the drift of the
host's speed over minutes, which no run length averages away.

* ``--trace 0``: end-to-end metrics.  ``wall_s`` and ``cpu_s`` are the job
  list's sums of each job's median time over the timed passes, rescaled;
  ``peak_rss_mb`` is this process's peak resident set; ``pass_frac`` is the
  share of job runs that passed; ``setup_s`` is the median time, rescaled,
  of fresh interpreters that import ``qgraph.cli`` and parse the workload's
  graph files.
* ``--trace 1``: per-layer metrics from passes traced by :mod:`spans`,
  alternating with untraced passes that give the tracing overhead.

A job run fails if it exits non-zero or raises, writes NaN, misses its
oracle, or writes output that differs from its first pass.  ``correct`` is
false if a job crashed or failed in a way that is not a documented defect of
the code (see :mod:`workloads`).

``QGRAPH_THREADS`` is set to 1, so that qgraph's thread pools run their work
on the calling thread.  With its default of one worker per CPU, the Green
sweep's two threads hand the GIL back and forth across the cores of a shared
host, and its wall time then follows the host's load rather than the code: a
single busy process beside it made a pass 25-65% slower, against no change
with one worker.  OpenBLAS keeps its default thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

#: passes after the warm-up pass
MIN_TIMED_PASSES = 3
QGRAPH_THREADS = "1"
SETUP_REPEATS = 7
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import qgraph.cli
from qgraph.graph import parse_graph
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as f:
        parse_graph(f.read())
"""


@dataclass
class JobRun:
    job: workloads.Job
    seconds: float
    cpu: float
    ref_wall: float  # the reference computation run right before the job
    ref_cpu: float
    code: int | None  # None: the call raised
    message: str
    output: bytes | None = None


@dataclass
class Pass:
    traced: bool
    runs: list[JobRun]

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.runs)

    @property
    def elapsed(self) -> float:
        return sum(r.ref_wall + r.seconds for r in self.runs)


def job_medians(passes: list[Pass], attr: str) -> float:
    """The sum over the job list of each job's median over ``passes``."""
    return sum(statistics.median(getattr(p.runs[i], attr) for p in passes) for i in range(len(passes[0].runs)))


def speed_factor(passes: list[Pass], attr: str) -> float:
    """``reference.NOMINAL_S`` over the median time of the reference
    computation in ``passes``: multiplied by a time measured in the same run,
    it gives the time on a host where the reference takes its nominal time."""
    return reference.NOMINAL_S / statistics.median(getattr(r, attr) for p in passes for r in p.runs)


def run_job(cli, job: workloads.Job) -> JobRun:
    """Run the reference computation, then the job."""
    ref_wall, ref_cpu = reference.measure()
    err = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # a crash is recorded as a failed job, the loop goes on
        traceback.print_exc()
        code, message = None, traceback.format_exc().strip().splitlines()[-1]
    else:
        message = err.getvalue().strip()
    return JobRun(job, time.perf_counter() - t0, time.process_time() - c0, ref_wall, ref_cpu, code, message)


def run_pass(cli, jobs: list[workloads.Job], tracer=None) -> Pass:
    """One pass of the job list; outputs are read after the last job."""
    for job in jobs:
        job.output_path.unlink(missing_ok=True)
    runs = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        runs.append(run_job(cli, job))
    for r in runs:
        if r.job.output_path.exists():
            r.output = r.job.output_path.read_bytes()
    return Pass(tracer is not None, runs)


def failure(run: JobRun, first: bytes | None, verdicts: dict) -> str:
    """Why a job run failed, or an empty string."""
    if run.code is None:
        return "raised " + run.message
    if run.code != 0:
        return f"exit {run.code}: {run.message.splitlines()[0] if run.message else ''}"
    if run.output is None:
        return "no output file"
    if run.output != first:
        return "output differs from the first pass"
    if b"NaN" in run.output:
        return "output contains NaN"
    key = (run.job.name, run.output)
    if key not in verdicts:
        text = run.output.decode("utf-8")
        try:
            verdicts[key] = oracles.verify(run.job.kind, run.job.doc, run.job.params, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            verdicts[key] = f"unreadable output: {exc!r}"
    return verdicts[key]


def measure_setup(jobs: list[workloads.Job]) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing qgraph.cli and parsing
    the inputs, and the speed factor of the reference run twice before each."""
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs += [reference.measure()[0] for _ in range(2)]
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *(str(j.graph_path) for j in jobs)],
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times), reference.NOMINAL_S / statistics.median(refs)


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    found = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(seed: int, qgraph_threads_env: str | None) -> dict:
    import numpy
    import scipy

    from qgraph.util import worker_count

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "QGRAPH_THREADS_env": qgraph_threads_env,
        "qgraph_workers": worker_count(),
        "OPENBLAS_NUM_THREADS_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": openblas_threads(),
        "seed": seed,
        "held_out_seed": seed == workloads.HELD_OUT_SEED,
    }


def measure(args, cli, jobs: list[workloads.Job]):
    """Run a warm-up pass, then passes until the next would overrun
    ``--seconds``; with --trace 1 every second pass is traced."""
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_index = len(passes)
            tracer.install()
        try:
            passes.append(run_pass(cli, jobs, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        timed = passes[1:]
        typical = statistics.median(p.elapsed for p in timed or passes)
        if len(timed) >= MIN_TIMED_PASSES and elapsed + typical > args.seconds:
            return passes, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qgraph" / "cli.py").is_file():
        print(f"perfbench: no qgraph sources at {SRC}; run from a qgraph checkout", file=sys.stderr)
        return 2
    qgraph_threads_env = os.environ.get("QGRAPH_THREADS")
    os.environ["QGRAPH_THREADS"] = QGRAPH_THREADS
    sys.path.insert(0, str(SRC))
    import qgraph.cli as cli

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        env = environment(args.seed, qgraph_threads_env)
        setup_s, setup_speed = measure_setup(jobs)
        passes, tracer = measure(args, cli, jobs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, correct, job_failures = judge(passes)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs/pass={len(jobs)}")
    print("# env " + json.dumps(env, sort_keys=True))
    report_jobs(jobs, passes, job_failures)

    untraced = [p for p in passes[1:] if not p.traced]
    if tracer is None:
        wall_s, cpu_s = job_medians(untraced, "seconds"), job_medians(untraced, "cpu")
        speed = speed_factor(untraced, "ref_wall")
        metrics = {
            "wall_s": (wall_s * speed, "s"),
            "cpu_s": (cpu_s * speed_factor(untraced, "ref_cpu"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": ((attempted - failed) / attempted, "fraction"),
            "setup_s": (setup_s * setup_speed, "s"),
        }
        print(f"# wall_s and cpu_s sum each job's median over {len(untraced)} timed passes; as measured "
              f"wall_s is {wall_s:.4f} s, rescaled by {speed:.4f} (the reference's nominal "
              f"{reference.NOMINAL_S} s over its median), and setup_s is {setup_s:.4f} s, rescaled by "
              f"{setup_speed:.4f} (over the reference's median beside it)")
        print(f"# fail_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    else:
        from spans import layer_metrics

        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        metrics, job_rows = layer_metrics(
            tracer.spans,
            {job.name: job.doc for job in jobs},
            [p.wall for p in passes if p.traced],
            [p.wall for p in untraced],
        )
        for name, row in job_rows:
            print(f"# kernel {name} " + json.dumps(row, sort_keys=True))
        print(f"# spans written to {trace_path}")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def judge(passes: list[Pass]) -> tuple[int, int, bool, dict[str, str]]:
    """Count job runs and failures; a crash or an unlabelled failure is incorrect."""
    first = {r.job.name: r.output for r in passes[0].runs}
    verdicts: dict = {}
    attempted = failed = 0
    correct = True
    job_failures: dict[str, str] = {}
    for p in passes:
        for r in p.runs:
            attempted += 1
            why = failure(r, first[r.job.name], verdicts)
            if why:
                failed += 1
                job_failures.setdefault(r.job.name, why)
                defect = r.job.known_defect
                if r.code is None or defect is None or defect.signature not in why:
                    correct = False
    return attempted, failed, correct, job_failures


def report_jobs(jobs: list[workloads.Job], passes: list[Pass], job_failures: dict[str, str]) -> None:
    for job in jobs:
        runs = [r for p in passes for r in p.runs if r.job is job]
        why = job_failures.get(job.name, "")
        known = job.known_defect is not None and job.known_defect.signature in why
        verdict = ("FAIL (known defect): " if known else "FAIL: ") + why if why else "PASS"
        print(f"# job {job.name:<16} median {statistics.median(r.seconds for r in runs):8.4f} s  {verdict}")
        if known:
            print(f"#     known defect: {job.known_defect.reason}")
        output = next((r.output for r in runs if r.code == 0 and r.output), None)
        if job.kind == "spectrum" and output is not None:
            # a shortfall against the exact count is reported, not failed (see README)
            returned = len(json.loads(output)["eigenvalues"])
            exact = oracles.exact_count(job.doc, job.params["k_max"])
            print(f"#     roots returned {returned}, exact count {exact}")


if __name__ == "__main__":
    sys.exit(main())
