"""anharm benchmark: one workload per run, every time in reference-loop units.

    python3 bench/run.py --workload series-deep --seed 1 --seconds 30 --trace 0

Runs the workload's seeded job list pass after pass, one job at a time
(closed loop, one client), until another pass would end after --seconds.
Each job is timed alone; the fixed reference loop (bench/refloop.py) is timed
in the gaps between jobs, and a job's time in `ref` is its seconds divided by
the median of the reference samples taken just before and just after it.
The outputs of the first pass are checked against values computed apart from
the program; later passes must repeat them exactly.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  Progress and check failures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
# Fresh-interpreter set-up probes after each pass; spreading them over the
# run averages the host's speed drift the way the timed passes see it.
SETUP_PROBES_PER_PASS = 2
START_PROBES = 5
LAYERS = ("engine", "resummation", "oracle", "wavefunction", "cli")
# Per-layer spans reported as self time per call, in ref.
SPAN_METRICS = (
    "engine.compute_series",
    "engine.compute_series.harmonic",
    "resummation.partial_sums",
    "resummation.divergence_diagnostics",
    "resummation.pade",
    "oracle.default_config",
    "oracle.solve_radial",
    "oracle.sweep",
    "oracle.compare_with_series",
    "wavefunction.harmonic_d_coefficients",
    "wavefunction.node_polynomial",
    "cli.main.check-harmonic",
    "cli.main.compute",
    "cli.main.compute-sweep",
    "cli.main.validate",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("series-deep", "solve-states", "cli-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import anharm, build the job list, print 'ready' and exit")
    return parser.parse_args(argv)


def _import_program():
    """Import anharm from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import anharm
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import anharm from {ROOT / 'src'}: {exc}") from exc
    if Path(anharm.__file__).resolve().parent != (ROOT / "src" / "anharm").resolve():
        raise SystemExit(f"bench: anharm was imported from {anharm.__file__}, not from src/")


def _fresh_interpreter_seconds(argv, expect: bytes, env=None) -> float:
    """Wall time from spawning a fresh interpreter to its first output line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line != expect:
        raise SystemExit(f"bench: probe {argv[1:]} failed: {line!r}")
    return elapsed


class SetupProbe:
    """Times fresh interpreters that import anharm and build the job list.

    The first, unmeasured probe writes the bytecode caches of a new checkout.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
                     "--workload", args.workload, "--seed", str(args.seed)]
        self.times: list[float] = []
        _fresh_interpreter_seconds(self.argv, b"ready\n")

    def __call__(self):
        for _ in range(SETUP_PROBES_PER_PASS):
            self.times.append(_fresh_interpreter_seconds(self.argv, b"ready\n"))


def _cli_start_seconds(env) -> float:
    argv = [sys.executable, "-c", "import anharm; print('ready', flush=True)"]
    return statistics.median(_fresh_interpreter_seconds(argv, b"ready\n", env)
                             for _ in range(START_PROBES))


class Record:
    __slots__ = ("pass_no", "job", "wall", "ok", "traced", "ref")

    def __init__(self, pass_no, job, wall, ok, traced):
        self.pass_no, self.job, self.wall, self.ok, self.traced = pass_no, job, wall, ok, traced
        self.ref = 0.0

    @property
    def in_ref(self) -> float:
        return self.wall / self.ref


def _run_passes(jobs, seconds, checks, tracer, modules, between_passes):
    """Closed loop over whole passes.  With a tracer, odd passes are traced.

    `between_passes` runs after each pass, outside every timed section."""
    from refloop import local_ref, sample_gap

    gaps = [sample_gap()]
    records, first, pass_walls = [], {}, []
    peak_child_kb = 0
    t_start = time.perf_counter()
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        restore = tracer.install(modules) if traced else None
        t_pass = time.perf_counter()
        for j, job in enumerate(jobs):
            job.reset()
            if tracer is not None:
                tracer.job = len(records)
            t0 = time.perf_counter()
            try:
                out, error = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, error = None, exc
            wall = time.perf_counter() - t0
            gaps.append(sample_gap())
            records.append(Record(pass_no, j, wall, error is None, traced))
            if error is not None:
                if not job.canary:
                    print(f"bench: {job.label} failed: {type(error).__name__}: {error}", file=sys.stderr)
                continue
            peak_child_kb = max(peak_child_kb, getattr(out, "rss_kb", 0))
            if j not in first:
                first[j] = out
            else:
                checks.expect(out == first[j], f"{job.label}: pass {pass_no} output differs from the first")
        if restore is not None:
            restore()
        pass_walls.append(time.perf_counter() - t_pass)
        pass_no += 1
        between_passes()
        elapsed = time.perf_counter() - t_start
        if pass_no >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
            break
    for i, record in enumerate(records):
        record.ref = local_ref(gaps[i], gaps[i + 1])
    ref_s = statistics.median(s for gap in gaps for s in gap)
    return records, first, ref_s, peak_child_kb


def _pass_refs(records, jobs, traced):
    sums = {}
    for r in records:
        if r.traced == traced and r.ok and not jobs[r.job].canary:
            sums[r.pass_no] = sums.get(r.pass_no, 0.0) + r.in_ref
    return list(sums.values())


def _layer_metrics(tracer, records, jobs, ref_s, start_s):
    timed = {i for i, r in enumerate(records) if r.traced and r.ok and not jobs[r.job].canary}
    total, count = {}, {}
    for name, self_s, job in tracer.self_times():
        if job in timed:
            total[name] = total.get(name, 0.0) + self_s / records[job].ref
            count[name] = count.get(name, 0) + 1
    metrics = {}
    for name in SPAN_METRICS:
        wrapped = "cli.main" if name.startswith("cli.main.") else name.removesuffix(".harmonic")
        value = None
        if wrapped in tracer.present:
            value = total[name] / count[name] if count.get(name) else 0.0
        metrics[name] = (value, "ref")
    solves = count.get("oracle.solve_radial", 0)
    sweeps = None if "oracle.sweep" not in tracer.present else (
        count.get("oracle.sweep", 0) / solves if solves else 0.0)
    metrics["oracle.sweeps_per_solve"] = (sweeps, "count")
    metrics["cli.start"] = (start_s / ref_s, "ref")
    job_total = sum(records[i].in_ref for i in timed)
    for layer in LAYERS:
        layer_total = sum(v for k, v in total.items() if k.startswith(layer + "."))
        metrics[f"share.{layer}"] = (100.0 * layer_total / job_total, "%")
    traced = statistics.median(_pass_refs(records, jobs, True))
    plain = statistics.median(_pass_refs(records, jobs, False))
    metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    metrics["host.ref_s"] = (ref_s, "s")
    return metrics


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU of those it may use.

    The reference loop then runs on the same CPU as the work it normalises,
    including the CLI processes, instead of on a sibling whose speed may
    differ.  Acts on this process only; skipped where unsupported.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_to_one_cpu()
    _import_program()
    import workloads

    out_dir = ROOT / ".bench_out"
    if args.setup_probe:
        workloads.make_jobs(args.workload, args.seed, workloads.CliRunner(ROOT, in_process=True))
        print("ready", flush=True)
        return 0

    from reference import Checks
    from spans import Tracer

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    probe = (lambda: None) if args.trace else SetupProbe(args)
    runner = workloads.CliRunner(ROOT, in_process=bool(args.trace))
    jobs = workloads.make_jobs(args.workload, args.seed, runner)
    checks = Checks()
    tracer = Tracer() if args.trace else None
    records, first, ref_s, peak_child_kb = _run_passes(
        jobs, args.seconds, checks, tracer, workloads.MODULES, probe)
    peak_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for j, out in sorted(first.items()):
        try:
            jobs[j].check(out, checks)
        except Exception as exc:  # a check that cannot run is a failed check
            checks.expect(False, f"{jobs[j].label}: check raised {type(exc).__name__}: {exc}")
    for failure in checks.failures:
        print(f"bench: CHECK FAILED: {failure}", file=sys.stderr)

    if args.trace:
        metrics = _layer_metrics(tracer, records, jobs, ref_s, _cli_start_seconds(runner.env))
    else:
        timed = [r.in_ref for r in records if r.ok and not jobs[r.job].canary]
        peak_kb = peak_child_kb if args.workload == "cli-batch" else peak_self_kb
        metrics = {
            "setup_s": (statistics.median(probe.times), "s"),
            "job_ref.p50": (statistics.median(timed), "ref"),
            "pass_ref": (statistics.median(_pass_refs(records, jobs, False)), "ref"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    for j, job in enumerate(jobs):
        done = [r for r in records if r.job == j and r.ok]
        if done:
            print(f"bench:   {job.label:40s} median {statistics.median(r.in_ref for r in done):9.3f} ref "
                  f"{statistics.median(r.wall for r in done):8.4f} s over {len(done)} runs", file=sys.stderr)
    if not args.trace:
        plain = [r for r in records if r.ok and not jobs[r.job].canary]
        pass_s = {}
        for r in plain:
            pass_s[r.pass_no] = pass_s.get(r.pass_no, 0.0) + r.wall
        print(f"bench: raw seconds: job_s.p50 {statistics.median(r.wall for r in plain):.6f} "
              f"pass_s {statistics.median(pass_s.values()):.6f}", file=sys.stderr)
    failed = sum(not r.ok for r in records)
    print(f"bench: {args.workload} seed {args.seed}: {len(records)} jobs in "
          f"{1 + max(r.pass_no for r in records)} passes, {failed} failed, "
          f"{checks.count} checks, {len(checks.failures)} failed; ref = {ref_s * 1e3:.3f} ms",
          file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
