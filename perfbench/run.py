"""teamgaze benchmark: drives the real CLI on seeded workloads.

    python3 perfbench/run.py --workload paper|stress|cohort --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src``.
Inputs are generated from ``--seed`` before timing starts; the program
receives only the files. Every output is checked against an independent
oracle (``oracle.py``).

``--trace 0`` times CLI children one at a time on one core, after one
untimed warm-up of each operation, and reports the end-to-end metrics,
rescaled to a reference host speed by probes taken on that core (see
``end_to_end_metrics``). ``--trace 1`` runs ``traced.py`` (spans around
each layer's public call) and reports the per-layer metrics. The last line of standard output
is one JSON object; the lines before it list every metric with its unit,
and a full record goes to ``.perfbench_work/results/``. The exit code is 1
when any output is wrong, 2 when there is no source tree to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Stop starting children after this long, so a run ends within 180 s.
DEADLINE_S = 170.0
# Start-up samples per traced run, for cli.residual_s.
SETUP_REPEATS = 5
# Speed probes: PROBES_AROUND before each timed CLI invocation, and one
# every PROBE_INTERVAL_S while it runs.
PROBES_AROUND = 10
PROBE_INTERVAL_S = 0.1
# What one probe takes on the reference host; times are reported at that
# speed (see ``end_to_end_metrics``).
PROBE_REF_S = 0.002
_PROBE_DATA = np.random.default_rng(0).random(50_000)


def probe() -> float:
    """CPU time of a small fixed piece of work: string formatting, float
    parsing and dict appends in the interpreter, then a numpy sort.

    It runs in this process, on the core the timed child runs on, and never
    touches ``teamgaze``: a change to the program cannot move it, only the
    speed the host gives that core. CPU time, not wall time, so the share
    of the core the child takes while the probe runs does not count.
    """
    start = time.thread_time()
    groups = {}
    for i in range(2_500):
        groups.setdefault(f"t{i % 30}", []).append(float(f"{i * 0.37:.4f}"))
    np.sort(_PROBE_DATA)
    return time.thread_time() - start


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "TEAMGAZE_CONFIG")
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Runs children one at a time and counts operations and failures."""

    def __init__(self, work: Path, deadline: float, probing: bool):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.problems = []
        self.expired = False
        self.probing = probing
        self.probes = []

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.problems})

    def child(self, argv: list) -> tuple:
        """Run ``python argv``; return (wall s, peak RSS MB, exit code, stdout path).

        Peak RSS comes from this child's own rusage (``os.wait4``), not the
        running maximum over all children. With ``probing`` on, a speed probe
        goes into ``self.probes`` every ``PROBE_INTERVAL_S`` while the child
        runs.
        """
        out, err = self.work / "child.out", self.work / "child.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=fo, stderr=fe
            )
            stop = max(time.monotonic() + 1.0, self.deadline)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    while not select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]:
                        if time.monotonic() > stop:
                            raise TimeoutError(f"{argv[:3]} still running at the deadline")
                        if self.probing:
                            self.probes.append(probe())
                finally:
                    os.close(pidfd)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out

    def op(self, name: str, argv: list, check) -> tuple:
        """One checked operation; returns (wall s, peak RSS MB), or None on failure."""
        self.attempted += 1
        op_id = (name, self.attempted)
        try:
            wall, rss, code, out = self.child(argv)
        except TimeoutError as exc:
            self.expired = True
            self.problems.append((op_id, str(exc)))
            return None
        if code != 0:
            tail = (self.work / "child.err").read_text(errors="replace")[-400:]
            self.problems.append((op_id, f"{name}: exit {code}: {tail}"))
            return None
        found = check(out) if check else []
        self.problems += [(op_id, f"{name}: {p}") for p in found]
        return None if found else (wall, rss)

    def time_left(self) -> bool:
        return not self.expired and time.monotonic() < self.deadline


def cli(*args) -> list:
    return ["-m", "teamgaze.cli", *map(str, args)]


def cli_ops(paths: dict, exp, spec, seed: int, work: Path) -> dict:
    """name -> (argv, check) for the end-to-end operations."""
    config = ["--config", paths["config"]] if "config" in paths else []
    report, synth_dir = work / "report.json", work / "synth"
    rounded = np.array([float(f"{v:.2f}") for v in exp.jva_pct])

    def synth_check(_):
        problems = oracle.check_synth(synth_dir, spec.teams, spec.frames)
        shutil.rmtree(synth_dir, ignore_errors=True)
        return problems

    return {
        "setup": (["-c", "import teamgaze.cli"], None),
        "analyze": (
            cli("analyze", "--frames", paths["frames"], "--teams", paths["teams"],
                *config, "--format", "json", "--out", report),
            lambda _: oracle.check_report_file(report, exp, exp.jva_pct),
        ),
        "stats": (
            cli("stats", "--teams", paths["team_results"], "--format", "json"),
            lambda out: oracle.check_report_file(out, exp, rounded),
        ),
        "synth": (
            cli("synth", "--out-dir", synth_dir, "--teams", spec.teams,
                "--frames-per-team", spec.frames, "--seed", seed),
            synth_check,
        ),
    }


def measure_cli(runner: Runner, ops: dict, warm_ops: dict, seconds: float) -> dict:
    """Warm up each operation once, then time them until ``seconds`` is used.

    The warm-ups run on paper-sized inputs: they compile the ``.pyc`` files
    and load the interpreter and libraries, while the workload's own inputs
    are already in the page cache from being written. Every operation is
    timed at least once; after that the operations take turns, each while
    its last duration still fits in the time left, and one that takes
    less than a second runs about that many more times per turn.
    """
    samples = {name: [] for name in ops}
    samples["analyze_rss"] = []
    samples["events"] = []
    for name, (argv, check) in warm_ops.items():
        runner.op(name, argv, check)

    def turns(n):
        return len(samples[n]) * min(1.0, samples[n][-1]) if samples[n] else 0.0

    start = time.monotonic()
    while runner.time_left():
        left = seconds - (time.monotonic() - start)
        fits = [n for n in ops if not samples[n] or samples[n][-1] <= left]
        if not fits:
            break
        name = min(fits, key=turns)
        first = len(runner.probes)
        runner.probes += [probe() for _ in range(PROBES_AROUND)]
        got = runner.op(name, *ops[name])
        if got is None:
            break
        samples[name].append(got[0])
        # The probes around this invocation: before, during, and the ones
        # taken before the next invocation.
        samples["events"].append((name, got[0], first, len(runner.probes) + PROBES_AROUND))
        if name == "analyze":
            samples["analyze_rss"].append(got[1])
    runner.probes += [probe() for _ in range(PROBES_AROUND)]
    samples["probes"] = runner.probes
    return samples


def measure_traced(runner: Runner, paths: dict, exp, spec, seed: int, workload: str,
                   seconds: float) -> list:
    """Traced passes until ``seconds`` is used (at least one); returns the passes."""
    work = runner.work
    spans_path = work / "spans.json"
    base = [str(Path(__file__).parent / "traced.py"),
            "--frames", paths["frames"], "--teams", paths["teams"],
            "--team-results", paths["team_results"],
            "--synth", spec.teams, spec.frames, seed,
            "--work", work, "--out", spans_path]
    if "config" in paths:
        base += ["--config", paths["config"]]
    passes = []

    def check(_):
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        synth_rows = spec.teams * spec.frames * 2
        problems = data["problems"] + oracle.check_counts(span_counts(data), exp, synth_rows)
        problems += oracle.check_report_file(work / "report.json", exp, exp.jva_pct)
        passes.append(data)
        return problems

    start = time.monotonic()
    first = True
    while runner.time_left():
        t0 = time.monotonic()
        extra = []
        if first:
            extra = ["--ingest-peak"] + (["--check-synth"] if workload == "paper" else [])
        shutil.rmtree(work / "synth", ignore_errors=True)
        shutil.rmtree(work / "bundle", ignore_errors=True)
        done = runner.op("traced", [*map(str, base), *extra], check)
        first = False
        if done is None or time.monotonic() - start + (time.monotonic() - t0) > seconds:
            break
    return passes


def span_counts(data: dict) -> dict:
    """``span.count`` -> value for every count a traced pass recorded."""
    return {f"{s['name']}.{k}": v for s in data["spans"] for k, v in s["counts"].items()}


PATH_STAGES = ("ingest", "build", "score", "stats", "emit.json")


def _path_s(s: dict) -> float:
    return sum(s[k] for k in PATH_STAGES)


# metric -> (unit, value from one traced pass: span seconds s, counts c)
TRACED_METRICS = {
    "io_report.ingest_s": ("s", lambda s, c: s["ingest"]),
    "io_report.ingest_rows_per_s": ("1/s", lambda s, c: c["ingest.rows_read"] / s["ingest"]),
    "io_report.rows_read": ("count", lambda s, c: c["ingest.rows_read"]),
    "io_report.rows_skipped": ("count", lambda s, c: c["ingest.rows_skipped"]),
    "io_report.frames_built": ("count", lambda s, c: c["ingest.frames_built"]),
    "io_report.build_s": ("s", lambda s, c: s["build"]),
    "model.validate_s": ("s", lambda s, c: s["validate"]),
    "jva.score_s": ("s", lambda s, c: s["score"]),
    "jva.frames_per_s": ("1/s", lambda s, c: c["ingest.frames_built"] / s["score"]),
    "jva.frames_counted": ("count", lambda s, c: c["score.frames_counted"]),
    "jva.frames_jva": ("count", lambda s, c: c["score.frames_jva"]),
    "stats.battery_s": ("s", lambda s, c: s["stats"]),
    "stats.teams": ("count", lambda s, c: c["stats.teams"]),
    "io_report.emit_json_s": ("s", lambda s, c: s["emit.json"]),
    "io_report.emit_text_s": ("s", lambda s, c: s["emit.text"]),
    "io_report.emit_csv_bundle_s": ("s", lambda s, c: s["emit.csv-bundle"]),
    "io_report.report_json_bytes": ("bytes", lambda s, c: c["emit.json.bytes"]),
    "io_report.team_rows_load_s": ("s", lambda s, c: s["ingest.team_rows"]),
    "synth.generate_s": ("s", lambda s, c: s["synth"]),
    "synth.rows_per_s": ("1/s", lambda s, c: c["synth.rows"] / s["synth"]),
    # Share of the traced analyze path spent outside its stage spans: span
    # bookkeeping and the counts taken at each boundary.
    "trace.overhead_pct": ("%", lambda s, c: 100.0 * (s["analyze"] / _path_s(s) - 1.0)),
}


def per_layer_metrics(passes: list, cli_samples: dict) -> dict:
    """name -> (median over traced passes, unit, passes), plus the CLI residual."""
    values = {name: [] for name in TRACED_METRICS}
    path_s = []
    for p in passes:
        s = {span["name"]: span["end"] - span["start"] for span in p["spans"]}
        c = span_counts(p)
        for name, (_, value) in TRACED_METRICS.items():
            values[name].append(value(s, c))
        path_s.append(_path_s(s))
    med = statistics.median
    metrics = {
        name: (med(values[name]), unit, len(passes))
        for name, (unit, _) in TRACED_METRICS.items()
    }
    metrics["io_report.ingest_peak_mb"] = (passes[0]["ingest_peak_bytes"] / 2**20, "MB", 1)
    # What a CLI analyze spends outside start-up and the traced stages.
    metrics["cli.residual_s"] = (
        med(cli_samples["analyze"]) - med(cli_samples["setup"]) - med(path_s),
        "s",
        len(cli_samples["analyze"]),
    )
    return metrics


def end_to_end_metrics(samples: dict, runner: Runner) -> dict:
    """name -> (median over the run's timed invocations, unit, sample count).

    Each invocation's time is rescaled to the reference host speed: it is
    multiplied by ``PROBE_REF_S`` over the mean of the speed probes taken
    just before, during and just after it, on the same core. On a shared
    host a core's speed switches between levels up to 1.8x apart, in phases
    of seconds to minutes, so two runs of the same code read that far apart
    in raw seconds; the probes slow with the program and the ratio stays. A
    change to the program moves the ratio and leaves the probes alone.
    """
    med = statistics.median
    probes = samples["probes"]
    scaled = {name: [] for name in ("setup", "analyze", "stats", "synth")}
    for name, wall, first, last in samples["events"]:
        scaled[name].append(wall * PROBE_REF_S / statistics.fmean(probes[first:last]))
    metrics = {
        name: (med(values), unit, len(values))
        for name, values, unit in (
            ("setup_s", scaled["setup"], "s"),
            ("analyze_s", scaled["analyze"], "s"),
            ("analyze_peak_rss_mb", samples["analyze_rss"], "MB"),
            ("stats_s", scaled["stats"], "s"),
            ("synth_s", scaled["synth"], "s"),
        )
    }
    # 1 - failed_share: operations that exited 0 with correct output.
    metrics["correct_share"] = (
        (runner.attempted - runner.failed) / runner.attempted, "share", runner.attempted
    )
    return metrics


def environment(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="teamgaze benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "teamgaze" / "cli.py").is_file():
        print(f"error: no teamgaze source tree under {SRC}", file=sys.stderr)
        return 2
    # One core for this process and every child it starts, so that the
    # speed probes run on the core the timed child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    record = {"env": environment(args)}
    try:
        spec = workloads.SPECS[args.workload]
        paths, exp = workloads.generate(args.workload, args.seed, work / "inputs")
        record["inputs"] = {k: {"file": p.name, **workloads.describe(p)} for k, p in paths.items()}
        runner = Runner(work, deadline, probing=not args.trace)
        ops = cli_ops(paths, exp, spec, args.seed, work)
        if args.trace:
            # The CLI samples for cli.residual_s come right before the traced
            # analyze path, so both see the host at about the same speed.
            runner.op("setup", *ops["setup"])
            cli_samples = {"setup": [], "analyze": []}
            for name in ("setup",) * SETUP_REPEATS + ("analyze",):
                got = runner.op(name, *ops[name])
                if got:
                    cli_samples[name].append(got[0])
            passes = measure_traced(runner, paths, exp, spec, args.seed, args.workload,
                                    args.seconds)
            complete = passes and "ingest_peak_bytes" in passes[0] and all(cli_samples.values())
            metrics = per_layer_metrics(passes, cli_samples) if complete else {}
            record["spans"] = passes
        else:
            warm_paths, warm_exp = workloads.generate("paper", args.seed, work / "warm")
            warm_ops = cli_ops(warm_paths, warm_exp, workloads.SPECS["paper"], args.seed,
                               work / "warm")
            samples = measure_cli(runner, ops, warm_ops, args.seconds)
            complete = all(samples.values())
            metrics = end_to_end_metrics(samples, runner) if complete else {}
            record["samples"] = samples
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = bool(complete) and not runner.problems
    record.update(
        metrics=metrics,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=[p for _, p in runner.problems],
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in record["problems"][:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    env = record["env"]
    print(f"# {' '.join(f'{k}={v}' for k, v in env.items())}")
    for key, info in record["inputs"].items():
        print(f"# input {info['file']} rows={info['rows']} bytes={info['bytes']} "
              f"sha256={info['sha256']}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:30s} {value:>16.6g} {unit:6s} n={n}")
    print(f"failed_share {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
