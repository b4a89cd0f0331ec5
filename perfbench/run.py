"""taclearn benchmark: runs the CLI on seeded workloads and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; taclearn is imported from its ``src/``.

``--trace 0`` runs the workload's CLI commands as separate child processes,
one at a time, as a user would, and repeats the whole workload until S
seconds have passed. It reports the end-to-end metrics as medians over
those repetitions:

- ``wall_s``: spawn to exit, summed over the workload's commands;
- ``setup_s``: spawn to the first call into ``ConvNetBackend.forward``,
  summed over the commands (interpreter start, imports, config, data load,
  tactile-image build and normalisation);
- ``train_samples_per_s``: images through forward, backward and SGD per
  second of training (``cl-sweep``: the fine-tune samples);
- ``embed_images_per_s``: forward-only images per second of embedding;
- ``peak_rss_mb``: the largest peak resident memory of any command;
- ``test_acc``: held-out accuracy at the sweep's neutral point (noise 0,
  speed 1) or, for ``cl-sweep``, the final fine-tuned accuracy at the
  largest capacity.

The report line also carries ``ridge_acc`` for ``cl-sweep`` (the ridge
floor's final accuracy at the largest capacity) and ``failed_frac``; both
stay out of the result line, whose metrics must apply to every workload and
never read 0.

``--trace 1`` replays the same commands inside this process, alternating an
untraced and a traced replay until S seconds have passed, and reports the
per-layer metrics of ``instrument.PER_LAYER``: times are medians over the
traced replays, counts must be identical in every replay.
``trace.overhead_frac`` is traced against untraced replay wall time.

A repetition fails when a command exits non-zero, an accuracy is under its
floor, an output file differs from the first output seen for the same
sources, workload and seed (untraced or traced, this run or an earlier one;
records under ``.perfbench_work/records``), a traced count differs from the
recorded one, or span self times do not add up to the traced replay's
measured wall time. Failures are counted in the result line's ``attempted``
and ``failed`` and never dropped; timings and counts come from the
repetitions that passed.

The last line of standard output is the result; the line before it is a
JSON report with the environment, every repetition and, per metric, the
median, quartiles and the worst-side percentile that has ten repetitions
beyond it. Children get the BLAS library's default thread count: the thread
variables are removed from their environment so the caller's shell cannot
leak in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import instrument
import workloads
from spans import Patcher, Tracer, self_times

HERE = Path(__file__).resolve().parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = Path(".perfbench_work")
CHILD_TIMEOUT_S = 150
# Largest share of the traced wall time the span self times may miss or exceed.
SELF_SUM_TOLERANCE = 1e-3

# (name, unit, better) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("embed_images_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_acc", "fraction", "higher"),
]

_PROBE = """
import json, os, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration")}))
"""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    return env


def environment(env: dict, seed: int) -> dict:
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S, check=True)
    info = json.loads(probe.stdout)
    info.update(
        thread_vars_in_caller={v: os.environ.get(v) for v in THREAD_VARS},
        thread_vars_in_children="unset: BLAS library default",
        nproc=len(os.sched_getaffinity(0)),
        seed=seed,
    )
    return info


def run_child(argv: list[str], log: Path, env: dict, root: Path):
    """Run one command to completion; returns (exit code, wall s, t_spawn, rusage)."""
    with open(log, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=root)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, end - start, start, usage


def tree_hashes(top: Path, skip: tuple = ()) -> dict:
    return {str(p.relative_to(top)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(top.rglob("*"))
            if p.is_file() and p.relative_to(top).parts[0] not in skip}


def source_digest(root: Path) -> str:
    """Digest of taclearn's and the benchmark's sources, which fix every output byte."""
    h = hashlib.sha256()
    for p in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


class Record:
    """Outputs (and traced counts) of the first run of these sources, workload and seed."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def compare(self, key: str, value: dict) -> list[str]:
        """Store `value` under `key` on first sight; afterwards report any difference."""
        if key not in self.data:
            self.data[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            return []
        old = self.data[key]
        return [f"{key}: {k} differs from an earlier run"
                for k in sorted(set(old) | set(value)) if old.get(k) != value.get(k)]


def iteration_problems(plan, out: Path, record: Record) -> tuple[dict, list]:
    """Output checks for one repetition whose commands all exited 0."""
    accuracies, problems = plan.check(out)
    return accuracies, problems + record.compare("outputs", tree_hashes(out))


def self_sum_problems(spans, traced_wall: float) -> list[str]:
    """Span self times must add up to the traced wall time, measured apart from the spans.

    The two differ only by the root wrappers' own entry and exit; time outside
    every root span, or a missing root span, shows as a gap.
    """
    total = sum(self_times(spans))
    if abs(total - traced_wall) > SELF_SUM_TOLERANCE * traced_wall:
        return [f"self times sum to {total} s, traced wall is {traced_wall} s"]
    return []


def summary(values: list[float], better: str) -> dict:
    """Median, quartiles, and the worst-side percentile with >= 10 values beyond it."""
    ordered = sorted(values, reverse=(better == "higher"))
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q = statistics.quantiles(ordered, n=4)
        out["quartiles"] = [q[0], q[2]]
    if n >= 11:
        k = n - 10  # rank (1-based, best first) with ten values worse than it
        out["tail"] = {"percentile": round(100.0 * k / n, 2), "value": ordered[k - 1],
                       "beyond": n - k}
    return out


def measure(plan, work: Path, seconds: float, env: dict, root: Path, record: Record):
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        k = len(reps)
        shutil.rmtree(work / "out", ignore_errors=True)
        out, logs = work / "out" / f"r{k}", work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        rep = {"wall_s": 0.0, "setup_s": 0.0, "train_s": 0.0, "train_samples": 0,
               "embed_s": 0.0, "embed_images": 0, "peak_rss_mb": 0.0, "problems": []}
        for c, argv in enumerate(plan.commands(out)):
            stats_path = logs / f"r{k}-c{c}.json"
            code, wall, spawned, usage = run_child(
                [sys.executable, str(HERE / "child.py"), str(stats_path), *argv],
                logs / f"r{k}-c{c}.log", env, root)
            rep["wall_s"] += wall
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], usage.ru_maxrss / 1024.0)
            if code != 0:
                rep["problems"].append(f"{argv[0]} exited {code}")
                break
            stats = json.loads(stats_path.read_text())
            rep["setup_s"] += (stats["first_forward"] - spawned
                               if stats["first_forward"] is not None else wall)
            for key in ("train_s", "train_samples", "embed_s", "embed_images"):
                rep[key] += stats[key]
        if not rep["problems"]:
            accuracies, problems = iteration_problems(plan, out, record)
            rep.update(accuracies)
            rep["problems"] += problems
            rep["train_samples_per_s"] = rep["train_samples"] / rep["train_s"]
            rep["embed_images_per_s"] = rep["embed_images"] / rep["embed_s"]
        reps.append(rep)
    return reps


def replay(main, commands, log: Path) -> tuple[float, list[str]]:
    """Run CLI commands in this process; returns (summed wall s, problems)."""
    wall, problems = 0.0, []
    with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), \
            contextlib.redirect_stderr(fh):
        for argv in commands:
            start = time.perf_counter()
            code = main(argv)
            wall += time.perf_counter() - start
            if code != 0:
                problems.append(f"{argv[0]} exited {code}")
                break
    return wall, problems


def measure_traced(plan, work: Path, seconds: float, root: Path, record: Record):
    sys.path.insert(0, str(root / "src"))
    from taclearn import cli

    reps = []
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        k = len(reps)
        shutil.rmtree(work / "out", ignore_errors=True)
        out_plain, out_traced = work / "out" / f"u{k}", work / "out" / f"t{k}"
        tracer = Tracer()

        def run_plain():
            return replay(cli.main, plan.commands(out_plain), logs / f"u{k}.log")

        def run_traced():
            with Patcher("taclearn") as patcher:
                instrument.install(tracer, patcher)
                return replay(tracer.traced(cli.main, "cli"), plan.commands(out_traced),
                              logs / f"t{k}.log")

        # Alternate which replay goes first so that order effects cancel.
        if k % 2 == 0:
            (wall, problems), (traced_wall, traced_problems) = run_plain(), run_traced()
        else:
            (traced_wall, traced_problems), (wall, problems) = run_traced(), run_plain()
        if not problems:
            problems += iteration_problems(plan, out_plain, record)[1]
        values, self_by_span = instrument.metrics(tracer, wall, traced_wall)
        counts = {name: values[name] for name, unit, _ in instrument.PER_LAYER if unit != "s"
                  and name != "trace.overhead_frac"}
        if not traced_problems:
            traced_problems += iteration_problems(plan, out_traced, record)[1]
            traced_problems += record.compare("counts", counts)
        traced_problems += self_sum_problems(tracer.spans, traced_wall)
        reps.append({"untraced_wall_s": wall, "traced_wall_s": traced_wall, "values": values,
                     "counts": counts, "self_s_by_span": self_by_span, "problems": problems,
                     "traced_problems": traced_problems})
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "taclearn" / "cli.py").is_file():
        print("error: run from a taclearn checkout (src/taclearn/cli.py not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    for var in THREAD_VARS:  # the traced run imports taclearn (and numpy) in this process
        os.environ.pop(var, None)
    info = environment(env, args.seed)

    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    record = Record(WORK_DIR / "records" / f"{work.name}-{source_digest(root)}.json")
    plan = workloads.plan(args.workload, work, args.seed, args.size)
    for c, argv_ in enumerate(plan.prep):
        (work / "logs").mkdir(parents=True, exist_ok=True)
        code, *_ = run_child([sys.executable, "-m", "taclearn.cli", *argv_],
                             work / "logs" / f"prep{c}.log", env, root)
        if code != 0:
            print(f"error: preparation command {argv_[0]} exited {code}", file=sys.stderr)
            return 1
    prep_problems = record.compare("prep", tree_hashes(work, skip=("logs",))) if plan.prep else []
    # Warm the page cache and bytecode so the first repetition is not an outlier.
    subprocess.run([sys.executable, "-c", "import taclearn.cli"], env=env, cwd=root,
                   check=True, timeout=CHILD_TIMEOUT_S)

    if args.trace:
        reps = measure_traced(plan, work, args.seconds, root, record)
    else:
        reps = measure(plan, work, args.seconds, env, root, record)
    good = [r for r in reps if not r["problems"] and not r.get("traced_problems")]
    if not good:
        (work / "report.json").write_text(json.dumps({"repetitions": reps}, indent=1))
        print(f"error: every repetition failed: {reps[0]['problems']}"
              f" {reps[0].get('traced_problems', '')}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: (good[0]["counts"][name] if name in good[0]["counts"]
                          else statistics.median(r["values"][name] for r in good), unit)
                   for name, unit, _ in instrument.PER_LAYER}
        attempted = 2 * len(reps)
    else:
        report_metrics = {name: summary([r[name] for r in good], better)
                          for name, _, better in END_TO_END}
        if "ridge_acc" in good[0]:
            report_metrics["ridge_acc"] = summary([r["ridge_acc"] for r in good], "higher")
        metrics = {name: (report_metrics[name]["median"], unit) for name, unit, _ in END_TO_END}
        attempted = len(reps)
    attempted += bool(plan.prep)
    failed = sum(bool(r["problems"]) + bool(r.get("traced_problems")) for r in reps)
    failed += bool(prep_problems)
    report = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "size": args.size, "seconds": args.seconds, "trace": args.trace,
              "environment": info, "prep_problems": prep_problems,
              "failed_frac": failed / attempted,
              "repetitions": reps}
    if not args.trace:
        report["summary"] = report_metrics
    (work / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
