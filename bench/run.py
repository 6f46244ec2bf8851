"""Benchmark of the viscostring CLI on seeded task workloads.

    python3 bench/run.py --workload {forward,synthesis,audit} --seed N \
                         --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
./src, nothing needs installing.  The seed generates the workload's
configs (see workloads.py); the program sees only those files.

--trace 0 measures end to end.  It runs the workload's cycle of
`python3 -m viscostring.cli <task> --config ... --out ...` subprocesses
back to back (closed loop, one client, threads = 1) until S seconds have
passed, always finishing the cycle it is in.  The set-up time, a fresh
interpreter running `import viscostring`, is sampled before the cycles
and after every run.  Every run's exit code and
outputs are checked (checks.py).  Afterwards one config per task is run
again and its outputs are compared byte for byte, timing.json excepted.

--trace 1 measures per layer.  Each config of the cycle runs once as the
plain CLI and once under tracer.py, which records a span around
every package layer; the pair gives the tracing overhead.  Traced outputs
must equal the plain ones byte for byte.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it are a readable
report; the full record (environment, every run, the per-task figures
and, for traced runs, all spans) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans as spanlib
import workloads

SETUP_REPEATS = 7
# Runs still going this long after the benchmark started are killed (and
# fail), so that one invocation ends within its 180 s budget.
DEADLINE_S = 165
TAIL_BEYOND = 10
WORK_DIR = ".bench_work"
TASK_ORDER = ("simulate", "steer", "pair", "verify", "diagnose")

END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_min", "1/min"),
    ("run_s.p50", "s"),
    ("run_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)

# Span names reported with their call count and self time per cycle.
CALLS_AND_SELF = (
    "volterra.solve_mode", "volterra.solve_moment_kernel",
    "volterra.assemble_moment_kernel", "volterra.march", "volterra.convolve",
    "kernels.derive_kernels", "moments.build_family", "moments.gram",
    "spectral.simulate_coefficients", "harness.write_csv",
)
# Span names reported with their self time per cycle only.
SELF_ONLY = (
    "volterra.solve_volterra_second_kind", "moments.synthesize_control",
    "moments.finite_pair_control", "moments.frame_bounds",
    "moments.quadratic_closeness", "spectral.reconstruct_field",
    "verify.closed_loop_roundtrip", "harness.write_manifest", "harness.run",
    "cli.main",
)
VERIFY_CHECKS = (
    "verify.check_mode_asymptotics", "verify.check_mode_derivative_asymptotics",
    "verify.check_convolution_asymptotics", "verify.check_resolvent_identity",
    "verify.check_stress_deformation_gap",
)
UNIQUE = ("volterra.solve_mode", "volterra.solve_moment_kernel")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span in CALLS_AND_SELF:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if span in UNIQUE:
            names.append((f"{span}.unique_frac", "ratio"))
    names += [(f"{span}.self_s", "s") for span in SELF_ONLY]
    names += [
        ("volterra.march.madds", "count"),
        ("volterra.march.madds_per_s", "1/s"),
        ("harness.write_csv.bytes", "B"),
        ("verify.checks.self_s", "s"),
        ("cli.startup_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def tail(values) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count).  With no more than
    TAIL_BEYOND samples no percentile qualifies and the maximum is
    returned, labelled as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND          # 1-based rank with TAIL_BEYOND beyond it
    return ordered[rank - 1], 100.0 * rank / n, n


def slot_tail(runs) -> tuple:
    """The largest per-slot `tail` over the slots of a cycle, with its slot.

    Taking the tail inside each slot keeps it from sliding between
    configs of different size as the number of cycles in a pass changes.
    """
    by_slot = {}
    for r in runs:
        by_slot.setdefault(r["slot"], []).append(r["wall_s"])
    return max(tail(walls) + (slot,) for slot, walls in by_slot.items())


class Bench:
    """One benchmark invocation: its checkout, work directory and runs."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.src = root / "src"
        self.workload, self.seed, self.trace = workload, seed, trace
        self.results = root / WORK_DIR / "results"
        self.work = root / WORK_DIR / f"tmp-{workload}-{seed}-{int(trace)}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)
        self.specs = workloads.cycle(workload, seed)
        self.configs = {}
        self.deadline_ns = _now_ns() + int(DEADLINE_S * 1e9)

    def prepare(self) -> None:
        (self.work / "configs").mkdir(parents=True, exist_ok=True)
        self.results.mkdir(parents=True, exist_ok=True)
        for spec in self.specs:
            path = self.work / "configs" / f"{spec.slot}.ini"
            path.write_text(spec.config)
            self.configs[spec.slot] = path

    def launch(self, cmd_for, label: str) -> dict:
        """Run one subprocess to completion; wall time and max RSS from wait4."""
        err_path = self.work / f"{label}.stderr"
        with open(err_path, "wb") as err:
            launch_ns = _now_ns()
            proc = subprocess.Popen(cmd_for(launch_ns), cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(0.0, (self.deadline_ns - launch_ns) * 1e-9),
                                       proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end_ns = _now_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"exit": proc.returncode, "wall_s": (end_ns - launch_ns) * 1e-9,
                "rss_kb": usage.ru_maxrss, "launch_ns": launch_ns, "end_ns": end_ns,
                "stderr_tail": err_path.read_text(errors="replace")[-400:]}

    def setup_time(self, label: str) -> float:
        rec = self.launch(lambda _: [sys.executable, "-c", "import viscostring"], label)
        if rec["exit"] != 0:
            raise RuntimeError(f"import viscostring failed: {rec['stderr_tail']}")
        return rec["wall_s"]

    def run_cli(self, spec, out: Path, label: str) -> dict:
        cmd = [sys.executable, "-m", "viscostring.cli", spec.task,
               "--config", str(self.configs[spec.slot]), "--out", str(out)]
        rec = self.launch(lambda _: cmd, label)
        rec.update(slot=spec.slot, task=spec.task, traced=False,
                   problems=checks.check_run(spec, out, rec["exit"]))
        return rec

    def run_traced(self, spec, out: Path, label: str) -> tuple:
        span_file = self.work / f"{label}.spans.json"
        tracer = str(Path(__file__).resolve().parent / "tracer.py")

        def cmd_for(launch_ns):
            return [sys.executable, tracer, "--launch-ns", str(launch_ns),
                    "--run-id", label, "--spans", str(span_file), "--",
                    spec.task, "--config", str(self.configs[spec.slot]),
                    "--out", str(out)]

        rec = self.launch(cmd_for, label)
        rec.update(slot=spec.slot, task=spec.task, traced=True, run_id=label,
                   problems=checks.check_run(spec, out, rec["exit"]))
        doc = None
        if span_file.is_file():
            doc = json.loads(span_file.read_text())
        else:
            rec["problems"].append("traced run wrote no spans")
        return rec, doc

    def measure(self, seconds: float) -> tuple:
        """Untraced cycles for `seconds`, then one byte-compared rerun per task.

        The set-up time is sampled SETUP_REPEATS times before the cycles
        and once after every run, so that it sees the same machine as the
        runs do.  Returns (runs, reruns, cycles, set-up samples).
        """
        self.setup_time("setup-warm")  # compiles the bytecode once
        setup = [self.setup_time(f"setup-{i}") for i in range(SETUP_REPEATS)]
        runs, keep = [], {}
        first_of_task = {}
        for spec in self.specs:
            first_of_task.setdefault(spec.task, spec)
        start, cycles = _now_ns(), 0
        while cycles == 0 or (_now_ns() - start) * 1e-9 < seconds:
            for spec in self.specs:
                out = self.work / f"c{cycles}-{spec.slot}"
                runs.append(self.run_cli(spec, out, f"c{cycles}-{spec.slot}"))
                setup.append(self.setup_time(f"setup-c{cycles}-{spec.slot}"))
                if cycles == 0 and first_of_task[spec.task] is spec:
                    keep[spec.slot] = out
                else:
                    shutil.rmtree(out, ignore_errors=True)
            cycles += 1
        reruns = []
        for spec in first_of_task.values():
            out = self.work / f"rerun-{spec.slot}"
            rec = self.run_cli(spec, out, f"rerun-{spec.slot}")
            rec["problems"] += checks.compare_outputs(keep[spec.slot], out)
            rec["rerun"] = True
            reruns.append(rec)
        return runs, reruns, cycles, setup

    def measure_traced(self, seconds: float) -> tuple:
        """Plain and traced run of each config, cycle by cycle, for `seconds`."""
        plain, traced, docs = [], [], []
        start, cycles = _now_ns(), 0
        while cycles == 0 or (_now_ns() - start) * 1e-9 < seconds:
            for spec in self.specs:
                label = f"c{cycles}-{spec.slot}"
                out_plain, out_traced = self.work / label, self.work / f"{label}-traced"
                plain.append(self.run_cli(spec, out_plain, label))
                rec, doc = self.run_traced(spec, out_traced, f"{label}-traced")
                if spec.expect_exit == 0:
                    rec["problems"] += checks.compare_outputs(out_plain, out_traced)
                traced.append(rec)
                if doc is not None:
                    docs.append(doc)
                shutil.rmtree(out_plain, ignore_errors=True)
                shutil.rmtree(out_traced, ignore_errors=True)
            cycles += 1
        return plain, traced, docs, cycles


def end_to_end_metrics(setup: list, runs: list, reruns: list) -> tuple:
    """(metrics, extra): the end-to-end metrics and their per-task detail."""
    passed = [r for r in runs if not r["problems"]]
    walls = [r["wall_s"] for r in passed] or [0.0]
    busy = sum(r["wall_s"] for r in runs)
    tail_value, tail_pct, tail_n, tail_slot = slot_tail(passed) if passed else (0.0, 0.0, 0, "")
    metrics = {
        "setup_s": statistics.median(setup),
        "runs_per_min": 60.0 * len(passed) / busy if busy > 0 else 0.0,
        "run_s.p50": statistics.median(walls),
        "run_s.tail": tail_value,
        "peak_rss_mb": max(r["rss_kb"] for r in runs + reruns) / 1024.0,
    }
    extra = {"run_s.tail.slot": tail_slot, "run_s.tail.percentile": tail_pct,
             "run_s.tail.samples": tail_n, "setup_s.samples": setup,
             "runs_passed": len(passed)}
    for task in TASK_ORDER:
        task_walls = [r["wall_s"] for r in passed if r["task"] == task]
        if task_walls:
            extra[f"{task}_s.p50"] = statistics.median(task_walls)
            extra[f"{task}_s.samples"] = len(task_walls)
    return metrics, extra


def per_layer_metrics(plain: list, traced: list, docs: list, cycles: int) -> tuple:
    """(metrics, extra) from the spans of the traced runs."""
    all_spans = [s for doc in docs for s in doc["spans"]]
    table = spanlib.aggregate(all_spans)

    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "attrs": {}})

    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = row(name)["calls"] / cycles
        metrics[f"{name}.self_s"] = row(name)["self_s"] / cycles
        if name in UNIQUE:
            distinct, calls = spanlib.unique_counts(all_spans, name)
            metrics[f"{name}.unique_frac"] = distinct / calls if calls else 0.0
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = row(name)["self_s"] / cycles
    march = row("volterra.march")
    madds = march["attrs"].get("madds", 0.0)
    metrics["volterra.march.madds"] = madds / cycles
    metrics["volterra.march.madds_per_s"] = madds / march["self_s"] if march["self_s"] else 0.0
    metrics["harness.write_csv.bytes"] = row("harness.write_csv")["attrs"].get("bytes", 0.0) / cycles
    metrics["verify.checks.self_s"] = sum(row(n)["self_s"] for n in VERIFY_CHECKS) / cycles

    by_id = {r["run_id"]: r for r in traced}
    startups, unattributed = [], []
    for doc in docs:
        startup = (doc["main_start_ns"] - doc["launch_ns"] - doc["install_ns"]) * 1e-9
        main_s = sum((s["end"] - s["start"]) * 1e-9 for s in doc["spans"]
                     if s["parent"] is None)
        rec = by_id[doc["run"]]
        rec["startup_s"] = startup
        rec["unattributed_s"] = rec["wall_s"] - startup - main_s
        startups.append(startup)
        unattributed.append(rec["unattributed_s"])
    metrics["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    metrics["trace.unattributed_s"] = statistics.median(unattributed) if unattributed else 0.0
    plain_s = sum(r["wall_s"] for r in plain)
    traced_s = sum(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0

    extra = {"cycles": cycles, "traced_runs": len(docs),
             "computed": ["volterra.march.madds (K(K-1)/2 per march, x4 complex)",
                          "harness.write_csv.bytes (size of each file written)"]}
    for name in UNIQUE:
        for task in TASK_ORDER:
            per_run = []
            for doc in docs:
                if by_id[doc["run"]]["task"] == task:
                    distinct, calls = spanlib.unique_counts(doc["spans"], name)
                    per_run.append(f"{distinct}/{calls}")
            if any(not f.endswith("/0") for f in per_run):
                extra[f"{name}.unique[{task}]"] = \
                    f"{', '.join(sorted(set(per_run)))} per run ({len(per_run)} runs)"
    return metrics, extra


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 only prints its build config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                             "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                             "effective": _openblas_threads()},
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }


def _openblas_threads():
    """Thread count OpenBLAS reports in this process (read, never set)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit(root: Path) -> str:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown (not a git checkout)"
    return lines[1]


def _report(bench: Bench, metrics: dict, units: dict, extra: dict,
            attempted: int, failed: list) -> None:
    mode = "traced" if bench.trace else "end to end"
    print(f"workload {bench.workload}, seed {bench.seed}, {mode}: "
          f"{len(failed)} of {attempted} runs failed")
    for rec in failed:
        print(f"  FAILED {rec['slot']} ({'traced' if rec['traced'] else 'plain'}): "
              f"{'; '.join(rec['problems'])}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    for name, value in extra.items():
        if not isinstance(value, list):
            print(f"  {name:<44} {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="viscostring CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "viscostring" / "__init__.py").is_file():
        print("bench: src/viscostring not found; run from the root of a "
              "viscostring source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the output checks use the oracle

    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    bench.prepare()
    try:
        if bench.trace:
            plain, traced, docs, cycles = bench.measure_traced(args.seconds)
            everything = plain + traced
            metrics, extra = per_layer_metrics(plain, traced, docs, cycles)
            units = dict(per_layer_names())
        else:
            runs, reruns, cycles, setup = bench.measure(args.seconds)
            everything = runs + reruns
            metrics, extra = end_to_end_metrics(setup, runs, reruns)
            extra = {"cycles": cycles, **extra}
            units = dict(END_TO_END)
            docs = []
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failed = [r for r in everything if r["problems"]]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": environment(root, args.workload, args.seed),
              "seconds": args.seconds, "metrics": metrics, "extra": extra,
              "runs": everything}
    (bench.results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if docs:
        (bench.results / f"{stem}-spans.json").write_text(json.dumps(docs) + "\n")

    _report(bench, metrics, units, extra, len(everything), failed)
    result = {"correct": not failed, "attempted": len(everything), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
