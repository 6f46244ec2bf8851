"""Experiment harness: configuration, task execution and persistence.

Config files are flat INI: named sections of key = value lines, nothing
nested.  A run reads one config, executes the requested task and writes a
manifest plus plot-ready CSVs into the output directory.  Identical
config and seed give byte-identical outputs; wall time therefore lives in
a separate timing.json sidecar rather than in the manifest.  Each run
solves its mode responses and moment kernels once, in one batch each,
and hands them to every consumer.  The thread count (`--threads`,
`[run] threads`, VISCOSTRING_THREADS) is still accepted and validated,
but has no effect.

Random targets and controls come from an explicit 64-bit generator so
other toolchains can reproduce them from the documented integer
recurrence (see `splitmix64_stream`).
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ElasticDegeneracyError,
    ExceptionalIndexError,
    NearSingularGramError,
    ViscostringError,
)
from .kernels import (
    DerivedKernelSet,
    MemoryKernel,
    derive_kernels,
    exceptional_index_check,
)
from .moments import (
    MomentTarget,
    build_family,
    finite_pair_control,
    frame_bounds,
    gram,
    quadratic_closeness,
    synthesize_control,
)
from .spectral import (
    ControlSignal,
    coefficient_norms,
    mode_params,
    reconstruct_field,
    simulate_coefficients,
)
from .verify import (
    check_convolution_asymptotics,
    check_mode_asymptotics,
    check_mode_derivative_asymptotics,
    check_resolvent_identity,
    check_stress_deformation_gap,
    closed_loop_roundtrip,
)
from .volterra import RESOLUTION_LIMIT, TimeGrid, solve_modes

__all__ = [
    "SCHEMA_VERSION",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_EXCEPTIONAL_INDEX",
    "EXIT_NEAR_SINGULAR",
    "EXIT_ELASTIC_DEGENERACY",
    "ExperimentConfig",
    "load_config",
    "run",
    "splitmix64_stream",
    "uniform_stream",
    "random_unit_target",
    "make_control",
    "write_csv",
    "write_manifest",
]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_EXCEPTIONAL_INDEX = 3
EXIT_NEAR_SINGULAR = 4
EXIT_ELASTIC_DEGENERACY = 5

TASKS = ("simulate", "steer", "pair", "diagnose", "verify")
CONTROL_KINDS = ("zero", "cosine", "bump", "random")

FIELD_GRID_POINTS = 201
THREADS_ENV_VAR = "VISCOSTRING_THREADS"

_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int):
    """Yield the splitmix64 sequence for a nonnegative 64-bit seed.

    State update and output scramble, all modulo 2^64:

        state <- state + 0x9E3779B97F4A7C15
        x <- state
        x <- (x XOR (x >> 30)) * 0xBF58476D1CE4E5B9
        x <- (x XOR (x >> 27)) * 0x94D049BB133111EB
        output x XOR (x >> 31)
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        x = state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield x ^ (x >> 31)


def uniform_stream(seed: int):
    """Uniform doubles in [0, 1) from the top 53 bits of splitmix64."""
    for x in splitmix64_stream(seed):
        yield (x >> 11) / float(1 << 53)


def random_unit_target(seed: int, n_max: int, index: int = 0) -> MomentTarget:
    """Seeded random steering target, normalised to a unit complex vector.

    Target `index` consumes draws 2*n_max*index .. 2*n_max*(index+1) - 1 of
    the uniform stream; each draw u maps to 2u - 1 and the first n_max
    values are velocity targets, the next n_max stress targets.
    """
    stream = uniform_stream(seed)
    for _ in range(2 * n_max * index):
        next(stream)
    values = np.array([2.0 * next(stream) - 1.0 for _ in range(2 * n_max)])
    xi, eta = values[:n_max], values[n_max:]
    norm = math.sqrt(float(np.sum(xi ** 2) + np.sum(eta ** 2)))
    if norm > 0.0:
        xi, eta = xi / norm, eta / norm
    return MomentTarget(xi, eta)


def random_control(seed: int, grid: TimeGrid, terms: int = 8) -> ControlSignal:
    """Seeded smooth control: a short sine series with decaying weights."""
    stream = uniform_stream(seed)
    times = grid.times()
    samples = np.zeros(grid.steps + 1)
    for j in range(1, terms + 1):
        coeff = (2.0 * next(stream) - 1.0) / j
        samples += coeff * np.sin(j * math.pi * times / grid.horizon)
    return ControlSignal(samples, grid)


def bump_control(grid: TimeGrid, amplitude: float, center: float,
                 width: float) -> ControlSignal:
    """Smooth compactly supported bump, peak `amplitude` at `center`."""
    times = grid.times()
    y = (times - center) / width
    samples = np.zeros(grid.steps + 1)
    inside = np.abs(y) < 1.0
    samples[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
    return ControlSignal(samples, grid)


@dataclass
class ExperimentConfig:
    kernel: MemoryKernel
    grid: TimeGrid
    task: str
    n_max: int = 32
    n_pair: int = 4
    seed: int = 0
    out_dir: str = "out"
    threads: int | None = None
    # steer targets: explicit velocity/stress rows or seeded random
    velocity_targets: np.ndarray | None = None
    stress_targets: np.ndarray | None = None
    random_targets: bool = False
    # pair targets
    deformation_targets: np.ndarray | None = None
    pair_stress_targets: np.ndarray | None = None
    # control block for simulate/verify
    control_kind: str = "zero"
    control_amplitude: float = 1.0
    control_frequency: float = 1.0
    control_center: float | None = None
    control_width: float | None = None
    raw: dict = field(default_factory=dict)

    def resolve_threads(self, override: int | None = None) -> int:
        """Thread count from the override, the config or the environment.

        Kept for compatibility: the value is validated but no solver uses it.
        """
        if override is not None:
            return max(1, override)
        if self.threads is not None:
            return max(1, self.threads)
        env = os.environ.get(THREADS_ENV_VAR)
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}")
        return 1


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _build_kernel(section) -> MemoryKernel:
    family = section.get("family", "").strip().lower()
    coeffs = _parse_floats(section.get("coefficients", ""))
    if family == "zero":
        return MemoryKernel.zero()
    if family == "exponential_sum":
        if len(coeffs) % 2 != 0 or not coeffs:
            raise ValueError("exponential_sum needs an even, nonzero number of "
                             "coefficients (a b per term)")
        pairs = list(zip(coeffs[0::2], coeffs[1::2]))
        return MemoryKernel.exponential_sum(pairs)
    if family == "polynomial":
        return MemoryKernel.polynomial(coeffs)
    raise ValueError(f"unknown kernel family {family!r}")


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file (flat INI sections)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(str(path))
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    if "kernel" not in parser or "grid" not in parser or "task" not in parser:
        raise ValueError("config needs [kernel], [grid] and [task] sections")

    kernel = _build_kernel(parser["kernel"])
    grid_sec = parser["grid"]
    grid = TimeGrid(float(grid_sec["horizon"]), int(grid_sec["steps"]))
    task = parser["task"].get("kind", "").strip().lower()
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")

    cfg = ExperimentConfig(kernel=kernel, grid=grid, task=task)

    if "modes" in parser:
        modes = parser["modes"]
        cfg.n_max = modes.getint("n_max", cfg.n_max)
        cfg.n_pair = modes.getint("n_pair", cfg.n_pair)

    if "run" in parser:
        run_sec = parser["run"]
        cfg.seed = run_sec.getint("seed", 0)
        if cfg.seed < 0:
            raise ValueError("seed must be nonnegative")
        cfg.out_dir = run_sec.get("out", cfg.out_dir)
        if "threads" in run_sec:
            cfg.threads = run_sec.getint("threads")

    if "targets" in parser:
        tgt = parser["targets"]
        if tgt.get("random", "").strip().lower() == "unit":
            cfg.random_targets = True
        if "velocity" in tgt:
            cfg.velocity_targets = np.array(_parse_floats(tgt["velocity"]))
        if "stress" in tgt and cfg.task == "steer":
            cfg.stress_targets = np.array(_parse_floats(tgt["stress"]))
        if "deformation" in tgt:
            cfg.deformation_targets = np.array(_parse_floats(tgt["deformation"]))
        if "stress" in tgt and cfg.task == "pair":
            cfg.pair_stress_targets = np.array(_parse_floats(tgt["stress"]))

    if "control" in parser:
        ctl = parser["control"]
        cfg.control_kind = ctl.get("kind", "zero").strip().lower()
        if cfg.control_kind not in CONTROL_KINDS:
            raise ValueError(f"unknown control kind {cfg.control_kind!r}")
        cfg.control_amplitude = ctl.getfloat("amplitude", 1.0)
        cfg.control_frequency = ctl.getfloat("frequency", 1.0)
        if "center" in ctl:
            cfg.control_center = ctl.getfloat("center")
        if "width" in ctl:
            cfg.control_width = ctl.getfloat("width")

    cfg.raw = {name: dict(parser[name]) for name in parser.sections()}
    return cfg


def make_control(cfg: ExperimentConfig, grid: TimeGrid) -> ControlSignal:
    """Instantiate the configured control on the working grid."""
    if cfg.control_kind == "zero":
        return ControlSignal(np.zeros(grid.steps + 1), grid)
    if cfg.control_kind == "cosine":
        times = grid.times()
        return ControlSignal(
            cfg.control_amplitude * np.cos(cfg.control_frequency * times), grid)
    if cfg.control_kind == "bump":
        center = cfg.control_center if cfg.control_center is not None \
            else 0.5 * grid.horizon
        width = cfg.control_width if cfg.control_width is not None \
            else 0.25 * grid.horizon
        return bump_control(grid, cfg.control_amplitude, center, width)
    if cfg.control_kind == "random":
        return random_control(cfg.seed, grid)
    raise ValueError(f"unknown control kind {cfg.control_kind!r}")


def _fmt_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """CSV with a header row; floats carry 17 significant digits."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_value(v) for v in row])


def write_manifest(path, manifest: dict) -> None:
    """Deterministic JSON manifest (sorted keys, fixed layout)."""
    path = Path(path)
    with path.open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values)]


def _trajectory_rows(trajectories, grid: TimeGrid):
    times = grid.times()
    for traj in trajectories:
        complex_samples = np.iscomplexobj(traj.samples)
        for t, v in zip(times, traj.samples):
            if complex_samples:
                yield (traj.n, t, v.real, v.imag)
            else:
                yield (traj.n, t, float(v), 0.0)


def _control_rows(control: ControlSignal, reweighted: np.ndarray):
    times = control.grid.times()
    for t, phys, rew in zip(times, control.samples, reweighted):
        yield (t, phys, rew)


def _report_rows(report):
    for n, dev, scaled in zip(report.ns, report.deviations, report.scaled):
        yield (int(n), float(dev), float(scaled))


def _base_manifest(cfg: ExperimentConfig, kernels: DerivedKernelSet) -> dict:
    # deliberately free of thread counts and wall time: outputs must be
    # byte-identical for identical config and seed
    return {
        "schema_version": SCHEMA_VERSION,
        "task": cfg.task,
        "config": cfg.raw,
        "derived": {
            "alpha": kernels.alpha,
            "horizon": cfg.grid.horizon,
            "steps": cfg.grid.steps,
            "step": cfg.grid.step,
            "elastic": bool(kernels.is_elastic),
        },
    }


def _state_outputs(state, out: Path, manifest: dict,
                   steered: int | None = None) -> None:
    if steered is None:
        header = ["n", "deformation", "velocity", "stress", "integrated_stress"]
        rows = ((n + 1, state.deformation[n], state.velocity[n],
                 state.stress[n], state.integrated_stress[n])
                for n in range(state.n_max))
    else:
        header = ["n", "deformation", "velocity", "stress",
                  "integrated_stress", "steered"]
        rows = ((n + 1, state.deformation[n], state.velocity[n],
                 state.stress[n], state.integrated_stress[n], n < steered)
                for n in range(state.n_max))
    write_csv(out / "coefficients.csv", header, rows)
    x_grid = np.linspace(0.0, math.pi, FIELD_GRID_POINTS)
    fields = {which: reconstruct_field(state, which, x_grid)
              for which in ("deformation", "velocity", "stress")}
    write_csv(out / "fields.csv",
              ["x", "deformation", "velocity", "stress"],
              ((x_grid[i], fields["deformation"][i], fields["velocity"][i],
                fields["stress"][i]) for i in range(FIELD_GRID_POINTS)))
    norms = coefficient_norms(state)
    manifest["coefficient_norms"] = {
        "l2_deformation": norms.l2_deformation,
        "hminus1_velocity": norms.hminus1_velocity,
        "hminus1_stress": norms.hminus1_stress,
    }
    manifest["physical_scale"] = state.physical_scale


def _task_simulate(cfg, kernels, out: Path, manifest: dict) -> None:
    grid = cfg.grid
    grid.require_resolution(cfg.n_max)
    control = make_control(cfg, grid)
    modes = solve_modes(range(1, cfg.n_max + 1), kernels, grid)
    state = simulate_coefficients(control, modes, kernels)
    _state_outputs(state, out, manifest)
    write_csv(out / "control.csv", ["t", "physical", "reweighted"],
              _control_rows(control, control.reweighted(kernels.alpha)))
    write_csv(out / "trajectories.csv", ["n", "t", "re", "im"],
              _trajectory_rows(modes, grid))
    manifest["control"] = {"kind": cfg.control_kind}


def _task_steer(cfg, kernels, out: Path, manifest: dict) -> None:
    grid = cfg.grid
    n_max = cfg.n_max
    grid.require_resolution(n_max)
    if cfg.random_targets:
        target = random_unit_target(cfg.seed, n_max)
    else:
        if cfg.velocity_targets is None or cfg.stress_targets is None:
            raise ValueError("steer task needs velocity and stress target rows "
                             "or random = unit")
        xi = np.zeros(n_max)
        eta = np.zeros(n_max)
        xi[: len(cfg.velocity_targets)] = cfg.velocity_targets[:n_max]
        eta[: len(cfg.stress_targets)] = cfg.stress_targets[:n_max]
        target = MomentTarget(xi, eta)

    # steering constrains modes 1..n_max only; report a tail of further
    # coefficients (unconstrained by construction) where the grid allows
    tail_n = min(2 * n_max, int(RESOLUTION_LIMIT / grid.step))
    tail_n = max(tail_n, n_max)
    modes = solve_modes(range(1, tail_n + 1), kernels, grid)
    family = build_family(kernels, grid, n_max, mode_family=modes)
    system = gram(family, grid)
    synthesis = synthesize_control(system, target, alpha=kernels.alpha)
    state = simulate_coefficients(synthesis.control, modes, kernels)
    achieved = state.velocity[:n_max] + 1j * state.stress[:n_max]
    gap = achieved - target.gamma
    target_norm = float(np.sqrt(np.sum(np.abs(target.gamma) ** 2)))
    relative = (float(np.sqrt(np.sum(np.abs(gap) ** 2))) / target_norm
                if target_norm > 0.0 else float(np.sqrt(np.sum(np.abs(gap) ** 2))))

    _state_outputs(state, out, manifest, steered=n_max)
    write_csv(out / "control.csv", ["t", "physical", "reweighted"],
              _control_rows(synthesis.control, synthesis.control_reweighted))
    synthesis_doc = {
        "targets_velocity": [float(v) for v in target.xi],
        "targets_stress": [float(v) for v in target.eta],
        "residuals": _complex_list(synthesis.residuals),
        "max_relative_residual": synthesis.max_relative_residual,
        "control_norm": synthesis.control_norm,
        "imag_fraction": synthesis.imag_fraction,
        "lambda_min": synthesis.lambda_min,
        "lambda_max": synthesis.lambda_max,
        "condition": synthesis.condition,
        "roundtrip_relative_error": relative,
        "achieved": _complex_list(achieved),
    }
    with (out / "synthesis.json").open("w") as fh:
        json.dump(synthesis_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest["synthesis"] = synthesis_doc


def _task_pair(cfg, kernels, out: Path, manifest: dict) -> None:
    grid = cfg.grid
    if cfg.deformation_targets is None or cfg.pair_stress_targets is None:
        raise ValueError("pair task needs deformation and stress target rows")
    c = cfg.deformation_targets[: cfg.n_pair]
    d = cfg.pair_stress_targets[: cfg.n_pair]
    if len(c) != cfg.n_pair or len(d) != cfg.n_pair:
        raise ValueError("pair targets must cover n_pair modes")
    report = finite_pair_control(kernels, grid, c, d)
    write_csv(out / "control.csv", ["t", "physical", "reweighted"],
              _control_rows(report.control, report.control_reweighted))
    write_csv(out / "coefficients.csv",
              ["n", "deformation_target", "deformation_achieved",
               "stress_target", "stress_achieved"],
              ((i + 1, c[i], report.roundtrip["deformation"][i], d[i],
                report.roundtrip["stress"][i]) for i in range(cfg.n_pair)))
    doc = {
        "deformation_targets": [float(v) for v in c],
        "stress_targets": [float(v) for v in d],
        "residuals": _complex_list(report.residuals),
        "max_relative_residual": report.max_relative_residual,
        "control_norm": report.control_norm,
        "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max,
        "condition": report.condition,
        "roundtrip_relative_error": report.roundtrip["relative_error"],
    }
    with (out / "synthesis.json").open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest["synthesis"] = doc


def _task_diagnose(cfg, kernels, out: Path, manifest: dict) -> None:
    grid = cfg.grid
    n_max = cfg.n_max
    grid.require_resolution(n_max)
    family = build_family(kernels, grid, n_max)
    bounds = frame_bounds(kernels, grid.horizon, n_max, family=family)
    write_csv(out / "frame_bounds.csv", ["n_max", "lambda_min", "lambda_max"],
              ((s, lo, hi) for s, lo, hi in zip(bounds.sizes,
                                                bounds.lambda_min_by_size,
                                                bounds.lambda_max_by_size)))
    params = [mode_params(n, kernels.alpha) for n in range(1, n_max + 1)]
    closeness = quadratic_closeness(family, params, grid)
    write_csv(out / "closeness.csv",
              ["n", "distance_sq", "scaled", "partial_sum"],
              ((int(n), d, s, p) for n, d, s, p in
               zip(closeness.ns, closeness.distances, closeness.scaled,
                   closeness.partial_sums)))
    manifest["frame_bounds"] = {
        "sizes": list(bounds.sizes),
        "lambda_min": list(bounds.lambda_min_by_size),
        "lambda_max": list(bounds.lambda_max_by_size),
    }
    manifest["closeness_tail"] = {
        "total": float(closeness.partial_sums[-1]),
        "scaled_max": float(np.max(closeness.scaled)),
    }


def _task_verify(cfg, kernels, out: Path, manifest: dict) -> None:
    grid = cfg.grid
    n_max = cfg.n_max
    grid.require_resolution(n_max)
    n_range = range(1, n_max + 1)
    modes = solve_modes(n_range, kernels, grid)
    verdicts = {}

    mode_report = check_mode_asymptotics(kernels, grid, n_range, mode_family=modes)
    write_csv(out / "mode_asymptotics.csv", ["n", "deviation", "scaled"],
              _report_rows(mode_report))
    verdicts["mode_asymptotics"] = mode_report.verdict.value

    deriv_report = check_mode_derivative_asymptotics(kernels, grid, n_range,
                                                     mode_family=modes)
    write_csv(out / "mode_derivative_asymptotics.csv",
              ["n", "deviation", "scaled"], _report_rows(deriv_report))
    verdicts["mode_derivative_asymptotics"] = deriv_report.verdict.value

    conv_report = check_convolution_asymptotics(
        kernels, grid, (kernels.stress_kernel, 1.0), n_range, mode_family=modes)
    write_csv(out / "convolution_asymptotics.csv",
              ["n", "deviation", "scaled"], _report_rows(conv_report))
    verdicts["convolution_asymptotics"] = conv_report.verdict.value

    resolvent_ns = [n for n in (1, 2, 4, 8) if n <= n_max]
    residuals = [(n, check_resolvent_identity(kernels, grid, n, mode_family=modes))
                 for n in resolvent_ns]
    write_csv(out / "resolvent_residuals.csv", ["n", "max_residual"], residuals)
    manifest["resolvent_residuals"] = {str(n): r for n, r in residuals}

    control = make_control(cfg, grid)
    state = simulate_coefficients(control, modes, kernels)
    gap_report = check_stress_deformation_gap(state)
    write_csv(out / "stress_deformation_gap.csv", ["n", "deviation", "scaled"],
              _report_rows(gap_report))
    verdicts["stress_deformation_gap"] = gap_report.verdict.value

    roundtrip_doc = None
    if grid.horizon >= 2.0 * math.pi - 1e-12:
        target = random_unit_target(cfg.seed, min(n_max, 8))
        trip = closed_loop_roundtrip(kernels, grid, target, mode_family=modes)
        roundtrip_doc = {
            "n_max": target.n_max,
            "relative_error": trip.relative_error,
            "lambda_min": trip.synthesis.lambda_min,
        }
    manifest["roundtrip"] = roundtrip_doc
    manifest["verdicts"] = verdicts
    manifest["control"] = {"kind": cfg.control_kind}

    provenance = {
        "kernel": cfg.raw.get("kernel", {}),
        "alpha": kernels.alpha,
        "horizon": grid.horizon,
        "steps": grid.steps,
        "step": grid.step,
        "n_max": n_max,
    }
    with (out / "reports.json").open("w") as fh:
        json.dump({"provenance": provenance,
                   "verdicts": verdicts,
                   "resolvent_residuals": manifest["resolvent_residuals"],
                   "roundtrip": roundtrip_doc},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


_TASK_RUNNERS = {
    "simulate": _task_simulate,
    "steer": _task_steer,
    "pair": _task_pair,
    "diagnose": _task_diagnose,
    "verify": _task_verify,
}


def run(cfg: ExperimentConfig, out_dir=None, threads: int | None = None) -> int:
    """Execute one experiment; returns the process exit code.

    0 on success, 2 for configuration problems, 3 for an exceptional mode
    index, 4 for a near-singular Gram system, 5 for elastically degenerate
    pair targets, 1 for anything else.  Outputs land in the configured
    (or overriding) output directory.  `threads` is validated like the
    config's thread count and otherwise ignored.
    """
    started = time.time()
    try:
        cfg.resolve_threads(threads)  # validated for compatibility; no effect
        out = Path(out_dir if out_dir is not None else cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # solvers never touch the oscillation frequencies, so exceptional
        # kernels only block the tasks that evaluate per-mode parameters
        if cfg.task in ("verify", "diagnose"):
            exceptional_index_check(cfg.kernel, max(cfg.n_max, 1))
        kernels = derive_kernels(cfg.kernel, cfg.grid)
        manifest = _base_manifest(cfg, kernels)
        manifest["derived"]["nonreal_frequency_warning"] = \
            bool(cfg.kernel.alpha ** 2 > 1.0)
        _TASK_RUNNERS[cfg.task](cfg, kernels, out, manifest)
        write_manifest(out / "manifest.json", manifest)
        with (out / "timing.json").open("w") as fh:
            json.dump({"wall_time_seconds": time.time() - started}, fh, indent=2)
            fh.write("\n")
        return EXIT_OK
    except ExceptionalIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXCEPTIONAL_INDEX
    except NearSingularGramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEAR_SINGULAR
    except ElasticDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ELASTIC_DEGENERACY
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ViscostringError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
