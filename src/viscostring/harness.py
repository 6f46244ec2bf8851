"""Experiment harness: configuration, task execution and persistence.

Config files are flat INI: named sections of key = value lines, nothing
nested.  A run reads one config, executes the requested task and writes a
manifest plus plot-ready CSVs into the output directory; the first file
written makes it, so a run that fails before then leaves no directory.
Identical config and seed give byte-identical outputs; wall time
therefore lives in a timing.json sidecar, not in the manifest.  Each task
below solves its mode responses once, in one batch, and passes the
family, one `ModeFamily` array, to every consumer; pair alone leaves its
modes to `finite_pair_control`, their only reader.  The thread count
(`--threads`, `[run] threads`) is still accepted and validated, but has
no effect.

Random targets and controls come from an explicit 64-bit generator so
other toolchains can reproduce them from the documented integer
recurrence (see `splitmix64_stream`).
"""

from __future__ import annotations

import configparser
import itertools
import json
import math
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
from .kernels import DerivedKernelSet, MemoryKernel, derive_kernels
from .moments import (
    MomentTarget,
    below_critical_horizon,
    build_family,
    finite_pair_control,
    frame_bounds,
    quadratic_closeness,
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

# every section and key a config may hold; anything else is a config error
CONFIG_KEYS = {
    "kernel": ("family", "coefficients"),
    "grid": ("horizon", "steps"),
    "modes": ("n_max", "n_pair"),
    "task": ("kind",),
    "control": ("kind", "amplitude", "frequency", "center", "width"),
    "targets": ("random", "velocity", "stress", "deformation"),
    "run": ("seed", "out", "threads"),
}

FIELD_GRID_POINTS = 201

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
    first = 2 * n_max * index
    draws = itertools.islice(uniform_stream(seed), first, first + 2 * n_max)
    values = np.array([2.0 * u - 1.0 for u in draws])
    xi, eta = values[:n_max], values[n_max:]
    norm = math.sqrt(float(np.sum(xi ** 2) + np.sum(eta ** 2)))
    if norm > 0.0:
        xi, eta = xi / norm, eta / norm
    return MomentTarget(xi, eta)


def random_control(seed: int, grid: TimeGrid) -> ControlSignal:
    """Seeded smooth control: eight sine terms with decaying weights."""
    stream = uniform_stream(seed)
    times = grid.times()
    samples = np.zeros(grid.steps + 1)
    for j in range(1, 9):
        coeff = (2.0 * next(stream) - 1.0) / j
        samples += coeff * np.sin(j * math.pi * times / grid.horizon)
    return ControlSignal(samples, grid)


def bump_control(grid: TimeGrid, amplitude: float, center: float,
                 width: float) -> ControlSignal:
    """Smooth compactly supported bump, peak `amplitude` at `center`.

    A non-finite `center`, a `width` that is not finite and positive, or a
    support without a grid node would give an all-zero control, so each
    raises ValueError naming the keys.
    """
    if not math.isfinite(center):
        raise ValueError(f"bump control center must be finite, got {center!r}")
    if not (math.isfinite(width) and width > 0.0):
        raise ValueError(f"bump control width must be finite and positive, "
                         f"got {width!r}")
    times = grid.times()
    y = (times - center) / width
    samples = np.zeros(grid.steps + 1)
    inside = np.abs(y) < 1.0
    if not np.any(inside):
        raise ValueError(f"bump control (center={center!r}, width={width!r}) "
                         "holds no grid node")
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
    threads: int | None = None  # `[run] threads`, parsed and ignored
    # targets: velocity/stress rows (steer) or deformation/stress rows
    # (pair), or seeded random steering targets
    velocity_targets: np.ndarray | None = None
    stress_targets: np.ndarray | None = None
    deformation_targets: np.ndarray | None = None
    random_targets: bool = False
    # control block for simulate/verify
    control_kind: str = "zero"
    control_amplitude: float = 1.0
    control_frequency: float = 1.0
    control_center: float | None = None
    control_width: float | None = None
    raw: dict = field(default_factory=dict)


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
    """Parse an experiment config file (flat INI sections).

    Sections and keys outside `CONFIG_KEYS` raise ValueError naming them, so
    a misspelt key cannot fall back to its default silently; so do malformed
    INI text, a seed outside [0, 2^64), a mode count below 1 and a float64
    overflow of exp(2|alpha| T).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:  # reading every value once raises any interpolation error here
        read = parser.read(str(path))
        raw = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    for name in parser.sections():
        if name not in CONFIG_KEYS:
            raise ValueError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key not in CONFIG_KEYS[name]:
                raise ValueError(f"unknown key {key!r} in config section [{name}]")

    if "kernel" not in parser or "grid" not in parser or "task" not in parser:
        raise ValueError("config needs [kernel], [grid] and [task] sections")

    kernel = _build_kernel(parser["kernel"])
    grid_sec = parser["grid"]
    grid = TimeGrid(float(grid_sec["horizon"]), int(grid_sec["steps"]))
    if 2.0 * abs(kernel.alpha) * grid.horizon > math.log(sys.float_info.max):
        raise ValueError(f"[kernel] coefficients (alpha = {kernel.alpha:.6g}) and [grid] "
                         f"horizon = {grid.horizon:.6g}: exp(2|alpha| T) overflows float64")
    task = parser["task"].get("kind", "").strip().lower()
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")

    cfg = ExperimentConfig(kernel=kernel, grid=grid, task=task)

    if "modes" in parser:
        modes = parser["modes"]
        cfg.n_max = modes.getint("n_max", cfg.n_max)
        cfg.n_pair = modes.getint("n_pair", cfg.n_pair)
        for key in ("n_max", "n_pair"):
            if getattr(cfg, key) < 1:
                raise ValueError(f"[modes] {key} must be at least 1, "
                                 f"got {getattr(cfg, key)}")

    if "run" in parser:
        run_sec = parser["run"]
        cfg.seed = run_sec.getint("seed", 0)
        if not 0 <= cfg.seed <= _MASK64:
            raise ValueError(f"seed must be a nonnegative 64-bit integer, got {cfg.seed}")
        cfg.out_dir = run_sec.get("out", cfg.out_dir)
        cfg.threads = run_sec.getint("threads", cfg.threads)

    if "targets" in parser:
        tgt = parser["targets"]
        if "random" in tgt:
            if tgt["random"].strip().lower() != "unit":
                raise ValueError(f"[targets] random must be 'unit', got {tgt['random']!r}")
            cfg.random_targets = True
        for key in ("velocity", "stress", "deformation"):
            if key in tgt:
                setattr(cfg, f"{key}_targets", np.array(_parse_floats(tgt[key])))

    if "control" in parser:
        ctl = parser["control"]
        cfg.control_kind = ctl.get("kind", "zero").strip().lower()
        if cfg.control_kind not in CONTROL_KINDS:
            raise ValueError(f"unknown control kind {cfg.control_kind!r}")
        cfg.control_amplitude = ctl.getfloat("amplitude", 1.0)
        cfg.control_frequency = ctl.getfloat("frequency", 1.0)
        cfg.control_center = ctl.getfloat("center", cfg.control_center)
        cfg.control_width = ctl.getfloat("width", cfg.control_width)

    cfg.raw = raw
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


_POW10, _POW5 = 10.0 ** np.arange(26), 5 ** np.arange(26, dtype=np.uint64)
_CSV_ROWS = 1366  # rows formatted at once: 4097 rows go in 3 parts, 8193 in 6


def _digit_tables():
    """4-byte texts, and per (class X = -9..15, trailing zeros) a text layout: the
    source of each byte among a value's "e-0X" or "0.", sign, ".", NUL, 17 digits."""
    xs = np.arange(-9, 16)
    suffix = [[101, 45, 48, 48 - x] if x < -4 else [48, 46, 0, 0] for x in xs]
    lead = [[sign, 46, 0, 48 + k] for sign in (0, 45) for k in range(10)]
    quads = np.stack(np.meshgrid(*[np.uint8(range(48, 58))] * 4, indexing="ij"), -1)
    text = np.concatenate([quads.reshape(-1, 4), np.uint8(suffix + lead)])
    d = list(range(7, 24))
    rows = [d[:x + 1] + [5] + d[x + 1:] if x >= 0 else [0, 1] + [0] * (-x - 1) + d
            if x >= -4 else [7, 5] + d[1:] + [0, 1, 2, 3] for x in xs]
    base = np.array([[4] + row + [6] * (22 - len(row)) for row in rows])[:, None]
    last, x = np.arange(16, -1, -1)[:, None], xs[:, None, None]
    strip = (base - 7 > np.maximum(last, x)) | (base == 5) & (last <= np.maximum(x, 0))
    return text.view(np.uint32).ravel(), np.where(strip, 6, base).reshape(-1, 23)


_DIGIT_TEXT, _LAYOUT = _digit_tables()


def _digits17(values):
    """Which values get integer digits, their exponent classes and source bytes.

    v = M 2^E with 1e-7 <= |v| < 1e15 and X = floor(log10 |v|) give D' =
    rint(|v| 10^s), s = 16 - X.  As r = -(E + s) <= 54 and |D' - |v| 10^s| <
    2^8, M 5^s - D' 2^r = 2^r (|v| 10^s - D') is below 2^62, so wrapping
    uint64 arithmetic gives it exactly: the floor of |v| 10^s and the rest
    that rounds it half to even.  A floor outside [10^16, 10^17) or a carry
    to 10^17 (X one off, next to a power of ten) is left to '%.17g'.
    """
    mag = np.abs(values)
    fast = (mag >= 1e-7) & (mag < 1e15)
    mag = np.where(fast, mag, 1.0)
    frac, exp = np.frexp(mag)  # M = frac 2^53, E = exp - 53
    x = np.floor(np.log10(mag)).astype(np.int64)
    s, r = 16 - x, x + 37 - exp
    d = np.rint(mag * _POW10[s]).astype(np.uint64)
    c = (frac * 2.0 ** 53).astype(np.uint64) * _POW5[s] - (d << r.astype(np.uint64))
    floor, one = d.view(np.int64) + (c.view(np.int64) >> r), np.left_shift(1, r)
    d = floor + (2 * (c.view(np.int64) & (one - 1)) + (floor & 1) > one)
    fast &= (floor >= 10 ** 16) & (d < 10 ** 17)
    high, low = np.divmod(np.where(fast, d, 10 ** 16), 10 ** 8)
    groups = np.stack([10009 + x, 10025 + 10 * np.signbit(values) + high // 10 ** 8,
                       high // 10000 % 10000, high % 10000, low // 10000, low % 10000], 1)
    return fast, x + 9, _DIGIT_TEXT[groups].view(np.uint8)


def _spelt_once(keys, spell, dtype):
    """Text rows of `keys`, each distinct key spelt once by `spell` of its value."""
    distinct, index = np.unique(keys, return_inverse=True)
    text = np.array([spell(v) for v in distinct.view(dtype).tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(len(text), text.itemsize)[index]


def _float_text(values):
    """NUL-padded '%.17g' text of float64 `values`, one row per value."""
    fast, cls, source = _digits17(values)
    index = np.take(_LAYOUT, 17 * cls + np.argmax(source[:, :6:-1] != 48, 1), axis=0)
    index += np.arange(0, source.size, 24)[:, None]
    text = np.take(source.ravel(), index)
    if fast.all():
        return text
    slow = _spelt_once(values.view(np.uint64)[~fast], b"%.17g".__mod__, np.float64)
    out = np.zeros((len(values), max(slow.shape[1], 23 * fast.any())), np.uint8)
    out[fast, :23], out[~fast, :slow.shape[1]] = text[fast, :out.shape[1]], slow
    return out


def _csv_chunks(col):
    """NUL-padded text of a column in parts of `_CSV_ROWS` rows, floats part by part."""
    parts = range(_CSV_ROWS, len(col), _CSV_ROWS)
    if col.dtype.kind == "f":
        return (_float_text(part.astype(np.float64)) for part in np.split(col, parts))
    spell = (b"false", b"true").__getitem__ if col.dtype.kind == "b" else b"%d".__mod__
    return np.split(_spelt_once(col, spell, col.dtype), parts)


def write_csv(path, header, blocks) -> None:
    """CSV with a header row, streamed one block of rows at a time.

    Each block holds one equal-length column per header field: %d for
    integers, the bytes of '%.17g' for floats, true/false for booleans;
    lines end in \r\n.  A block whose column kinds differ from the first
    block's raises ValueError before any of its rows is written; a nan or
    infinity removes the file and raises ViscostringError.  Rows go out
    `_CSV_ROWS` at a time; a column that repeats the block before's bytes
    reuses that block's text.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        kinds, previous, shared = None, [], {}
        for block in blocks:
            cols = [np.asarray(col) for col in block]
            if len(cols) != len(header) or len({len(col) for col in cols}) > 1:
                raise ValueError(f"{path.name}: a block needs {len(header)} "
                                 "equal-length columns")
            current = [col.dtype.kind for col in cols]
            kinds = kinds or current
            if not set(current) <= set("biuf") or current != kinds:
                raise ValueError(f"{path.name}: column kinds {current} are unsupported "
                                 f"or differ from the first block's {kinds}")
            if not all(np.isfinite(col).all() for col in cols if col.dtype.kind == "f"):
                break
            now = [(col.dtype.str, col.tobytes()) for col in cols]
            shared = {j: shared.get(j) or list(_csv_chunks(col))
                      for j, col in enumerate(cols) if previous and now[j] == previous[j]}
            previous = now
            for texts in zip(*(shared[j] if j in shared else _csv_chunks(col)
                               for j, col in enumerate(cols))):
                comma = np.full((len(texts[0]), 1), 44, np.uint8)
                row = [piece for text in texts for piece in (text, comma)]
                row[-1] = np.full((len(texts[0]), 2), [13, 10], np.uint8)
                fh.write(np.concatenate(row, axis=1).tobytes().translate(None, b"\0"))
        else:
            return
    path.unlink()
    raise ViscostringError(f"{path.name}: non-finite result")


def write_manifest(path, manifest: dict) -> None:
    """Deterministic JSON document (sorted keys, fixed layout).

    A NaN or infinity raises ViscostringError before the file is opened.
    """
    path = Path(path)
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ViscostringError(f"{path.name}: non-finite result ({exc})") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values)]


def _trajectory_blocks(family):
    """One block of (n, t, re, im) columns per row of a solved (real) family."""
    times = family.grid.times()
    zero = np.zeros_like(times)
    for n, samples in zip(family.ns, family.samples):
        yield np.full(len(times), n), times, samples, zero


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
    header = ["n", "deformation", "velocity", "stress", "integrated_stress"]
    ns = np.arange(1, state.n_max + 1)
    columns = (ns, state.deformation, state.velocity, state.stress,
               state.integrated_stress)
    if steered is not None:
        header.append("steered")
        columns += (ns <= steered,)
    write_csv(out / "coefficients.csv", header, [columns])
    x_grid = np.linspace(0.0, math.pi, FIELD_GRID_POINTS)
    write_csv(out / "fields.csv",
              ["x", "deformation", "velocity", "stress"],
              [(x_grid, *(reconstruct_field(state, which, x_grid)
                          for which in ("deformation", "velocity", "stress")))])
    norms = coefficient_norms(state)
    manifest["coefficient_norms"] = {
        "l2_deformation": norms.l2_deformation,
        "hminus1_velocity": norms.hminus1_velocity,
        "hminus1_stress": norms.hminus1_stress,
    }
    manifest["physical_scale"] = state.physical_scale


def _control_output(out: Path, control: ControlSignal,
                    reweighted: np.ndarray) -> None:
    write_csv(out / "control.csv", ["t", "physical", "reweighted"],
              [(control.grid.times(), control.samples, reweighted)])


def _synthesis_outputs(out: Path, manifest: dict, report, roundtrip_error: float,
                       **extra) -> None:
    """control.csv, synthesis.json and manifest["synthesis"] of one solve."""
    _control_output(out, report.control, report.control_reweighted)
    doc = {
        "residuals": _complex_list(report.residuals),
        "max_relative_residual": report.max_relative_residual,
        "control_norm": report.control_norm,
        "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max,
        "condition": report.condition,
        "roundtrip_relative_error": roundtrip_error,
        **extra,
    }
    write_manifest(out / "synthesis.json", doc)
    manifest["synthesis"] = doc


def _task_simulate(cfg, kernels, out: Path, manifest: dict) -> None:
    grid = cfg.grid
    control = make_control(cfg, grid)
    modes = solve_modes(range(1, cfg.n_max + 1), kernels)
    state = simulate_coefficients(control, modes, kernels)
    _state_outputs(state, out, manifest)
    _control_output(out, control, control.reweighted(kernels.alpha))
    write_csv(out / "trajectories.csv", ["n", "t", "re", "im"],
              _trajectory_blocks(modes))
    manifest["control"] = {"kind": cfg.control_kind}


def _task_steer(cfg, kernels, out: Path, manifest: dict) -> None:
    grid = cfg.grid
    n_max = cfg.n_max
    if cfg.random_targets:
        target = random_unit_target(cfg.seed, n_max)
    else:  # rows shorter than n_max steer the remaining modes to 0
        target = MomentTarget(*(np.pad(row, (0, n_max - len(row)))
                                for row in (cfg.velocity_targets, cfg.stress_targets)))

    # steering constrains modes 1..n_max only; the round trip also reports
    # a tail of further coefficients (unconstrained by construction) where
    # the grid allows
    tail_n = max(min(2 * n_max, int(RESOLUTION_LIMIT / grid.step)), n_max)
    modes = solve_modes(range(1, tail_n + 1), kernels)
    trip = closed_loop_roundtrip(kernels, target, modes)
    _state_outputs(trip.state, out, manifest, steered=n_max)
    _synthesis_outputs(out, manifest, trip.synthesis, trip.relative_error,
                       targets_velocity=[float(v) for v in target.xi],
                       targets_stress=[float(v) for v in target.eta],
                       achieved=_complex_list(trip.achieved))


def _task_pair(cfg, kernels, out: Path, manifest: dict) -> None:
    c, d = cfg.deformation_targets, cfg.stress_targets
    report = finite_pair_control(kernels, c, d)
    write_csv(out / "coefficients.csv",
              ["n", "deformation_target", "deformation_achieved",
               "stress_target", "stress_achieved"],
              [(np.arange(1, cfg.n_pair + 1), c, report.roundtrip["deformation"],
                d, report.roundtrip["stress"])])
    _synthesis_outputs(out, manifest, report, report.roundtrip["relative_error"],
                       deformation_targets=[float(v) for v in c],
                       stress_targets=[float(v) for v in d])


def _task_diagnose(cfg, kernels, out: Path, manifest: dict) -> None:
    ns = range(1, cfg.n_max + 1)
    params = [mode_params(n, kernels.alpha) for n in ns]
    family = build_family(kernels, solve_modes(ns, kernels))
    bounds = frame_bounds(family)
    write_csv(out / "frame_bounds.csv", ["n_max", "lambda_min", "lambda_max"],
              [(bounds.sizes, bounds.lambda_min_by_size,
                bounds.lambda_max_by_size)])
    closeness = quadratic_closeness(family, params)
    write_csv(out / "closeness.csv",
              ["n", "distance_sq", "scaled", "partial_sum"],
              [(closeness.ns, closeness.distances, closeness.scaled,
                closeness.partial_sums)])
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
    modes = solve_modes(range(1, n_max + 1), kernels)
    reports = {
        "mode_asymptotics": check_mode_asymptotics(kernels, modes),
        "mode_derivative_asymptotics": check_mode_derivative_asymptotics(
            kernels, modes),
        "convolution_asymptotics": check_convolution_asymptotics(
            kernels, kernels.stress_kernel, modes),
    }

    resolvent_ns = [n for n in (1, 2, 4, 8) if n <= n_max]
    residuals = check_resolvent_identity(kernels,
                                         modes[[n - 1 for n in resolvent_ns]])
    write_csv(out / "resolvent_residuals.csv", ["n", "max_residual"],
              [(resolvent_ns, residuals)])
    manifest["resolvent_residuals"] = {str(n): r
                                       for n, r in zip(resolvent_ns, residuals)}

    control = make_control(cfg, grid)
    state = simulate_coefficients(control, modes, kernels)
    reports["stress_deformation_gap"] = check_stress_deformation_gap(state)
    for name, report in reports.items():
        write_csv(out / f"{name}.csv", ["n", "deviation", "scaled"],
                  [(report.ns, report.deviations, report.scaled)])
    verdicts = {name: report.verdict.value for name, report in reports.items()}

    roundtrip_doc = None
    if not below_critical_horizon(grid.horizon):
        target = random_unit_target(cfg.seed, min(n_max, 8))
        trip = closed_loop_roundtrip(kernels, target, modes)
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
    write_manifest(out / "reports.json",
                   {"provenance": provenance,
                    "verdicts": verdicts,
                    "resolvent_residuals": manifest["resolvent_residuals"],
                    "roundtrip": roundtrip_doc})


_EXITS = ((ExceptionalIndexError, "error", EXIT_EXCEPTIONAL_INDEX),
          (NearSingularGramError, "error", EXIT_NEAR_SINGULAR),
          (ElasticDegeneracyError, "error", EXIT_ELASTIC_DEGENERACY),
          ((ValueError, KeyError, FileNotFoundError), "config error", EXIT_CONFIG),
          (OSError, "i/o error", EXIT_FAILURE),
          ((ViscostringError, ArithmeticError), "error", EXIT_FAILURE))

_TASK_RUNNERS = {
    "simulate": _task_simulate,
    "steer": _task_steer,
    "pair": _task_pair,
    "diagnose": _task_diagnose,
    "verify": _task_verify,
}


def _check_targets(cfg: ExperimentConfig) -> None:
    """Both target rows (steer: or random = unit), of n_pair or at most n_max values."""
    keys = {"steer": ("velocity", "stress"), "pair": ("deformation", "stress")}
    limit, name = (cfg.n_pair, "n_pair") if cfg.task == "pair" else (cfg.n_max, "n_max")
    for key in () if cfg.random_targets and cfg.task == "steer" else keys.get(cfg.task, ()):
        row = getattr(cfg, f"{key}_targets")
        if row is None:
            raise ValueError(f"{cfg.task} task needs {' and '.join(keys[cfg.task])} target "
                             "rows" + " or random = unit" * (cfg.task == "steer"))
        if len(row) > limit or cfg.task == "pair" and len(row) < limit:
            raise ValueError(f"[targets] {key} holds {len(row)} values, {name} = {limit}")


def run(cfg: ExperimentConfig, out_dir=None, threads: int | None = None) -> int:
    """Execute one experiment; returns the process exit code.

    0 on success, 2 for configuration problems, 3 for an exceptional mode
    index, 4 for a near-singular Gram system, 5 for elastically degenerate
    pair targets, 1 for anything else; 3 outranks a non-real mode's 2.
    Outputs land in the configured (or overriding) output directory, made
    by the first of them.  `threads`, like the config's `[run] threads`,
    is accepted for compatibility and ignored.
    """
    started = time.time()
    try:
        if cfg.task != "pair":  # pair resolves n_pair modes, not n_max
            cfg.grid.require_resolution(cfg.n_max)
        # solvers never touch the oscillation frequencies, so only the tasks
        # that evaluate per-mode parameters need them real and nonzero; the
        # scan runs downward because an exceptional index (exit 3) outranks
        # the non-real modes below it (exit 2)
        if cfg.task in ("verify", "diagnose"):
            for n in range(cfg.n_max, 0, -1):
                mode_params(n, cfg.kernel.alpha)
        _check_targets(cfg)
        kernels = derive_kernels(cfg.kernel, cfg.grid)
        manifest = _base_manifest(cfg, kernels)
        # alpha^2 > 1: the lowest modes have non-real oscillation frequencies
        manifest["derived"]["nonreal_frequency_warning"] = \
            bool(cfg.kernel.alpha ** 2 > 1.0)
        out = Path(out_dir if out_dir is not None else cfg.out_dir)
        # floating-point faults stop the run where they arise; underflow is legitimate
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _TASK_RUNNERS[cfg.task](cfg, kernels, out, manifest)
        write_manifest(out / "manifest.json", manifest)
        write_manifest(out / "timing.json",
                       {"wall_time_seconds": time.time() - started})
        return EXIT_OK
    except (ViscostringError, ArithmeticError, ValueError, KeyError, OSError) as exc:
        label, code = next(entry for types, *entry in _EXITS if isinstance(exc, types))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
