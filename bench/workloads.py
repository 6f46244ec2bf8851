"""Seeded workload generation: one cycle of CLI runs per workload.

A workload is a fixed list of slots.  Each slot fixes the task and the
problem size (steps, modes, horizon class); the seed only picks the
memory kernel, the control or target and the exact horizon inside the
slot's range.  Sizes never depend on the seed, so every seed costs the
same work and the benchmark's figures compare across seeds.

Kernels are exponential sums M(t) = sum a_i exp(-b_i t) with one or two
terms, the family of the example configs: a first term around the
default (0.4, 1.0) and sometimes a weaker, faster second term.  They keep
|alpha| = sum(a_i)/2 well below 1, so no mode index is exceptional and
every oscillation frequency is real.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
WORKLOADS = ("forward", "synthesis", "audit")

# Exit code of a near-singular Gram system (short-horizon steering).
EXIT_NEAR_SINGULAR = 4


@dataclass(frozen=True)
class RunSpec:
    """One CLI run: the task, its config text and what it must produce."""

    slot: str            # stable name of the slot inside the cycle
    task: str
    config: str          # INI text handed to `viscostring <task> --config`
    expect_exit: int
    pairs: tuple         # the kernel's (a, b) terms, for the output checks
    horizon: float
    steps: int
    n_max: int           # modes resolved by the run (n_pair for pair runs)


def _kernel_pairs(rng: random.Random) -> tuple:
    pairs = [(rng.uniform(0.2, 0.6), rng.uniform(0.5, 2.0))]
    if rng.random() < 0.5:
        pairs.append((rng.uniform(0.05, 0.3), rng.uniform(2.0, 5.0)))
    return tuple(pairs)


def _ini(task: str, pairs, horizon: float, steps: int, seed: int,
         modes: dict, extra: dict) -> str:
    coeffs = " ".join(f"{a!r} {b!r}" for a, b in pairs)
    sections = {
        "kernel": {"family": "exponential_sum", "coefficients": coeffs},
        "grid": {"horizon": repr(horizon), "steps": str(steps)},
        "modes": modes,
        "task": {"kind": task},
        **extra,
        "run": {"seed": str(seed), "threads": "1"},
    }
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def _spec(slot, task, rng, horizon, steps, n_max, extra,
          expect_exit=0, modes=None) -> RunSpec:
    pairs = _kernel_pairs(rng)
    run_seed = rng.randrange(1 << 31)
    modes = modes if modes is not None else {"n_max": str(n_max)}
    config = _ini(task, pairs, horizon, steps, run_seed, modes, extra)
    return RunSpec(slot=slot, task=task, config=config, expect_exit=expect_exit,
                   pairs=pairs, horizon=horizon, steps=steps, n_max=n_max)


def _floats(rng: random.Random, count: int) -> str:
    return " ".join(repr(rng.uniform(-1.0, 1.0)) for _ in range(count))


def _forward(rng: random.Random) -> list[RunSpec]:
    cosine = {"control": {"kind": "cosine",
                          "amplitude": repr(rng.uniform(0.2, 1.0)),
                          "frequency": repr(rng.uniform(0.5, 3.0))}}
    bump = {"control": {"kind": "bump",
                        "amplitude": repr(rng.uniform(0.5, 1.5)),
                        "center": repr(rng.uniform(0.3, 0.7) * TWO_PI),
                        "width": repr(rng.uniform(0.15, 0.3) * TWO_PI)}}
    random_control = {"control": {"kind": "random"}}
    return [
        _spec("simulate-4096x16", "simulate", rng, TWO_PI, 4096, 16, random_control),
        _spec("simulate-4096x32", "simulate", rng, TWO_PI, 4096, 32, cosine),
        _spec("simulate-8192x16", "simulate", rng, TWO_PI, 8192, 16, bump),
    ]


def _synthesis(rng: random.Random) -> list[RunSpec]:
    unit = {"targets": {"random": "unit"}}
    specs = [
        _spec("steer-8", "steer", rng, TWO_PI, 4096, 8, unit),
        _spec("steer-16", "steer", rng, TWO_PI, 4096, 16, unit),
        # below the critical horizon the Gram collapses: exit 4, no manifest
        _spec("steer-8-short", "steer", rng, 0.5 * math.pi, 4096, 8, unit,
              expect_exit=EXIT_NEAR_SINGULAR),
    ]
    # below T ~ 0.9 the pair Gram falls under its near-singular gate, so
    # pair runs that must succeed stay in [1, 2]
    for i in range(2):
        targets = {"targets": {"deformation": _floats(rng, 4),
                               "stress": _floats(rng, 4)}}
        specs.append(_spec(f"pair-{i + 1}", "pair", rng, rng.uniform(1.0, 2.0),
                           2048, 4, targets, modes={"n_pair": "4"}))
    return specs


def _audit(rng: random.Random) -> list[RunSpec]:
    kind = rng.choice(("random", "bump", "cosine"))
    control = {"control": {"kind": kind}}
    return [
        _spec("verify-16", "verify", rng, TWO_PI, 4096, 16, control),
        _spec("diagnose-16-short", "diagnose", rng, rng.uniform(4.5, 5.5),
              4096, 16, {}),
        _spec("diagnose-32-long", "diagnose", rng, rng.uniform(7.0, 8.0),
              4096, 32, {}),
    ]


_CYCLES = {"forward": _forward, "synthesis": _synthesis, "audit": _audit}


def cycle(workload: str, seed: int) -> list[RunSpec]:
    """The workload's run list for `seed`; the same seed gives the same list."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return _CYCLES[workload](random.Random(f"{workload}:{seed}"))
