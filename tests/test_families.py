"""Every consumer of a solved family checks it with the one validator.

The consumers take the family they read as an argument.  A family that
is empty, holds the wrong kind of trajectory or lies on a foreign or
mixed grid raises ValueError, and so does one out of order where the
consumer pairs it with n = 1..N.
"""

import numpy as np
import pytest

from viscostring import (
    ControlSignal,
    MomentTarget,
    TimeGrid,
    build_family,
    check_convolution_asymptotics,
    check_mode_asymptotics,
    check_mode_derivative_asymptotics,
    check_resolvent_identity,
    closed_loop_roundtrip,
    derive_kernels,
    frame_bounds,
    gram,
    mode_params,
    quadratic_closeness,
    simulate_coefficients,
    solve_modes,
)

from conftest import DESK_KERNEL, TWO_PI

# same node count, other horizon: only the grid tells the families apart
KERNELS = derive_kernels(DESK_KERNEL, TimeGrid(TWO_PI, 1024))
OTHER = derive_kernels(DESK_KERNEL, TimeGrid(3.0, 1024))

# consumers of mode responses, each with the grid its family must lie on
MODE_CONSUMERS = {
    "check_mode_asymptotics": lambda f: check_mode_asymptotics(KERNELS, f),
    "check_mode_derivative_asymptotics":
        lambda f: check_mode_derivative_asymptotics(KERNELS, f),
    "check_convolution_asymptotics":
        lambda f: check_convolution_asymptotics(KERNELS, KERNELS.stress_kernel, f),
    "check_resolvent_identity": lambda f: check_resolvent_identity(KERNELS, f),
    "build_family": lambda f: build_family(KERNELS, f),
    "closed_loop_roundtrip":
        lambda f: closed_loop_roundtrip(KERNELS, MomentTarget.zero(2), f),
    "simulate_coefficients": lambda f: simulate_coefficients(
        ControlSignal(np.zeros(KERNELS.grid.steps + 1), KERNELS.grid), f, KERNELS),
}

# consumers of moment kernels, which read the grid from the family
MOMENT_CONSUMERS = {
    "gram": gram,
    "frame_bounds": frame_bounds,
    "quadratic_closeness": lambda f: quadratic_closeness(
        f, [mode_params(t.n, KERNELS.alpha) for t in f]),
}

ORDERED = ("build_family", "closed_loop_roundtrip", "simulate_coefficients",
           "frame_bounds")


@pytest.fixture(scope="module")
def families():
    modes = solve_modes(range(1, 5), KERNELS)
    other_modes = solve_modes(range(1, 5), OTHER)
    moments = build_family(KERNELS, modes)
    other_moments = build_family(OTHER, other_modes)
    return {
        "mode": {"good": modes, "wrong_kind": moments, "foreign_grid": other_modes,
                 "mixed_grid": [modes[0], other_modes[1], *modes[2:]]},
        "moment": {"good": moments, "wrong_kind": modes,
                   "mixed_grid": [moments[0], other_moments[1], *moments[2:]]},
    }


BAD = {"empty": "empty", "wrong_kind": "expected a", "foreign_grid": "grid",
       "mixed_grid": "grid"}

CASES = (
    [(name, "mode", bad) for name in MODE_CONSUMERS for bad in BAD]
    + [(name, "moment", bad) for name in MOMENT_CONSUMERS
       for bad in BAD if bad != "foreign_grid"]
)


def _consumer(name):
    return MODE_CONSUMERS.get(name) or MOMENT_CONSUMERS[name]


@pytest.mark.parametrize("name, kind, bad", CASES,
                         ids=[f"{name}-{bad}" for name, _, bad in CASES])
def test_consumer_rejects_a_bad_family(families, name, kind, bad):
    family = [] if bad == "empty" else families[kind][bad]
    with pytest.raises(ValueError, match=BAD[bad]):
        _consumer(name)(family)


@pytest.mark.parametrize("name", ORDERED)
def test_ordered_consumer_rejects_a_family_out_of_order(families, name):
    kind = "mode" if name in MODE_CONSUMERS else "moment"
    family = families[kind]["good"][::-1]
    with pytest.raises(ValueError, match="entry 1 has n=4"):
        _consumer(name)(family)
