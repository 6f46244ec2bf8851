"""Every consumer of a solved family checks it with `ModeFamily.require`.

The consumers take the family they read as an argument.  A family of the
wrong kind or on a foreign grid raises ValueError, and so does one out of
order where the consumer pairs it with n = 1..N.  An empty family, or one
holding rows of another grid than its own, cannot be built: for those
cases the input a consumer would be handed fails to build, so it never
reaches the consumer.
"""

import numpy as np
import pytest

from viscostring import (
    ControlSignal,
    ModeFamily,
    MomentTarget,
    TimeGrid,
    build_family,
    check_convolution_asymptotics,
    check_mode_asymptotics,
    check_mode_derivative_asymptotics,
    check_resolvent_identity,
    closed_loop_roundtrip,
    derive_kernels,
    finite_pair_control,
    frame_bounds,
    gram,
    quadratic_closeness,
    simulate_coefficients,
    TrajectoryKind,
    solve_modes,
)

from conftest import DESK_KERNEL, TWO_PI

# same node count, other horizon: only the grid tells the families apart
KERNELS = derive_kernels(DESK_KERNEL, TimeGrid(TWO_PI, 1024))
OTHER = derive_kernels(DESK_KERNEL, TimeGrid(3.0, 1024))
# other node count: its rows do not fit a family on the grid of KERNELS
COARSE = derive_kernels(DESK_KERNEL, TimeGrid(TWO_PI, 512))

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
    "finite_pair_control":
        lambda f: finite_pair_control(KERNELS, f, np.ones(4), np.zeros(4)),
}

# consumers of moment kernels that take KERNELS, whose grid their family must lie on
KERNEL_MOMENT_CONSUMERS = {
    "quadratic_closeness": lambda f: quadratic_closeness(KERNELS, f),
}

# consumers of moment kernels, which read the grid from the family
MOMENT_CONSUMERS = {
    "gram": gram,
    "frame_bounds": frame_bounds,
}

ORDERED = ("build_family", "closed_loop_roundtrip", "simulate_coefficients",
           "finite_pair_control", "frame_bounds")


def _misplaced(family, coarse):
    """The rows of `coarse` labelled with the grid of `family`."""
    return ModeFamily(family.ns, family.kind, coarse.samples, family.grid)


@pytest.fixture(scope="module")
def families():
    """Builders of each case, so a case that cannot be built raises in the test."""
    modes = solve_modes(range(1, 5), KERNELS)
    other_modes = solve_modes(range(1, 5), OTHER)
    coarse_modes = solve_modes(range(1, 5), COARSE)
    moments = build_family(KERNELS, modes)
    other_moments = build_family(OTHER, other_modes)
    coarse_moments = build_family(COARSE, coarse_modes)
    return {
        "mode": {"good": lambda: modes, "wrong_kind": lambda: moments,
                 "foreign_grid": lambda: other_modes,
                 "empty": lambda: modes[4:],
                 "mixed_grid": lambda: _misplaced(modes, coarse_modes)},
        "moment": {"good": lambda: moments, "wrong_kind": lambda: modes,
                   "foreign_grid": lambda: other_moments,
                   "empty": lambda: moments[4:],
                   "mixed_grid": lambda: _misplaced(moments, coarse_moments)},
    }


BAD = {"empty": "no mode indices", "wrong_kind": "expected a",
       "foreign_grid": "grid", "mixed_grid": "grid samples"}

CASES = (
    [(name, "mode", bad) for name in MODE_CONSUMERS for bad in BAD]
    + [(name, "moment", bad) for name in KERNEL_MOMENT_CONSUMERS for bad in BAD]
    + [(name, "moment", bad) for name in MOMENT_CONSUMERS
       for bad in BAD if bad != "foreign_grid"]
)


def _consumer(name):
    return {**MODE_CONSUMERS, **KERNEL_MOMENT_CONSUMERS, **MOMENT_CONSUMERS}[name]


@pytest.mark.parametrize("name, kind, bad", CASES,
                         ids=[f"{name}-{bad}" for name, _, bad in CASES])
def test_consumer_rejects_a_bad_family(families, name, kind, bad):
    with pytest.raises(ValueError, match=BAD[bad]):
        _consumer(name)(families[kind][bad]())


@pytest.mark.parametrize("name", ORDERED)
def test_ordered_consumer_rejects_a_family_out_of_order(families, name):
    kind = "mode" if name in MODE_CONSUMERS else "moment"
    family = families[kind]["good"]()[::-1]
    with pytest.raises(ValueError, match="entry 1 has n=4"):
        _consumer(name)(family)


class TestModeFamily:
    def test_construction_rejects_empty_zero_and_misshapen(self):
        grid = KERNELS.grid
        with pytest.raises(ValueError, match="no mode indices"):
            ModeFamily((), TrajectoryKind.MODE, np.ones((0, grid.steps + 1)), grid)
        for ns in ((1, 0), (2, -1)):
            with pytest.raises(ValueError, match="must be positive"):
                ModeFamily(ns, TrajectoryKind.MODE, np.ones((2, grid.steps + 1)), grid)
        with pytest.raises(ValueError, match="grid samples"):
            ModeFamily((1,), TrajectoryKind.MODE, np.ones(grid.steps + 1), grid)
        with pytest.raises(ValueError, match="grid samples"):
            ModeFamily((1, 2), TrajectoryKind.MODE, np.ones((2, 7)), grid)

    def test_indexing_by_position_slice_and_list(self, families):
        modes = families["mode"]["good"]()
        one = modes[2]
        assert one.ns == (3,) and np.array_equal(one.samples, modes.samples[2:3])
        part = modes[1:3]
        assert part.ns == (2, 3) and np.shares_memory(part.samples, modes.samples)
        picked = modes[[3, 0]]
        assert picked.ns == (4, 1)
        assert np.array_equal(picked.samples, modes.samples[[3, 0]])
        for family in (modes, one, part, picked):
            assert family.kind is TrajectoryKind.MODE and family.grid == KERNELS.grid
            assert not family.samples.flags.writeable
        with pytest.raises(ValueError):
            modes.samples[0, 0] = 2.0

    def test_is_not_iterable(self, families):
        modes = families["mode"]["good"]()
        with pytest.raises(TypeError, match="not iterable"):
            for _ in modes:
                pass
