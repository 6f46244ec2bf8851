import math

import numpy as np
import pytest

from viscostring import (
    MemoryKernel,
    ModeFamily,
    TimeGrid,
    TrajectoryKind,
    build_family,
    derive_kernels,
    solve_mode,
    solve_modes,
)

TWO_PI = 2.0 * math.pi

DESK_KERNEL = MemoryKernel.exponential_sum([(0.4, 1.0)])
ELASTIC_KERNEL = MemoryKernel.zero()
POLY_KERNEL = MemoryKernel.polynomial([0.3, -0.1, 0.02, 0.0, 0.001])


def complex_rows(family):
    """The rows Z_n = X_n + i*Y_n of a moment-kernel family, as one complex
    (N, K+1) array: the complex view the oracles compare against."""
    x, y = family.samples
    return x + 1j * y


def moment_family(kernels, n_max):
    """Moment kernels n = 1..n_max, cross-checked against one solved batch."""
    return build_family(kernels, solve_modes(range(1, n_max + 1), kernels))


@pytest.fixture(scope="session")
def desk_grid():
    return TimeGrid(TWO_PI, 4096)


@pytest.fixture(scope="session")
def desk_kernels(desk_grid):
    return derive_kernels(DESK_KERNEL, desk_grid)


@pytest.fixture(scope="session")
def elastic_kernels(desk_grid):
    return derive_kernels(ELASTIC_KERNEL, desk_grid)


def stacked_modes(kernels, n_max):
    """Modes n = 1..n_max, each solved alone (`solve_mode`), as one family."""
    rows = [solve_mode(n, kernels).samples for n in range(1, n_max + 1)]
    return ModeFamily(range(1, n_max + 1), TrajectoryKind.MODE,
                      np.concatenate(rows), kernels.grid)


@pytest.fixture(scope="session")
def desk_modes_32(desk_kernels):
    """Mode responses n = 1..32 for the default kernel at desk scale."""
    return stacked_modes(desk_kernels, 32)


@pytest.fixture(scope="session")
def elastic_modes_16(elastic_kernels):
    return stacked_modes(elastic_kernels, 16)
