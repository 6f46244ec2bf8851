import math

import pytest

from viscostring import (
    MemoryKernel,
    TimeGrid,
    derive_kernels,
    solve_mode,
)

TWO_PI = 2.0 * math.pi

DESK_KERNEL = MemoryKernel.exponential_sum([(0.4, 1.0)])
ELASTIC_KERNEL = MemoryKernel.zero()


@pytest.fixture(scope="session")
def desk_grid():
    return TimeGrid(TWO_PI, 4096)


@pytest.fixture(scope="session")
def desk_kernels(desk_grid):
    return derive_kernels(DESK_KERNEL, desk_grid)


@pytest.fixture(scope="session")
def elastic_kernels(desk_grid):
    return derive_kernels(ELASTIC_KERNEL, desk_grid)


@pytest.fixture(scope="session")
def desk_modes_32(desk_kernels):
    """Mode responses n = 1..32 for the default kernel at desk scale."""
    return [solve_mode(n, desk_kernels) for n in range(1, 33)]


@pytest.fixture(scope="session")
def elastic_modes_16(elastic_kernels):
    return [solve_mode(n, elastic_kernels) for n in range(1, 17)]
