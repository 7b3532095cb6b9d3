"""Shared fixtures: random admissible tail dependence functions.

The generators build concave grids directly from sorted slope sequences,
so every draw satisfies the shape constraints by construction rather
than by rejection.
"""

import numpy as np
import pytest

from taildep.tdf import TailDependenceFunction, from_grid


def make_random_tdf(rng: np.random.Generator, grid_size: int = 200,
                    scale: float | None = None) -> TailDependenceFunction:
    """Random concave function vanishing at both endpoints.

    Increments sorted in decreasing order give concavity; centering them
    forces the path back to zero at s = 1.  The result is then shrunk to
    fit under min(s, 1 - s).
    """
    inc = rng.standard_normal(grid_size)
    inc = np.sort(inc)[::-1]
    inc -= inc.mean()
    values = np.concatenate([[0.0], np.cumsum(inc)])
    values[-1] = 0.0  # exact, cumsum leaves ~1e-16 residue
    peak = values.max()
    if peak <= 0.0:  # degenerate draw, fall back to a parabola shape
        s = np.linspace(0.0, 1.0, grid_size + 1)
        values = s * (1.0 - s)
        peak = values.max()
    s = np.linspace(0.0, 1.0, grid_size + 1)
    bound = np.minimum(s, 1.0 - s)
    ratio = np.max(values[1:-1] / bound[1:-1])
    if scale is None:
        scale = rng.uniform(0.1, 1.0)
    values *= scale / ratio
    return from_grid(values)


def make_symmetric_tdf(rng: np.random.Generator,
                       grid_size: int = 200) -> TailDependenceFunction:
    """Random concave function with values[i] == values[m - i]."""
    assert grid_size % 2 == 0
    half = grid_size // 2
    inc = np.sort(np.abs(rng.standard_normal(half)))[::-1]
    rise = np.concatenate([[0.0], np.cumsum(inc)])
    values = np.concatenate([rise, rise[-2::-1]])
    s = np.linspace(0.0, 1.0, grid_size + 1)
    bound = np.minimum(s, 1.0 - s)
    ratio = np.max(values[1:-1] / bound[1:-1])
    values *= rng.uniform(0.1, 1.0) / ratio
    return from_grid(values)


@pytest.fixture
def random_tdf():
    return make_random_tdf


@pytest.fixture
def symmetric_tdf():
    return make_symmetric_tdf
