"""Seeded, splittable random streams for casts.

Streams are counter-based: stream k under seed s is a Philox generator
keyed with ``(s, k)``, so any subset of runs can be drawn independently,
in any order and on any number of workers, with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI

_UINT64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class RngConfig:
    """Seed plus stream index; the pair fully determines a sample sequence."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")

    def stream(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def with_stream(self, stream_id: int) -> "RngConfig":
        return RngConfig(self.seed, stream_id)


@dataclass(frozen=True)
class CastSample:
    """The random variables of one trial: rotation and the two grid offsets."""

    rotation: float
    offset_x: float
    offset_y: float


def draw_casts(
    rng: np.random.Generator, m: int, spacing: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw m casts as columns (rotation, offset_x, offset_y).

    Rotations are uniform on [0, 2*pi) and offsets uniform on [0, spacing).
    The fixed draw order keeps sequences reproducible: cast i consumes
    exactly the uniforms 3i, 3i+1, 3i+2 of its stream, so drawing in blocks
    of any size gives the same casts.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be a positive finite length, got {spacing}")
    u = np.asarray(rng.random(3 * m), dtype=np.float64).reshape(m, 3)
    return TWO_PI * u[:, 0], spacing * u[:, 1], spacing * u[:, 2]


def sample_cast(rng: np.random.Generator, spacing: float) -> CastSample:
    """Draw one cast: the one-row view of ``draw_casts``."""
    rotation, offset_x, offset_y = draw_casts(rng, 1, spacing)
    return CastSample(float(rotation[0]), float(offset_x[0]), float(offset_y[0]))
