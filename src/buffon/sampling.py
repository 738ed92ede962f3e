"""Seeded, splittable random streams for casts.

Streams are counter-based: stream k under seed s is a Philox generator
keyed with the uint64 pair ``(s, k)``, so any subset of runs can be drawn
independently, in any order and on any number of workers, with identical
results.

A stream can also start part-way, at any uniform on a Philox counter
boundary.  Philox makes four 64-bit words per counter step and each
uniform takes one word, so uniform ``u`` starts at counter ``u/4`` when
``u`` is a multiple of 4.  A triangle cast takes ``UNIFORMS_PER_CAST = 3``
uniforms, so cast ``c`` starts at uniform ``3c``; a needle drop takes
``UNIFORMS_PER_DROP = 2``, so drop ``d`` starts at uniform ``2d``.
``stream(first_uniform)`` keys a fresh generator there with
``key_philox``, which keys any Philox generator to a stream (taking the
pair unchecked), its buffer of unused words cleared, so one generator
re-keyed from stream to stream draws what fresh streams would.  Chunks of
a run that start at a multiple of 4 draws (the estimators cut runs at
multiples of their block size) therefore draw exactly the casts of one
straight pass over the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI

_UINT64_MAX = (1 << 64) - 1
# Uniforms per triangle cast: (rotation, offset_x, offset_y).
UNIFORMS_PER_CAST = 3
# Uniforms per needle drop: (distance, angle).
UNIFORMS_PER_DROP = 2
# Uniforms per Philox counter step.
_UNIFORMS_PER_STEP = 4


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

    def stream(self, first_uniform: int = 0) -> np.random.Generator:
        """A fresh generator positioned at uniform ``first_uniform`` of this stream (see ``key_philox``)."""
        return np.random.Generator(key_philox(np.random.Philox(key=0), self.seed, self.stream_id, first_uniform))


def key_philox(bit_generator, seed: int, stream_id: int, first_uniform: int = 0):
    """Key the Philox ``bit_generator`` to stream ``(seed, stream_id)``, its buffer cleared; returns it.

    It stands at uniform ``first_uniform`` of the stream, which must start a
    Philox counter step: a nonnegative multiple of 4.  ``seed`` and
    ``stream_id`` are not checked here; they must be unsigned 64-bit
    integers, as ``RngConfig`` checks.
    """
    if first_uniform < 0 or first_uniform % _UNIFORMS_PER_STEP:
        raise ValueError(f"uniform {first_uniform} is not a nonnegative multiple of 4")
    step = first_uniform // _UNIFORMS_PER_STEP
    # Python ints, each set as one uint64 word: no numpy array to build per
    # call, and no float64 that would round a key at or above 2**63.
    words = step & _UINT64_MAX, step >> 64 & _UINT64_MAX, step >> 128 & _UINT64_MAX, step >> 192 & _UINT64_MAX
    bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": words, "key": (seed, stream_id)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return bit_generator


@dataclass(frozen=True)
class CastSample:
    """The random variables of one trial: rotation and the two grid offsets."""

    rotation: float
    offset_x: float
    offset_y: float


def cast_columns(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit-grid casts of the float64 uniforms ``u`` as columns (rotation, offset_x, offset_y).

    Rotations are uniform on [0, 2*pi) and offsets uniform on [0, 1).  The
    fixed draw order keeps sequences reproducible: cast i consumes exactly
    the uniforms 3i, 3i+1, 3i+2 of its stream, so drawing in blocks of any
    size gives the same casts.  The columns are built in place, as views of ``u``.
    """
    u = u.reshape(-1, UNIFORMS_PER_CAST)
    u[:, 0] *= TWO_PI
    return u[:, 0], u[:, 1], u[:, 2]


def sample_cast(rng: np.random.Generator, spacing: float) -> CastSample:
    """Draw one cast on a grid of ``spacing``: the one-row view of ``cast_columns``, offsets scaled by ``spacing``."""
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be a positive finite length, got {spacing}")
    rotation, offset_x, offset_y = cast_columns(rng.random(UNIFORMS_PER_CAST))
    return CastSample(float(rotation[0]), float(offset_x[0]) * spacing, float(offset_y[0]) * spacing)
