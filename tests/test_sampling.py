import math
import warnings

import numpy as np
import pytest

from buffon.estimators import run_triangle_trials
from buffon.sampling import CastSample, RngConfig, cast_columns, key_philox, sample_cast

from conftest import StubStream

TWO_PI = 2.0 * math.pi

# 0.999 quantile of the chi-square distribution with 99 degrees of freedom
CHI2_CRIT_99DOF_P999 = 148.23035916510173


def test_rotation_range_and_distinct():
    rng = RngConfig(1, 0).stream()
    (first, second), _, _ = cast_columns(rng.random(6))
    assert first != second
    for value in (first, second):
        assert 0.0 <= value < TWO_PI


def test_rotation_sequences_reproducible():
    first = cast_columns(RngConfig(9, 4).stream().random(3))[0]
    seq1 = cast_columns(RngConfig(9, 4).stream().random(3 * 50))[0]
    rng2 = RngConfig(9, 4).stream()
    seq2 = np.concatenate([cast_columns(rng2.random(3 * 20))[0], cast_columns(rng2.random(3 * 30))[0]])
    assert seq1.tolist() == seq2.tolist()  # block size does not change the casts
    assert seq1[0] == first[0]


def test_cast_columns_take_three_uniforms_per_cast_in_place():
    # Cast i is uniforms 3i, 3i+1, 3i+2: the rotation scaled to [0, 2*pi), then the offsets.
    u = RngConfig(10, 0).stream().random(3 * 100)
    drawn = u.copy()
    rotation, offset_x, offset_y = cast_columns(u)
    assert all(np.shares_memory(column, u) for column in (rotation, offset_x, offset_y))
    assert np.array_equal(rotation, TWO_PI * drawn[0::3])
    assert np.array_equal(offset_x, drawn[1::3]) and np.array_equal(offset_y, drawn[2::3])


def test_rotation_mean_converges_to_pi():
    rng = RngConfig(11, 0).stream()
    rotations = TWO_PI * rng.random(1_000_000)
    assert abs(float(rotations.mean()) - math.pi) < 0.01


def test_offset_range_unit_and_scaled():
    # cast_columns casts on the unit grid; sample_cast scales to any spacing.
    rng = RngConfig(13, 0).stream()
    _, offset_x, offset_y = cast_columns(rng.random(3 * 10_000))
    for samples in (offset_x, offset_y):
        assert ((0.0 <= samples) & (samples < 1.0)).all()
    for _ in range(10_000):
        cast = sample_cast(rng, 17320.5)
        assert 0.0 <= cast.offset_x < 17320.5 and 0.0 <= cast.offset_y < 17320.5


def test_offset_uniform_at_deciles():
    rng = RngConfig(12, 0).stream()
    samples = np.sort(rng.random(1_000_000))
    deciles = np.arange(0.1, 1.0, 0.1)
    empirical = np.searchsorted(samples, deciles) / samples.size
    assert np.abs(empirical - deciles).max() < 0.005


def test_offset_no_modulo_bias_chi_square():
    rng = RngConfig(12, 0).stream()
    counts, _ = np.histogram(rng.random(1_000_000), bins=100, range=(0.0, 1.0))
    expected = 1_000_000 / 100
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < CHI2_CRIT_99DOF_P999


def test_offset_invalid_spacing():
    rng = RngConfig(1, 0).stream()
    for spacing in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sample_cast(rng, spacing)


def test_cast_composes_three_draws_in_order():
    draws = RngConfig(21, 3).stream().random(3)
    cast = sample_cast(RngConfig(21, 3).stream(), 1.0)
    assert cast == CastSample(TWO_PI * draws[0], draws[1], draws[2])


def test_cast_draw_order_via_stub():
    cast = sample_cast(StubStream([0.25, 0.5, 0.75]), 2.0)
    assert cast.rotation == TWO_PI * 0.25
    assert cast.offset_x == 1.0
    assert cast.offset_y == 1.5


def test_cast_fields_within_ranges():
    rng = RngConfig(22, 0).stream()
    for _ in range(100_000):
        cast = sample_cast(rng, 1.0)
        assert 0.0 <= cast.rotation < TWO_PI
        assert 0.0 <= cast.offset_x < 1.0
        assert 0.0 <= cast.offset_y < 1.0


def test_streams_differ_for_same_seed():
    cast0 = sample_cast(RngConfig(5, 0).stream(), 1.0)
    cast1 = sample_cast(RngConfig(5, 1).stream(), 1.0)
    assert cast0 != cast1


def test_streams_uncorrelated():
    r0 = RngConfig(2024, 0).stream().random(100_000)
    r1 = RngConfig(2024, 1).stream().random(100_000)
    assert abs(float(np.corrcoef(r0, r1)[0, 1])) < 0.01


def test_config_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        RngConfig(-1, 0)
    with pytest.raises(ValueError):
        RngConfig(0, -1)
    with pytest.raises(ValueError):
        RngConfig(1 << 64, 0)
    RngConfig((1 << 64) - 1, (1 << 64) - 1)  # extremes are valid


def test_seeds_from_2_63_get_their_own_keys():
    # A seed at or above 2**63 with a smaller stream id is its own key, with no
    # float64 rounding (and no RuntimeWarning); seeds below keep the keys they had.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = {
            seed: run_triangle_trials(10_000, RngConfig(seed, 0).stream())
            for seed in (0, 1 << 63, (1 << 63) + 1, (1 << 64) - 2, (1 << 64) - 1)
        }
    assert len({tally.counts[:2] for tally in counts.values()}) == len(counts)
    for seed, stream_id in [(0, 0), (42, 7), ((1 << 63) - 1, 0), ((1 << 63) - 1, (1 << 63) - 1)]:
        listed = np.random.Generator(np.random.Philox(key=[seed, stream_id])).random(8)
        assert np.array_equal(RngConfig(seed, stream_id).stream().random(8), listed)


@pytest.mark.parametrize("cast", [4, 12, 65536, 100000, 131072])
def test_stream_resumes_a_straight_draw_at_a_cast(cast):
    # Cast c starts at uniform 3c, on a counter boundary when c % 4 == 0.
    config = RngConfig(42, 3)
    straight = config.stream().random(3 * cast + 50)[3 * cast:]
    assert np.array_equal(config.stream(3 * cast).random(50), straight)


@pytest.mark.parametrize("drop", [2, 6, 65536, 100002])
def test_stream_resumes_a_straight_draw_at_a_drop(drop):
    # Needle drop d starts at uniform 2d, on a counter boundary when d % 2 == 0.
    config = RngConfig(42, 3)
    straight = config.stream().random(2 * drop + 50)[2 * drop:]
    assert np.array_equal(config.stream(2 * drop).random(50), straight)


@pytest.mark.parametrize("draw, uniforms", [(-4, 3), (1, 3), (2, 3), (3, 3), (6, 3), (1, 2), (-2, 2)])
def test_stream_start_off_a_counter_boundary(draw, uniforms):
    # Draw ``draw``, of ``uniforms`` uniforms each, starts below 0 or off a multiple of 4.
    first_uniform = draw * uniforms
    with pytest.raises(ValueError, match=f"uniform {first_uniform} is not a nonnegative multiple of 4"):
        RngConfig(42, 3).stream(first_uniform)
    with pytest.raises(ValueError, match="multiple of 4"):
        key_philox(np.random.Philox(key=0), 42, 3, first_uniform)


@pytest.mark.parametrize("uniforms, first_draw", [(3, 0), (3, 4), (3, 65536), (2, 0), (2, 6), (2, 100002)])
def test_one_generator_rekeyed_across_streams_draws_fresh_streams(uniforms, first_draw):
    # One Philox, re-keyed from stream to stream after a partial draw that leaves
    # words in its buffer, draws what a fresh stream at that draw's first uniform would.
    rng, first_uniform = RngConfig(0, 0).stream(), first_draw * uniforms
    for seed in (0, 1 << 63, (1 << 64) - 1):
        for stream_id in (0, 5, (1 << 63) + 1, (1 << 64) - 1):
            key_philox(rng.bit_generator, seed, stream_id, first_uniform)
            assert np.array_equal(rng.random(7), RngConfig(seed, stream_id).stream(first_uniform).random(7))


@pytest.mark.parametrize("seed, stream_id, first_uniform", [
    (1, 5, 0),
    ((1 << 64) - 1, (1 << 63) + 3, 12),
    (0, (1 << 64) - 1, 4 << 70),
])
def test_key_philox_draws_what_numpy_keys_from_the_counter_and_key(seed, stream_id, first_uniform):
    # numpy's own Philox(counter, key) shares no code with key_philox; the key is a
    # uint64 array, and the counter, past 2**64 in the last case, a Python int.
    expected = np.random.Generator(
        np.random.Philox(counter=first_uniform // 4, key=np.array([seed, stream_id], dtype=np.uint64))
    ).random(9)
    rng = RngConfig(7, 7).stream()
    rng.random(3)  # leaves words in the buffer, which re-keying must clear
    assert key_philox(rng.bit_generator, seed, stream_id, first_uniform) is rng.bit_generator
    assert np.array_equal(rng.random(9), expected)
    key_philox(rng.bit_generator, seed, stream_id, first_uniform)  # and again, after 9 draws
    assert np.array_equal(rng.random(9), expected)
