import math
import warnings

import numpy as np
import pytest

from buffon.estimators import run_triangle_trials
from buffon.sampling import CastSample, RngConfig, draw_casts, sample_cast

from conftest import StubStream

TWO_PI = 2.0 * math.pi

# 0.999 quantile of the chi-square distribution with 99 degrees of freedom
CHI2_CRIT_99DOF_P999 = 148.23035916510173


def test_rotation_range_and_distinct():
    rng = RngConfig(1, 0).stream()
    (first, second), _, _ = draw_casts(rng, 2, 1.0)
    assert first != second
    for value in (first, second):
        assert 0.0 <= value < TWO_PI


def test_rotation_sequences_reproducible():
    first = draw_casts(RngConfig(9, 4).stream(), 1, 1.0)[0]
    seq1 = draw_casts(RngConfig(9, 4).stream(), 50, 1.0)[0]
    rng2 = RngConfig(9, 4).stream()
    seq2 = np.concatenate([draw_casts(rng2, 20, 1.0)[0], draw_casts(rng2, 30, 1.0)[0]])
    assert seq1.tolist() == seq2.tolist()  # block size does not change the casts
    assert seq1[0] == first[0]


def test_rotation_mean_converges_to_pi():
    rng = RngConfig(11, 0).stream()
    rotations = TWO_PI * rng.random(1_000_000)
    assert abs(float(rotations.mean()) - math.pi) < 0.01


def test_offset_range_unit_and_scaled():
    rng = RngConfig(13, 0).stream()
    for spacing in (1.0, 17320.5):
        _, offset_x, offset_y = draw_casts(rng, 10_000, spacing)
        for samples in (offset_x, offset_y):
            assert ((0.0 <= samples) & (samples < spacing)).all()


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
    with pytest.raises(ValueError):
        draw_casts(rng, 1, 0.0)
    with pytest.raises(ValueError):
        draw_casts(rng, 1, -2.0)


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
    assert np.array_equal(config.stream(cast).random(50), straight)


@pytest.mark.parametrize("drop", [2, 6, 65536, 100002])
def test_stream_resumes_a_straight_draw_at_a_drop(drop):
    # Needle drop d starts at uniform 2d, on a counter boundary when d % 2 == 0.
    config = RngConfig(42, 3)
    straight = config.stream().random(2 * drop + 50)[2 * drop:]
    assert np.array_equal(config.stream(drop, 2).random(50), straight)


@pytest.mark.parametrize("draw, uniforms", [(-4, 3), (1, 3), (2, 3), (3, 3), (6, 3), (1, 2), (-2, 2)])
def test_stream_start_off_a_counter_boundary(draw, uniforms):
    with pytest.raises(ValueError, match="multiple of 4"):
        RngConfig(42, 3).stream(draw, uniforms)
    with pytest.raises(ValueError, match="multiple of 4"):
        RngConfig(42, 3).rekey(np.random.Philox(key=0), draw, uniforms)


@pytest.mark.parametrize("uniforms, first_draw", [(3, 0), (3, 4), (3, 65536), (2, 0), (2, 6), (2, 100002)])
def test_one_generator_rekeyed_across_streams_draws_fresh_streams(uniforms, first_draw):
    # One Philox, re-keyed from stream to stream after a partial draw that leaves
    # words in its buffer, draws what a fresh stream at that draw would.
    rng = RngConfig(0, 0).stream()
    for seed in (0, 1 << 63, (1 << 64) - 1):
        for stream_id in (0, 5, (1 << 63) + 1, (1 << 64) - 1):
            config = RngConfig(seed, stream_id)
            config.rekey(rng.bit_generator, first_draw, uniforms)
            assert np.array_equal(rng.random(7), config.stream(first_draw, uniforms).random(7))
