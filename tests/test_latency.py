from fractions import Fraction

import numpy as np
import pytest

from helpers import synth_dataset
from hsrec.latency import (
    MISTRAL_7B,
    PALM,
    REFERENCE_SPECS,
    DeploymentProfile,
    EncodingSpec,
    latency_row,
    measure_m,
    measured_specs,
    speedup,
    speedup_bounds,
    total_latency,
)


def test_mistral_headline_numbers_exact():
    single = REFERENCE_SPECS["mistral7b"]["id"]
    title = REFERENCE_SPECS["mistral7b"]["title"]
    assert total_latency(MISTRAL_7B, single) == 55.0
    assert total_latency(MISTRAL_7B, title) == 475.0
    assert MISTRAL_7B.prefill_ms(single.prefill_tokens) == 35.0
    assert MISTRAL_7B.prefill_ms(title.prefill_tokens) == 75.0


def test_palm_headline_numbers_exact():
    single = REFERENCE_SPECS["palm"]["id"]
    title = REFERENCE_SPECS["palm"]["title"]
    assert total_latency(PALM, single) == 68.0
    assert total_latency(PALM, title) == 676.0
    assert PALM.prefill_ms(single.prefill_tokens) == 48.0
    assert PALM.prefill_ms(title.prefill_tokens) == 96.0


def test_headline_speedups():
    mistral = speedup(MISTRAL_7B, REFERENCE_SPECS["mistral7b"]["title"], REFERENCE_SPECS["mistral7b"]["id"])
    palm = speedup(PALM, REFERENCE_SPECS["palm"]["title"], REFERENCE_SPECS["palm"]["id"])
    assert abs(mistral - 8.6) < 0.05
    assert abs(palm - 9.9) < 0.05


def test_single_token_with_free_prefill_is_decode_only():
    profile = DeploymentProfile("free-prefill", decode_ms=7.0, prefill_slope_ms=Fraction(0))
    assert total_latency(profile, EncodingSpec(1, 30, 11)) == 7.0


def test_speedup_limits():
    multi = EncodingSpec(12, 8, 20)
    single = EncodingSpec(1, 8, 20)
    # Prefill cost -> 0: speedup -> m exactly.
    near_zero_prefill = DeploymentProfile("p0", decode_ms=10.0, prefill_slope_ms=Fraction(0))
    assert speedup(near_zero_prefill, multi, single) == 12.0
    # Decode cost -> 0: speedup -> (m|H| + const) / (|H| + const).
    near_zero_decode = DeploymentProfile("d0", decode_ms=0.0, prefill_slope_ms=Fraction(1))
    assert speedup(near_zero_decode, multi, single) == pytest.approx(116 / 28, rel=1e-12)


def test_bounds_closed_form():
    lower, upper = speedup_bounds(EncodingSpec(12, 8, 20), EncodingSpec(1, 8, 20))
    assert lower == pytest.approx(116 / 28, rel=1e-12)
    assert upper == 12.0
    lower1, upper1 = speedup_bounds(EncodingSpec(1, 5, 9), EncodingSpec(1, 5, 9))
    assert (lower1, upper1) == (1.0, 1.0)


def test_bounds_require_matching_prompt_shape():
    with pytest.raises(ValueError):
        speedup_bounds(EncodingSpec(4, 8, 20), EncodingSpec(1, 9, 20))
    with pytest.raises(ValueError):
        speedup_bounds(EncodingSpec(4, 8, 20), EncodingSpec(2, 8, 20))


def test_bounds_hold_over_random_linear_profiles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(2, 40))
        h = int(rng.integers(1, 300))
        const = int(rng.integers(0, 200))
        multi, single = EncodingSpec(m, h, const), EncodingSpec(1, h, const)
        lower, upper = speedup_bounds(multi, single)
        decode = float(rng.uniform(0.001, 100))
        slope = float(rng.uniform(0.0, 10))
        profile = DeploymentProfile("r", decode_ms=decode, prefill_slope_ms=slope)
        s = speedup(profile, multi, single)
        assert lower - 1e-9 <= s <= upper + 1e-9


def test_total_latency_monotonicity():
    profile = DeploymentProfile("m", decode_ms=3.0, prefill_slope_ms=Fraction(1, 4))
    base = total_latency(profile, EncodingSpec(3, 10, 5))
    assert total_latency(profile, EncodingSpec(4, 10, 5)) > base
    assert total_latency(profile, EncodingSpec(3, 11, 5)) > base
    assert total_latency(profile, EncodingSpec(3, 10, 6)) > base


def test_profile_validation():
    with pytest.raises(ValueError):
        DeploymentProfile("bad", decode_ms=-1, prefill_slope_ms=Fraction(1))
    with pytest.raises(TypeError):
        DeploymentProfile("bad", decode_ms=1.0)


def test_measure_m_id_encoder_is_constant_one(tmp_path):
    data, _ = synth_dataset(tmp_path)
    stats = measure_m(data.catalog, "id")
    assert stats.mean == 1.0
    assert stats.histogram == {1: data.n_items}


def test_measure_m_title_hand_count(tmp_path):
    data, _ = synth_dataset(tmp_path)
    # Synthetic titles are "group-g word-w": exactly two words each.
    stats = measure_m(data.catalog, "title")
    assert stats.mean == 2.0
    assert stats.histogram == {2: data.n_items}
    with pytest.raises(ValueError):
        measure_m(data.catalog, "category")  # no category metadata in synth corpora


def test_measured_rows_within_bounds(tmp_path):
    data, _ = synth_dataset(tmp_path)
    specs = measured_specs(data.catalog, ("id", "title"), history_len=6, const_tokens=30)
    rows = [latency_row(data.name, e, p, specs[e], specs["id"]) for p in (MISTRAL_7B, PALM) for e in specs]
    assert len(rows) == 4  # 2 profiles x 2 encoders
    for row in rows:
        assert row["speedup_lower_bound"] - 1e-9 <= row["speedup_vs_id"] <= row["speedup_upper_bound"] + 1e-9
        assert row["total_ms"] == row["prefill_ms"] + row["decode_ms"]


def test_measured_specs_always_include_id_and_skip_missing_fields(tmp_path):
    data, _ = synth_dataset(tmp_path)
    specs = measured_specs(data.catalog, ("title", "category"), history_len=6, const_tokens=30)
    assert specs == {"id": EncodingSpec(1, 6, 30), "title": EncodingSpec(2, 6, 30)}
