"""Analytical prefill/decode latency model for item generation.

An item represented by ``m`` tokens costs ``m`` sequential decode steps and
stretches the prompt to ``m * |H| + const`` prefill tokens, so

    total_ms = m * l_decode + l_prefill(m * |H| + const)

For any deployment with linear prefill the speedup of a single-token encoding
over an m-token encoding lies between ``(m*|H| + const) / (|H| + const)``
(decode cost -> 0) and ``m`` (prefill cost -> 0).

The built-in profiles are anchored to published serving measurements for
Mistral-7B and PaLM; only the total prefill/decode milliseconds at two
reference workloads are public, so the linear slopes and the reference
(history length, constant prompt) pairs below are back-solved from those
totals.  Slopes are kept as exact fractions so the reference totals reproduce
bit-for-bit.

A latency table is built from one ``{encoder: EncodingSpec}`` table per
profile, ``id`` always included: either that profile's reference workloads
(``REFERENCE_SPECS``, which cover ``id`` and ``title``) or the encodings
measured from an item catalog alone (:func:`measured_specs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import Catalog
from .tokens import tokenize_text


@dataclass(frozen=True)
class EncodingSpec:
    """How items are rendered: m tokens per item, plus fixed prompt overhead."""

    tokens_per_item: int  # m
    history_len: int  # |H|
    const_tokens: int  # non-item prompt tokens

    def __post_init__(self):
        if self.tokens_per_item < 1:
            raise ValueError("tokens_per_item must be >= 1")
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if self.const_tokens < 0:
            raise ValueError("const_tokens must be >= 0")

    @property
    def prefill_tokens(self) -> int:
        return self.tokens_per_item * self.history_len + self.const_tokens


@dataclass(frozen=True)
class DeploymentProfile:
    """Decode latency per step plus a linear prefill latency per token."""

    name: str
    decode_ms: float
    prefill_slope_ms: Fraction | float

    def __post_init__(self):
        if self.decode_ms < 0:
            raise ValueError("decode_ms must be >= 0")
        if self.prefill_slope_ms < 0:
            raise ValueError("prefill slope must be >= 0")

    def to_dict(self) -> dict:
        out = {"name": self.name, "decode_ms": self.decode_ms, "prefill_slope_ms": float(self.prefill_slope_ms)}
        if isinstance(self.prefill_slope_ms, Fraction):
            out["prefill_slope_exact"] = str(self.prefill_slope_ms)
        return out

    def prefill_ms(self, n_tokens: int) -> float:
        if n_tokens < 0:
            raise ValueError("n_tokens must be >= 0")
        return float(self.prefill_slope_ms * n_tokens)


# Back-solved linear profiles.  Reference totals: Mistral-7B 35+20 ms for a
# single-token prompt vs 75+400 ms for a 20-token title encoding; PaLM 48+20 ms
# vs 96+580 ms for a 29-token title encoding.
MISTRAL_7B = DeploymentProfile("mistral7b", decode_ms=20.0, prefill_slope_ms=Fraction(5, 19))
PALM = DeploymentProfile("palm", decode_ms=20.0, prefill_slope_ms=Fraction(3, 14))

PROFILES = {p.name: p for p in (MISTRAL_7B, PALM)}

# Reference workloads the profile constants were solved against.
REFERENCE_SPECS = {
    "mistral7b": {
        "id": EncodingSpec(1, 8, 125),
        "title": EncodingSpec(20, 8, 125),
    },
    "palm": {
        "id": EncodingSpec(1, 8, 216),
        "title": EncodingSpec(29, 8, 216),
    },
}


def total_latency(profile: DeploymentProfile, spec: EncodingSpec) -> float:
    """m * l_decode + l_prefill(m * |H| + const), in milliseconds."""
    return spec.tokens_per_item * profile.decode_ms + profile.prefill_ms(spec.prefill_tokens)


def speedup(profile: DeploymentProfile, spec_multi: EncodingSpec, spec_single: EncodingSpec) -> float:
    """Latency ratio of the multi-token encoding over the single-token one."""
    denom = total_latency(profile, spec_single)
    if denom <= 0:
        raise ValueError("single-token latency is zero; profile has no cost at all")
    return total_latency(profile, spec_multi) / denom


def speedup_bounds(spec_multi: EncodingSpec, spec_single: EncodingSpec) -> tuple[float, float]:
    """Closed-form bounds on the speedup over all linear-prefill deployments.

    Lower bound (m*|H| + const)/(|H| + const) is the prefill-dominated limit;
    upper bound m is the decode-dominated limit.
    """
    if spec_single.tokens_per_item != 1:
        raise ValueError("bounds compare an m-token encoding against a single-token one")
    if (spec_multi.history_len, spec_multi.const_tokens) != (
        spec_single.history_len,
        spec_single.const_tokens,
    ):
        raise ValueError("bounds require matching history length and constant prompt tokens")
    m = spec_multi.tokens_per_item
    h, const = spec_multi.history_len, spec_multi.const_tokens
    lower = (m * h + const) / (h + const)
    return lower, float(m)


@dataclass(frozen=True)
class TokenCountStats:
    """Distribution of tokens-per-item for one encoder over one catalog."""

    encoder: str
    n_items: int
    mean: float
    histogram: dict[int, int]


MULTI_TOKEN_ENCODERS = ("id", "title", "category")


def measure_m(catalog: Catalog, encoder: str = "id") -> TokenCountStats:
    """Tokens per item under the package's word-level tokenization.

    ``id`` always costs one token; ``title``/``category`` cost one token per
    whitespace word of that field (items lacking the field are skipped).
    """
    if encoder not in MULTI_TOKEN_ENCODERS:
        raise ValueError(f"encoder must be one of {MULTI_TOKEN_ENCODERS}, got {encoder!r}")
    if encoder == "id":
        counts = [1] * len(catalog)
    else:
        values = [getattr(record, encoder) for record in catalog.records]
        counts = [max(1, len(tokenize_text(str(v)))) for v in values if v is not None]
        if not counts:
            raise ValueError(f"no item has a {encoder!r} field")
    arr = np.asarray(counts, dtype=np.int64)
    hist = {int(k): int(v) for k, v in zip(*np.unique(arr, return_counts=True))}
    return TokenCountStats(encoder=encoder, n_items=arr.size, mean=float(arr.mean()), histogram=hist)


def measured_specs(catalog: Catalog, encoders, history_len: int, const_tokens: int) -> dict[str, EncodingSpec]:
    """``{encoder: EncodingSpec}`` at each encoder's mean tokens-per-item on
    ``catalog``, ``id`` always included: the shape of a ``REFERENCE_SPECS``
    entry.  An encoder whose field no item has is left out."""
    specs = {}
    for encoder in dict.fromkeys(("id", *encoders)):
        try:
            stats = measure_m(catalog, encoder)
        except ValueError:  # no item has the field
            continue
        specs[encoder] = EncodingSpec(max(1, round(stats.mean)), history_len, const_tokens)
    return specs


def latency_row(dataset: str, encoder: str, profile: DeploymentProfile, spec: EncodingSpec, single: EncodingSpec) -> dict:
    """One latency-table row: ``spec`` on ``profile``, with its speedup over ``single``."""
    total = total_latency(profile, spec)
    lower, upper = speedup_bounds(spec, single)
    return {
        "dataset": dataset,
        "encoder": encoder,
        "profile": profile.name,
        "tokens_per_item": spec.tokens_per_item,
        "prefill_ms": profile.prefill_ms(spec.prefill_tokens),
        "decode_ms": spec.tokens_per_item * profile.decode_ms,
        "total_ms": total,
        "speedup_vs_id": speedup(profile, spec, single),
        "speedup_lower_bound": lower,
        "speedup_upper_bound": upper,
    }
