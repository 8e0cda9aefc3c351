"""Render interaction examples into mixed text/item token sequences.

Each history item contributes its item token plus, outside ID-only mode, a
randomly sampled subset of its metadata fields (one draw per item per field).
A configurable fraction of training examples is rendered ID-only end to end,
which is what lets inference run on bare item IDs; evaluation rendering is
always ID-only.

A training batch renders in one call, :func:`render_batch`.  The fields come
tokenized from ``Dataset.field_tokens``, and the prompts are assembled with
array writes, so no Python runs per item.  The draws keep the per-example
order: one ``rng.random()`` per example for ID-only, then, unless it is
ID-only, one ``rng.random(m)`` over its ``m`` present fields, item by item and
field by field.  That gives the same doubles, and leaves the generator in the
same state, as ``m`` scalar draws.  :func:`render_example` is its batch-of-one
form, and always draws; the ID-only prompt is :func:`render_id_only`'s.

An evaluation block of ID-only prompts renders in one call too,
:func:`render_id_only_batch`, and :func:`render_id_only` is its batch of one.
With no draws and no fields, those prompts are built as one list and
converted once: at evaluation's block sizes that beats the array assembly,
whose fixed cost of some twenty numpy calls dominates a block of 5.
"""

from __future__ import annotations

import numpy as np

from .catalog import Dataset, FieldTokens, SequenceExample, concat_ranges


def _kept_segments(fields: FieldTokens, items, bounds, rng, id_only_fraction: float, keep_prob: float):
    """The field segments the draws keep, in prompt order, and the history
    position (index into ``items``) each one belongs to."""
    first = fields.item_ptr[items]
    n_fields = fields.item_ptr[items + 1] - first
    field_bounds = np.zeros(items.size + 1, dtype=np.int64)
    n_fields.cumsum(out=field_bounds[1:])
    per_prompt = field_bounds[bounds]
    per_prompt = (per_prompt[1:] - per_prompt[:-1]).tolist()
    # An ID-only example keeps none of its fields: no draw is below infinity.
    never = np.full(max(per_prompt, default=0), np.inf)
    random = rng.random
    draws = [never[:m] if random() < id_only_fraction else random(m) for m in per_prompt]
    keep = np.concatenate([never[:0], *draws]) < keep_prob
    segments = concat_ranges(first, n_fields)[keep]
    positions = np.arange(items.size).repeat(n_fields)[keep]
    return segments, positions


def render_batch(
    data: Dataset,
    histories,
    lengths,
    rng: np.random.Generator,
    id_only_fraction: float = 0.25,
    metadata_keep_prob: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Token ordinals of ``B`` training prompts (history side only),
    concatenated, and each prompt's length.

    ``histories`` holds the ``B`` histories' item indices, concatenated, and
    ``lengths`` the number of items in each.  Layout of a prompt: the prompt
    prefix, then per item the ``id:`` marker and the item token (+ sampled
    metadata), then the question words and a trailing ``id:`` marker ahead of
    the slot being predicted.
    """
    vocab, fields = data.vocab, data.field_tokens
    items = np.asarray(histories, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    # One reduction checks both ends: a negative index is huge as unsigned.
    if items.view(np.uint64).max(initial=0) >= data.n_items:
        raise ValueError(f"item index out of range [0, {data.n_items})")
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    lengths.cumsum(out=bounds[1:])
    segments, positions = _kept_segments(fields, items, bounds, rng, id_only_fraction, metadata_keep_prob)

    # Tokens per history item: id marker, item token, kept segments.
    seg_lengths = fields.seg_ptr[segments + 1] - fields.seg_ptr[segments]
    item_lengths = np.bincount(positions, weights=seg_lengths, minlength=items.size).astype(np.int64)
    item_lengths += 2
    item_bounds = np.zeros(items.size + 1, dtype=np.int64)
    item_lengths.cumsum(out=item_bounds[1:])
    prefix, suffix = vocab.prompt_prefix_ids, [*vocab.prompt_question_ids, vocab.id_marker_id]
    # Prompt b spans prompt_bounds[b]:prompt_bounds[b + 1]: the items of the
    # earlier prompts, and each earlier prompt's prefix and suffix, come first.
    constants = np.arange(lengths.size + 1) * (len(prefix) + len(suffix))
    prompt_bounds = item_bounds[bounds] + constants

    out = np.empty(prompt_bounds[-1], dtype=np.int64)
    out[prompt_bounds[:-1, None] + np.arange(len(prefix))] = prefix
    out[prompt_bounds[1:, None] + np.arange(-len(suffix), 0)] = suffix
    # An item's tokens follow its prompt's prefix and the prompt's earlier items.
    item_starts = item_bounds[:-1] + (constants[:-1] + len(prefix)).repeat(lengths)
    out[item_starts] = vocab.id_marker_id
    out[item_starts + 1] = items + data.space.n_text
    out[concat_ranges(item_starts + 2, item_lengths - 2)] = fields.tokens[
        concat_ranges(fields.seg_ptr[segments], seg_lengths)
    ]
    return out, prompt_bounds[1:] - prompt_bounds[:-1]


def render_example(
    example: SequenceExample,
    data: Dataset,
    rng: np.random.Generator | None = None,
    id_only_fraction: float = 0.25,
    metadata_keep_prob: float = 0.5,
) -> list[int]:
    """Token ordinals for one training example's prompt: :func:`render_batch`
    at a batch of one.  :func:`render_id_only` renders the ID-only prompt."""
    if rng is None:
        raise ValueError("rng is required; render_id_only renders without one")
    ordinals, _ = render_batch(data, example.history, [len(example.history)], rng, id_only_fraction, metadata_keep_prob)
    return ordinals.tolist()


def _id_only_prompt(data: Dataset, history) -> list[int]:
    """The ID-only prompt of one history of item indices."""
    vocab, space = data.vocab, data.space
    n_text, n_items, marker = space.n_text, space.n_items, vocab.id_marker_id
    tokens = [*vocab.prompt_prefix_ids]
    for item in history:
        if not 0 <= item < n_items:
            raise ValueError(f"item index {item} out of range [0, {n_items})")
        tokens += (marker, n_text + item)
    tokens += vocab.prompt_question_ids
    tokens.append(marker)
    return tokens


def render_id_only(example: SequenceExample, data: Dataset) -> list[int]:
    """One example's ID-only prompt, as a served query renders it:
    :func:`render_id_only_batch` at a batch of one."""
    return _id_only_prompt(data, example.history)


def render_id_only_batch(data: Dataset, histories) -> tuple[np.ndarray, np.ndarray]:
    """ID-only prompts of ``histories`` (item-index sequences), concatenated,
    and each prompt's length: one call renders an evaluation block."""
    tokens, lengths = [], []
    for history in histories:
        prompt = _id_only_prompt(data, history)
        tokens += prompt
        lengths.append(len(prompt))
    return np.array(tokens, dtype=np.int64), np.array(lengths, dtype=np.int64)
