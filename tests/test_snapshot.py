import struct

import numpy as np
import pytest

from helpers import SNAPSHOT_HEADER_BYTES, rewrite_snapshot, snapshot_offsets, synth_dataset
from hsrec.exceptions import SnapshotFormatError
from hsrec.snapshot import load_snapshot, save_snapshot
from hsrec.trainer import TrainConfig, init_model, train


@pytest.fixture()
def snapshot(tmp_path):
    data, _ = synth_dataset(tmp_path, n_users=40, n_items=10, n_groups=2, seed=7)
    config = TrainConfig(max_steps=0, seed=1)
    return init_model(data, config, dim=6, item_dim=4, clustering="random")


def test_roundtrip_bit_identical(snapshot, tmp_path):
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    for name, arr in snapshot.tables.parameter_arrays().items():
        assert np.array_equal(arr, loaded.tables.parameter_arrays()[name]), name
        assert arr.dtype == loaded.tables.parameter_arrays()[name].dtype
    for name, arr in snapshot.encoder.parameter_arrays().items():
        assert np.array_equal(arr, loaded.encoder.parameter_arrays()[name]), name
    assert np.array_equal(
        snapshot.cluster_map.assignment(), loaded.cluster_map.assignment()
    )
    assert loaded.vocab.words == snapshot.vocab.words
    assert loaded.item_ids == snapshot.item_ids
    assert loaded.config == snapshot.config


def test_double_roundtrip_stable(snapshot, tmp_path):
    p1, p2 = tmp_path / "a.hsrc", tmp_path / "b.hsrc"
    save_snapshot(snapshot, p1)
    save_snapshot(load_snapshot(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_magic_rejected(snapshot, tmp_path):
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(path)


def test_unsupported_version_rejected(snapshot, tmp_path):
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="version"):
        load_snapshot(path)


def test_truncated_file_rejected(snapshot, tmp_path):
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(path)


def test_trailing_bytes_rejected(snapshot, tmp_path):
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        load_snapshot(path)


# Byte offset and struct format of each header size field.
_HEADER_FIELDS = {"dim": (8, "<I"), "item_dim": (12, "<I"), "n_items": (24, "<Q"), "n_item_clusters": (32, "<Q")}


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("n_items", 2**40, "truncated"),
        ("n_item_clusters", 2**63, "truncated"),
        ("n_item_clusters", 2**64 - 1, "truncated"),
        ("dim", 0, "at least 1"),
        ("item_dim", 0, "at least 1"),
        ("dim", 2**32 - 1, "truncated"),
    ],
)
def test_header_sizes_are_checked_before_any_read(snapshot, tmp_path, field, value, match):
    # Trusted, these sizes asked for terabytes or overflowed a product.
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    blob = bytearray(path.read_bytes())
    at, fmt = _HEADER_FIELDS[field]
    struct.pack_into(fmt, blob, at, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match=match):
        load_snapshot(path)


def test_every_truncation_and_header_flip_is_a_format_error(snapshot, tmp_path):
    good = tmp_path / "model.hsrc"
    save_snapshot(snapshot, good)
    blob = good.read_bytes()
    _, meta_at = snapshot_offsets(blob)
    cases = [blob[:n] for n in range(len(blob))]
    for at in [*range(SNAPSHOT_HEADER_BYTES), *range(meta_at, meta_at + 8)]:
        flipped = bytearray(blob)
        flipped[at] ^= 0xFF
        cases.append(bytes(flipped))
    path = tmp_path / "bad.hsrc"
    for case in cases:
        path.write_bytes(case)
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)


@pytest.mark.parametrize("last_byte", [b"\xff", b" "])
def test_corrupt_metadata_trailer_rejected(snapshot, tmp_path, last_byte):
    # The trailer's closing brace is the file's last byte: 0xff is never valid
    # UTF-8, and a space leaves the JSON object unclosed.
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    blob = path.read_bytes()
    assert blob.endswith(b"}")
    path.write_bytes(blob[:-1] + last_byte)
    with pytest.raises(SnapshotFormatError, match="UTF-8 JSON"):
        load_snapshot(path)


def test_loaded_snapshot_scores_identically(snapshot, tmp_path):
    from hsrec.softmax import score_all

    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    q = np.random.default_rng(0).standard_normal(snapshot.tables.dim)
    a = score_all(q, snapshot.tables, snapshot.cluster_map, mode="twolevel")
    b = score_all(q, loaded.tables, loaded.cluster_map, mode="twolevel")
    assert np.array_equal(a, b)


def test_loaded_snapshot_trains_like_the_original(tmp_path):
    data, _ = synth_dataset(tmp_path, n_users=40, n_items=10, n_groups=2, seed=7)
    config = TrainConfig(max_steps=2, batch_size=8, eval_every=0, seed=1)
    original = init_model(data, config, dim=6, item_dim=4, clustering="random")
    path = tmp_path / "model.hsrc"
    save_snapshot(original, path)
    loaded = load_snapshot(path)
    train(data, config, snapshot=original)
    train(data, config, snapshot=loaded)
    for part in ("tables", "encoder"):
        want = getattr(original, part).parameter_arrays()
        got = getattr(loaded, part).parameter_arrays()
        for name, arr in want.items():
            assert np.array_equal(arr, got[name]), name
    # Two updates later, the tables are read-only again and the encoder is not.
    for snap in (original, loaded):
        assert not any(arr.flags.writeable for arr in snap.tables.parameter_arrays().values())
        assert all(arr.flags.writeable for arr in snap.encoder.parameter_arrays().values())


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("table", ["text", "enc_out_w"])
def test_non_finite_payload_rejected(snapshot, tmp_path, value, table):
    with snapshot.tables.writing() as arrays:
        arrays.update(snapshot.encoder.parameter_arrays())
        arrays[table].flat[0] = value
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    with pytest.raises(SnapshotFormatError, match="NaN or Inf"):
        load_snapshot(path)


def _metadata(snapshot):
    return {"vocab_words": list(snapshot.vocab.words), "item_ids": list(snapshot.item_ids), "config": snapshot.config}


@pytest.mark.parametrize(
    "corrupt, match",
    [
        ("text_swapped", "its own cluster"),
        ("item_in_text_cluster", "out-of-range"),
        ("item_past_last_cluster", "out-of-range"),
        ("empty_cluster", "is empty"),
    ],
)
def test_corrupt_cluster_assignment_rejected(snapshot, tmp_path, corrupt, match):
    cmap = snapshot.cluster_map
    n_text = cmap.n_text
    assignment = cmap.assignment()
    if corrupt == "text_swapped":
        assignment[[0, 1]] = assignment[[1, 0]]
    elif corrupt == "item_in_text_cluster":
        assignment[n_text] = 0
    elif corrupt == "item_past_last_cluster":
        assignment[n_text] = cmap.n_clusters
    else:
        members = cmap.members_of(n_text)
        assignment[members] = cmap.cluster_of(int(cmap.members_of(n_text + 1)[0]))
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    rewrite_snapshot(path, assignment=assignment)
    with pytest.raises(SnapshotFormatError, match=match):
        load_snapshot(path)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        ("list", "vocab_words and item_ids"),
        ("no_vocab_words", "vocab_words and item_ids"),
        ("no_item_ids", "vocab_words and item_ids"),
        ("item_id_not_string", "vocab_words and item_ids"),
        ("config_not_object", "config object"),
        ("word_missing", "header says"),
        ("item_id_missing", "header says"),
        ("duplicate_word", "duplicate"),
        ("no_oov_word", "OOV"),
        ("no_prompt_word", "inconsistent snapshot"),
    ],
)
def test_corrupt_metadata_rejected(snapshot, tmp_path, corrupt, match):
    meta = _metadata(snapshot)
    words = meta["vocab_words"]
    if corrupt == "list":
        meta = [meta]
    elif corrupt == "no_vocab_words":
        del meta["vocab_words"]
    elif corrupt == "no_item_ids":
        del meta["item_ids"]
    elif corrupt == "item_id_not_string":
        meta["item_ids"][0] = 7
    elif corrupt == "config_not_object":
        meta["config"] = [meta["config"]]
    elif corrupt == "word_missing":
        words.pop()
    elif corrupt == "item_id_missing":
        meta["item_ids"].pop()
    elif corrupt == "duplicate_word":
        words[-1] = words[0]
    elif corrupt == "no_oov_word":
        words[words.index("<oov>")] = "not-a-word"
    else:
        words[words.index("which")] = "not-a-word"
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    rewrite_snapshot(path, metadata=meta)
    with pytest.raises(SnapshotFormatError, match=match):
        load_snapshot(path)


@pytest.mark.parametrize("mode", ["bogus", ["twolevel"], None])
def test_unknown_softmax_mode_rejected(snapshot, tmp_path, mode):
    meta = _metadata(snapshot)
    meta["config"] = {**meta["config"], "softmax_mode": mode}
    path = tmp_path / "model.hsrc"
    save_snapshot(snapshot, path)
    rewrite_snapshot(path, metadata=meta)
    with pytest.raises(SnapshotFormatError, match="softmax_mode"):
        load_snapshot(path)
