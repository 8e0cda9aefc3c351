import json

import numpy as np
import pytest

from helpers import examples_from_split
from hsrec.catalog import (
    PriceBuckets,
    build_dataset,
    ingest_jsonl,
    split_leave_one_out,
)
from hsrec.exceptions import DataError
from hsrec.tokens import Vocabulary


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def test_single_user_sorted_by_timestamp(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [
            {"user": "u", "item": "b", "timestamp": 20},
            {"user": "u", "item": "a", "timestamp": 10},
            {"user": "u", "item": "c", "timestamp": 30},
        ],
    )
    inter = ingest_jsonl(path)
    events = inter.events_by_user["u"]
    assert [inter.catalog[i].item_id for i in events] == ["a", "b", "c"]
    assert len(events) == 3


def test_timestamp_ties_broken_by_input_order(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [
            {"user": "v", "item": "y", "timestamp": 0},  # y takes the lower item index
            {"user": "u", "item": "x", "timestamp": 5},
            {"user": "u", "item": "y", "timestamp": 5},
        ],
    )
    inter = ingest_jsonl(path)
    ids = [inter.catalog[i].item_id for i in inter.events_by_user["u"]]
    assert ids == ["x", "y"]


def test_duplicate_events_retained(tmp_path):
    # Hand count: two identical lines are two events, one catalog item.
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [
            {"user": "u", "item": "a", "timestamp": 1},
            {"user": "u", "item": "a", "timestamp": 1},
        ],
    )
    inter = ingest_jsonl(path)
    assert inter.n_events == 2
    assert len(inter.catalog) == 1
    stats = inter.stats()
    assert stats.items_per_user == pytest.approx(2.0, rel=1e-9)
    assert stats.purchases_per_item == pytest.approx(2.0, rel=1e-9)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"user": "u", "item": "a", "timestamp": 1}\nnot json\n')
    with pytest.raises(DataError, match="line 2"):
        ingest_jsonl(path)


def test_missing_field_named(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [{"user": "u", "item": "a"}])
    with pytest.raises(DataError, match="timestamp"):
        ingest_jsonl(path)


def test_office_scale_corpus_counts(tmp_path):
    # Same user/item counts as the Office corpus; every user gets 3 events
    # walking the item space round-robin so all items are touched.
    n_users, n_items = 44736, 27482
    path = tmp_path / "office.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        k = 0
        for u in range(n_users):
            for t in range(3):
                fh.write(
                    '{"user": "u%d", "item": "i%d", "timestamp": %d}\n' % (u, k % n_items, t)
                )
                k += 1
    inter = ingest_jsonl(path)
    stats = inter.stats()
    assert stats.n_users == 44736
    assert stats.n_items == 27482
    assert stats.items_per_user == pytest.approx(3.0, rel=1e-9)


def test_split_four_events(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [{"user": "u", "item": i, "timestamp": t} for t, i in enumerate("abcd")],
    )
    inter = ingest_jsonl(path)
    split = split_leave_one_out(inter)
    ids = lambda events: [inter.catalog[i].item_id for i in events]
    assert ids(split.train_events["u"]) == ["a", "b"]
    assert inter.catalog[split.val_event["u"]].item_id == "c"
    assert inter.catalog[split.test_event["u"]].item_id == "d"


def test_split_three_events_boundary(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [{"user": "u", "item": i, "timestamp": t} for t, i in enumerate("abc")],
    )
    split = split_leave_one_out(ingest_jsonl(path))
    assert len(split.train_events["u"]) == 1
    assert split.n_dropped_users == 0


def test_split_drops_short_users(tmp_path):
    rows = [{"user": "long", "item": i, "timestamp": t} for t, i in enumerate("abc")]
    rows += [{"user": "short", "item": "a", "timestamp": 0}, {"user": "short", "item": "b", "timestamp": 1}]
    split = split_leave_one_out(ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows)))
    assert split.n_dropped_users == 1
    assert "short" not in split.train_events


def test_split_disjoint_and_covering(tmp_path):
    rng = np.random.default_rng(7)
    rows = []
    for u in range(30):
        for t in range(int(rng.integers(1, 9))):
            rows.append({"user": f"u{u}", "item": f"i{rng.integers(40)}", "timestamp": t})
    inter = ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows))
    split = split_leave_one_out(inter)
    retained_events = sum(len(inter.events_by_user[u]) for u in split.users)
    n_train, n_val, n_test = split.counts()
    assert n_train + n_val + n_test == retained_events


def test_examples_respect_chronology(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [{"user": "u", "item": i, "timestamp": t} for t, i in enumerate("abcde")],
    )
    data = build_dataset(ingest_jsonl(path))
    train, val, test = data.train_examples, data.val_examples, data.test_examples
    assert (train, val, test) == examples_from_split(data.split)
    # Train region is [a, b, c]; prefix examples only.
    assert [(len(e.history), e.target) for e in train] == [(1, 1), (2, 2)]
    assert val[0].history == (0, 1, 2)
    assert test[0].history == (0, 1, 2, 3)


def test_empty_corpus_errors(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        ingest_jsonl(path)


def test_vocab_most_frequent_first_with_cap():
    texts = ["red red red blue", "blue red", "green"]
    vocab = Vocabulary.build(texts, max_size=len(Vocabulary.build([], 40).words) + 2)
    tail = vocab.words[-2:]
    assert tail == ["red", "blue"]  # green falls off the cap
    assert vocab.lookup("green") == vocab.oov_id
    assert vocab.lookup("red") != vocab.oov_id


def test_price_buckets_are_deciles():
    class R:
        def __init__(self, price):
            self.price = price

    class C:
        records = [R(float(p)) for p in range(1, 101)]

    buckets = PriceBuckets.from_catalog(C())
    assert buckets.bucket(1.0) == 0
    assert buckets.bucket(100.0) == 9
    assert buckets.bucket(55.0) in (4, 5)


def test_build_dataset_wires_everything(tmp_path):
    rows = []
    for u in range(5):
        for t in range(4):
            rows.append(
                {
                    "user": f"u{u}",
                    "item": f"i{(u + t) % 6}",
                    "timestamp": t,
                    "title": f"thing number {t}",
                    "price": 3.5 + t,
                }
            )
    data = build_dataset(ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows)), vocab_size=64)
    assert data.n_items == 6
    assert data.space.n_text == len(data.vocab)
    assert len(data.val_examples) == len(data.split.users)
    assert data.train_item_counts.sum() == sum(len(v) for v in data.split.train_events.values())
    want = np.zeros(data.n_items, dtype=np.int64)
    for items in data.split.train_events.values():
        for item in items:
            want[item] += 1
    assert data.train_item_counts.dtype == np.int64 and np.array_equal(data.train_item_counts, want)
    assert data.price_buckets is not None
