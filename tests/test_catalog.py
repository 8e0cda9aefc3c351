import json

import numpy as np
import pytest

from helpers import examples_from_split, ingest_loop
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


def _event(user, item, timestamp, **metadata):
    return json.dumps({"user": user, "item": item, "timestamp": timestamp, **metadata}, ensure_ascii=False)


# Raw corpora, written as bytes, so line endings and raw characters are kept.
INGEST_CORPORA = {
    "blank_and_whitespace_lines": "\n".join(
        ["", _event("u", "a", 1), "   ", "\t", _event("u", "b", 2), "  " + _event("v", "a", 0) + "\t", "", ""]
    ),
    "crlf": "\r\n".join([_event("u", "a", 1, title="x y"), "", _event("u", "b", 2), _event("v", "a", 3)]) + "\r\n",
    "late_metadata": "\n".join(
        [
            _event("u", "a", 1),
            _event("u", "b", 2, title="bee"),
            _event("v", "a", 3, brand="acme"),
            _event("v", "a", 4, brand="other", title="first title", price=2),
            _event("w", "a", 5, title="too late", category="tools", price=7.5),
            _event("w", "b", 6, title="ignored", brand="b-brand"),
        ]
    ),
    "null_fields": "\n".join(
        [
            _event("u", "a", 1, title=None, brand=None, price=None, category=None),
            _event("u", "a", 2, title="now", price=None),
            _event("v", "a", 3, title=None, brand="later"),
        ]
    ),
    "numeric_string_prices": "\n".join(
        [_event("u", "a", 1, price="3.25"), _event("u", "b", 2, price="4"), _event("u", "c", 3, price=" 5e1 ")]
    ),
    "duplicate_events": "\n".join([_event("u", "a", 1, title="t")] * 3 + [_event("v", "a", 1, title="t")] * 2),
    "timestamp_ties": "\n".join(
        [_event("u", "c", 5), _event("u", "a", 5), _event("u", "b", 1), _event("u", "d", 5.0), _event("u", "e", "5")]
    ),
    "u2028_in_string": "\n".join([_event("u", "a", 1, title="one\u2028two\u2029three"), _event("u", "b", 2)]),
    # An integer id is its decimal string: 1 and "1" are one user, 7 and "7" one item.
    "integer_ids": "\n".join(
        [_event(1, 7, 1), _event("1", "7", 2), _event(-2, 10**30, 3), _event("None", "True", 4), _event(0, "x", 5)]
    ),
}


def _random_corpus(seed: int) -> str:
    """Lines mixing every case above: endings, blank lines, absent, null and
    late metadata, string prices, duplicates and ties."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(300):
        roll = rng.random()
        if roll < 0.05:
            lines.append(" " * int(rng.integers(3)))
            continue
        if roll < 0.15 and lines:
            lines.append(lines[int(rng.integers(len(lines)))])
            continue
        metadata = {}
        for name, value in (("title", f"w{rng.integers(9)} x"), ("brand", f"b{rng.integers(3)}"),
                            ("price", float(rng.integers(1, 40)) / 4), ("category", "c")):
            pick = rng.random()
            if pick < 0.2:
                metadata[name] = None
            elif pick < 0.5:
                metadata[name] = str(value) if name == "price" and pick < 0.3 else value
        lines.append(_event(f"u{rng.integers(12)}", f"i{rng.integers(25)}", int(rng.integers(6)), **metadata))
    return "".join(line + ("\r\n" if rng.random() < 0.3 else "\n") for line in lines)


def _ingested(inter):
    """Everything an ``Interactions`` holds, with the records' field types."""
    return (
        inter.users,
        inter.events_by_user,
        inter.n_events,
        [repr(record) for record in inter.catalog.records],
        inter.catalog._index,
    )


@pytest.mark.parametrize("text", [*INGEST_CORPORA.values(), *map(_random_corpus, range(3))],
                         ids=[*INGEST_CORPORA, "random0", "random1", "random2"])
def test_ingest_equals_the_per_line_loop(tmp_path, text):
    path = tmp_path / "d.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _ingested(ingest_jsonl(path)) == _ingested(ingest_loop(path))


def test_ingest_fills_late_metadata_first_seen_wins(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(INGEST_CORPORA["late_metadata"].encode("utf-8"))
    a, b = ingest_jsonl(path).catalog.records
    assert (a.title, a.brand, a.price, a.category) == ("first title", "acme", 2.0, "tools")
    assert (b.title, b.brand, b.price, b.category) == ("bee", "b-brand", None, None)
    assert type(a.price) is float


def test_ingest_takes_an_integer_id_as_its_decimal_string(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(INGEST_CORPORA["integer_ids"].encode("utf-8"))
    inter = ingest_jsonl(path)
    assert inter.users == ["1", "-2", "None", "0"]
    assert inter.catalog.item_ids() == ["7", str(10**30), "True", "x"]
    assert inter.events_by_user["1"] == [0, 0]


def test_ingest_keeps_a_raw_line_separator_inside_a_string(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(INGEST_CORPORA["u2028_in_string"].encode("utf-8"))
    inter = ingest_jsonl(path)
    assert inter.n_events == 2 and inter.catalog[0].title == "one\u2028two\u2029three"


GOOD_LINE = _event("u", "a", 1)

# Each second line's error; ``ingest_loop`` must raise the same message.
BAD_LINES = {
    "trailing_garbage": (GOOD_LINE + " x", "malformed JSON (Extra data)"),
    "second_value": (GOOD_LINE + GOOD_LINE, "malformed JSON (Extra data)"),
    "bom": ("\ufeff" + GOOD_LINE, "malformed JSON (Unexpected UTF-8 BOM"),
    "array": ("[" + GOOD_LINE + "]", "expected a JSON object"),
    "scalar": ("3", "expected a JSON object"),
    "unterminated": ('{"user": "u", "item": "a"', "malformed JSON"),
    "missing_field": ('{"user": "u", "timestamp": 1}', "missing required field 'item'"),
    "bad_timestamp": (_event("u", "a", "soon"), "timestamp is not a number"),
    "null_timestamp": (_event("u", "a", None), "timestamp is not a number"),
    "bad_price": (_event("u", "a", 1, price="cheap"), "price is not a number"),
    "list_price": (_event("u", "a", 1, price=[1]), "price is not a number"),
    # Valid joined with "]\n,[" as one array of two one-object rows, but not line by line.
    "crafted_pair": ('{"x":1}],[{"y":[[1\n2]]}', "malformed JSON (Extra data)"),
    "too_many_digits": (GOOD_LINE.replace("1}", "1" * 5000 + "}"), "malformed JSON (Exceeds the limit"),
    "too_deep": (GOOD_LINE.replace("1}", '1, "title": ' + "[" * 100_000 + "]" * 100_000 + "}"), "malformed JSON (maximum"),
    "nan_timestamp": (GOOD_LINE.replace("1}", "NaN}"), "timestamp is not a finite number"),
    "overflowing_timestamp": (GOOD_LINE.replace("1}", "1" + "0" * 400 + "}"), "timestamp is not a finite number"),
    "infinite_price": (GOOD_LINE.replace("1}", '1, "price": -Infinity}'), "price is not a finite number"),
    "null_user": (_event(None, "a", 1), "user must be a string or an integer, got null"),
    "boolean_user": (_event(True, "a", 1), "user must be a string or an integer, got boolean"),
    "float_item": (_event("u", 1.0, 1), "item must be a string or an integer, got float"),
    "array_item": (_event("u", ["a"], 1), "item must be a string or an integer, got array"),
    "object_user": (_event({"id": "u"}, "a", 1), "user must be a string or an integer, got object"),
    "null_item_and_timestamp": (_event("u", None, None), "item must be a string or an integer, got null"),
}


@pytest.mark.parametrize("case", BAD_LINES)
def test_ingest_errors_equal_the_per_line_loop(tmp_path, case):
    bad, message = BAD_LINES[case]
    path = tmp_path / "d.jsonl"
    path.write_bytes((GOOD_LINE + "\n" + bad + "\n" + GOOD_LINE + "\n").encode("utf-8"))
    with pytest.raises(DataError) as got:
        ingest_jsonl(path)
    with pytest.raises(DataError) as want:
        ingest_loop(path)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"line 2: {message}")


@pytest.mark.parametrize(
    "field, value",
    [("timestamp", "NaN"), ("timestamp", "Infinity"), ("timestamp", "-Infinity"), ("timestamp", '"nan"'),
     ("timestamp", "1e400"), ("price", "NaN"), ("price", "Infinity"), ("price", '"-inf"')],
)
def test_non_finite_timestamp_or_price_is_a_data_error(tmp_path, field, value):
    # Hand-built: at t = 3, NaN, 1, 2 the NaN left the events unsorted, and
    # one NaN price made every price-bucket edge NaN.
    lines = [_event("u", item, t, price=1.5) for item, t in zip("abcd", (3, 0, 1, 2))]
    lines[1] = lines[1].replace('"timestamp": 0' if field == "timestamp" else '"price": 1.5', f'"{field}": {value}')
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^line 2: {field} is not a finite number$"):
        ingest_jsonl(path)
