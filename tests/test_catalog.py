import json
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import examples_from_split, ingest_loop, split_runs, user_runs
from hsrec.catalog import (
    Catalog,
    Interactions,
    ItemRecord,
    _price_edges,
    build_dataset,
    ingest_jsonl,
)
from hsrec.exceptions import DataError
from hsrec.tokens import Vocabulary


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def test_single_user_sorted_by_timestamp(tmp_path):
    rows = [{"user": "u", "item": item, "timestamp": t} for item, t in (("b", 20), ("a", 10), ("c", 30))]
    inter = ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows))
    assert [inter.catalog[i].item_id for i in inter.events] == ["a", "b", "c"]
    assert inter.offsets.tolist() == [0, 3]


def test_timestamp_ties_broken_by_input_order(tmp_path):
    # v's y comes first, so y takes the lower item index.
    rows = [{"user": user, "item": item, "timestamp": t} for user, item, t in (("v", "y", 0), ("u", "x", 5), ("u", "y", 5))]
    inter = ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows))
    assert inter.users == ["v", "u"] and inter.offsets.tolist() == [0, 1, 3]
    assert [inter.catalog[i].item_id for i in inter.events[1:]] == ["x", "y"]


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


def _split_of(data):
    """Each kept user's (train run, validation item, test item), read from
    the dataset's arrays."""
    bounds = data.offsets.tolist()
    events = data.events.tolist()
    return {user: (events[lo : hi - 2], events[hi - 2], events[hi - 1])
            for user, lo, hi in zip(data.split.users, bounds, bounds[1:])}


def test_split_four_events(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [{"user": "u", "item": i, "timestamp": t} for t, i in enumerate("abcd")],
    )
    data = build_dataset(ingest_jsonl(path))
    ids = lambda events: [data.catalog[i].item_id for i in events]
    (train, val, test), = _split_of(data).values()
    assert ids(train) == ["a", "b"]
    assert data.catalog[val].item_id == "c"
    assert data.catalog[test].item_id == "d"
    assert data.split.counts() == (2, 1, 1)


def test_split_three_events_boundary(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [{"user": "u", "item": i, "timestamp": t} for t, i in enumerate("abc")],
    )
    data = build_dataset(ingest_jsonl(path))
    assert len(_split_of(data)["u"][0]) == 1
    assert data.split.n_dropped_users == 0
    assert data.train_examples == [] and len(data.val_examples) == 1


def test_split_drops_short_users(tmp_path):
    rows = [{"user": "long", "item": i, "timestamp": t} for t, i in enumerate("abc")]
    rows += [{"user": "short", "item": "a", "timestamp": 0}, {"user": "short", "item": "b", "timestamp": 1}]
    data = build_dataset(ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows)))
    assert data.split.n_dropped_users == 1
    assert "short" not in data.split.users and list(_split_of(data)) == ["long"]
    assert data.events.tolist() == [0, 1, 2] and data.offsets.tolist() == [0, 3]


def test_split_disjoint_and_covering(tmp_path):
    rng = np.random.default_rng(7)
    rows = []
    for u in range(30):
        for t in range(int(rng.integers(1, 9))):
            rows.append({"user": f"u{u}", "item": f"i{rng.integers(40)}", "timestamp": t})
    inter = ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows))
    data = build_dataset(inter)
    train, val, test, dropped = split_runs(inter)
    assert _split_of(data) == {user: (train[user], val[user], test[user]) for user in train}
    assert data.split.n_dropped_users == dropped > 0
    retained_events = sum(len(run) for run in user_runs(inter).values() if len(run) >= 3)
    n_train, n_val, n_test = data.split.counts()
    assert n_train + n_val + n_test == retained_events == data.events.size
    assert n_train == sum(map(len, train.values())) and n_val == n_test == len(train)


def test_examples_respect_chronology(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [{"user": "u", "item": i, "timestamp": t} for t, i in enumerate("abcde")],
    )
    inter = ingest_jsonl(path)
    data = build_dataset(inter)
    train, val, test = data.train_examples, data.val_examples, data.test_examples
    assert (train, val, test) == examples_from_split(inter)
    # Train region is [a, b, c]; prefix examples only.
    assert [(len(e.history), e.target) for e in train] == [(1, 1), (2, 2)]
    assert val[0].history == (0, 1, 2)
    assert test[0].history == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "offsets, message",
    [([0], "empty corpus"), ([0, 2, 3, 5], "no user has enough interactions to split")],
)
def test_build_dataset_rejects_a_corpus_with_nothing_to_split(offsets, message):
    catalog = Catalog([ItemRecord("a")], {"a": 0})
    events = np.zeros(offsets[-1], dtype=np.int64)
    users = [f"u{u}" for u in range(len(offsets) - 1)]
    inter = Interactions(catalog, users, events, np.asarray(offsets, dtype=np.int64))
    with pytest.raises(DataError, match=f"^{message}$"):
        build_dataset(inter)


def test_examples_read_events_whatever_the_id_dict_order():
    # The id dict lists the items in reverse: the examples must still hold
    # the events' own indices, as the training slices do.
    catalog = Catalog([ItemRecord("a"), ItemRecord("b"), ItemRecord("c")], {"c": 2, "b": 1, "a": 0})
    inter = Interactions(catalog, ["u"], np.array([0, 0, 1, 2, 1]), np.array([0, 5]))
    data = build_dataset(inter)
    assert data.events.tolist() == [0, 0, 1, 2, 1]
    assert (data.test_examples[0].history, data.test_examples[0].target) == ((0, 0, 1, 2), 1)
    assert (data.val_examples[0].history, data.val_examples[0].target) == ((0, 0, 1), 2)
    assert [(e.history, e.target) for e in data.train_examples] == [((0,), 0), ((0, 0), 1)]


def test_example_lists_share_the_catalogs_index_ints(tmp_path):
    # 600 one-event users, dropped by the split, make items 0 to 599; the
    # kept users hold only items 300 to 599, beyond the interpreter's
    # small-int cache.
    rng = np.random.default_rng(3)
    rows = [{"user": f"once{i}", "item": f"i{i}", "timestamp": 0} for i in range(600)]
    rows += [{"user": f"u{u}", "item": f"i{i}", "timestamp": t}
             for u in range(400) for t, i in enumerate(rng.integers(300, 600, size=int(rng.integers(3, 7))))]
    data = build_dataset(ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows)))
    shared = [data.catalog.index_of(item_id) for item_id in data.catalog.item_ids()]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lists = (data.train_examples, data.val_examples, data.test_examples)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    examples = [ex for examples in lists for ex in examples]
    assert all(ex.target is shared[ex.target] and all(i is shared[i] for i in ex.history) for ex in examples)
    # What the lists hold: the examples, their history tuples and the
    # per-user runs the tuples are sliced from.  An int of each event's own
    # would add 28 bytes per event.
    containers = sum(map(sys.getsizeof, (*lists, *examples, *(ex.history for ex in examples))))
    containers += sum(sys.getsizeof(run) + sys.getsizeof((user, run)) for user, run in data._runs)
    containers += sys.getsizeof(data._runs)
    assert grown < containers + 14 * data.events.size, (grown, containers, data.events.size)


def test_empty_corpus_errors(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        ingest_jsonl(path)


def test_vocab_most_frequent_first_with_cap():
    words = "red red red blue blue red green".split()
    vocab = Vocabulary.from_words(words, max_size=len(Vocabulary.from_words([], 40).words) + 2)
    tail = vocab.words[-2:]
    assert tail == ["red", "blue"]  # green falls off the cap
    assert vocab.lookup("green") == vocab.oov_id
    assert vocab.lookup("red") != vocab.oov_id


def test_price_buckets_are_deciles(tmp_path):
    # Prices 0 to 10, twice each: the inner decile edges are the prices 1 to
    # 9, and a price's bucket is the number of edges at or below it.
    rows = [{"user": f"u{i % 2}", "item": f"i{i}", "timestamp": i, "price": i // 2} for i in range(22)]
    data = build_dataset(ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows)))
    assert data.price_edges.tolist() == list(range(1, 10))
    tokens, seg_ptr = data.field_tokens.tokens, data.field_tokens.seg_ptr  # one price segment per item
    assert tokens[seg_ptr[:-1] + 1].tolist() == [data.vocab.price_bucket_ids[min(i // 2, 9)] for i in range(22)]


def test_price_edges_of_prices_across_the_float_range_are_finite():
    # Before, the deciles' differences overflowed: a RuntimeWarning, and
    # without warnings as errors, infinite and NaN edges.
    class C:
        records = [ItemRecord(f"i{n}", price=(-1) ** n * 1.7e308) for n in range(20)]

    edges = _price_edges(C())
    assert np.isfinite(edges).all() and np.all(np.diff(edges) >= 0)
    assert np.array_equal(edges, 2.0 * np.quantile([r.price / 2.0 for r in C.records], np.linspace(0, 1, 11)[1:-1]))


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
    inter = ingest_jsonl(write_jsonl(tmp_path / "d.jsonl", rows))
    data = build_dataset(inter, vocab_size=64)
    assert data.n_items == 6
    assert data.space.n_text == len(data.vocab)
    assert len(data.val_examples) == len(data.split.users)
    train = split_runs(inter)[0]
    assert data.train_item_counts.sum() == sum(len(v) for v in train.values())
    want = np.zeros(data.n_items, dtype=np.int64)
    for items in train.values():
        for item in items:
            want[item] += 1
    assert data.train_item_counts.dtype == np.int64 and np.array_equal(data.train_item_counts, want)
    assert data.price_edges is not None


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
    "interleaved_users": "\n".join(_event(f"u{n % 3}", f"i{n % 5}", n // 2) for n in range(12)),
    # Ties within each user, across lines that interleave the users.
    "interleaved_ties": "\n".join(_event(f"u{n % 2}", f"i{n}", (7 - n) // 4) for n in range(8)),
    # -0.0 and 0.0 are one time, as are 1 and 1.0: each pair keeps its input order.
    "signed_zero_and_integral_floats": "\n".join(
        [_event("u", "a", 0.0), _event("u", "b", -0.0), _event("u", "c", 1.0), _event("u", "d", 1),
         _event("u", "e", -0.0), _event("u", "f", "1")]
    ),
    "descending_time": "\n".join([_event("v", "x", 9)] + [_event("u", f"i{n}", 10 - n) for n in range(6)]),
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
        inter.events.dtype.str,
        inter.events.tolist(),
        inter.offsets.dtype.str,
        inter.offsets.tolist(),
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


@pytest.mark.parametrize(
    "case, runs",
    [
        ("interleaved_users", {"u0": ["i0", "i3", "i1", "i4"], "u1": ["i1", "i4", "i2", "i0"],
                               "u2": ["i2", "i0", "i3", "i1"]}),
        ("interleaved_ties", {"u0": ["i4", "i6", "i0", "i2"], "u1": ["i5", "i7", "i1", "i3"]}),
        ("signed_zero_and_integral_floats", {"u": ["a", "b", "e", "c", "d", "f"]}),
        ("descending_time", {"v": ["x"], "u": [f"i{n}" for n in range(5, -1, -1)]}),
    ],
)
def test_ingest_orders_each_users_events_by_time_then_input(tmp_path, case, runs):
    path = tmp_path / "d.jsonl"
    path.write_bytes(INGEST_CORPORA[case].encode("utf-8"))
    inter = ingest_jsonl(path)
    ids = inter.catalog.item_ids()
    assert {user: [ids[i] for i in run] for user, run in user_runs(inter).items()} == runs
    assert inter.users == list(runs)


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
    assert user_runs(inter)["1"] == [0, 0]


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
    # Before, float() read these as 1.0 and 0.0.
    "boolean_timestamp": (_event("u", "a", True), "timestamp is not a number"),
    "boolean_price": (_event("u", "a", 1, price=False), "price is not a number"),
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
    # Before, str() made vocabulary words of these: "{'x':" and "1}", "['q'," and "none]", "true".
    "object_title": (_event("u", "b", 1, title={"x": 1}), "title must be a string or null, got object"),
    "array_brand": (_event("u", "a", 1, brand=["q", None]), "brand must be a string or null, got array"),
    "boolean_category": (_event("u", "b", 1, category=True), "category must be a string or null, got boolean"),
    "integer_title": (_event("u", "a", 1, title=7), "title must be a string or null, got integer"),
    "float_brand": (_event("u", "b", 1, title="ok", brand=2.5), "brand must be a string or null, got float"),
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
