import csv
import json
import re

import numpy as np
import pytest

from helpers import param_arrays, rewrite_snapshot, seal_snapshot
from hsrec.cli import main
from hsrec.snapshot import load_snapshot, save_snapshot


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(
        ["synth", "--users", 60, "--items", 16, "--groups", 4, "--seed", 3, "--out-dir", out]
    )
    assert code == 0
    return out / "interactions.jsonl"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_synth_outputs(corpus):
    assert corpus.exists()
    assert corpus.with_name("groups.csv").exists()


def test_synth_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["synth", "--users", 20, "--items", 8, "--groups", 4, "--seed", 5, "--out-dir", a])
    run(["synth", "--users", 20, "--items", 8, "--groups", 4, "--seed", 5, "--out-dir", b])
    assert (a / "interactions.jsonl").read_bytes() == (b / "interactions.jsonl").read_bytes()
    assert (a / "groups.csv").read_bytes() == (b / "groups.csv").read_bytes()


def test_ingest_stats(corpus, tmp_path):
    code = run(["ingest", "--data", corpus, "--out-dir", tmp_path])
    assert code == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["n_users"] == 60
    assert stats["n_items"] == 16


def test_ingest_accepts_crlf_blank_lines_and_late_metadata(tmp_path):
    lines = ['{"user": "u", "item": "a", "timestamp": 1}', "", "  ", '{"user": "u", "item": "b", "timestamp": 2}',
             '{"user": "v", "item": "a", "timestamp": 3, "title": "late", "price": "2.5"}']
    path = tmp_path / "d.jsonl"
    path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
    assert run(["ingest", "--data", path, "--out-dir", tmp_path / "out"]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert (stats["n_users"], stats["n_items"]) == (2, 2)


@pytest.mark.parametrize(
    "value, message",
    [("NaN", "timestamp is not a finite number"), ("Infinity", "timestamp is not a finite number"),
     ("-Infinity", "timestamp is not a finite number"), ("1" * 5000, "malformed JSON (Exceeds the limit"),
     ("true", "timestamp is not a number")],
)
def test_ingest_rejects_a_bad_timestamp_as_data_and_makes_no_out_dir(tmp_path, capsys, value, message):
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(f'{{"user": "u", "item": "i{t}", "timestamp": {t}}}' for t in ("3", value, "1", "2")))
    capsys.readouterr()
    assert run(["ingest", "--data", path, "--out-dir", tmp_path / "out"]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    assert trailer["error"]["message"].startswith(f"line 2: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, message",
    [('{"user": null, "item": "a", "timestamp": 2}', "user must be a string or an integer, got null"),
     ('{"user": true, "item": "a", "timestamp": 2}', "user must be a string or an integer, got boolean"),
     ('{"user": "u", "item": 1.0, "timestamp": 2}', "item must be a string or an integer, got float")],
    ids=["null_user", "boolean_user", "float_item"],
)
def test_ingest_rejects_a_non_string_id_as_data_and_makes_no_out_dir(tmp_path, capsys, line, message):
    # Before, null was the user "None" and merged with the literal one on line 1.
    path = tmp_path / "d.jsonl"
    path.write_text('{"user": "None", "item": "1", "timestamp": 1}\n' + line + "\n")
    capsys.readouterr()
    assert run(["ingest", "--data", path, "--out-dir", tmp_path / "out"]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    assert trailer["error"]["message"] == f"line 2: {message}"
    assert not (tmp_path / "out").exists()


def test_cluster_command(corpus, tmp_path):
    for clusters in ("kmeans", "frequency", "random"):
        assert run(["cluster", "--data", corpus, "--clusters", clusters, "--out-dir", tmp_path / clusters]) == 0
        rows = read_csv(tmp_path / clusters / "clusters.csv")
        assert rows and {"ordinal", "cluster"} <= set(rows[0]), clusters


def test_train_eval_bench_pipeline(corpus, tmp_path):
    train_dir = tmp_path / "train"
    code = run(
        [
            "train", "--data", corpus, "--steps", 30, "--batch-size", 8, "--dim", 8,
            "--item-dim", 6, "--eval-every", 10, "--seed", 0, "--out-dir", train_dir,
        ]
    )
    assert code == 0
    snapshot = train_dir / "snapshot.hsrc"
    assert snapshot.exists()
    metrics = read_csv(train_dir / "metrics.csv")
    assert metrics and {"step", "loss", "val_recall@10"} <= set(metrics[0])

    eval_dir = tmp_path / "eval"
    code = run(
        [
            "eval", "--data", corpus, "--snapshot", snapshot, "--engine", "all",
            "--out-dir", eval_dir,
        ]
    )
    assert code == 0
    rows = read_csv(eval_dir / "results.csv")
    engines = {row["engine"] for row in rows}
    assert engines == {"full", "structure", "ann"}
    by_engine = {row["engine"]: row for row in rows}
    # Exactness: the structure engine row equals the enumeration row.
    assert by_engine["structure"] == {**by_engine["full"], "engine": "structure"}

    bench_dir = tmp_path / "bench"
    code = run(
        [
            "bench", "--data", corpus, "--snapshot", snapshot, "--queries", 10,
            "--out-dir", bench_dir,
        ]
    )
    assert code == 0
    bench_rows = read_csv(bench_dir / "bench.csv")
    assert {row["engine"] for row in bench_rows} == {"exact", "structure", "ann"}
    per_query = json.loads((bench_dir / "queries.json").read_text())
    assert len(per_query) == 10
    assert {"topk", "clusters_expanded", "tokens_scored"} <= set(per_query[0])
    assert {"rank", "kind", "score"} <= set(per_query[0]["topk"][0])


def test_train_zero_steps_snapshot_equals_init(corpus, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(
            [
                "train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6,
                "--seed", 4, "--out-dir", out,
            ]
        )
        assert code == 0
    assert (a / "snapshot.hsrc").read_bytes() == (b / "snapshot.hsrc").read_bytes()


def test_eval_reproducible_byte_identical(corpus, tmp_path):
    train_dir = tmp_path / "train"
    run(
        [
            "train", "--data", corpus, "--steps", 10, "--batch-size", 8, "--dim", 8,
            "--item-dim", 6, "--eval-every", 0, "--seed", 1, "--out-dir", train_dir,
        ]
    )
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        run(
            [
                "eval", "--data", corpus, "--snapshot", train_dir / "snapshot.hsrc",
                "--engine", "structure", "--out-dir", out,
            ]
        )
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_eval_rejects_corrupt_snapshot_trailers(corpus, tmp_path, capsys):
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    good = tmp_path / "snapshot.hsrc"
    blob = good.read_bytes()
    trailing, bad_utf8, bad_sum = tmp_path / "t.hsrc", tmp_path / "u.hsrc", tmp_path / "c.hsrc"
    trailing.write_bytes(blob + b"\x00")
    bad_utf8.write_bytes(seal_snapshot(blob[:-5] + b"\xff"))  # the metadata's last byte
    bad_sum.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0x01]))
    for path, message in ((trailing, "trailing"), (bad_utf8, "UTF-8"), (bad_sum, "checksum")):
        capsys.readouterr()
        assert run(["eval", "--data", corpus, "--snapshot", path, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        trailer = json.loads(err.strip().splitlines()[-1])
        assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
        assert message in trailer["error"]["message"]
    # The eval thread pool is gone, and with it the flag.
    assert run(["eval", "--data", corpus, "--snapshot", good, "--threads", 2]) == 1


def test_eval_rejects_snapshot_header_sizes_the_file_cannot_hold(corpus, tmp_path, capsys):
    import struct

    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    path = tmp_path / "snapshot.hsrc"
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 24, 2**40)  # n_items
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run(["eval", "--data", corpus, "--snapshot", path, "--out-dir", tmp_path / "e"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2


def test_bench_rejects_corrupt_cluster_assignment(corpus, tmp_path, capsys):
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    path = tmp_path / "snapshot.hsrc"
    assignment = load_snapshot(path).cluster_map.assignment()
    assignment[-1] = assignment.max() + 1  # no such item cluster
    rewrite_snapshot(path, assignment=assignment)
    capsys.readouterr()
    assert run(["bench", "--data", corpus, "--snapshot", path, "--queries", 2, "--out-dir", tmp_path / "b"]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    assert "out-of-range" in trailer["error"]["message"]


def test_eval_rejects_unknown_softmax_mode(corpus, tmp_path, capsys):
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    path = tmp_path / "snapshot.hsrc"
    snapshot = load_snapshot(path)
    snapshot.config["softmax_mode"] = "bogus"
    save_snapshot(snapshot, path)
    capsys.readouterr()
    assert run(["eval", "--data", corpus, "--snapshot", path, "--engine", "full", "--out-dir", tmp_path / "e"]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    assert "softmax_mode" in trailer["error"]["message"]


# Per case: the train flags that override the defaults below, and the eval engine.
SAME_SEED_RUNS = {
    "twolevel": (["--mode", "twolevel"], "all"),
    "full": (["--mode", "full"], "full"),
    "id_only": (["--id-only-fraction", 1], "all"),
    "all_metadata": (["--id-only-fraction", 0, "--metadata-keep-prob", 1, "--eval-every", 2], "all"),
    "no_metadata": (["--dim", 8, "--item-dim", 8, "--eval-every", 1], "all"),  # on a corpus without metadata
}


@pytest.mark.parametrize("case", list(SAME_SEED_RUNS))
def test_train_same_seed_snapshots_byte_identical(corpus, tmp_path, case):
    # 16 items in 2 clusters at dim 4: two-level steps lift the item gradient
    # of every target cluster with at least 4 members.
    flags, engine = SAME_SEED_RUNS[case]
    if case == "no_metadata":
        corpus = tmp_path / "bare.jsonl"
        corpus.write_text("".join(json.dumps({"user": f"u{u}", "item": f"i{u * t % 7}", "timestamp": t}) + "\n"
                                  for u in range(1, 6) for t in range(1, 5)), encoding="utf-8")
    outs = tmp_path / "a", tmp_path / "b"
    for out in outs:
        code = run(
            [
                "train", "--data", corpus, "--steps", 10, "--batch-size", 8, "--eval-every", 0, "--dim", 4,
                "--item-dim", 6, "--n-clusters", 2, "--seed", 4, *flags, "--out-dir", out,
            ]
        )
        assert code == 0
        assert run(["eval", "--data", corpus, "--snapshot", out / "snapshot.hsrc", "--engine", engine,
                    "--out-dir", out]) == 0
    a, b = ({path.name: path.read_bytes() for path in out.iterdir()} for out in outs)
    assert a == b and {"snapshot.hsrc", "metrics.csv", "metrics.json", "results.csv"} == set(a)


def rewrite_corpus(corpus, out_dir, transform):
    """``transform`` of the corpus's parsed lines, written to ``out_dir`` under
    the corpus's file name (the dataset name in eval's reports)."""
    records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    out_dir.mkdir()
    path = out_dir / corpus.name
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in transform(records)), encoding="utf-8")
    return path


def pipeline_artifacts(data, out_dir, commands=("ingest", "train", "eval")):
    """Bytes of every file ``ingest``, ``train`` and ``eval --engine all
    --exclude-history 1`` write for ``data``, by file name."""
    argvs = {
        "ingest": ["ingest", "--data", data],
        "train": ["train", "--data", data, "--steps", 20, "--batch-size", 8, "--dim", 8, "--item-dim", 6,
                  "--eval-every", 10, "--seed", 2],
        "eval": ["eval", "--data", data, "--snapshot", out_dir / "snapshot.hsrc", "--engine", "all",
                 "--exclude-history", 1],
    }
    for command in commands:
        assert run(argvs[command] + ["--out-dir", out_dir]) == 0, command
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.fixture(scope="module")
def corpus_artifacts(corpus, tmp_path_factory):
    return pipeline_artifacts(corpus, tmp_path_factory.mktemp("artifacts"))


@pytest.mark.parametrize("field", ["user", "item"])
def test_renaming_ids_changes_no_artifact(corpus, corpus_artifacts, tmp_path, field):
    # An injective renaming that does not keep the ids' order: indices follow
    # first appearance, so no artifact may change but the snapshot's id strings.
    ids = sorted({json.loads(line)[field] for line in corpus.read_text(encoding="utf-8").splitlines()})
    names = np.random.default_rng(0).permutation(len(ids))
    renamed = {old: f"renamed-{n}" for old, n in zip(ids, names.tolist())}

    def rename(records):
        return [{**r, field: renamed[r[field]]} for r in records]

    got = pipeline_artifacts(rewrite_corpus(corpus, tmp_path / "renamed", rename), tmp_path / "out")
    assert set(got) == set(corpus_artifacts) >= {"stats.json", "snapshot.hsrc", "metrics.csv", "metrics.json", "results.csv"}
    if field == "user":
        assert got == corpus_artifacts
        return
    assert {n: b for n, b in got.items() if n != "snapshot.hsrc"} == {
        n: b for n, b in corpus_artifacts.items() if n != "snapshot.hsrc"
    }
    (tmp_path / "want.hsrc").write_bytes(corpus_artifacts["snapshot.hsrc"])
    want = load_snapshot(tmp_path / "want.hsrc")
    snapshot = load_snapshot(tmp_path / "out" / "snapshot.hsrc")
    assert snapshot.item_ids == [renamed[i] for i in want.item_ids]
    arrays, want_arrays = param_arrays(snapshot.tables, snapshot.encoder), param_arrays(want.tables, want.encoder)
    assert arrays.keys() == want_arrays.keys()
    for name, arr in arrays.items():
        assert arr.dtype == want_arrays[name].dtype and arr.tobytes() == want_arrays[name].tobytes(), name


def test_any_line_order_keeps_ingest_stats(corpus, corpus_artifacts, tmp_path):
    def shuffle(records):
        return [records[i] for i in np.random.default_rng(1).permutation(len(records))]

    got = pipeline_artifacts(rewrite_corpus(corpus, tmp_path / "shuffled", shuffle), tmp_path / "out", ["ingest"])
    assert got["stats.json"] == corpus_artifacts["stats.json"]


def test_line_order_that_keeps_first_appearances_changes_no_artifact(corpus, corpus_artifacts, tmp_path):
    # First appearance fixes the item indices and the user order, and the
    # synth corpus's timestamps are distinct per user, which fixes each user's
    # run.  So each user's and each item's first line stays first, in input
    # order, and every other line may go anywhere after them.
    kept = []

    def shuffle(records):
        users, items, rest = set(), set(), []
        for r in records:
            (kept if r["user"] not in users or r["item"] not in items else rest).append(r)
            users.add(r["user"])
            items.add(r["item"])
        return kept + [rest[i] for i in np.random.default_rng(1).permutation(len(rest))]

    got = pipeline_artifacts(rewrite_corpus(corpus, tmp_path / "shuffled", shuffle), tmp_path / "out")
    assert len(kept) < len(corpus.read_text(encoding="utf-8").splitlines()) // 2  # most lines move
    assert got == corpus_artifacts


def test_eval_rejects_non_finite_snapshot_payload(corpus, tmp_path, capsys):
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    path = tmp_path / "snapshot.hsrc"
    snapshot = load_snapshot(path)
    with snapshot.tables.writing() as arrays:
        arrays["text"][0, 0] = np.nan
    save_snapshot(snapshot, path)
    capsys.readouterr()
    assert run(["eval", "--data", corpus, "--snapshot", path, "--out-dir", tmp_path]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    assert "NaN or Inf" in trailer["error"]["message"]


def test_latency_reference_table(tmp_path):
    code = run(["latency", "--profile", "all", "--encoder", "all", "--out-dir", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "latency.csv")
    totals = {(r["profile"], r["encoder"]): float(r["total_ms"]) for r in rows}
    assert totals[("mistral7b", "id")] == 55.0
    assert totals[("mistral7b", "title")] == 475.0
    assert totals[("palm", "id")] == 68.0
    assert totals[("palm", "title")] == 676.0
    registry = json.loads((tmp_path / "profiles.json").read_text())
    assert set(registry) == {"mistral7b", "palm"}
    assert registry["mistral7b"]["decode_ms"] == 20.0


def test_cluster_accepts_feature_file(corpus, tmp_path):
    features = np.random.default_rng(0).standard_normal((16, 3))
    np.save(tmp_path / "feats.npy", features)
    code = run(
        ["cluster", "--data", corpus, "--clusters", "kmeans", "--features",
         tmp_path / "feats.npy", "--out-dir", tmp_path]
    )
    assert code == 0
    assert (tmp_path / "clusters.csv").exists()


@pytest.mark.parametrize("command", ["cluster", "train"])
@pytest.mark.parametrize(
    "case", ["short", "long", "zero_width", "nan", "huge", "text", "not_npy", "pickled", "empty"]
)
def test_feature_file_that_does_not_fit_the_corpus_is_data_error(corpus, tmp_path, capsys, command, case):
    # Before, a zero-width file reached k-means as "item_vectors is empty",
    # and a huge one overflowed k-means++'s distances: both exited as usage.
    rows = {"short": 13, "long": 21}.get(case, 16)  # the corpus has 16 items
    features = np.random.default_rng(0).standard_normal((rows, 0 if case == "zero_width" else 3))
    if case == "nan":
        features[5, 1] = np.nan
    if case == "huge":
        features *= 1e200
    if case == "text":
        features = features.astype(str)
    path = tmp_path / "feats.npy"
    if case == "not_npy":
        path.write_text("\n".join(" ".join(map(str, row)) for row in features))
    elif case == "pickled":
        np.save(path, np.array([{"row": i} for i in range(rows)], dtype=object), allow_pickle=True)
    elif case == "empty":
        path.write_bytes(b"")
    else:
        np.save(path, features)
    argv = [command, "--data", corpus, "--clusters", "kmeans", "--features", tmp_path / "feats.npy",
            "--out-dir", tmp_path / "out"]
    if command == "train":
        argv += ["--steps", 1, "--dim", 8, "--item-dim", 6, "--eval-every", 0]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    want = {"not_npy": "feats.npy", "pickled": "feats.npy", "empty": "feats.npy", "nan": "real numbers",
            "text": "real numbers", "zero_width": "(16, 0)", "huge": "too large"}.get(case, f"({rows}, 3)")
    assert want in trailer["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_latency_dataset_table(corpus, tmp_path):
    code = run(
        ["latency", "--data", corpus, "--profile", "mistral7b", "--encoder", "title",
         "--history-len", 6, "--const-tokens", 12, "--out-dir", tmp_path]
    )
    assert code == 0
    rows = read_csv(tmp_path / "latency.csv")
    assert len(rows) == 1 and rows[0]["tokens_per_item"] == "2"


def test_config_file_precedence(corpus, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("[ingest]\nout_dir = %s\n" % (tmp_path / "from_file"))
    code = main(["--config", str(config), "ingest", "--data", str(corpus)])
    assert code == 0
    assert (tmp_path / "from_file" / "stats.json").exists()
    # Flag beats file.
    code = main(
        ["--config", str(config), "ingest", "--data", str(corpus), "--out-dir", str(tmp_path / "flag")]
    )
    assert code == 0
    assert (tmp_path / "flag" / "stats.json").exists()


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[ingest]\ndata = a\ndata = b\n", 3, "repeated key 'data' in section [ingest]"),
        ("[ingest]\ndata = a\n\n[ingest]\n", 4, "repeated config section [ingest]"),
        ("[ingest]\n\ufeffdata = a\n", 2, "unknown key '\ufeffdata' in section [ingest]"),
    ],
)
def test_config_repeats_are_data_errors_naming_the_line(corpus, tmp_path, capsys, text, line, message):
    config = tmp_path / "run.conf"
    config.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", config, "ingest", "--data", corpus, "--out-dir", tmp_path / "out"]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert trailer["type"] == "data" and trailer["message"] == f"{config}:{line}: {message}"
    assert not (tmp_path / "out").exists()


def test_config_byte_order_mark_and_crlf_are_accepted(corpus, tmp_path):
    # A byte-order mark before line 1 is skipped; anywhere else it is text.
    config = tmp_path / "run.conf"
    config.write_bytes(b"\xef\xbb\xbf[ingest]\r\nout_dir = " + str(tmp_path / "from_file").encode() + b"\r\n")
    assert run(["--config", config, "ingest", "--data", corpus]) == 0
    assert (tmp_path / "from_file" / "stats.json").exists()


def test_config_unknown_key_rejected(corpus, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("[ingest]\nbogus = 1\n")
    code = main(["--config", str(config), "ingest", "--data", str(corpus)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    assert json.loads(err.strip().splitlines()[-1])["error"]["code"] == 2


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["cluster", "--out-dir", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]["code"] == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["ingest", "--data", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest"],
        ["cluster"],
        ["train"],
        ["eval", "--snapshot", "{snapshot}"],
        ["eval", "--clusters", "all"],
        ["bench", "--snapshot", "{snapshot}"],
        ["latency"],
    ],
)
def test_missing_corpus_leaves_no_out_dir(corpus, tmp_path, capsys, argv):
    snapshot = tmp_path / "snapshot.hsrc"
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    argv = [str(a).format(snapshot=snapshot) for a in argv]
    capsys.readouterr()
    assert run([*argv, "--data", tmp_path / "missing.jsonl", "--out-dir", tmp_path / "out"]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--users", 0, "n_users"), ("--users", -3, "n_users"), ("--items", 0, "n_items"),
     ("--groups", 0, "n_latent_groups"), ("--seed", -1, "seed")],
)
def test_synth_rejects_empty_sizes_and_negative_seeds(tmp_path, capsys, flag, value, field):
    capsys.readouterr()
    assert run(["synth", flag, value, "--out-dir", tmp_path / "out"]) == 1
    assert usage_trailer(capsys).startswith(f"{field} must")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["snapshot_is_dir", "data_is_dir", "binary_data", "binary_config"])
def test_unreadable_input_is_data_error(corpus, tmp_path, capsys, case):
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    snapshot = tmp_path / "snapshot.hsrc"
    out = ["--out-dir", tmp_path / "out"]
    argv = {
        "snapshot_is_dir": ["eval", "--data", corpus, "--snapshot", tmp_path, *out],
        "data_is_dir": ["ingest", "--data", tmp_path, *out],
        "binary_data": ["ingest", "--data", snapshot, *out],
        "binary_config": ["--config", snapshot, "ingest", "--data", corpus, *out],
    }[case]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    if case.startswith("binary"):
        assert "UTF-8" in trailer["error"]["message"]


def test_ablation_harness(corpus, tmp_path):
    code = run(
        [
            "eval", "--data", corpus, "--clusters", "all", "--steps", 10, "--batch-size", 8,
            "--out-dir", tmp_path,
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "ablation.csv")
    combos = {(r["clustering"], r["engine"]) for r in rows}
    assert {(c, e) for c in ("kmeans", "frequency", "random") for e in ("structure", "ann", "full")} == combos
    for clustering in ("kmeans", "frequency", "random"):
        by = {r["engine"]: r for r in rows if r["clustering"] == clustering}
        assert by["structure"] == {**by["full"], "engine": "structure"}


def test_eval_has_no_mode_flag(corpus, tmp_path, capsys):
    # Ablation models are always two-level; a single eval takes the snapshot's mode.
    argv = ["eval", "--data", corpus, "--clusters", "all", "--mode", "full", "--steps", 2, "--out-dir", tmp_path]
    assert run(argv) == 1
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and trailer["error"]["code"] == 1
    assert "--mode" in trailer["error"]["message"]
    assert not (tmp_path / "ablation.csv").exists()


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_snapshot_of_another_corpus_is_data_error(corpus, tmp_path, capsys, command):
    train_dir = tmp_path / "train"
    code = run(
        ["train", "--data", corpus, "--steps", 2, "--batch-size", 4, "--dim", 8,
         "--item-dim", 6, "--eval-every", 0, "--out-dir", train_dir]
    )
    assert code == 0
    bigger = tmp_path / "bigger"
    assert run(["synth", "--users", 60, "--items", 30, "--groups", 4, "--seed", 3, "--out-dir", bigger]) == 0
    # The same events in reverse: the same items, first seen in another order.
    lines = corpus.read_text().splitlines()
    reordered = tmp_path / "reordered.jsonl"
    reordered.write_text("\n".join(reversed(lines)) + "\n")
    for other in (bigger / "interactions.jsonl", reordered):
        capsys.readouterr()
        code = run(
            [command, "--data", other, "--snapshot", train_dir / "snapshot.hsrc", "--out-dir", tmp_path / "out"]
        )
        assert code == 2, other
        trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert trailer["error"]["type"] == "data", other
        assert "does not match the snapshot" in trailer["error"]["message"], other


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_bench_snapshot_with_another_vocab_cap(corpus, tmp_path, command):
    # Without --vocab-size, the corpus is rebuilt at the snapshot's vocabulary size.
    train_dir = tmp_path / "train"
    code = run(
        ["train", "--data", corpus, "--steps", 2, "--batch-size", 4, "--dim", 8, "--item-dim", 6,
         "--vocab-size", 40, "--eval-every", 0, "--out-dir", train_dir]
    )
    assert code == 0
    extra = ["--queries", 3] if command == "bench" else []
    code = run(
        [command, "--data", corpus, "--snapshot", train_dir / "snapshot.hsrc", *extra,
         "--out-dir", tmp_path / command]
    )
    assert code == 0


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--dim", 0),
        ("--dim", -4),
        ("--item-dim", 0),
        ("--batch-size", 0),
        ("--steps", -1),
        ("--eval-every", -1),
        ("--val-sample", -5),
        ("--patience", -1),
        ("--learning-rate", -1.0),
        ("--weight-decay", -0.5),
        ("--weight-decay", "-1e-5"),
        ("--learning-rate", "nan"),
        ("--learning-rate", "inf"),
        ("--weight-decay", "inf"),
        ("--seed", -1),
    ],
)
def test_train_rejects_out_of_range_settings(corpus, tmp_path, capsys, flag, value):
    argv = ["train", "--data", corpus, "--steps", 2, "--batch-size", 4, "--dim", 8, "--item-dim", 6,
            "--eval-every", 0, flag, value, "--out-dir", tmp_path]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and trailer["error"]["code"] == 1
    assert flag[2:].replace("-", "_") in trailer["error"]["message"]
    assert not (tmp_path / "snapshot.hsrc").exists()


def test_bench_without_queries_is_usage_error(corpus, tmp_path, capsys):
    train_dir = tmp_path / "train"
    argv = ["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", train_dir]
    assert run(argv) == 0
    capsys.readouterr()
    code = run(
        ["bench", "--data", corpus, "--snapshot", train_dir / "snapshot.hsrc", "--queries", 0,
         "--out-dir", tmp_path / "bench"]
    )
    assert code == 1
    assert usage_trailer(capsys) == "queries must be at least 1, got 0"
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("command, k", [("eval", "0,-3"), ("eval", "10,0"), ("bench", "5,10")])
def test_bad_k_is_usage_error(corpus, tmp_path, capsys, command, k):
    # A recall cutoff below 1 would read 0.0; bench ranks one k, not a list.
    train_dir = tmp_path / "train"
    argv = ["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", train_dir]
    assert run(argv) == 0
    capsys.readouterr()
    code = run(
        [command, "--data", corpus, "--snapshot", train_dir / "snapshot.hsrc", "--k", k,
         "--out-dir", tmp_path / command]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and trailer["error"]["code"] == 1


@pytest.mark.parametrize("k", ["0", "1,x"])
def test_eval_checks_k_before_training(corpus, tmp_path, capsys, monkeypatch, k):
    import hsrec.cli

    def no_training(*args, **kwargs):
        raise AssertionError("eval trained a model before checking --k")

    monkeypatch.setattr(hsrec.cli, "train", no_training)
    capsys.readouterr()
    code = run(["eval", "--data", corpus, "--clusters", "all", "--k", k, "--steps", 200, "--out-dir", tmp_path])
    assert code == 1
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and "--k" in trailer["error"]["message"]
    assert not (tmp_path / "ablation.csv").exists()


def test_latency_all_skips_fields_no_item_has(corpus, tmp_path):
    # Synthetic corpora carry titles but no categories.
    code = run(["latency", "--data", corpus, "--out-dir", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "latency.csv")
    assert {r["encoder"] for r in rows} == {"id", "title"}
    assert len(rows) == 4  # 2 profiles x 2 encoders


def test_latency_named_field_no_item_has_is_data_error(corpus, tmp_path, capsys):
    code = run(["latency", "--data", corpus, "--encoder", "category", "--out-dir", tmp_path])
    assert code == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and "category" in trailer["error"]["message"]


def usage_trailer(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and trailer["error"]["code"] == 1
    return trailer["error"]["message"]


def test_latency_reads_only_the_catalog(tmp_path):
    # No user has the three events a leave-one-out split needs; tokens per item need none.
    assert run(["synth", "--users", 20, "--items", 8, "--groups", 2, "--hist-min", 1, "--hist-max", 2, "--out-dir", tmp_path]) == 0
    assert run(["latency", "--data", tmp_path / "interactions.jsonl", "--out-dir", tmp_path / "l"]) == 0
    rows = read_csv(tmp_path / "l" / "latency.csv")
    assert {(r["dataset"], r["encoder"]) for r in rows} == {("interactions", "id"), ("interactions", "title")}


def test_latency_encoder_without_a_reference_workload_is_usage_error(tmp_path, capsys):
    capsys.readouterr()
    assert run(["latency", "--encoder", "category", "--out-dir", tmp_path / "out"]) == 1
    message = usage_trailer(capsys)
    assert "id|title" in message and "--data" in message and "category" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--history-len", 0], ["--const-tokens", -1], ["--vocab-size", 40]])
def test_latency_rejects_bad_options_without_data(tmp_path, capsys, argv):
    capsys.readouterr()
    assert run(["latency", *argv, "--out-dir", tmp_path / "out"]) == 1
    usage_trailer(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("steps", "x"), ("learning_rate", "fast")])
def test_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys, key, value):
    config = tmp_path / "bad.conf"
    config.write_text(f"[train]\n{key} = {value}\n")
    capsys.readouterr()
    assert run(["--config", config, "train", "--data", tmp_path / "missing.jsonl", "--out-dir", tmp_path / "out"]) == 1
    message = usage_trailer(capsys)
    assert f"[train] {key}" in message and value in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--steps", -1],
        ["train", "--learning-rate", "nan"],
        ["eval", "--clusters", "all", "--steps", -1],
        ["bench", "--snapshot", "missing.hsrc", "--k", 0],
        ["bench", "--snapshot", "missing.hsrc", "--queries", 0],
        ["latency", "--history-len", 0],
        ["latency", "--const-tokens", -1],
        ["eval", "--clusters", "all", "--snapshot", "x.hsrc"],
        ["eval", "--clusters", "all", "--engine", "structure"],
    ],
)
def test_settings_are_checked_before_any_input_is_read(tmp_path, capsys, argv):
    # The corpus does not exist: reading it would exit 2 ("data").
    capsys.readouterr()
    assert run([*argv, "--data", tmp_path / "missing.jsonl", "--out-dir", tmp_path / "out"]) == 1
    message = usage_trailer(capsys)
    assert argv[-2][2:].replace("-", "_") in message.replace("-", "_")
    assert not (tmp_path / "out").exists()


def test_ablation_takes_no_engine_from_a_config_file(tmp_path, capsys):
    # The file sets the default engine: given is given, whatever its value.
    config = tmp_path / "run.conf"
    config.write_text("[eval]\nengine = structure\n")
    capsys.readouterr()
    argv = ["--config", config, "eval", "--clusters", "all", "--data", tmp_path / "missing.jsonl"]
    assert run([*argv, "--out-dir", tmp_path / "out"]) == 1
    assert "--engine" in usage_trailer(capsys)
    assert not (tmp_path / "out").exists()


SEED_ARGV = {
    "synth": ["synth"],
    "cluster": ["cluster", "--data", "{data}", "--clusters", "random"],
    "train": ["train", "--data", "{data}"],
    "eval": ["eval", "--data", "{data}", "--snapshot", "{snapshot}"],
    "bench": ["bench", "--data", "{data}", "--snapshot", "{snapshot}"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", list(SEED_ARGV))
def test_negative_seed_is_usage_error_before_any_input_is_read(tmp_path, capsys, command, source):
    # The corpus and snapshot do not exist: reading either would exit 2 ("data").
    missing = {"data": tmp_path / "missing.jsonl", "snapshot": tmp_path / "missing.hsrc"}
    argv = [str(a).format(**missing) for a in SEED_ARGV[command]] + ["--out-dir", tmp_path / "out"]
    if source == "flag":
        argv += ["--seed", -1]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"[{command}]\nseed = -1\n")
        argv = ["--config", config, *argv]
    capsys.readouterr()
    assert run(argv) == 1
    assert usage_trailer(capsys) == "seed must be at least 0, got -1"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["cluster", "bench"])
def test_negative_seed_names_the_option_with_real_inputs(corpus, tmp_path, capsys, command):
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    inputs = {"data": corpus, "snapshot": tmp_path / "snapshot.hsrc"}
    argv = [str(a).format(**inputs) for a in SEED_ARGV[command]]
    capsys.readouterr()
    assert run([*argv, "--seed", -1, "--out-dir", tmp_path / "out"]) == 1
    assert usage_trailer(capsys) == "seed must be at least 0, got -1"
    assert not (tmp_path / "out").exists()


def test_snapshot_without_softmax_mode_is_two_level(corpus, tmp_path):
    run(["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path])
    path = tmp_path / "snapshot.hsrc"
    snapshot = load_snapshot(path)
    del snapshot.config["softmax_mode"]
    save_snapshot(snapshot, path)
    assert load_snapshot(path).softmax_mode == "twolevel"
    assert run(["eval", "--data", corpus, "--snapshot", path, "--engine", "all", "--out-dir", tmp_path / "e"]) == 0
    rows = json.loads((tmp_path / "e" / "metrics.json").read_text())
    assert sorted(r["engine"] for r in rows) == ["ann", "full", "structure"]


CHOICE_OPTIONS = [
    ("cluster", "clusters"),
    ("train", "mode"),
    ("train", "clusters"),
    ("eval", "engine"),
    ("eval", "clusters"),
    ("latency", "profile"),
    ("latency", "encoder"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, option", CHOICE_OPTIONS)
def test_value_outside_choices_is_usage_error_before_any_input_is_read(tmp_path, capsys, command, option, source):
    # The corpus and snapshot do not exist: reading either would exit 2 ("data").
    argv = [command, "--data", tmp_path / "missing.jsonl", "--out-dir", tmp_path / "out"]
    if command == "eval":
        argv += ["--snapshot", tmp_path / "missing.hsrc"]
    if source == "flag":
        argv += ["--" + option, "bogus"]
    else:
        config = tmp_path / "run.conf"
        config.write_text(f"[{command}]\n{option} = bogus\n")
        argv = ["--config", config, *argv]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and trailer["error"]["code"] == 1
    assert "--" + option in trailer["error"]["message"] and "bogus" in trailer["error"]["message"]
    assert not (tmp_path / "out").exists()


BOUNDED_OPTIONS = [
    ("eval", "exclude_history", -1, "--exclude-history must be one of 0|1, got -1"),
    ("eval", "exclude_history", 2, "--exclude-history must be one of 0|1, got 2"),
    ("eval", "exclude_history", 7, "--exclude-history must be one of 0|1, got 7"),
    ("cluster", "vocab_size", 3, "vocab_size must be at least 31, got 3"),
    ("train", "vocab_size", 30, "vocab_size must be at least 31, got 30"),
    ("eval", "vocab_size", 3, "vocab_size must be at least 31, got 3"),
    # Model sizes and training settings name the option a user typed, not a TrainConfig field.
    ("train", "dim", 0, "dim must be at least 1, got 0"),
    ("train", "item_dim", 0, "item_dim must be at least 1, got 0"),
    ("train", "n_clusters", -1, "n_clusters must be at least 0, got -1"),
    ("cluster", "n_clusters", -1, "n_clusters must be at least 0, got -1"),
    ("train", "steps", -1, "steps must be at least 0, got -1"),
    ("train", "batch_size", 0, "batch_size must be at least 1, got 0"),
    ("train", "learning_rate", -0.5, "learning_rate must be at least 0, got -0.5"),
    ("train", "weight_decay", -0.5, "weight_decay must be at least 0, got -0.5"),
    ("train", "eval_every", -1, "eval_every must be at least 0, got -1"),
    ("train", "patience", -1, "patience must be at least 0, got -1"),
    ("train", "val_sample", -1, "val_sample must be at least 0, got -1"),
    ("eval", "steps", -1, "steps must be at least 0, got -1"),
    ("eval", "batch_size", 0, "batch_size must be at least 1, got 0"),
    ("eval", "learning_rate", -0.5, "learning_rate must be at least 0, got -0.5"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, option, value, message", BOUNDED_OPTIONS)
def test_out_of_range_value_is_usage_error_before_any_input_is_read(tmp_path, capsys, command, option, value,
                                                                     message, source):
    # The corpus and snapshot do not exist: reading either would exit 2 ("data").
    argv = [command, "--data", tmp_path / "missing.jsonl", "--out-dir", tmp_path / "out"]
    if command == "eval":
        argv += ["--snapshot", tmp_path / "missing.hsrc"]
    if source == "flag":
        argv += ["--" + option.replace("_", "-"), value]
    else:
        config = tmp_path / "run.conf"
        config.write_text(f"[{command}]\n{option} = {value}\n")
        argv = ["--config", config, *argv]
    capsys.readouterr()
    assert run(argv) == 1
    assert usage_trailer(capsys) == message
    assert not (tmp_path / "out").exists()


def test_smallest_vocab_holds_the_reserved_words(corpus, tmp_path):
    assert run(["cluster", "--data", corpus, "--clusters", "random", "--vocab-size", 31, "--out-dir", tmp_path]) == 0


def test_config_empty_data_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("[ingest]\ndata =\n")
    capsys.readouterr()
    assert run(["--config", config, "ingest", "--out-dir", tmp_path]) == 1
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and "--data is required" in trailer["error"]["message"]


def test_eval_rejects_unknown_clusters_with_a_snapshot(corpus, tmp_path, capsys):
    argv = ["train", "--data", corpus, "--steps", 0, "--dim", 8, "--item-dim", 6, "--out-dir", tmp_path]
    assert run(argv) == 0
    capsys.readouterr()
    code = run(["eval", "--data", corpus, "--snapshot", tmp_path / "snapshot.hsrc", "--clusters", "bogus",
                "--out-dir", tmp_path / "e"])
    assert code == 1
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and "--clusters" in trailer["error"]["message"]
    assert not (tmp_path / "e" / "results.csv").exists()


def test_bench_rejects_full_softmax_snapshot(corpus, tmp_path, capsys):
    # bench times two-level scorers, whose centroids full-softmax training never fits.
    argv = ["train", "--data", corpus, "--mode", "full", "--steps", 2, "--batch-size", 4, "--dim", 8,
            "--item-dim", 6, "--eval-every", 0, "--out-dir", tmp_path]
    assert run(argv) == 0
    capsys.readouterr()
    code = run(["bench", "--data", corpus, "--snapshot", tmp_path / "snapshot.hsrc", "--queries", 3,
                "--out-dir", tmp_path / "b"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and "two-level" in trailer["error"]["message"]
    assert not (tmp_path / "b" / "bench.csv").exists() and not (tmp_path / "b" / "queries.json").exists()


def _beyond_the_dense_svd(tmp_path):
    """6,700 users x 3 events over 20,001 items: beyond k-means' cap."""
    path = tmp_path / "big.jsonl"
    lines = (json.dumps({"user": f"u{n // 3}", "item": f"i{n % 20001}", "timestamp": n % 3}) for n in range(20100))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_kmeans_on_a_catalog_beyond_the_dense_svd_is_a_data_error(tmp_path, capsys):
    # The cap is checked before the co-occurrence matrix is made.
    path = _beyond_the_dense_svd(tmp_path)
    capsys.readouterr()
    assert run(["cluster", "--data", path, "--clusters", "kmeans", "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])["error"]
    assert trailer["type"] == "data" and trailer["code"] == 2
    assert "20001" in trailer["message"] and "--clusters random|frequency" in trailer["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["train", "--clusters", "kmeans", "--steps", 1], ["eval", "--clusters", "all", "--steps", 1]],
    ids=["train", "eval_ablation"],
)
def test_training_commands_make_no_out_dir_when_clustering_fails(tmp_path, capsys, argv):
    # Before, the out-dir was made before the model was trained, and stayed empty.
    path = _beyond_the_dense_svd(tmp_path)
    capsys.readouterr()
    assert run([*argv, "--data", path, "--out-dir", tmp_path / "out"]) == 2
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert trailer["type"] == "data" and "20001" in trailer["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value, kind",
    [("title", {"x": 1}, "object"), ("brand", ["q", None], "array"), ("category", True, "boolean"),
     ("title", 7, "integer"), ("brand", 2.5, "float")],
    ids=["object", "array", "boolean", "integer", "float"],
)
def test_train_rejects_non_string_metadata_as_data(corpus, tmp_path, capsys, field, value, kind):
    # Before, str() of the value went into the vocabulary and train exited 0.
    path = tmp_path / "d.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    bad = {**json.loads(lines[4]), field: value}
    path.write_text("\n".join([*lines[:4], json.dumps(bad), *lines[5:]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["train", "--data", path, "--steps", 1, "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])["error"]
    assert trailer["type"] == "data" and trailer["code"] == 2
    assert trailer["message"] == f"line 5: {field} must be a string or null, got {kind}"
    assert not (tmp_path / "out").exists()


def test_help_lists_each_options_choices(capsys):
    assert run(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "full|twolevel" in out and "kmeans|frequency|random" in out


@pytest.mark.parametrize(
    "command, minimums",
    [
        ("bench", {"queries": 1, "k": 1}),
        ("latency", {"history-len": 1, "const-tokens": 0}),
        ("train", {"dim": 1, "item-dim": 1, "steps": 0, "batch-size": 1, "weight-decay": 0}),
    ],
)
def test_help_shows_each_options_minimum(capsys, command, minimums):
    assert run([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for flag, minimum in minimums.items():
        assert re.search(rf"--{flag} {flag.replace('-', '_').upper()} [^()]*\(>= {minimum}\)", out), flag
