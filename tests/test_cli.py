import csv
import json

import pytest

from helpers import rewrite_snapshot, seal_snapshot
from hsrec.cli import main


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


def test_cluster_command(corpus, tmp_path):
    code = run(["cluster", "--data", corpus, "--clusters", "kmeans", "--out-dir", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "clusters.csv")
    assert rows and {"ordinal", "cluster"} <= set(rows[0])


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
    from hsrec.snapshot import load_snapshot

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
    from hsrec.snapshot import load_snapshot, save_snapshot

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


@pytest.mark.parametrize("mode", ["twolevel", "full"])
def test_train_same_seed_snapshots_byte_identical(corpus, tmp_path, mode):
    # 16 items in 2 clusters at dim 4: two-level steps lift the item gradient
    # of every target cluster with at least 4 members.
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(
            [
                "train", "--data", corpus, "--mode", mode, "--steps", 10, "--batch-size", 8,
                "--eval-every", 0, "--dim", 4, "--item-dim", 6, "--n-clusters", 2, "--seed", 4,
                "--out-dir", out,
            ]
        )
        assert code == 0
    assert (a / "snapshot.hsrc").read_bytes() == (b / "snapshot.hsrc").read_bytes()


def test_eval_rejects_non_finite_snapshot_payload(corpus, tmp_path, capsys):
    import numpy as np

    from hsrec.snapshot import load_snapshot, save_snapshot

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
    import numpy as np

    features = np.random.default_rng(0).standard_normal((16, 3))
    np.save(tmp_path / "feats.npy", features)
    code = run(
        ["cluster", "--data", corpus, "--clusters", "kmeans", "--features",
         tmp_path / "feats.npy", "--out-dir", tmp_path]
    )
    assert code == 0
    assert (tmp_path / "clusters.csv").exists()


@pytest.mark.parametrize("command", ["cluster", "train"])
@pytest.mark.parametrize("case", ["short", "long", "nan", "text", "not_npy", "pickled", "empty"])
def test_feature_file_that_does_not_fit_the_corpus_is_data_error(corpus, tmp_path, capsys, command, case):
    import numpy as np

    rows = {"short": 13, "long": 21}.get(case, 16)  # the corpus has 16 items
    features = np.random.default_rng(0).standard_normal((rows, 3))
    if case == "nan":
        features[5, 1] = np.nan
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
            "--out-dir", tmp_path]
    if command == "train":
        argv += ["--steps", 1, "--dim", 8, "--item-dim", 6, "--eval-every", 0]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "data" and trailer["error"]["code"] == 2
    unreadable = case in ("not_npy", "pickled", "empty")
    want = "feats.npy" if unreadable else "real numbers" if rows == 16 else f"({rows}, 3)"
    assert want in trailer["error"]["message"]
    assert not (tmp_path / "clusters.csv").exists() and not (tmp_path / "snapshot.hsrc").exists()


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
    err = capsys.readouterr().err
    trailer = json.loads(err.strip().splitlines()[-1])
    assert trailer["error"]["code"] == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["ingest", "--data", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)]) == 2


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
    trailer = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert trailer["error"]["type"] == "usage" and "--queries" in trailer["error"]["message"]


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
