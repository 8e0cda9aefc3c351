import csv
import json
import re
import struct

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


def test_config_byte_order_mark_and_crlf_are_accepted(corpus, tmp_path):
    # A byte-order mark before line 1 is skipped; anywhere else it is text.
    config = tmp_path / "run.conf"
    config.write_bytes(b"\xef\xbb\xbf[ingest]\r\nout_dir = " + str(tmp_path / "from_file").encode() + b"\r\n")
    assert run(["--config", config, "ingest", "--data", corpus]) == 0
    assert (tmp_path / "from_file" / "stats.json").exists()


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


def test_latency_all_skips_fields_no_item_has(corpus, tmp_path):
    # Synthetic corpora carry titles but no categories.
    code = run(["latency", "--data", corpus, "--out-dir", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "latency.csv")
    assert {r["encoder"] for r in rows} == {"id", "title"}
    assert len(rows) == 4  # 2 profiles x 2 encoders


def test_latency_reads_only_the_catalog(tmp_path):
    # No user has the three events a leave-one-out split needs; tokens per item need none.
    assert run(["synth", "--users", 20, "--items", 8, "--groups", 2, "--hist-min", 1, "--hist-max", 2, "--out-dir", tmp_path]) == 0
    assert run(["latency", "--data", tmp_path / "interactions.jsonl", "--out-dir", tmp_path / "l"]) == 0
    rows = read_csv(tmp_path / "l" / "latency.csv")
    assert {(r["dataset"], r["encoder"]) for r in rows} == {("interactions", "id"), ("interactions", "title")}


def test_smallest_vocab_holds_the_reserved_words(corpus, tmp_path):
    assert run(["cluster", "--data", corpus, "--clusters", "random", "--vocab-size", 31, "--out-dir", tmp_path]) == 0


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


@pytest.mark.parametrize(
    "command, modes",
    [
        ("eval", {"seed": "with --clusters all", "snapshot": "without --clusters all",
                  "engine": "without --clusters all", "steps": "with --clusters all",
                  "batch-size": "with --clusters all", "learning-rate": "with --clusters all",
                  "vocab-size": "with --clusters all"}),
        ("cluster", {"seed": "with --clusters kmeans|random", "features": "with --clusters kmeans"}),
        ("latency", {"history-len": "with --data", "const-tokens": "with --data"}),
    ],
)
def test_help_shows_each_options_mode(capsys, command, modes):
    assert run([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for flag, mode in modes.items():
        # The mode is in this option's help, before the next option's flag and metavar.
        this_help = rf"--{flag} {flag.replace('-', '_').upper()} (?:(?! --[a-z-]+ [A-Z_]+ ).)*"
        assert re.search(this_help + re.escape(f"({mode})"), out), flag


# The contract table.  One module-scoped fixture builds every input a row
# names, and one parametrized test runs each row.

# name: (timestamp JSON of a corpus's line 2, the data error it gives).
BAD_TIMESTAMPS = {
    "nan": ("NaN", "timestamp is not a finite number"),
    "inf": ("Infinity", "timestamp is not a finite number"),
    "neg_inf": ("-Infinity", "timestamp is not a finite number"),
    "long": ("1" * 5000, "malformed JSON (Exceeds the limit"),
    "bool": ("true", "timestamp is not a number"),
}
# name: (line 2 of a corpus whose line 1 has the user "None", the data error it gives).
# Before, null was the user "None" and merged with the literal one on line 1.
BAD_IDS = {
    "null_user": ('{"user": null, "item": "a", "timestamp": 2}', "user must be a string or an integer, got null"),
    "boolean_user": ('{"user": true, "item": "a", "timestamp": 2}', "user must be a string or an integer, got boolean"),
    "float_item": ('{"user": "u", "item": 1.0, "timestamp": 2}', "item must be a string or an integer, got float"),
}
# name: (field, value) put on the shared corpus's line 5.  Before, str() of
# the value went into the vocabulary and train exited 0.
BAD_METADATA = {"object": ("title", {"x": 1}), "array": ("brand", ["q", None]), "boolean": ("category", True),
                "integer": ("title", 7), "float": ("brand", 2.5)}
# case: a fragment of its data error.  Before, a zero-width file reached
# k-means as "item_vectors is empty", and a huge one overflowed k-means++'s
# distances: both exited as usage.
BAD_FEATURES = {"short": "(13, 3)", "long": "(21, 3)", "zero_width": "(16, 0)", "nan": "real numbers",
                "huge": "too large", "text": "real numbers", "not_npy": "--features {features_not_npy}: ",
                "pickled": "--features {features_pickled}: ", "empty": "--features {features_empty}: "}


def write_features(path, case):
    """A ``--features`` file that does not fit the shared 16-item corpus."""
    rows = {"short": 13, "long": 21}.get(case, 16)
    features = np.random.default_rng(0).standard_normal((rows, 0 if case == "zero_width" else 3))
    if case == "nan":
        features[5, 1] = np.nan
    if case == "huge":
        features *= 1e200
    if case == "text":
        features = features.astype(str)
    if case == "not_npy":
        path.write_text("\n".join(" ".join(map(str, row)) for row in features))
    elif case == "pickled":
        np.save(path, np.array([{"row": i} for i in range(rows)], dtype=object), allow_pickle=True)
    elif case == "empty":
        path.write_bytes(b"")
    else:
        np.save(path, features)


@pytest.fixture(scope="module")
def inputs(corpus, tmp_path_factory):
    """Every path a contract row names, by placeholder: the shared corpus, a
    two-level and a full-softmax snapshot trained on it at ``--vocab-size
    40``, broken variants of the two-level one, broken corpora and feature
    files, and paths that do not exist."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {"data": corpus, "dir": root, "missing": root / "missing.jsonl", "missing_snapshot": root / "missing.hsrc"}
    for mode in ("twolevel", "full"):
        paths[mode] = root / mode / "snapshot.hsrc"
        assert run(["train", "--data", corpus, "--mode", mode, "--steps", 2, "--batch-size", 4, "--dim", 8,
                    "--item-dim", 6, "--vocab-size", 40, "--eval-every", 0, "--out-dir", root / mode]) == 0
    blob = paths["twolevel"].read_bytes()
    huge = bytearray(blob)
    struct.pack_into("<Q", huge, 24, 2**40)  # n_items
    variants = {"trailing": blob + b"\x00", "bad_utf8": seal_snapshot(blob[:-5] + b"\xff"),  # the metadata's last byte
                "bad_checksum": blob[:-1] + bytes([blob[-1] ^ 0x01]), "huge_header": bytes(huge),
                "bad_assignment": blob, "bogus_mode": blob, "nan_payload": blob, "no_mode": blob, "diverged": blob}
    for name, variant in variants.items():
        paths[name] = root / f"{name}.hsrc"
        paths[name].write_bytes(variant)
    assignment = load_snapshot(paths["twolevel"]).cluster_map.assignment()
    assignment[-1] = assignment.max() + 1  # no such item cluster
    rewrite_snapshot(paths["bad_assignment"], assignment=assignment)
    for name in ("bogus_mode", "no_mode", "nan_payload", "diverged"):
        snapshot = load_snapshot(paths[name])
        if name == "bogus_mode":
            snapshot.config["softmax_mode"] = "bogus"
        elif name == "no_mode":
            del snapshot.config["softmax_mode"]
        else:
            with snapshot.tables.writing() as arrays:
                if name == "nan_payload":
                    arrays["text"][0, 0] = np.nan
                else:
                    arrays["proj_weight"][:] = 3e38  # finite weights whose scores overflow
        save_snapshot(snapshot, paths[name])

    lines = corpus.read_text(encoding="utf-8").splitlines()
    # 6,700 users x 3 events over 20,001 items: beyond k-means' cap.
    big = (json.dumps({"user": f"u{n // 3}", "item": f"i{n % 20001}", "timestamp": n % 3}) for n in range(20100))
    texts = {"reordered": reversed(lines), "big": big}  # reordered: the same items, first seen in another order
    for name, (value, _) in BAD_TIMESTAMPS.items():
        texts[f"timestamp_{name}"] = (f'{{"user": "u", "item": "i{t}", "timestamp": {t}}}' for t in ("3", value, "1", "2"))
    for name, (line, _) in BAD_IDS.items():
        texts[f"id_{name}"] = ['{"user": "None", "item": "1", "timestamp": 1}', line]
    for name, (field, value) in BAD_METADATA.items():
        texts[f"metadata_{name}"] = [*lines[:4], json.dumps({**json.loads(lines[4]), field: value}), *lines[5:]]
    for name, text in texts.items():
        paths[name] = root / f"{name}.jsonl"
        paths[name].write_text("\n".join(text) + "\n", encoding="utf-8")
    assert run(["synth", "--users", 60, "--items", 30, "--groups", 4, "--seed", 3, "--out-dir", root / "bigger"]) == 0
    paths["bigger"] = root / "bigger" / "interactions.jsonl"
    for case in BAD_FEATURES:
        paths[f"features_{case}"] = root / f"features_{case}.npy"
        write_features(paths[f"features_{case}"], case)
    return paths


# Argv that names an input for each command, none of which exists: reading it would exit 2 ("data").
MISSING = {"synth": [], "cluster": ["--data", "{missing}"], "train": ["--data", "{missing}"],
           "eval": ["--data", "{missing}", "--snapshot", "{missing_snapshot}"],
           "bench": ["--data", "{missing}", "--snapshot", "{missing_snapshot}"], "latency": ["--data", "{missing}"]}


def from_flag_and_config(rows):
    """Two rows for each (command, option, value, message): the value set by
    its flag and by the config file, with inputs that do not exist, so that
    the value is checked before any input is read."""
    table = {}
    for command, option, value, message in rows:
        argv = [command, *MISSING[command]]
        table[f"{command}-{option}={value}-flag"] = ([*argv, "--" + option.replace("_", "-"), value], None, 1, message)
        table[f"{command}-{option}={value}-config"] = (argv, f"[{command}]\n{option} = {value}\n", 1, message)
    return table


CHOICES = {("cluster", "clusters"): "kmeans|frequency|random", ("train", "mode"): "full|twolevel",
           ("train", "clusters"): "kmeans|frequency|random", ("eval", "engine"): "full|structure|ann|all",
           ("eval", "clusters"): "all", ("latency", "profile"): "mistral7b|palm|all",
           ("latency", "encoder"): "id|title|category|all"}
BOUNDED = [
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
TRAIN = ["train", "--data", "{data}", "--steps", 2, "--batch-size", 4, "--dim", 8, "--item-dim", 6, "--eval-every", 0]
ONE_STEP = ["--steps", 1, "--dim", 8, "--item-dim", 6, "--eval-every", 0]
READ_ONLY = "is read only with"

# id: (argv, config file text or None, exit code, fragment of the trailer's message).  Placeholders
# name the ``inputs`` fixture's paths, and {config} the row's config file, which ``--config`` reads.
CONTRACTS = {
    **{f"ingest-timestamp-{name}": (["ingest", "--data", f"{{timestamp_{name}}}"], None, 2, f"line 2: {message}")
       for name, (_, message) in BAD_TIMESTAMPS.items()},
    **{f"ingest-id-{name}": (["ingest", "--data", f"{{id_{name}}}"], None, 2, f"line 2: {message}")
       for name, (_, message) in BAD_IDS.items()},
    **{f"train-metadata-{name}": (["train", "--data", f"{{metadata_{name}}}", "--steps", 1], None, 2,
                                  f"line 5: {field} must be a string or null, got {name}")
       for name, (field, _) in BAD_METADATA.items()},
    **{f"{command}-features-{case}": ([command, "--data", "{data}", "--clusters", "kmeans", "--features",
                                       f"{{features_{case}}}", *(ONE_STEP if command == "train" else [])], None, 2, want)
       for command in ("cluster", "train") for case, want in BAD_FEATURES.items()},
    "eval-trailing-bytes": (["eval", "--data", "{data}", "--snapshot", "{trailing}"], None, 2, "trailing"),
    "eval-bad-utf8": (["eval", "--data", "{data}", "--snapshot", "{bad_utf8}"], None, 2, "UTF-8"),
    "eval-bad-checksum": (["eval", "--data", "{data}", "--snapshot", "{bad_checksum}"], None, 2, "checksum"),
    "eval-threads-flag": (["eval", "--data", "{data}", "--snapshot", "{twolevel}", "--threads", 2], None, 1,
                          "unrecognized arguments: --threads 2"),  # the eval thread pool is gone, and with it the flag
    "eval-huge-header": (["eval", "--data", "{data}", "--snapshot", "{huge_header}"], None, 2, "truncated snapshot"),
    "bench-bad-assignment": (["bench", "--data", "{data}", "--snapshot", "{bad_assignment}", "--queries", 2], None, 2,
                             "out-of-range"),
    "eval-bogus-mode": (["eval", "--data", "{data}", "--snapshot", "{bogus_mode}", "--engine", "full"], None, 2,
                        "softmax_mode"),
    "eval-nan-payload": (["eval", "--data", "{data}", "--snapshot", "{nan_payload}"], None, 2, "NaN or Inf"),
    "eval-snapshot-is-dir": (["eval", "--data", "{data}", "--snapshot", "{dir}"], None, 2, "Is a directory"),
    "ingest-data-is-dir": (["ingest", "--data", "{dir}"], None, 2, "Is a directory"),
    "ingest-binary-data": (["ingest", "--data", "{twolevel}"], None, 2, "UTF-8"),
    "config-binary": (["--config", "{twolevel}", "ingest", "--data", "{data}"], None, 2, "UTF-8"),
    "config-missing": (["--config", "{missing}", "ingest", "--data", "{data}"], None, 2, "No such file"),
    "config-repeated-key": (["ingest", "--data", "{data}"], "[ingest]\ndata = a\ndata = b\n", 2,
                            "{config}:3: repeated key 'data' in section [ingest]"),
    "config-repeated-section": (["ingest", "--data", "{data}"], "[ingest]\ndata = a\n\n[ingest]\n", 2,
                                "{config}:4: repeated config section [ingest]"),
    # A byte-order mark before line 1 is skipped; anywhere else it is text.
    "config-bom-on-line-2": (["ingest", "--data", "{data}"], "[ingest]\n\ufeffdata = a\n", 2,
                             "{config}:2: unknown key '\ufeffdata' in section [ingest]"),
    "config-unknown-key": (["ingest", "--data", "{data}"], "[ingest]\nbogus = 1\n", 2,
                           "{config}:2: unknown key 'bogus' in section [ingest]"),
    "config-empty-data": (["ingest"], "[ingest]\ndata =\n", 1, "--data is required"),
    "config-steps-type": (["train", "--data", "{missing}"], "[train]\nsteps = x\n", 1,
                          "[train] steps = 'x' is not a valid int"),
    "config-learning-rate-type": (["train", "--data", "{missing}"], "[train]\nlearning_rate = fast\n", 1,
                                  "[train] learning_rate = 'fast' is not a valid float"),
    "cluster-without-data": (["cluster"], None, 1, "--data is required"),
    **{f"{name}-missing-corpus": ([*argv, "--data", "{missing}"], None, 2, "No such file or directory: '{missing}'")
       for name, argv in [("ingest", ["ingest"]), ("cluster", ["cluster"]), ("train", ["train"]),
                          ("eval", ["eval", "--snapshot", "{twolevel}"]), ("eval-ablation", ["eval", "--clusters", "all"]),
                          ("bench", ["bench", "--snapshot", "{twolevel}"]), ("latency", ["latency"])]},
    **{f"synth-{flag[2:]}={value}": (["synth", flag, value], None, 1, f"{field} must")
       for flag, value, field in [("--users", 0, "n_users"), ("--users", -3, "n_users"), ("--items", 0, "n_items"),
                                  ("--groups", 0, "n_latent_groups"), ("--seed", -1, "seed")]},
    # Ablation models are always two-level; a single eval takes the snapshot's mode.
    "eval-mode-flag": (["eval", "--data", "{data}", "--clusters", "all", "--mode", "full", "--steps", 2], None, 1,
                       "unrecognized arguments: --mode full"),
    **{f"{command}-{corpus}-corpus": ([command, "--data", f"{{{corpus}}}", "--snapshot", "{twolevel}"], None, 2,
                                      "does not match the snapshot")
       for command in ("eval", "bench") for corpus in ("bigger", "reordered")},
    **{f"train-{flag[2:]}={value}": ([*TRAIN, flag, value], None, 1, message) for flag, value, message in [
        ("--dim", 0, "dim must be at least 1, got 0"), ("--dim", -4, "dim must be at least 1, got -4"),
        ("--item-dim", 0, "item_dim must be at least 1, got 0"), ("--batch-size", 0, "batch_size must be at least 1"),
        ("--steps", -1, "steps must be at least 0"), ("--eval-every", -1, "eval_every must be at least 0"),
        ("--val-sample", -5, "val_sample must be at least 0"), ("--patience", -1, "patience must be at least 0"),
        ("--learning-rate", -1.0, "learning_rate must be at least 0"),
        ("--weight-decay", -0.5, "weight_decay must be at least 0"),
        ("--weight-decay", "-1e-5", "weight_decay must be at least 0, got -1e-05"),
        ("--learning-rate", "nan", "learning_rate must be finite, got nan"),
        ("--learning-rate", "inf", "learning_rate must be finite, got inf"),
        ("--weight-decay", "inf", "weight_decay must be finite, got inf"), ("--seed", -1, "seed must be at least 0")]},
    "bench-queries=0": (["bench", "--data", "{data}", "--snapshot", "{twolevel}", "--queries", 0], None, 1,
                        "queries must be at least 1, got 0"),
    # A recall cutoff below 1 would read 0.0; bench ranks one k, not a list.
    "eval-k=0,-3": (["eval", "--data", "{data}", "--snapshot", "{twolevel}", "--k", "0,-3"], None, 1, "--k recall"),
    "eval-k=10,0": (["eval", "--data", "{data}", "--snapshot", "{twolevel}", "--k", "10,0"], None, 1, "--k recall"),
    "bench-k=5,10": (["bench", "--data", "{data}", "--snapshot", "{twolevel}", "--k", "5,10"], None, 1, "--k"),
    # The corpus does not exist: an eval that read or trained on it before checking --k would exit 2.
    "eval-ablation-k=0": (["eval", "--data", "{missing}", "--clusters", "all", "--k", 0, "--steps", 200], None, 1,
                          "--k recall cutoffs must be at least 1, got '0'"),
    "eval-ablation-k=1,x": (["eval", "--data", "{missing}", "--clusters", "all", "--k", "1,x", "--steps", 200], None, 1,
                            "--k must be comma-separated integers, got '1,x'"),
    "latency-no-item-has-the-field": (["latency", "--data", "{data}", "--encoder", "category"], None, 2,
                                      "no item has a 'category' field"),
    "latency-no-reference-for-the-field": (["latency", "--encoder", "category"], None, 1,
                                           "the reference workloads cover --encoder id|title; "
                                           "pass --data to measure 'category'"),
    # Without --data: each value is checked, and --history-len and --const-tokens are not read.
    "latency-history-len=0": (["latency", "--history-len", 0], None, 1, "history_len must be at least 1, got 0"),
    "latency-const-tokens=-1": (["latency", "--const-tokens", -1], None, 1, "const_tokens must be at least 0"),
    "latency-vocab-size": (["latency", "--vocab-size", 40], None, 1, "unrecognized arguments: --vocab-size"),
    "latency-history-len-unread": (["latency", "--history-len", 8], None, 1, f"--history-len {READ_ONLY} --data"),
    "latency-const-tokens-unread": (["latency", "--const-tokens", 20], None, 1, f"--const-tokens {READ_ONLY} --data"),
    # The corpus does not exist: each setting is checked before any input is read.
    **{f"early-{name}": ([*argv, "--data", "{missing}"], None, 1, message) for name, argv, message in [
        ("train-steps", ["train", "--steps", -1], "steps must be at least 0, got -1"),
        ("train-learning-rate", ["train", "--learning-rate", "nan"], "learning_rate must be finite, got nan"),
        ("eval-ablation-steps", ["eval", "--clusters", "all", "--steps", -1], "steps must be at least 0, got -1"),
        ("bench-k", ["bench", "--snapshot", "missing.hsrc", "--k", 0], "k must be at least 1, got 0"),
        ("bench-queries", ["bench", "--snapshot", "missing.hsrc", "--queries", 0], "queries must be at least 1, got 0"),
        ("latency-history-len", ["latency", "--history-len", 0], "history_len must be at least 1, got 0"),
        ("latency-const-tokens", ["latency", "--const-tokens", -1], "const_tokens must be at least 0, got -1"),
        ("eval-ablation-snapshot", ["eval", "--clusters", "all", "--snapshot", "x.hsrc"],
         "--snapshot is read only without --clusters all"),
        ("eval-ablation-engine", ["eval", "--clusters", "all", "--engine", "structure"],
         "--engine is read only without --clusters all"),
        # Each option below is read only in another mode of its command.
        ("eval-steps", ["eval", "--snapshot", "x.hsrc", "--steps", 7], f"--steps {READ_ONLY} --clusters all"),
        ("eval-seed", ["eval", "--snapshot", "x.hsrc", "--seed", 3], f"--seed {READ_ONLY} --clusters all"),
        ("eval-vocab-size", ["eval", "--snapshot", "x.hsrc", "--vocab-size", 50],
         f"--vocab-size {READ_ONLY} --clusters all"),
        ("eval-clusters", ["eval", "--snapshot", "x.hsrc", "--clusters", "kmeans"],
         "--clusters must be one of all, got 'kmeans'"),
        ("train-features", ["train", "--clusters", "random", "--features", "f.npy"],
         f"--features {READ_ONLY} --clusters kmeans"),
        ("cluster-features", ["cluster", "--clusters", "frequency", "--features", "f.npy"],
         f"--features {READ_ONLY} --clusters kmeans"),
        ("cluster-seed", ["cluster", "--clusters", "frequency", "--seed", 3],
         f"--seed {READ_ONLY} --clusters kmeans|random")]},
    # The file may set the default: given is given, whatever its value.
    **{f"config-{argv[0]}-{key}-unread": (argv, f"[{argv[0]}]\n{key} = {value}\n", 1, message)
       for argv, key, value, message in [
        (["eval", "--clusters", "all", "--data", "{missing}"], "engine", "structure",
         "--engine is read only without --clusters all"),
        (["eval", "--snapshot", "x.hsrc", "--data", "{missing}"], "steps", "7", f"--steps {READ_ONLY} --clusters all"),
        (["eval", "--snapshot", "x.hsrc", "--data", "{missing}"], "clusters", "kmeans",
         "--clusters must be one of all, got 'kmeans'"),
        (["train", "--clusters", "random", "--data", "{missing}"], "features", "f.npy",
         f"--features {READ_ONLY} --clusters kmeans"),
        (["cluster", "--clusters", "frequency", "--data", "{missing}"], "seed", "3",
         f"--seed {READ_ONLY} --clusters kmeans|random"),
        (["latency"], "history_len", "8", f"--history-len {READ_ONLY} --data")]},
    **from_flag_and_config([(command, "seed", -1, "seed must be at least 0, got -1")
                            for command in ("synth", "cluster", "train", "eval", "bench")]),
    **{f"{command}-seed=-1-real-inputs": ([command, "--data", "{data}", *snapshot, "--seed", -1], None, 1,
                                          "seed must be at least 0, got -1")
       for command, snapshot in [("cluster", []), ("bench", ["--snapshot", "{twolevel}"])]},
    **from_flag_and_config([(command, option, "bogus", f"--{option} must be one of {choices}, got 'bogus'")
                            for (command, option), choices in CHOICES.items()]),
    **from_flag_and_config(BOUNDED),
    "eval-clusters-bogus-real-inputs": (["eval", "--data", "{data}", "--snapshot", "{twolevel}", "--clusters",
                                         "bogus"], None, 1, "--clusters must be one of all, got 'bogus'"),
    # bench times two-level scorers, whose centroids full-softmax training never fits.
    "bench-full-snapshot": (["bench", "--data", "{data}", "--snapshot", "{full}", "--queries", 3], None, 1,
                            "bench needs a two-level snapshot; this one was trained with 'full'"),
    **{f"eval-{engine}-full-snapshot": (["eval", "--data", "{data}", "--snapshot", "{full}", "--engine", engine],
                                        None, 1, f"engine '{engine}' needs a two-level snapshot")
       for engine in ("structure", "ann")},
    "eval-diverged-model": (["eval", "--data", "{data}", "--snapshot", "{diverged}"], None, 3, "the model has diverged"),
    # The cap is checked before the co-occurrence matrix is made.  Before, the
    # training commands made their out-dir before training, and left it empty.
    **{name: ([*argv, "--data", "{big}"], None, 2, "has 20001; cluster it with --clusters random|frequency")
       for name, argv in [
        ("cluster-kmeans-beyond-the-svd", ["cluster", "--clusters", "kmeans"]),
        ("train-kmeans-beyond-the-svd", ["train", "--clusters", "kmeans", "--steps", 1]),
        ("eval-ablation-beyond-the-svd", ["eval", "--clusters", "all", "--steps", 1])]},
}
TYPES = {1: "usage", 2: "data", 3: "numeric"}
# A diverged model's scores overflow on the way to the non-finite score that aborts it.
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                       "ignore:invalid value encountered:RuntimeWarning")


@pytest.mark.parametrize("case", [pytest.param(c, marks=OVERFLOWS) if CONTRACTS[c][2] == 3 else c for c in CONTRACTS])
def test_cli_contract(inputs, tmp_path, capsys, case):
    """The row's exit code; a JSON trailer last on stderr, of the code's type
    and with the row's message fragment; no traceback; and no out-dir, which a
    failing command never leaves."""
    argv, config, code, fragment = CONTRACTS[case]
    paths = {**inputs, "config": tmp_path / "run.conf"}
    if config is not None:
        paths["config"].write_text(config, encoding="utf-8")
        argv = ["--config", "{config}", *argv]
    capsys.readouterr()
    assert run([str(a).format(**paths) for a in argv] + ["--out-dir", tmp_path / "out"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    trailer = json.loads(err.strip().splitlines()[-1])["error"]
    assert (trailer["type"], trailer["code"]) == (TYPES[code], code)
    assert fragment.format(**paths) in trailer["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_bench_snapshot_with_another_vocab_cap(inputs, tmp_path, command):
    # Without --vocab-size, the corpus is rebuilt at the snapshot's vocabulary
    # size (40, against the corpus's own 51 words).
    extra = ["--queries", 3] if command == "bench" else []
    assert run([command, "--data", inputs["data"], "--snapshot", inputs["twolevel"], *extra, "--out-dir", tmp_path]) == 0


def test_snapshot_without_softmax_mode_is_two_level(inputs, tmp_path):
    assert load_snapshot(inputs["no_mode"]).softmax_mode == "twolevel"
    argv = ["eval", "--data", inputs["data"], "--snapshot", inputs["no_mode"], "--engine", "all", "--out-dir", tmp_path]
    assert run(argv) == 0
    rows = json.loads((tmp_path / "metrics.json").read_text())
    assert sorted(r["engine"] for r in rows) == ["ann", "full", "structure"]


def test_eval_passes_exclude_history_through(inputs, tmp_path):
    # Dropping history items never lowers a target's rank, and on this corpus it lifts some.
    mrr = []
    for exclude in (0, 1):
        argv = ["eval", "--data", inputs["data"], "--snapshot", inputs["twolevel"], "--exclude-history", exclude,
                "--out-dir", tmp_path / str(exclude)]
        assert run(argv) == 0
        mrr.append(json.loads((tmp_path / str(exclude) / "metrics.json").read_text())[0]["mrr"])
    assert mrr[1] > mrr[0]


def test_bench_counts_the_same_tokens_when_the_search_expands_every_cluster(inputs, tmp_path):
    # At k beyond every token no cluster is pruned, so the structure search
    # scores what the unpruned engines score: each first-level logit and each item.
    argv = ["bench", "--data", inputs["data"], "--snapshot", inputs["twolevel"], "--k", 100, "--queries", 3]
    assert run([*argv, "--out-dir", tmp_path]) == 0
    assert all(query["clusters_pruned"] == 0 for query in json.loads((tmp_path / "queries.json").read_text()))
    counts = {(r["tokens_scored_p50"], r["tokens_scored_p95"]) for r in read_csv(tmp_path / "bench.csv")}
    snapshot = load_snapshot(inputs["twolevel"])
    assert counts == {(str(snapshot.cluster_map.n_clusters + snapshot.tables.n_items),) * 2}
