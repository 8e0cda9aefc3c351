"""Command-line pipelines: synth, ingest, cluster, train, eval, latency, bench.

Flag values win over config-file values, which win over defaults.  The config
file is plain ``key = value`` under a ``[command]`` section per subcommand;
unknown sections or keys are rejected.  Artifact files (CSV/JSON) contain no
timestamps, so identical config + seed reproduces byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
Failures print a human line and a machine-readable JSON trailer to stderr.
Set ``HSREC_LOG={error|info|debug}`` to control logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import latency as latency_mod
from .catalog import build_dataset, ingest_jsonl
from .encoder import encode
from .evaluate import ENGINES, evaluate, report_csv_row
from .exceptions import DataError, HsrecError, SnapshotFormatError, TrainingDivergedError
from .inference import build_additive_index, topk_ann, topk_exact, topk_structure
from .render import render_id_only
from .snapshot import load_snapshot, save_snapshot
from .synth import SynthSpec, generate, write_groups_csv, write_jsonl
from .trainer import CLUSTERINGS, TrainConfig, build_cluster_map, train

log = logging.getLogger("hsrec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("HSREC_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


# Option tables: (dest, type, default, help).  These drive both argparse and
# config-file validation, so the two can never drift apart.  Training options
# default to TrainConfig's own defaults.
_COMMON = [
    ("out_dir", str, ".", "directory for output artifacts"),
    ("seed", int, 0, "random seed"),
]

_OPTIONS = {
    "synth": _COMMON
    + [
        ("users", int, 1000, "number of users"),
        ("items", int, 200, "number of items"),
        ("groups", int, 10, "number of latent groups"),
        ("stickiness", float, 0.8, "probability an event stays in the user's group"),
        ("hist_min", int, 5, "minimum events per user"),
        ("hist_max", int, 15, "maximum events per user"),
    ],
    "ingest": _COMMON + [("data", str, None, "interactions JSONL path")],
    "cluster": _COMMON
    + [
        ("data", str, None, "interactions JSONL path"),
        ("clusters", str, "kmeans", "clustering method: kmeans|frequency|random"),
        ("n_clusters", int, 0, "item cluster count (0 = ceil(sqrt(n_items)))"),
        ("features", str, "", "optional (n_items, p) .npy feature file for kmeans"),
        ("vocab_size", int, 8192, "text vocabulary cap"),
    ],
    "train": _COMMON
    + [
        ("data", str, None, "interactions JSONL path"),
        ("mode", str, TrainConfig.softmax_mode, "softmax mode: full|twolevel"),
        ("clusters", str, "kmeans", "clustering method: kmeans|frequency|random"),
        ("n_clusters", int, 0, "item cluster count (0 = ceil(sqrt(n_items)))"),
        ("features", str, "", "optional (n_items, p) .npy feature file for kmeans"),
        ("steps", int, TrainConfig.max_steps, "max optimization steps"),
        ("batch_size", int, TrainConfig.batch_size, "examples per step"),
        ("learning_rate", float, TrainConfig.learning_rate, "peak learning rate (cosine decayed)"),
        ("weight_decay", float, TrainConfig.weight_decay, "decoupled weight decay"),
        ("id_only_fraction", float, TrainConfig.id_only_fraction, "fraction of examples rendered ID-only"),
        ("metadata_keep_prob", float, TrainConfig.metadata_keep_prob, "per-field metadata keep probability"),
        ("dim", int, 64, "model embedding dimension"),
        ("item_dim", int, 512, "raw item embedding dimension"),
        ("vocab_size", int, 8192, "text vocabulary cap"),
        ("eval_every", int, TrainConfig.eval_every, "steps between validation evals"),
        ("patience", int, TrainConfig.patience, "validation evals without improvement before stopping"),
        ("val_sample", int, TrainConfig.val_sample, "validation users per eval (0 = all)"),
    ],
    "eval": _COMMON
    + [
        ("data", str, None, "interactions JSONL path"),
        ("snapshot", str, "", "trained snapshot path (omit for clustering ablation)"),
        ("engine", str, "structure", "ranking engine: full|structure|ann|all"),
        ("clusters", str, "kmeans", "clustering method, or 'all' for the ablation grid"),
        ("k", str, "1,10", "comma-separated recall cutoffs"),
        ("exclude_history", int, 0, "1 to drop history items from the ranking"),
        ("steps", int, 500, "training steps per ablation run"),
        ("batch_size", int, TrainConfig.batch_size, "batch size for ablation training"),
        ("learning_rate", float, TrainConfig.learning_rate, "learning rate for ablation training"),
        ("vocab_size", int, 8192, "text vocabulary cap for ablation training (a snapshot uses its own)"),
    ],
    "latency": _COMMON
    + [
        ("data", str, "", "optional interactions JSONL to measure tokens-per-item"),
        ("profile", str, "all", "deployment profile: mistral7b|palm|all"),
        ("encoder", str, "all", "item encoder: id|title|category|all"),
        ("history_len", int, 8, "history length |H|"),
        ("const_tokens", int, 20, "constant prompt tokens"),
        ("vocab_size", int, 8192, "text vocabulary cap"),
    ],
    "bench": _COMMON
    + [
        ("data", str, None, "interactions JSONL path"),
        ("snapshot", str, None, "trained snapshot path"),
        ("queries", int, 100, "number of benchmark queries"),
        ("k", int, 10, "top-k size"),
    ],
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise :class:`UsageError`, so they get the JSON trailer.
    A negative number in exponent notation (``-1e-5``) is a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsrec", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=None, help="key=value config file with [command] sections")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        for dest, typ, _default, help_text in options:
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    return parser


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith(";"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current not in _OPTIONS:
                    raise DataError(f"{path}:{line_no}: unknown config section [{current}]")
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise DataError(f"{path}:{line_no}: expected key = value")
            if current is None:
                raise DataError(f"{path}:{line_no}: key outside any [command] section")
            key, value = (part.strip() for part in line.split("=", 1))
            known = {dest for dest, *_ in _OPTIONS[current]}
            if key not in known:
                raise DataError(f"{path}:{line_no}: unknown key '{key}' in section [{current}]")
            sections[current][key] = value
    return sections


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags for the active command."""
    command = args.command
    file_values: dict[str, str] = {}
    if args.config:
        file_values = _read_config_file(args.config).get(command, {})
    resolved = {}
    for dest, typ, default, _help in _OPTIONS[command]:
        flag_value = getattr(args, dest)
        if flag_value is not None:
            resolved[dest] = flag_value
        elif dest in file_values:
            resolved[dest] = typ(file_values[dest])
        else:
            resolved[dest] = default
    return resolved


def _out_dir(opts: dict) -> Path:
    path = Path(opts["out_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(opts: dict, *keys: str) -> None:
    for key in keys:
        if not opts.get(key):
            raise UsageError(f"--{key.replace('_', '-')} is required")


class UsageError(HsrecError):
    pass


def _write_csv(path: Path, rows: list[dict], fieldnames=None) -> None:
    if not rows and fieldnames is None:
        raise ValueError("no rows and no fieldnames to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames or list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _load_dataset(opts: dict):
    return build_dataset(
        ingest_jsonl(opts["data"]),
        vocab_size=opts["vocab_size"],
        name=Path(opts["data"]).stem,
    )


def _check_snapshot_matches(snapshot, data) -> None:
    """Raise DataError unless the corpus has the snapshot's items, in its
    order, and its vocabulary: the snapshot's rows are indexed by both."""
    if data.catalog.item_ids() != snapshot.item_ids:
        raise DataError(
            f"corpus {data.name!r} does not match the snapshot: {data.n_items} items against "
            f"the snapshot's {len(snapshot.item_ids)}, or the same items in another order"
        )
    if data.vocab.words != snapshot.vocab.words:
        raise DataError(
            f"corpus {data.name!r} does not match the snapshot: its vocabulary differs "
            f"({len(data.vocab)} words against the snapshot's {len(snapshot.vocab)})"
        )


def cmd_synth(opts: dict) -> int:
    out = _out_dir(opts)
    spec = SynthSpec(
        n_users=opts["users"],
        n_items=opts["items"],
        n_latent_groups=opts["groups"],
        history_len_range=(opts["hist_min"], opts["hist_max"]),
        group_stickiness=opts["stickiness"],
        seed=opts["seed"],
    )
    data = generate(spec)
    write_jsonl(data, out / "interactions.jsonl")
    write_groups_csv(data, out / "groups.csv")
    log.info("wrote %d events for %d users", len(data.events), spec.n_users)
    print(out / "interactions.jsonl")
    return EXIT_OK


def cmd_ingest(opts: dict) -> int:
    _require(opts, "data")
    out = _out_dir(opts)
    interactions = ingest_jsonl(opts["data"])
    (out / "stats.json").write_text(interactions.stats().to_json() + "\n", encoding="utf-8")
    print(interactions.stats().to_json())
    return EXIT_OK


def _load_features(opts: dict):
    if not opts.get("features"):
        return None
    features = np.load(opts["features"])
    if features.ndim != 2:
        raise DataError(f"{opts['features']}: expected a 2-D (n_items, p) array")
    return features


def cmd_cluster(opts: dict) -> int:
    _require(opts, "data")
    if opts["clusters"] not in CLUSTERINGS:
        raise UsageError(f"--clusters must be one of {CLUSTERINGS}")
    out = _out_dir(opts)
    data = _load_dataset(opts)
    cmap = build_cluster_map(
        data,
        clustering=opts["clusters"],
        n_clusters=opts["n_clusters"] or None,
        seed=opts["seed"],
        features=_load_features(opts),
    )
    cmap.to_csv(out / "clusters.csv")
    print(out / "clusters.csv")
    return EXIT_OK


def _train_config(opts: dict, mode: str) -> TrainConfig:
    """The command's training options; a field it has no option for keeps its default."""
    values = {**opts, "max_steps": opts["steps"], "softmax_mode": mode}
    return TrainConfig(**{f.name: values[f.name] for f in dataclasses.fields(TrainConfig) if f.name in values})


def cmd_train(opts: dict) -> int:
    _require(opts, "data")
    out = _out_dir(opts)
    data = _load_dataset(opts)
    config = _train_config(opts, opts["mode"])
    result = train(
        data,
        config,
        dim=opts["dim"],
        item_dim=opts["item_dim"],
        clustering=opts["clusters"],
        n_clusters=opts["n_clusters"] or None,
        kmeans_features=_load_features(opts),
    )
    save_snapshot(result.snapshot, out / "snapshot.hsrc")
    _write_csv(out / "metrics.csv", result.metrics, fieldnames=["step", "loss", "val_recall@10"])
    print(out / "snapshot.hsrc")
    return EXIT_OK


def _load_snapshot_and_corpus(opts: dict):
    snapshot = load_snapshot(opts["snapshot"])
    # Capped at the snapshot's size, the corpus rebuilds the snapshot's vocabulary.
    data = _load_dataset({**opts, "vocab_size": len(snapshot.vocab)})
    _check_snapshot_matches(snapshot, data)
    return snapshot, data


def _recall_cutoffs(text) -> tuple[int, ...]:
    """``--k`` as recall cutoffs, checked before anything is loaded or trained."""
    try:
        ks = tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise UsageError(f"--k must be comma-separated integers, got {text!r}") from None
    if min(ks) < 1:
        raise UsageError(f"--k recall cutoffs must be at least 1, got {text!r}")
    return ks


def _eval_single(opts: dict, out: Path, ks: tuple[int, ...]) -> int:
    snapshot, data = _load_snapshot_and_corpus(opts)
    mode = snapshot.config.get("softmax_mode", "twolevel")
    if opts["engine"] == "all":
        engines = list(ENGINES) if mode == "twolevel" else ["full"]
    else:
        engines = [opts["engine"]]
    rows = []
    for engine in engines:
        report = evaluate(
            snapshot,
            data,
            engine=engine,
            ks=ks,
            exclude_history=bool(opts["exclude_history"]),
        )
        rows.append(
            report_csv_row(data.name, engine, snapshot.config.get("clustering", "?"), report)
        )
    (out / "metrics.json").write_text(
        json.dumps(rows, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _write_csv(out / "results.csv", rows)
    print(json.dumps(rows, sort_keys=True))
    return EXIT_OK


def _eval_ablation(opts: dict, out: Path, ks: tuple[int, ...]) -> int:
    """Train one model per clustering method; evaluate each with both fast
    engines plus the full-enumeration oracle row for exactness checks."""
    data = _load_dataset(opts)
    rows = []
    for clustering in CLUSTERINGS:
        config = _train_config(opts, "twolevel")
        result = train(data, config, clustering=clustering)
        snapshot = result.snapshot
        for engine in ("structure", "ann", "full"):
            report = evaluate(
                snapshot,
                data,
                engine=engine,
                ks=ks,
                exclude_history=bool(opts["exclude_history"]),
            )
            rows.append(report_csv_row(data.name, engine, clustering, report))
    _write_csv(out / "ablation.csv", rows)
    print(out / "ablation.csv")
    return EXIT_OK


def cmd_eval(opts: dict) -> int:
    _require(opts, "data")
    ks = _recall_cutoffs(opts["k"])
    out = _out_dir(opts)
    if opts["clusters"] == "all":
        return _eval_ablation(opts, out, ks)
    _require(opts, "snapshot")
    return _eval_single(opts, out, ks)


def cmd_latency(opts: dict) -> int:
    out = _out_dir(opts)
    if opts["profile"] == "all":
        profiles = list(latency_mod.PROFILES.values())
    elif opts["profile"] in latency_mod.PROFILES:
        profiles = [latency_mod.PROFILES[opts["profile"]]]
    else:
        raise UsageError(f"--profile must be one of {sorted(latency_mod.PROFILES)} or 'all'")
    if opts["encoder"] == "all":
        encoders = list(latency_mod.MULTI_TOKEN_ENCODERS)
    elif opts["encoder"] in latency_mod.MULTI_TOKEN_ENCODERS:
        encoders = [opts["encoder"]]
    else:
        raise UsageError(
            f"--encoder must be one of {latency_mod.MULTI_TOKEN_ENCODERS} or 'all'"
        )

    if opts["data"]:
        data = _load_dataset(opts)
        # Like the reference workloads' missing specs, an encoder whose field
        # no item has is skipped under "all"; asked for by name, it is a data error.
        measurable = [e for e in encoders if latency_mod.has_encoding(data, e)]
        if opts["encoder"] != "all" and not measurable:
            raise DataError(f"no item has a {opts['encoder']!r} field")
        rows = latency_mod.latency_table(
            data,
            profiles=profiles,
            encoders=measurable,
            history_len=opts["history_len"],
            const_tokens=opts["const_tokens"],
        )
    else:
        # Reference workloads the built-in profiles were solved against.
        rows = []
        for profile in profiles:
            specs = latency_mod.REFERENCE_SPECS[profile.name]
            for encoder in encoders:
                if encoder in specs:
                    rows.append(
                        latency_mod.latency_row("reference", encoder, profile, specs[encoder], specs["id"])
                    )
    latency_mod.write_latency_csv(rows, out / "latency.csv")
    registry = {p.name: p.to_dict() for p in latency_mod.PROFILES.values()}
    (out / "profiles.json").write_text(
        json.dumps(registry, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(out / "latency.csv")
    return EXIT_OK


def cmd_bench(opts: dict) -> int:
    _require(opts, "data", "snapshot")
    if opts["queries"] < 1:
        raise UsageError(f"--queries must be at least 1, got {opts['queries']}")
    out = _out_dir(opts)
    snapshot, data = _load_snapshot_and_corpus(opts)
    k = opts["k"]
    rng = np.random.default_rng(opts["seed"])
    examples = data.test_examples
    picks = rng.integers(0, len(examples), size=min(opts["queries"], len(examples)))
    queries = []
    for i in picks:
        seq = render_id_only(examples[int(i)], data)
        query, _ = encode(seq, snapshot.tables, snapshot.encoder)
        queries.append(query)
    index = build_additive_index(snapshot.tables, snapshot.cluster_map)

    def timed(fn):
        times, scored = [], []
        for query in queries:
            start = time.perf_counter()
            extra = fn(query)
            times.append((time.perf_counter() - start) * 1e3)
            scored.append(extra)
        return times, scored

    n_total = snapshot.tables.n_total
    per_query: list[dict] = []

    def run_structure(q):
        ranked, stats = topk_structure(q, k, snapshot.tables, snapshot.cluster_map)
        per_query.append(
            {"topk": ranked.rows(snapshot.space, snapshot.item_ids), **stats.to_dict()}
        )
        return stats.tokens_scored

    runs = {
        "exact": timed(lambda q: (topk_exact(q, k, snapshot.tables, snapshot.cluster_map), n_total)[1]),
        "structure": timed(run_structure),
        "ann": timed(lambda q: (topk_ann(q, k, index, snapshot.tables), n_total)[1]),
    }
    rows = []
    for engine, (times, scored) in runs.items():
        rows.append(
            {
                "engine": engine,
                "queries": len(times),
                "p50_ms": round(statistics.median(times), 4),
                "p95_ms": round(float(np.percentile(times, 95)), 4),
                "tokens_scored_p50": int(np.percentile(scored, 50)),
                "tokens_scored_p95": int(np.percentile(scored, 95)),
            }
        )
    _write_csv(out / "bench.csv", rows)
    (out / "queries.json").write_text(
        json.dumps(per_query, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(out / "bench.csv")
    return EXIT_OK


_HANDLERS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "cluster": cmd_cluster,
    "train": cmd_train,
    "eval": cmd_eval,
    "latency": cmd_latency,
    "bench": cmd_bench,
}


def _fail(code: int, kind: str, message: str) -> int:
    print(f"hsrec: error: {message}", file=sys.stderr)
    print(json.dumps({"error": {"type": kind, "code": code, "message": message}}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _resolve(args)
        return _HANDLERS[args.command](opts)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except UsageError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except (DataError, SnapshotFormatError, FileNotFoundError) as exc:
        return _fail(EXIT_DATA, "data", str(exc))
    except TrainingDivergedError as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
