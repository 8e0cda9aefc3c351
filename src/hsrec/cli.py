"""Command-line pipelines: synth, ingest, cluster, train, eval, latency, bench.

Flag values win over config-file values, which win over defaults.  The config
file is plain ``key = value`` under a ``[command]`` section per subcommand;
unknown sections or keys are rejected.  One option table gives each option's
type, default, help, allowed values and the mode its command reads it in; a
``None`` default marks a required option.  All of these are checked once, for
flags and config values alike, before a command reads any input, so an option
set outside its mode is a usage error, not a setting silently ignored.
Artifact files (CSV/JSON) contain no timestamps, so identical config + seed
reproduces byte-identical outputs.

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
from .catalog import build_dataset, ingest_jsonl, read_lines
from .encoder import encode
from .evaluate import ENGINES, evaluate, report_csv_row
from .exceptions import DataError, HsrecError, SnapshotFormatError, TrainingDivergedError
from .inference import build_additive_index, topk_ann, topk_exact, topk_structure
from .render import render_id_only
from .snapshot import load_snapshot, save_snapshot
from .softmax import MODES
from .synth import SynthSpec, generate, write_groups_csv, write_jsonl
from .tokens import MIN_VOCAB_SIZE
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


# Option tables: (dest, type, default, help[, choices[, minimum[, mode]]]).
# These drive argparse, config-file keys and the one check of every resolved
# value (``_resolve``), so the three can never drift apart.  A None default
# marks a required option; choices come from the library's own constants and
# are appended to the help, as are a minimum and a mode.  A mode names when the
# command reads the option: "with --clusters kmeans|random" while --clusters is
# one of those values, "with --data" while --data is set, "without ..." the
# converse.  Training options default to TrainConfig's own defaults.
_OUT_DIR = ("out_dir", str, ".", "directory for output artifacts")
_SEED = ("seed", int, 0, "random seed", (), 0)
_ABLATION = "with --clusters all"

_OPTIONS = {
    "synth": [
        _OUT_DIR, _SEED,
        ("users", int, 1000, "number of users"),
        ("items", int, 200, "number of items"),
        ("groups", int, 10, "number of latent groups"),
        ("stickiness", float, 0.8, "probability an event stays in the user's group"),
        ("hist_min", int, 5, "minimum events per user"),
        ("hist_max", int, 15, "maximum events per user"),
    ],
    "ingest": [_OUT_DIR, ("data", str, None, "interactions JSONL path")],
    "cluster": [
        _OUT_DIR, (*_SEED, "with --clusters kmeans|random"),
        ("data", str, None, "interactions JSONL path"),
        ("clusters", str, "kmeans", "clustering method", CLUSTERINGS),
        ("n_clusters", int, 0, "item cluster count (0 = ceil(sqrt(n_items)))", (), 0),
        ("features", str, "", "optional (n_items, p) .npy feature file", (), None, "with --clusters kmeans"),
        ("vocab_size", int, 8192, "text vocabulary cap", (), MIN_VOCAB_SIZE),
    ],
    "train": [
        _OUT_DIR, _SEED,
        ("data", str, None, "interactions JSONL path"),
        ("mode", str, TrainConfig.softmax_mode, "softmax mode", MODES),
        ("clusters", str, "kmeans", "clustering method", CLUSTERINGS),
        ("n_clusters", int, 0, "item cluster count (0 = ceil(sqrt(n_items)))", (), 0),
        ("features", str, "", "optional (n_items, p) .npy feature file", (), None, "with --clusters kmeans"),
        ("steps", int, TrainConfig.max_steps, "max optimization steps", (), 0),
        ("batch_size", int, TrainConfig.batch_size, "examples per step", (), 1),
        ("learning_rate", float, TrainConfig.learning_rate, "peak learning rate (cosine decayed)", (), 0),
        ("weight_decay", float, TrainConfig.weight_decay, "decoupled weight decay", (), 0),
        ("id_only_fraction", float, TrainConfig.id_only_fraction, "fraction of examples rendered ID-only"),
        ("metadata_keep_prob", float, TrainConfig.metadata_keep_prob, "per-field metadata keep probability"),
        ("dim", int, 64, "model embedding dimension", (), 1),
        ("item_dim", int, 512, "raw item embedding dimension", (), 1),
        ("vocab_size", int, 8192, "text vocabulary cap", (), MIN_VOCAB_SIZE),
        ("eval_every", int, TrainConfig.eval_every, "steps between validation evals", (), 0),
        ("patience", int, TrainConfig.patience, "validation evals without improvement before stopping", (), 0),
        ("val_sample", int, TrainConfig.val_sample, "validation users per eval (0 = all)", (), 0),
    ],
    "eval": [
        _OUT_DIR, (*_SEED, _ABLATION),
        ("data", str, None, "interactions JSONL path"),
        ("snapshot", str, "", "trained snapshot path", (), None, "without --clusters all"),
        ("engine", str, "structure", "ranking engine", (*ENGINES, "all"), None, "without --clusters all"),
        ("clusters", str, "", "'all' runs the clustering ablation: one two-level model per "
         "clustering method, ranked by every engine", ("all",)),
        ("k", str, "1,10", "comma-separated recall cutoffs"),
        ("exclude_history", int, 0, "1 to drop history items from the ranking", (0, 1)),
        ("steps", int, 500, "training steps per model", (), 0, _ABLATION),
        ("batch_size", int, TrainConfig.batch_size, "examples per step", (), 1, _ABLATION),
        ("learning_rate", float, TrainConfig.learning_rate, "peak learning rate", (), 0, _ABLATION),
        ("vocab_size", int, 8192, "text vocabulary cap", (), MIN_VOCAB_SIZE, _ABLATION),
    ],
    "latency": [
        _OUT_DIR,
        ("data", str, "", "optional interactions JSONL to measure tokens-per-item"),
        ("profile", str, "all", "deployment profile", (*latency_mod.PROFILES, "all")),
        ("encoder", str, "all", "item encoder", (*latency_mod.MULTI_TOKEN_ENCODERS, "all")),
        ("history_len", int, 8, "history length |H|", (), 1, "with --data"),
        ("const_tokens", int, 20, "constant prompt tokens", (), 0, "with --data"),
    ],
    "bench": [
        _OUT_DIR, _SEED,
        ("data", str, None, "interactions JSONL path"),
        ("snapshot", str, None, "trained snapshot path"),
        ("queries", int, 100, "number of benchmark queries", (), 1),
        ("k", int, 10, "top-k size", (), 1),
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


def _spec(command: str) -> list[tuple]:
    """The command's options as (dest, type, default, help, choices, minimum,
    mode); no choices is (), no minimum or mode None."""
    return [(*entry, *((), None, None)[len(entry) - 4 :]) for entry in _OPTIONS[command]]


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsrec", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=None, help="key=value config file with [command] sections")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _OPTIONS:
        p = sub.add_parser(command)
        for dest, typ, _default, help_text, choices, minimum, mode in _spec(command):
            if choices:
                help_text += f" ({'|'.join(map(str, choices))})"
            if minimum is not None:
                help_text += f" (>= {minimum})"
            if mode:
                help_text += f" ({mode})"
            p.add_argument(_flag(dest), dest=dest, type=typ, default=None, help=help_text)
    return parser


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}``; a byte-order mark before line 1 is skipped,
    and an unknown or repeated section or key is a DataError naming its line."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = (raw.removeprefix("\ufeff") if line_no == 1 else raw).strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _OPTIONS:
                raise DataError(f"{path}:{line_no}: unknown config section [{current}]")
            if current in sections:
                raise DataError(f"{path}:{line_no}: repeated config section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise DataError(f"{path}:{line_no}: expected key = value")
        if current is None:
            raise DataError(f"{path}:{line_no}: key outside any [command] section")
        key, value = (part.strip() for part in line.split("=", 1))
        known = {dest for dest, *_ in _OPTIONS[current]}
        if key not in known:
            raise DataError(f"{path}:{line_no}: unknown key '{key}' in section [{current}]")
        if key in sections[current]:
            raise DataError(f"{path}:{line_no}: repeated key '{key}' in section [{current}]")
        sections[current][key] = value
    return sections


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags for the active command,
    then check that every required option is set, every value is one of its
    choices and none is below its minimum; then that no option set by a flag
    or the config file is outside its mode."""
    command = args.command
    file_values: dict[str, str] = {}
    if args.config:
        file_values = _read_config_file(args.config).get(command, {})
    resolved = {}
    for dest, typ, default, _help, choices, minimum, _mode in _spec(command):
        value = getattr(args, dest)
        if value is None and dest in file_values:
            try:
                value = typ(file_values[dest])
            except ValueError:
                raise UsageError(f"[{command}] {dest} = {file_values[dest]!r} is not a valid {typ.__name__}") from None
        elif value is None:
            value = default
        if default is None and value in (None, ""):
            raise UsageError(f"{_flag(dest)} is required")
        if choices and value != default and value not in choices:
            raise UsageError(f"{_flag(dest)} must be one of {'|'.join(map(str, choices))}, got {value!r}")
        if minimum is not None and value < minimum:
            raise UsageError(f"{dest} must be at least {minimum}, got {value}")
        resolved[dest] = value
    for dest, *_, mode in _spec(command):
        if mode and (getattr(args, dest) is not None or dest in file_values):
            polarity, flag, *values = mode.split()
            value = resolved[flag[2:].replace("-", "_")]
            if (value in values[0].split("|") if values else bool(value)) != (polarity == "with"):
                raise UsageError(f"{_flag(dest)} is read only {mode}")
    return resolved


def _out_dir(opts: dict) -> Path:
    """Made only after the inputs are read and any model is trained, so a
    failed run leaves no empty directory."""
    path = Path(opts["out_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


class UsageError(HsrecError):
    pass


def _write_csv(path: Path, rows: list[dict], fieldnames=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames or list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, sort_keys=True, indent=2) + "\n", encoding="utf-8")


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
    spec = SynthSpec(
        n_users=opts["users"],
        n_items=opts["items"],
        n_latent_groups=opts["groups"],
        history_len_range=(opts["hist_min"], opts["hist_max"]),
        group_stickiness=opts["stickiness"],
        seed=opts["seed"],
    )
    data = generate(spec)
    out = _out_dir(opts)
    write_jsonl(data, out / "interactions.jsonl")
    write_groups_csv(data, out / "groups.csv")
    log.info("wrote %d events for %d users", len(data.events), spec.n_users)
    print(out / "interactions.jsonl")
    return EXIT_OK


def cmd_ingest(opts: dict) -> int:
    interactions = ingest_jsonl(opts["data"])
    out = _out_dir(opts)
    (out / "stats.json").write_text(interactions.stats().to_json() + "\n", encoding="utf-8")
    print(interactions.stats().to_json())
    return EXIT_OK


def _load_features(opts: dict):
    """The ``--features`` array, or None; a file numpy cannot read as a plain
    array (not ``.npy``, pickled objects, empty or truncated) is a data error."""
    if not opts.get("features"):
        return None
    try:
        return np.load(opts["features"])
    except (ValueError, EOFError) as exc:
        raise DataError(f"--features {opts['features']}: {exc}") from None


def cmd_cluster(opts: dict) -> int:
    data = _load_dataset(opts)
    cmap = build_cluster_map(
        data,
        clustering=opts["clusters"],
        n_clusters=opts["n_clusters"] or None,
        seed=opts["seed"],
        features=_load_features(opts),
    )
    out = _out_dir(opts)
    cmap.to_csv(out / "clusters.csv")
    print(out / "clusters.csv")
    return EXIT_OK


def _train_config(opts: dict, mode: str) -> TrainConfig:
    """The command's training options; a field it has no option for keeps its default."""
    values = {**opts, "max_steps": opts["steps"], "softmax_mode": mode}
    return TrainConfig(**{f.name: values[f.name] for f in dataclasses.fields(TrainConfig) if f.name in values})


def cmd_train(opts: dict) -> int:
    config = _train_config(opts, opts["mode"])
    data = _load_dataset(opts)
    result = train(
        data,
        config,
        dim=opts["dim"],
        item_dim=opts["item_dim"],
        clustering=opts["clusters"],
        n_clusters=opts["n_clusters"] or None,
        kmeans_features=_load_features(opts),
    )
    out = _out_dir(opts)
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


def _report_rows(opts: dict, ks, snapshot, data, clustering: str, engines) -> list[dict]:
    """One report row per engine for ``snapshot`` on ``data``."""
    exclude = bool(opts["exclude_history"])
    return [
        report_csv_row(data.name, e, clustering, evaluate(snapshot, data, e, ks=ks, exclude_history=exclude))
        for e in engines
    ]


def _eval_single(opts: dict, ks: tuple[int, ...]) -> int:
    snapshot, data = _load_snapshot_and_corpus(opts)
    engines = [opts["engine"]]
    if opts["engine"] == "all":
        engines = list(ENGINES) if snapshot.softmax_mode == "twolevel" else ["full"]
    rows = _report_rows(opts, ks, snapshot, data, snapshot.config.get("clustering", "?"), engines)
    out = _out_dir(opts)
    _write_json(out / "metrics.json", rows)
    _write_csv(out / "results.csv", rows)
    print(json.dumps(rows, sort_keys=True))
    return EXIT_OK


def _eval_ablation(opts: dict, ks: tuple[int, ...]) -> int:
    """Train one model per clustering method; evaluate each with both fast
    engines plus the full-enumeration oracle row for exactness checks."""
    config = _train_config(opts, "twolevel")
    data = _load_dataset(opts)
    rows = []
    for clustering in CLUSTERINGS:
        snapshot = train(data, config, clustering=clustering).snapshot
        rows += _report_rows(opts, ks, snapshot, data, clustering, ("structure", "ann", "full"))
    out = _out_dir(opts)
    _write_csv(out / "ablation.csv", rows)
    print(out / "ablation.csv")
    return EXIT_OK


def cmd_eval(opts: dict) -> int:
    ks = _recall_cutoffs(opts["k"])
    if opts["clusters"] == "all":
        return _eval_ablation(opts, ks)
    if not opts["snapshot"]:
        raise UsageError("--snapshot is required unless --clusters all")
    return _eval_single(opts, ks)


def cmd_latency(opts: dict) -> int:
    profiles = [p for name, p in latency_mod.PROFILES.items() if opts["profile"] in (name, "all")]
    encoders = [e for e in latency_mod.MULTI_TOKEN_ENCODERS if opts["encoder"] in (e, "all")]
    if opts["data"]:
        # Tokens per item depend on the items' metadata alone.
        name = Path(opts["data"]).stem
        catalog = ingest_jsonl(opts["data"]).catalog
        measured = latency_mod.measured_specs(catalog, encoders, opts["history_len"], opts["const_tokens"])
        specs = dict.fromkeys(latency_mod.PROFILES, measured)
    else:
        # The reference workloads the built-in profiles were solved against.
        name, specs = "reference", latency_mod.REFERENCE_SPECS
    # An encoder without a spec (no reference workload, or a field no item has) gets no row.
    rows = [latency_mod.latency_row(name, e, p, specs[p.name][e], specs[p.name]["id"])
            for p in profiles for e in encoders if e in specs[p.name]]
    if not rows and opts["data"]:
        raise DataError(f"no item has a {opts['encoder']!r} field")
    if not rows:
        covered = "|".join(sorted(set().union(*latency_mod.REFERENCE_SPECS.values())))
        raise UsageError(f"the reference workloads cover --encoder {covered}; pass --data to measure {opts['encoder']!r}")
    out = _out_dir(opts)
    _write_csv(out / "latency.csv", rows)
    _write_json(out / "profiles.json", {p.name: p.to_dict() for p in latency_mod.PROFILES.values()})
    print(out / "latency.csv")
    return EXIT_OK


def cmd_bench(opts: dict) -> int:
    snapshot, data = _load_snapshot_and_corpus(opts)
    if snapshot.softmax_mode != "twolevel":
        # All three engines rank with the two-level head, which full-softmax training never fits.
        raise UsageError(f"bench needs a two-level snapshot; this one was trained with {snapshot.softmax_mode!r}")
    k, tables, cmap = opts["k"], snapshot.tables, snapshot.cluster_map
    rng = np.random.default_rng(opts["seed"])
    out = _out_dir(opts)
    examples = data.test_examples
    picks = rng.integers(0, len(examples), size=min(opts["queries"], len(examples)))
    queries = [encode(render_id_only(examples[int(i)], data), tables, snapshot.encoder)[0] for i in picks]
    index = build_additive_index(tables, cmap)
    # Each search returns (TopK, SearchStats or None); None means it scored every token.
    searches = {
        "exact": lambda q: (topk_exact(q, k, tables, cmap), None),
        "structure": lambda q: topk_structure(q, k, tables, cmap),
        "ann": lambda q: (topk_ann(q, k, index, tables), None),
    }
    rows, results = [], {}
    for engine, search in searches.items():
        times, results[engine] = [], []
        for query in queries:
            start = time.perf_counter()
            result = search(query)
            times.append((time.perf_counter() - start) * 1e3)
            results[engine].append(result)
        scored = [tables.n_total + tables.n_item_clusters if stats is None else stats.tokens_scored
                  for _, stats in results[engine]]
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
    per_query = [
        {"topk": ranked.rows(snapshot.space, snapshot.item_ids), **stats.to_dict()}
        for ranked, stats in results["structure"]
    ]
    _write_csv(out / "bench.csv", rows)
    _write_json(out / "queries.json", per_query)
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
    except (DataError, SnapshotFormatError, OSError) as exc:
        return _fail(EXIT_DATA, "data", str(exc))
    except TrainingDivergedError as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))


if __name__ == "__main__":
    sys.exit(main())
