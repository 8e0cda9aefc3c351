"""One benchmark run: a set-up, then training and serving in interleaved rounds.

Every timed operation goes through ``Bench.op``, which counts it as attempted,
times it, and counts it as failed if it raises.  Outputs are checked against
``reference`` after the clock stops.  A run is a fixed amount of work set by
its workload:

* one set-up (ingest, build the dataset, cluster, initialise the model) whose
  model is then served;
* rounds (``Bench.run_rounds``): two-level training steps on the served model,
  full-softmax steps on a second model, more set-ups, and serving groups of
  structure and ANN queries and eval chunks, interleaved so that every metric
  samples the whole run.  test_nll is taken when the served model has made
  ``train_steps`` steps, so it depends on the seed alone.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hsrec import catalog, encoder, inference, render, trainer
from hsrec.catalog import SequenceExample
from hsrec.exceptions import StaleIndexError
from hsrec.softmax import two_level_logprob
from hsrec.trainer import TrainConfig

from reference import TOL, Reference, metrics_of, rank_interval, report_error, topk_error
from spans import Tracer
from speed import Speed
from workloads import Expected, Workload, make_inputs

evaluation = importlib.import_module("hsrec.evaluate")  # the package re-exports a function under this name

K = 10
PHASES = (
    "setup",
    "train.twolevel",
    "train.full",
    "query.structure",
    "query.ann",
    "eval.structure",
    "eval.ann",
    "eval.full",
)
MAX_PROBLEMS = 20  # check failures kept for the report
LOSS_EXAMPLES = 256  # train examples behind the before/after training NLL


def maxrss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    done: int = 0
    samples: list[tuple[float, float, int]] = field(default_factory=list)  # (start, seconds, units)


class Bench:
    def __init__(self, workload: Workload, seed: int, out_dir: Path, tracer: Tracer | None = None):
        self.w = workload
        self.seed = seed
        self.out_dir = out_dir
        self.input_path = out_dir / f"inputs-{workload.name}-{seed}.jsonl"
        self.tracer = tracer
        self.phases = {name: Phase() for name in PHASES}
        self.problems: list[str] = []
        self.n_checks = 0
        self.n_rounds = 0
        self.rss_growth_mb = 0.0  # largest rise of peak RSS across one clustering call
        # Recomputed train-set NLL of each model before and after training.
        self.train_nll: dict[str, list[float]] = {"twolevel": [], "full": []}
        self.index = None
        self.test_nll = float("nan")
        self.quality: dict[str, float] = {}
        self.wall: dict[str, float] = {}  # wall seconds per stage, checks included
        self.speed = Speed()

    # -- bookkeeping -----------------------------------------------------

    def check(self, ok: bool, message) -> bool:
        self.n_checks += 1
        if not ok:
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(message() if callable(message) else str(message))
        return ok

    def op(self, phase: str, fn, *args, n: int = 1):
        """Run one timed operation covering ``n`` units of work; None if it raised."""
        self.speed.probe()
        ph = self.phases[phase]
        ph.attempted += n
        start = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                with self.tracer.root(phase):
                    out = fn(*args)
        except Exception:
            ph.failed += n
            print(f"perfbench: {phase} raised\n{traceback.format_exc()}", file=sys.stderr)
            return None
        elapsed = perf_counter() - start
        ph.done += n
        ph.samples.append((start, elapsed, n))
        return out

    def timings(self, phase: str, scaled: bool = True) -> list[tuple[float, int]]:
        """The phase's (seconds, units), rescaled to the reference speed (``speed``)."""
        return [
            (t * self.speed.factor(start, t) if scaled else t, n) for start, t, n in self.phases[phase].samples
        ]

    # -- set-up ----------------------------------------------------------

    def config(self, mode: str, step: int, lr: float) -> TrainConfig:
        return TrainConfig(
            batch_size=self.w.batch_size,
            learning_rate=lr,
            max_steps=1,
            seed=self.seed * 100_003 + step,
            softmax_mode=mode,
            eval_every=0,
        )

    def _setup(self):
        """One timed and checked set-up; its outputs, or None if it raised."""
        gc.collect()  # every set-up starts from a collected heap
        built = self.op("setup", self._setup_once)
        if built is not None:
            self._check_setup(*built)
        return built

    def _setup_once(self):
        interactions = catalog.ingest_jsonl(self.input_path)
        data = catalog.build_dataset(interactions, name=self.w.name)
        before = maxrss_mb()
        cmap = trainer.build_cluster_map(data, self.w.clustering, seed=self.seed)
        self.rss_growth_mb = max(self.rss_growth_mb, maxrss_mb() - before)
        snap = trainer.init_model(
            data,
            self.config("twolevel", 0, self.w.learning_rate),
            dim=self.w.dim,
            item_dim=self.w.item_dim,
            clustering=self.w.clustering,
            cluster_map=cmap,
        )
        return interactions, data, snap

    def _check_setup(self, interactions, data, snap) -> None:
        exp = self.expected
        self.check(interactions.n_events == exp.n_events, "ingest: event count differs from the generator")
        self.check(interactions.users == exp.users, "ingest: users differ from the generator")
        self.check(data.catalog.item_ids() == exp.items, "ingest: catalog order differs from first-seen order")
        n_train, n_val, n_test = data.split.counts()
        self.check(
            (n_train, n_val, n_test) == (exp.n_train_events, exp.n_split_users, exp.n_split_users),
            lambda: f"split sizes {(n_train, n_val, n_test)} differ from the generator's",
        )
        self.check(
            (len(data.train_examples), len(data.val_examples)) == (exp.n_train_examples, exp.n_split_users),
            "split: example counts differ from the generator's",
        )
        ids = data.catalog.item_ids()
        wrong = sum(
            1
            for ex in data.test_examples
            if [ids[i] for i in ex.history] + [ids[ex.target]] != exp.sequences[ex.user]
        )
        self.check(wrong == 0, lambda: f"split: {wrong} test examples differ from the generator's sequences")
        cm = snap.cluster_map
        sizes = np.bincount(cm.item_assignment, minlength=cm.n_item_clusters)
        self.check(
            cm.n_item_clusters == math.ceil(math.sqrt(len(exp.items)))
            and cm.item_assignment.size == len(exp.items)
            and sizes.size == cm.n_item_clusters
            and bool((sizes > 0).all()),
            lambda: f"cluster map is not a partition into ceil(sqrt({len(exp.items)})) non-empty clusters",
        )

    # -- training ---------------------------------------------------------

    def _train_step(self, mode: str, snap, step: int, lr: float) -> None:
        result = self.op("train." + mode, trainer.train, self.data, self.config(mode, step, lr), snap)
        if result is None:
            return
        self.check(result.steps_run == 1, lambda: f"{mode} step {step} ran {result.steps_run} steps")
        if snap is not self.snap:
            return
        self.ref.refresh()
        if self.index is not None:
            try:
                inference.topk_ann(np.zeros(self.w.dim), K, self.index, snap.tables)
                raised = False
            except StaleIndexError:
                raised = True
            self.check(raised, "a stale additive index answered a query after a write")

    def _record_train_nll(self, mode: str, snap) -> None:
        """Mean recomputed NLL of the first LOSS_EXAMPLES train examples (ID-only)."""
        ref = self.ref if snap is self.snap else Reference(snap)
        nll = []
        for ex in self.data.train_examples[:LOSS_EXAMPLES]:
            q = ref.query(ref.prompt(self.data.vocab, ex.history))
            logprobs = ref.item_logprobs(q) if mode == "twolevel" else ref.item_logprobs_full(q)
            nll.append(-float(logprobs[ex.target]))
        self.train_nll[mode].append(float(np.mean(nll)))

    def _check_losses(self) -> None:
        for mode, nll in self.train_nll.items():
            self.check(
                len(nll) == 2 and all(map(math.isfinite, nll)) and nll[1] < nll[0],
                lambda: f"{mode} training did not lower the train-set NLL: {nll}",
            )

    # -- serving ----------------------------------------------------------

    def _query(self, engine: str, history_ids):
        data, snap = self.data, self.snap
        history = tuple(data.catalog.index_of(i) for i in history_ids)
        seq = render.render_id_only(SequenceExample("query", history, history[-1]), data)
        query, _ = encoder.encode(seq, snap.tables, snap.encoder)
        index = None
        if engine == "ann":
            if self.index is None or self.index.tables_version != snap.tables.version:
                self.index = inference.build_additive_index(snap.tables, snap.cluster_map)
            index = self.index
        top = inference.topk_items(
            query, K, snap.tables, snap.cluster_map, snap.space, engine=engine, index=index
        )
        return [snap.item_ids[o - snap.tables.n_text] for o in top.ordinals.tolist()], query

    def _check_query(self, engine: str, user: str, out) -> None:
        ids, query = out
        want = self.ref.query(self.ref.prompt(self.data.vocab, self.history[user]))
        gap = float(np.max(np.abs(query - want)))
        self.check(gap <= TOL, lambda: f"{engine} query for {user}: query vector off by {gap:.3g}")
        scores = self.ref.item_logprobs(want) if engine == "structure" else self.ref.item_additive(want)
        err = topk_error([self.item_index.get(i, -1) for i in ids], scores, K)
        self.check(err is None, lambda: f"{engine} query for {user}: {err}")

    def _evaluate(self, engine: str, examples):
        return evaluation.evaluate(self.snap, self.data, engine=engine, examples=examples)

    def _intervals(self, users, engine: str):
        out = []
        for u in users:
            q = self.ref.query(self.ref.prompt(self.data.vocab, self.history[u]))
            scores = self.ref.item_logprobs(q) if engine != "ann" else self.ref.item_additive(q)
            out.append(rank_interval(scores, self.target[u]))
        return out

    def _eval_chunk(self, engine: str, n: int) -> None:
        users = self._take(n)
        examples = [self.example[u] for u in users]
        report = self.op("eval." + engine, self._evaluate, engine, examples, n=n)
        if report is None:
            return
        report = report.to_dict()
        intervals = self._intervals(users, engine)
        err = report_error(report, intervals)
        self.check(err is None, lambda: f"{engine} eval: {err}")
        if engine != "structure":
            return
        # Per user: the structure engine's rank equals the full engine's and
        # lies inside the recomputed interval.
        ranks = []
        for u, ex, (lo, hi) in zip(users, examples, intervals):
            rs = round(1.0 / self._evaluate("structure", [ex]).mrr)
            rf = round(1.0 / self._evaluate("full", [ex]).mrr)
            self.check(rs == rf, lambda: f"eval {u}: structure rank {rs} != full rank {rf}")
            self.check(lo <= rs <= hi, lambda: f"eval {u}: rank {rs} outside [{lo}, {hi}]")
            ranks.append(rs)
        want = metrics_of(ranks)
        gap = max(abs(report[k] - v) for k, v in want.items())
        self.check(gap <= 1e-12, lambda: f"structure eval report differs from its per-user ranks by {gap:.3g}")

    def _take(self, n: int) -> list[str]:
        out = []
        for _ in range(n):
            out.append(self.order[self._cursor % len(self.order)])
            self._cursor += 1
        return out

    def _group(self) -> None:
        """Interleaved structure and ANN queries, then one eval chunk per engine."""
        for user in self._take(self.w.queries_per_group):
            for engine in ("structure", "ann"):
                out = self.op("query." + engine, self._query, engine, self._history_ids(user))
                if out is not None:
                    self._check_query(engine, user, out)
        for engine, n in zip(("structure", "ann", "full"), self.w.eval_users):
            self._eval_chunk(engine, n)

    def prepare(self) -> None:
        """Inputs, the first set-up, the reference and the user order.

        The input file stays until ``run`` ends: later set-ups read it again.
        """
        w = self.w
        self.out_dir.mkdir(parents=True, exist_ok=True)
        events = make_inputs(w, self.seed, self.input_path)
        self.expected = exp = Expected.from_events(events)
        built = self._setup()
        if built is None:
            raise RuntimeError("the first set-up failed")
        self.interactions, self.data, self.snap = built
        self.ref = Reference(self.snap)
        self.item_index = {item: i for i, item in enumerate(exp.items)}
        self.users = [u for u in exp.users if len(exp.sequences[u]) >= 3]
        self.history = {u: [self.item_index[i] for i in exp.sequences[u][:-1]] for u in self.users}
        self.target = {u: self.item_index[exp.sequences[u][-1]] for u in self.users}
        self.example = {ex.user: ex for ex in self.data.test_examples}
        self.order = [self.users[i] for i in np.random.default_rng(self.seed).permutation(len(self.users))]
        self._cursor = 0

    def run_rounds(self) -> None:
        """Training and serving, interleaved over the whole run.

        A round makes ``steps_per_round`` two-level steps on the served model,
        one more set-up every ``setup_every`` rounds, then one serving group,
        whose first queries meet the caches the steps left stale.  There are as many rounds as it takes to make ``train_steps``
        steps; test_nll is taken when the last step is made.
        """
        w = self.w
        full = trainer.init_model(
            self.data,
            self.config("full", 0, w.learning_rate),
            dim=w.dim,
            item_dim=w.item_dim,
            clustering=w.clustering,
            cluster_map=self.snap.cluster_map,
        )
        models = {"twolevel": self.snap, "full": full}
        for mode, snap in models.items():
            self._record_train_nll(mode, snap)
        for r in range(math.ceil(w.train_steps / w.steps_per_round)):
            for step in range(r * w.steps_per_round, min((r + 1) * w.steps_per_round, w.train_steps)):
                # Linear warm-up over the first 5 % of the steps (at a peak of
                # 1.25 one catalog-200 seed in about twenty diverged near step
                # 30 without it), then cosine decay.
                decay = 0.5 * (1 + math.cos(math.pi * step / w.train_steps))
                lr = w.learning_rate * decay * min(1.0, (step + 1) / max(1, w.train_steps // 20))
                self._train_step("twolevel", self.snap, step, lr)
                if (step + 1) % w.full_every == 0:
                    self._train_step("full", full, step, lr)
                if step + 1 == w.train_steps:
                    mark = perf_counter()
                    self._measure_quality()
                    for mode, snap in models.items():
                        self._record_train_nll(mode, snap)
                    self.wall["quality"] = perf_counter() - mark
            if (r + 1) % w.setup_every == 0:
                self._setup()
            self._group()
            self.n_rounds += 1

    def run(self) -> dict:
        mark = perf_counter()
        try:
            self.prepare()
            mark = self._stage("setup", mark)
            self.run_rounds()
            self._stage("rounds", mark)
            self.speed.probe(force=True)  # the last operation's probe after it
        finally:
            self.input_path.unlink(missing_ok=True)
        self._check_losses()
        return self.result()

    def _stage(self, name: str, mark: float) -> float:
        now = perf_counter()
        self.wall[name] = now - mark
        return now

    def _history_ids(self, user: str) -> list[str]:
        return self.expected.sequences[user][:-1]

    def _measure_quality(self) -> None:
        """test_nll of held-out targets, checked; Recall@10 against popularity."""
        users = self.users[: self.w.quality_users]
        snap = self.snap
        nll = []
        for u in users:
            ex = self.example[u]
            seq = render.render_id_only(ex, self.data)
            query, _ = encoder.encode(seq, snap.tables, snap.encoder)
            logprob = two_level_logprob(query, snap.space.item_ordinal(ex.target), snap.tables, snap.cluster_map)
            want = self.ref.item_logprobs(self.ref.query(self.ref.prompt(self.data.vocab, self.history[u])))
            gap = abs(logprob - float(want[self.target[u]]))
            self.check(gap <= TOL, lambda: f"test log-probability of {u} off by {gap:.3g}")
            nll.append(-logprob)
        self.test_nll = float(np.mean(nll))
        if not self.w.popularity_check:
            return
        report = self._evaluate("full", [self.example[u] for u in users]).to_dict()
        err = report_error(report, self._intervals(users, "full"))
        self.check(err is None, lambda: f"quality report: {err}")
        counts = self.expected.train_counts
        items = self.expected.items
        order = sorted(range(len(items)), key=lambda i: (-counts[items[i]], i))
        rank = {item: r for r, item in enumerate(order, start=1)}
        self.quality = {
            "recall@10": report["recall@10"],
            "mrr": report["mrr"],
            "popularity_recall@10": metrics_of([rank[self.target[u]] for u in users])["recall@10"],
        }
        self.check(
            self.quality["recall@10"] > self.quality["popularity_recall@10"],
            lambda: f"trained model does not beat popularity on Recall@10: {self.quality}",
        )

    # -- results ------------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict[str, tuple[float, str]]:
        def rate(phase: str, per: int = 1) -> float:
            rows = self.timings(phase, scaled)
            return sum(n for _, n in rows) * per / sum(t for t, _ in rows)

        def pct(phase: str, q: float) -> float:
            return float(np.percentile([t * 1e3 for t, _ in self.timings(phase, scaled)], q))

        return {
            "setup_s": (statistics.median(t for t, _ in self.timings("setup", scaled)), "s"),
            "peak_rss_mb": (maxrss_mb(), "MB"),
            "train_examples_per_s": (rate("train.twolevel", self.w.batch_size), "1/s"),
            "full_train_examples_per_s": (rate("train.full", self.w.batch_size), "1/s"),
            "query_ms_p50": (pct("query.structure", 50), "ms"),
            "query_ms_p90": (pct("query.structure", 90), "ms"),
            "ann_query_ms_p50": (pct("query.ann", 50), "ms"),
            "ann_query_ms_p90": (pct("query.ann", 90), "ms"),
            "eval_users_per_s": (rate("eval.structure"), "1/s"),
            "ann_eval_users_per_s": (rate("eval.ann"), "1/s"),
            "full_eval_users_per_s": (rate("eval.full"), "1/s"),
            "test_nll": (self.test_nll, "nats"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        t = self.tracer.totals()
        c = self.tracer.counts
        done = {name: ph.done for name, ph in self.phases.items()}

        def own(root, name):
            return t.get((root, name), (0.0, 0.0, 0))[0]

        def dur(root, name):
            return t.get((root, name), (0.0, 0.0, 0))[1]

        def calls(root, name):
            return t.get((root, name), (0.0, 0.0, 0))[2]

        def per(value, n, scale=1.0):
            return value * scale / n if n else 0.0

        reps, steps, full_steps = done["setup"], done["train.twolevel"], done["train.full"]
        nqs, nqa = done["query.structure"], done["query.ann"]
        us, ua, uf = done["eval.structure"], done["eval.ann"], done["eval.full"]
        tw, qs, qa, es = "train.twolevel", "query.structure", "query.ann", "eval.structure"
        ms = 1e3
        return {
            "catalog.ingest_s": (per(dur("setup", "catalog.ingest"), reps), "s"),
            "catalog.build_dataset_s": (per(dur("setup", "catalog.build_dataset"), reps), "s"),
            "cluster.features_s": (
                per(dur("setup", "cluster.build_cluster_map") - dur("setup", "cluster.partition"), reps),
                "s",
            ),
            "cluster.build_s": (per(dur("setup", "cluster.partition"), reps), "s"),
            "cluster.rss_growth_mb": (self.rss_growth_mb, "MB"),
            "trainer.init_model_s": (per(dur("setup", "trainer.init_model"), reps), "s"),
            "render.train_ms_per_step": (per(own(tw, "render.render"), steps, ms), "ms"),
            "encoder.forward_ms_per_step": (per(own(tw, "encoder.encode"), steps, ms), "ms"),
            "encoder.backward_ms_per_step": (per(own(tw, "encoder.backward"), steps, ms), "ms"),
            "softmax.loss_grad_ms_per_step": (per(own(tw, "softmax.nll_and_grad.twolevel"), steps, ms), "ms"),
            "tables.finalize_ms_per_step": (per(own(tw, "tables.finalize"), steps, ms), "ms"),
            "trainer.update_ms_per_step": (per(own(tw, "trainer.update"), steps, ms), "ms"),
            "tables.project_ms_per_step": (per(own(tw, "tables.project"), steps, ms), "ms"),
            "trainer.self_ms_per_step": (per(own(tw, "trainer.train"), steps, ms), "ms"),
            "softmax.full_loss_grad_ms_per_step": (
                per(own("train.full", "softmax.nll_and_grad.full"), full_steps, ms),
                "ms",
            ),
            "softmax.dots_per_example": (
                per(c.get((tw, "softmax.dots.twolevel"), 0.0), c.get((tw, "softmax.examples.twolevel"), 0.0)),
                "count",
            ),
            "render.query_ms": (per(own(qs, "render.render"), nqs, ms), "ms"),
            "encoder.query_ms": (per(own(qs, "encoder.encode"), nqs, ms), "ms"),
            "inference.search_ms": (per(own(qs, "inference.topk_structure"), nqs, ms), "ms"),
            "inference.topk_items_self_ms": (per(own(qs, "inference.topk_items"), nqs, ms), "ms"),
            "inference.search_calls_per_query": (per(c.get((qs, "search.calls"), 0.0), nqs), "count"),
            "inference.item_yield": (per(K * nqs, c.get((qs, "search.k"), 0.0)), "ratio"),
            "inference.tokens_scored_per_query": (per(c.get((qs, "search.tokens_scored"), 0.0), nqs), "count"),
            "inference.clusters_expanded_per_query": (
                per(c.get((qs, "search.clusters_expanded"), 0.0), nqs),
                "count",
            ),
            "inference.ann_search_ms": (per(own(qa, "inference.topk_ann"), nqa, ms), "ms"),
            "tables.project_ms": (per(own(qs, "tables.project") + own(qa, "tables.project"), nqs + nqa, ms), "ms"),
            "tables.projects_per_query": (
                per(calls(qs, "tables.project") + calls(qa, "tables.project"), nqs + nqa),
                "count",
            ),
            "inference.index_build_ms": (per(own(qa, "inference.build_additive_index"), nqa, ms), "ms"),
            "evaluate.encode_ms_per_user": (
                per(sum(own("eval." + e, "encoder.encode") for e in ("structure", "ann", "full")), us + ua + uf, ms),
                "ms",
            ),
            "evaluate.search_ms_per_user": (per(own(es, "inference.topk_structure"), us, ms), "ms"),
            "evaluate.scored_fraction": (
                per(
                    c.get((es, "search.tokens_scored"), 0.0) - c.get((es, "search.item_clusters"), 0.0),
                    c.get((es, "search.n_total"), 0.0),
                ),
                "ratio",
            ),
            "evaluate.ann_search_ms_per_user": (per(own("eval.ann", "inference.topk_ann"), ua, ms), "ms"),
            "softmax.score_all_ms_per_user": (per(own("eval.full", "softmax.score_all"), uf, ms), "ms"),
        }

    def result(self) -> dict:
        e2e = self.end_to_end()
        layers = self.per_layer() if self.tracer is not None else {}
        chosen = layers if self.tracer is not None else e2e
        phases = {name: {"attempted": ph.attempted, "failed": ph.failed} for name, ph in self.phases.items()}
        report = {
            "workload": self.w.name,
            "seed": self.seed,
            "trace": self.tracer is not None,
            "rounds": self.n_rounds,
            "wall_s": self.wall,
            "phases": phases,
            "probe_ms": {
                "n": len(self.speed.seconds),
                "p10": float(np.percentile(self.speed.seconds, 10)) * 1e3,
                "p50": float(np.percentile(self.speed.seconds, 50)) * 1e3,
                "p90": float(np.percentile(self.speed.seconds, 90)) * 1e3,
            },
            "checks": self.n_checks,
            "problems": self.problems,
            "end_to_end": {k: v for k, (v, _) in e2e.items()},
            "end_to_end_unscaled": {k: v for k, (v, _) in self.end_to_end(scaled=False).items()},
            "per_layer": {k: v for k, (v, _) in layers.items()},
            "quality": self.quality,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        name = f"report-{self.w.name}-trace{int(self.tracer is not None)}.json"
        (self.out_dir / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        if self.tracer is not None:
            self.tracer.write(self.out_dir / f"spans-{self.w.name}.csv")
        return {
            "correct": not self.problems,
            "attempted": sum(ph.attempted for ph in self.phases.values()),
            "failed": sum(ph.failed for ph in self.phases.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
            "phases": phases,
            "problems": self.problems,
        }


def run(workload: Workload, seed: int, trace: bool, out_dir: Path) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        return Bench(workload, seed, out_dir, tracer).run()
    finally:
        if tracer is not None:
            tracer.uninstall()
