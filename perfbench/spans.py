"""Span tracing of the calls into each hsrec module, from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers: both the
names the benchmark itself calls and the names the package resolves inside
its own modules (``hsrec.trainer.nll_and_grad`` is what ``train`` calls).
Spans are recorded only inside a root span, which the benchmark opens around
each timed operation, so check and bookkeeping work is never attributed to a
layer.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

from hsrec.softmax import CostCounter

# (module, attribute, span name).  A span is named after the callee, so the
# same function reached from different callers shares one name; which
# operation it served comes from its root span.
WRAPPED = (
    ("hsrec.catalog", "ingest_jsonl", "catalog.ingest"),
    ("hsrec.catalog", "build_dataset", "catalog.build_dataset"),
    ("hsrec.trainer", "build_cluster_map", "cluster.build_cluster_map"),
    ("hsrec.trainer", "cooccurrence_svd_features", "cluster.features"),
    ("hsrec.trainer", "cluster_kmeans", "cluster.partition"),
    ("hsrec.trainer", "cluster_random", "cluster.partition"),
    ("hsrec.trainer", "cluster_frequency", "cluster.partition"),
    ("hsrec.trainer", "init_model", "trainer.init_model"),
    ("hsrec.trainer", "train", "trainer.train"),
    ("hsrec.trainer", "render_example", "render.render"),
    ("hsrec.trainer", "encode", "encoder.encode"),
    ("hsrec.trainer", "encode_backward", "encoder.backward"),
    ("hsrec.trainer", "_apply_update", "trainer.update"),
    ("hsrec.trainer", "validation_recall", "trainer.validation"),
    ("hsrec.tables", "project_items", "tables.project"),
    ("hsrec.render", "render_id_only", "render.render"),
    ("hsrec.encoder", "encode", "encoder.encode"),
    ("hsrec.inference", "topk_items", "inference.topk_items"),
    ("hsrec.inference", "build_additive_index", "inference.build_additive_index"),
    ("hsrec.inference", "filter_items", "inference.filter_items"),
    ("hsrec.evaluate", "evaluate", "evaluate.evaluate"),
    ("hsrec.evaluate", "render_id_only", "render.render"),
    ("hsrec.evaluate", "encode", "encoder.encode"),
    ("hsrec.evaluate", "score_all", "softmax.score_all"),
    ("hsrec.evaluate", "build_additive_index", "inference.build_additive_index"),
    ("hsrec.evaluate", "filter_items", "inference.filter_items"),
)
SEARCHES = (
    ("hsrec.inference", "topk_structure"),
    ("hsrec.evaluate", "topk_structure"),
)
ANN_SEARCHES = (
    ("hsrec.inference", "topk_ann"),
    ("hsrec.evaluate", "topk_ann"),
)


class Tracer:
    """In-memory spans (name, start, end, parent, root) and per-root counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        # (root kind, counter name) -> summed value
        self.counts: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.roots.append(self._stack[0] if self._stack else i)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """A root span around one timed operation of kind ``kind``."""
        i = self._open(kind)
        try:
            yield
        finally:
            self._close(i)

    def count(self, name: str, value: float) -> None:
        key = (self.names[self._stack[0]], name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def _nll_and_grad(self, fn):
        """Names the span by softmax mode and passes a CostCounter in."""

        @functools.wraps(fn)
        def wrapper(query, target, tables, cluster_map, mode="twolevel", grads=None, counter=None):
            if not self._stack:
                return fn(query, target, tables, cluster_map, mode, grads, counter)
            own = CostCounter() if counter is None else counter
            i = self._open("softmax.nll_and_grad." + mode)
            try:
                return fn(query, target, tables, cluster_map, mode, grads, own)
            finally:
                self._close(i)
                self.count(f"softmax.dots.{mode}", own.dots)
                self.count(f"softmax.examples.{mode}", 1)

        return wrapper

    def _topk_structure(self, fn):
        """Records the requested k and the search's own SearchStats."""

        @functools.wraps(fn)
        def wrapper(query, k, tables, cluster_map):
            if not self._stack:
                return fn(query, k, tables, cluster_map)
            i = self._open("inference.topk_structure")
            try:
                ranked, stats = fn(query, k, tables, cluster_map)
            finally:
                self._close(i)
            self.count("search.calls", 1)
            self.count("search.k", k)
            self.count("search.tokens_scored", stats.tokens_scored)
            self.count("search.clusters_expanded", stats.clusters_expanded)
            self.count("search.item_clusters", cluster_map.n_item_clusters)
            self.count("search.n_total", tables.n_total)
            return ranked, stats

        return wrapper

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        tables = importlib.import_module("hsrec.tables")
        self._patch(
            tables.GradBuffer, "finalize", self._timed(tables.GradBuffer.finalize, "tables.finalize")
        )
        trainer = importlib.import_module("hsrec.trainer")
        self._patch(trainer, "nll_and_grad", self._nll_and_grad(trainer.nll_and_grad))
        for module, attr in SEARCHES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._topk_structure(getattr(owner, attr)))
        for module, attr in ANN_SEARCHES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._timed(getattr(owner, attr), "inference.topk_ann"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading back ----------------------------------------------------

    def totals(self) -> dict[tuple[str, str], tuple[float, float, int]]:
        """(root kind, span name) -> (self time s, duration s, number of spans).

        Self time is a span's duration minus the time its child spans cover;
        root spans are included under their own name.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[tuple[str, str], tuple[float, float, int]] = {}
        for i in range(n):
            key = (self.names[self.roots[i]], self.names[i])
            own, total, calls = out.get(key, (0.0, 0.0, 0))
            duration = self.ends[i] - self.starts[i]
            out[key] = (own + duration - child[i], total + duration, calls + 1)
        return out

    def write(self, path) -> None:
        """One CSV row per span: index, name, start, end, parent, root."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "root"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [i, name, f"{self.starts[i] - t0:.7f}", f"{self.ends[i] - t0:.7f}", self.parents[i], self.roots[i]]
                )
