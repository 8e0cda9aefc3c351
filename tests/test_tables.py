import copy
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import random_model

from hsrec.exceptions import StaleIndexError
from hsrec.inference import build_additive_index, topk_ann
from hsrec.tables import (
    INIT_ROWS,
    EmbeddingTable,
    GradBuffer,
    ModelTables,
    ProjectionHead,
    init_tables,
    item_parameter_count,
    parameter_counts,
    project_items,
)


def test_identity_head_is_identity():
    table = EmbeddingTable(np.arange(12, dtype=np.float64).reshape(3, 4))
    head = ProjectionHead(np.eye(4), np.zeros(4))
    assert np.array_equal(project_items(table, head), table.data)


def test_zero_weight_head_emits_bias():
    table = EmbeddingTable(np.random.default_rng(0).standard_normal((5, 3)))
    bias = np.array([1.0, -2.0])
    head = ProjectionHead(np.zeros((2, 3)), bias)
    out = project_items(table, head)
    assert np.array_equal(out, np.tile(bias, (5, 1)))


def test_random_head_row_matches_f64_matvec_oracle():
    rng = np.random.default_rng(42)
    table = EmbeddingTable(rng.standard_normal((10, 6)))
    weight = rng.standard_normal((4, 6))
    bias = rng.standard_normal(4)
    out = project_items(table, ProjectionHead(weight, bias))
    # Brute-force f64 matvec, one multiply-add at a time.
    row = table.data[7]
    expected = bias.copy()
    for i in range(4):
        acc = 0.0
        for j in range(6):
            acc += weight[i, j] * row[j]
        expected[i] += acc
    assert np.allclose(out[7], expected, rtol=1e-12)


def test_linear_head_linearity():
    rng = np.random.default_rng(3)
    head = ProjectionHead(rng.standard_normal((5, 7)), np.zeros(5))
    x, y = rng.standard_normal(7), rng.standard_normal(7)
    a, b = 0.3, -1.7
    lhs = head.apply((a * x + b * y)[None, :])[0]
    rhs = a * head.apply(x[None, :])[0] + b * head.apply(y[None, :])[0]
    assert np.allclose(lhs, rhs, rtol=1e-6)


def test_dim_mismatch_errors():
    table = EmbeddingTable(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        project_items(table, ProjectionHead(np.zeros((2, 5)), np.zeros(2)))


def test_embedding_table_rejects_nonfinite():
    bad = np.ones((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        EmbeddingTable(bad)
    with pytest.raises(ValueError):
        EmbeddingTable(np.ones((2, 2), dtype=np.int64))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_projection_head_rejects_nonfinite(value):
    weight, bias = np.zeros((2, 3)), np.zeros(2)
    weight[1, 2] = value
    with pytest.raises(ValueError, match="projection weight contains NaN or Inf"):
        ProjectionHead(weight, bias)
    bias[0] = value
    with pytest.raises(ValueError, match="projection bias contains NaN or Inf"):
        ProjectionHead(np.zeros((2, 3)), bias)


def test_init_tables_seeded_and_scaled():
    t1 = init_tables(10, 20, 8, 16, seed=5)
    t2 = init_tables(10, 20, 8, 16, seed=5)
    assert np.array_equal(t1.item_raw.data, t2.item_raw.data)
    bound = 1.0 / np.sqrt(16)
    assert np.abs(t1.item_raw.data).max() <= bound
    assert t1.text.data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_tables_item_draw_equals_the_one_shot_draw(dtype):
    n_text, n_items, dim, item_dim = 7, 2 * INIT_ROWS + 37, 5, 3
    tables = init_tables(n_text, n_items, dim, item_dim, seed=11, dtype=dtype)
    rng = np.random.default_rng(11)
    text = rng.uniform(-1 / np.sqrt(dim), 1 / np.sqrt(dim), size=(n_text, dim))
    item_raw = rng.uniform(-1 / np.sqrt(item_dim), 1 / np.sqrt(item_dim), size=(n_items, item_dim))
    proj_w = rng.uniform(-1 / np.sqrt(item_dim), 1 / np.sqrt(item_dim), size=(dim, item_dim))
    for got, want in ((tables.text.data, text), (tables.item_raw.data, item_raw), (tables.projection.weight, proj_w)):
        assert got.dtype == dtype and got.tobytes() == want.astype(dtype).tobytes()


def test_item_parameter_count_headline():
    assert item_parameter_count(1_000_000, 500) == 5.0e8
    counts = parameter_counts(1000, 1_000_000, 64, 500, 1000)
    assert counts["item"] == 5.0e8
    assert counts["total"] > counts["item"]


def test_projection_cache_tracks_version():
    tables = init_tables(4, 6, 5, 3, seed=0)
    first = tables.item_projected()
    assert tables.item_projected() is first
    with tables.writing():
        pass
    assert tables.item_projected() is not first


@pytest.mark.parametrize("copied", [False, True])
def test_parameter_arrays_are_written_only_through_the_writer(copied):
    tables, _, _ = random_model(4, 6, 5, 3, 2, seed=0)
    if copied:
        tables = copy.deepcopy(tables)
    for name, arr in tables.parameter_arrays().items():
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
    with tables.writing() as arrays:
        for name, arr in arrays.items():
            arr.flat[0] = 1.0
    assert all(arr.flat[0] == 1.0 for arr in tables.parameter_arrays().values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_level_rows_are_one_read_only_copy_per_version(dtype):
    tables, _, _ = random_model(4, 9, 5, 3, 3, seed=2, dtype=dtype)
    rows = tables.first_level_rows()
    assert rows is tables.first_level_rows()
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    assert np.array_equal(rows, np.concatenate([tables.text.data, tables.centroids.data]).astype(np.float64))
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0
    released = weakref.ref(rows)
    del rows
    with tables.writing() as arrays:
        arrays["centroids"][-1] += 1.0
    assert released() is None  # the writer drops it
    assert tables.first_level_rows()[-1, 0] == np.float64(tables.centroids.data[-1, 0])


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))], ids=["deepcopy", "pickle"]
)
def test_copies_of_the_tables_drop_the_first_level_rows(clone):
    tables, _, _ = random_model(4, 9, 5, 3, 3, seed=3)
    rows = tables.first_level_rows()
    copied = clone(tables)
    assert copied._derived == {}  # not a copy of the cached array, which would be writable
    again = copied.first_level_rows()
    assert again is not rows and not again.flags.writeable
    assert np.array_equal(again, rows)


def test_writer_that_raises_still_locks_and_invalidates():
    tables, cmap, _ = random_model(4, 9, 5, 3, 3, seed=1)
    projected, by_cluster = tables.item_projected(), tables.item_rows_by_cluster(cmap)
    first = tables.first_level_rows()
    version = tables.version
    with pytest.raises(RuntimeError, match="midway"):
        with tables.writing() as arrays:
            arrays["item_raw"][0] = 1.0
            arrays["proj_bias"][:] = 0.5
            arrays["text"][0] = 2.0
            raise RuntimeError("midway")
    assert tables.version == version + 1
    assert not any(arr.flags.writeable for arr in tables.parameter_arrays().values())
    rebuilt = tables.item_projected()
    assert rebuilt is not projected
    assert np.array_equal(rebuilt, project_items(tables.item_raw, tables.projection))
    rows = tables.item_rows_by_cluster(cmap)
    assert rows is not by_cluster
    assert np.array_equal(rows, rebuilt[cmap.item_order])
    rebuilt_first = tables.first_level_rows()
    assert rebuilt_first is not first and rebuilt_first[0, 0] == 2.0


def _raising_write(tables):
    with pytest.raises(RuntimeError, match="midway"):
        with tables.writing() as arrays:
            arrays["centroids"][0] += 1.0
            raise RuntimeError("midway")
    return tables


def _write(tables):
    with tables.writing() as arrays:
        arrays["item_raw"][1] *= -2.0
    return tables


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "change",
    [_write, _raising_write, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["write", "raising_write", "deepcopy", "pickle"],
)
def test_writes_and_copies_drop_the_additive_index(change, dtype):
    tables, cmap, rng = random_model(4, 9, 5, 3, 3, seed=5, dtype=dtype)
    bare = len(pickle.dumps(tables))
    index = build_additive_index(tables, cmap)
    assert len(pickle.dumps(tables)) == bare  # copies carry no derived copy
    changed = change(tables)
    rebuilt = build_additive_index(changed, cmap)
    assert rebuilt is not index and not rebuilt.vectors.flags.writeable
    assert rebuilt.tables_version == changed.version
    fresh = ModelTables(changed.text, changed.item_raw, changed.projection, changed.centroids)
    want = build_additive_index(fresh, cmap).vectors
    assert (rebuilt.vectors.dtype, rebuilt.vectors.tobytes()) == (want.dtype, want.tobytes())
    if changed is tables:
        # A write moved the version on: the index held across it is stale.
        with pytest.raises(StaleIndexError):
            topk_ann(rng.standard_normal(5), 3, index, tables)
        released = weakref.ref(index)
        del index
        assert released() is None  # the writer dropped its own reference


def _grad_tables(n_items, dim=3, item_dim=4, n_clusters=8, seed=0):
    rng = np.random.default_rng(seed)
    return ModelTables(
        EmbeddingTable(rng.standard_normal((5, dim))),
        EmbeddingTable(rng.standard_normal((n_items, item_dim))),
        ProjectionHead(rng.standard_normal((dim, item_dim)), rng.standard_normal(dim)),
        EmbeddingTable(rng.standard_normal((n_clusters, dim))),
    )


def _lifted_cluster(tables, members, n_examples, rng):
    """(members, p_t, queries, lifted) for ``add_item_cluster``."""
    queries = rng.standard_normal((n_examples, tables.dim))
    lifted = queries @ np.asarray(tables.projection.weight, dtype=np.float64)
    return members, rng.standard_normal((members.size, n_examples)), queries, lifted


def _finalize(tables, item_rows, clusters):
    grads = GradBuffer(tables)
    for rows, d_proj in item_rows:
        grads.add_item_rows(rows, d_proj)
    for cluster in clusters:
        grads.add_item_cluster(*cluster)
    return grads.finalize(tables)


def _dense_rule(tables, item_rows, clusters):
    """The raw-item gradient and head gradient with a dense touched mask: a
    lifted member that is a projected row takes its cluster part projected."""
    weight = np.asarray(tables.projection.weight, dtype=np.float64)
    d_proj = np.zeros((tables.n_items, tables.dim))
    touched = np.zeros(tables.n_items, dtype=bool)
    for rows, grad in item_rows:
        d_proj[rows] += grad
        touched[rows] = True
    proj_rows = np.flatnonzero(touched)
    d_weight = d_proj[proj_rows].T @ tables.item_raw.data[proj_rows]
    d_bias = d_proj[proj_rows].sum(axis=0)
    out = np.zeros((tables.n_items, tables.item_dim))
    for members, p_t, queries, lifted in clusters:
        hit = touched[members]
        d_proj[members[hit]] += p_t[hit] @ queries
        left = p_t[~hit]
        out[members[~hit]] = np.einsum("ij,jk->ik", left, lifted) if left.shape[1] == 1 else left @ lifted
    out[proj_rows] = d_proj[proj_rows] @ weight
    return out, d_weight, d_bias


@pytest.mark.parametrize("case", ["first_projected_row", "last_projected_row", "no_projected_rows"])
def test_lifted_members_on_projected_rows_follow_the_dense_rule_bitwise(case):
    tables = _grad_tables(40)
    rng = np.random.default_rng(1)
    rows = np.array([5, 9, 20])
    item_rows = [] if case == "no_projected_rows" else [(rows, rng.standard_normal((3, tables.dim)))]
    members = {
        "first_projected_row": np.arange(3, 8),  # 5 = rows[0]; 3 and 4 sort before every projected row
        "last_projected_row": np.arange(18, 24),  # 20 = rows[-1]; 21 to 23 sort after every projected row
        "no_projected_rows": np.arange(3, 8),
    }[case]
    clusters = [
        _lifted_cluster(tables, members, 2, rng),
        _lifted_cluster(tables, np.array([9, 30, 31]), 1, rng),  # one example: the outer-product branch
    ]
    final = _finalize(tables, item_rows, clusters)
    want, d_weight, d_bias = _dense_rule(tables, item_rows, clusters)
    assert np.array_equal(np.asarray(final["item_raw"]), want)
    assert np.array_equal(final["proj_weight"], d_weight)
    assert np.array_equal(final["proj_bias"], d_bias)
    parts = final["item_raw"].parts
    touched = np.concatenate([rows for rows, _, _ in parts])
    assert np.unique(touched).size == touched.size  # disjoint parts
    assert all(np.all(np.diff(rows) > 0) for rows, _, _ in parts)
    if case == "no_projected_rows":
        assert len(parts) == 2 and all(np.array_equal(p[0], c[0]) for p, c in zip(parts, clusters))  # clusters whole


def _bookkeeping_peak(n_items):
    """Peak traced bytes of one two-level step's gradient bookkeeping on the
    same touched rows: encoder-input rows and a lifted cluster that shares one."""
    tables = _grad_tables(n_items)
    rng = np.random.default_rng(2)
    item_rows = [(np.array([3, 10, 50, 700, 1500]), rng.standard_normal((5, tables.dim)))]
    clusters = [_lifted_cluster(tables, np.arange(8, 48), 3, rng)]
    _finalize(tables, item_rows, clusters)  # warm-up
    tracemalloc.start()
    try:
        _finalize(tables, item_rows, clusters)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_bookkeeping_scales_with_touched_rows_not_items():
    small, large = _bookkeeping_peak(2_000), _bookkeeping_peak(200_000)
    assert abs(large - small) <= 16 * 1024, (small, large)
