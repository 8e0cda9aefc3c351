"""Seeded input fuzzing, with the exit class as the oracle.

Each case mutates one valid input with ``random.Random(seed)``: the
interaction corpus (a hazard in one field, dropped keys, duplicated and
truncated lines, flipped bytes) or a ``--features`` array (its shape, its
values, its dtype or its file).  Every command that reads the input runs
in-process through ``hsrec.cli.main``, with ``RuntimeWarning`` raised as an
error.  The argv is always valid, so whatever the mutation:

- ``main`` returns, and the exit code is 0, 2 or 3: a mutated file is never
  a usage error (1);
- a non-zero exit prints the JSON trailer last on stderr, with the type of
  its code, and leaves no out-dir;
- an ``ingest`` that exits 0 writes finite statistics.

A failure names the seed and the mutations, which reproduce it.  Grounding:
Miller, Fredriksen & So 1990, "An empirical study of the reliability of UNIX
utilities" (CACM); mutation fuzzing as in AFL.
"""

import json
import math
import random

import numpy as np
import pytest

from hsrec.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N_USERS, EVENTS_PER_USER, N_ITEMS = 6, 5, 11

# JSON values that broke, or could break, one field of a line.
HAZARDS = [
    "null", "true", "false", "0", "-0.0", "1.0", "-1e-5", "-1e-320", "1.7e308", "-1.7e308", "1e999", "-1e999", "NaN",
    "Infinity", "-Infinity", "1" * 30, "1" * 5000, '""', '"2.5"', '"two words"', '"\\ud800"', "[]", "{}", '[1, "a"]',
    '{"x": 1}', "[" * 5000 + "]" * 5000,
]
FIELDS = ("user", "item", "timestamp", "title", "brand", "price", "category")
TYPES = {2: "data", 3: "numeric"}


def _valid_lines():
    """30 lines: 6 users of 5 events over 11 items, every field present, as
    (key, raw JSON text) pairs."""
    lines = []
    for n in range(N_USERS * EVENTS_PER_USER):
        item = (n * 7) % N_ITEMS
        fields = {"user": f"u{n % N_USERS}", "item": f"i{item}", "timestamp": n // N_USERS, "title": f"thing {item % 4}",
                  "brand": f"b{item % 3}", "price": 1.5 + item, "category": "c"}
        lines.append([(k, json.dumps(v)) for k, v in fields.items()])
    return lines


def _render(line):
    return "{" + ", ".join(f'"{k}": {v}' for k, v in line) + "}"


def mutate_corpus(rng):
    """A mutated corpus as bytes, and what was done to it."""
    lines, done = _valid_lines(), []
    for _ in range(rng.choice((1, 1, 2))):
        line = rng.choice(lines)
        if rng.random() < 0.75:
            key, hazard = rng.choice(FIELDS), rng.choice(HAZARDS)
            line[:] = [(k, v) for k, v in line if k != key] + [(key, hazard)]
            done.append(f"{key}={hazard[:12]}")
        elif line:
            key, _ = line.pop(rng.randrange(len(line)))
            done.append(f"drop {key}")
    texts = list(map(_render, lines))
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(texts))
        if rng.random() < 0.5:
            texts.insert(rng.randrange(len(texts) + 1), texts[at])
            done.append(f"duplicate line {at + 1}")
        else:
            texts[at] = texts[at][: rng.randrange(len(texts[at]))]
            done.append(f"truncate line {at + 1}")
    blob = bytearray("\n".join(texts).encode("utf-8") + b"\n")
    for _ in range(rng.choice((0, 0, 0, 1, 3))):
        at = rng.randrange(len(blob))
        blob[at] ^= 1 << rng.randrange(8)
        done.append(f"flip byte {at}")
    return bytes(blob), done


def mutate_features(rng, path):
    """Write a mutated ``(N_ITEMS, p)`` feature file to ``path``; return what
    was done to it."""
    p = rng.randint(1, 4)
    x = np.random.default_rng(rng.randrange(2**32)).standard_normal((N_ITEMS, p))
    kind = rng.choice(["valid", "zero_width", "rows", "1d", "3d", "nan", "inf", "huge", "large", "tiny",
                       "subnormal", "bool", "int", "float16", "longdouble", "complex", "text", "object",
                       "empty", "truncated", "not_npy"])
    i, j = rng.randrange(N_ITEMS), rng.randrange(p)
    sign = rng.choice((1.0, -1.0))
    with np.errstate(all="ignore"):
        if kind == "zero_width":
            x = x[:, :0]
        elif kind == "rows":
            x = x[: N_ITEMS + rng.choice((-N_ITEMS, -3, -1, 1, 5))] if rng.random() < 0.5 else np.vstack([x, x])
        elif kind == "1d":
            x = x.ravel()
        elif kind == "3d":
            x = x[:, :, None] if rng.random() < 0.5 else x[:, None, :]
        elif kind in ("nan", "inf"):
            x[i, j] = np.nan if kind == "nan" else sign * np.inf
        elif kind == "huge":
            x[i, j] = sign * 1e200
        elif kind == "large":
            x *= rng.choice((1e100, 1e150, 1e153, 1e154, 1e155))
        elif kind == "tiny":
            x *= rng.choice((1e-150, 1e-160, 1e-170))
        elif kind == "subnormal":
            x[:] = sign * 1e-320
            x[i, j] = 0.0
        elif kind == "bool":
            x = x > 0
        elif kind == "int":
            x = (x * rng.choice((1, 2**40, 2**62))).astype(np.int64)
        elif kind == "float16":
            x = (x * rng.choice((1, 1e4, 1e5))).astype(np.float16)
        elif kind == "longdouble":
            x = x.astype(np.longdouble) * np.longdouble(rng.choice(("1", "1e300", "1e4000")))
        elif kind == "complex":
            x = x + 1j
        elif kind == "text":
            x = x.astype(str)
    if kind == "object":
        np.save(path, np.array([{"row": r} for r in range(N_ITEMS)], dtype=object), allow_pickle=True)
    elif kind == "not_npy":
        path.write_text("\n".join(" ".join(map(str, row)) for row in x))
    else:
        np.save(path, x)
        blob = path.read_bytes()
        if kind == "empty":
            path.write_bytes(b"")
        elif kind == "truncated":
            path.write_bytes(blob[: rng.randrange(len(blob))])
    return f"{kind} {x.dtype} {x.shape}"


def run_case(argv, out, capsys, label):
    capsys.readouterr()
    code = main([str(a) for a in [*argv, "--out-dir", out]])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (label, code, err)
    if code:
        trailer = json.loads(err.strip().splitlines()[-1])["error"]
        assert (trailer["code"], trailer["type"]) == (code, TYPES[code]), label
        assert not out.exists(), label
    return code


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)], ids=["0-99", "100-199"])
def test_mutated_corpora_exit_as_data_or_succeed(tmp_path, capsys, seeds):
    for seed in seeds:
        blob, done = mutate_corpus(random.Random(seed))
        corpus = tmp_path / f"{seed}.jsonl"
        corpus.write_bytes(blob)
        label = f"seed {seed}: {done}"
        out = tmp_path / f"{seed}-ingest"
        if run_case(["ingest", "--data", corpus], out, capsys, label) == 0:
            stats = json.loads((out / "stats.json").read_text())
            assert all(math.isfinite(v) for v in stats.values()), label
        run_case(["cluster", "--data", corpus, "--clusters", "kmeans"], tmp_path / f"{seed}-cluster", capsys, label)


def test_mutated_feature_files_exit_as_data_or_succeed(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(map(_render, _valid_lines())) + "\n", encoding="utf-8")
    for seed in range(200):
        path = tmp_path / f"{seed}.npy"
        label = f"seed {seed}: {mutate_features(random.Random(seed), path)}"
        argv = ["cluster", "--data", corpus, "--clusters", "kmeans", "--features", path]
        run_case(argv, tmp_path / f"{seed}-cluster", capsys, label)
