"""Mutation table for the numeric core and the CLI: which tier-1 tests kill
which mutant.

Run from anywhere, with no arguments::

    python tests/mutants.py

Each entry of ``MUTANTS`` replaces one source snippet, which must occur
exactly once in its module, with a wrong one.  Each mutant is applied to its
own temporary copy of ``src/``, and the whole tier-1 suite runs against that
copy without ``-x``, at one BLAS thread, ``os.cpu_count()`` mutants at a time.
A mutant is killed when a test fails or errors, or when the suite outlasts
five times the unmutated suite's run time (labelled ``timeout``).  A note
that starts with ``equivalent:`` says why no test can kill the mutant.

The script first checks every snippet, then runs the unmutated copy, which
must pass.  It prints one table: each mutant, its result and the tests that
killed it, parametrized cases counted under their test.  It exits non-zero
on a stale snippet, a suite that fails unmutated or imports ``hsrec`` from
outside the copy (an editable install would make every mutant survive), a
survivor not marked equivalent, or an equivalent mutant that a test kills.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = "equivalent: "

# (module, snippet, replacement, what the mutant breaks).
MUTANTS = [
    ("evaluate", "[i for i in items if i != target]", "list(items)", "exclusion also drops the row's target"),
    ("evaluate", "if exclude is not None:", "if False:", "history exclusion ignored"),
    ("evaluate", "order[tied] < targets[row]", "order[tied] > targets[row]", "rank_rows tie-break reversed"),
    ("evaluate", "(order[tied] < targets[row])", "(order[tied] != targets[row])", "rank_rows counts ties as ahead"),
    ("evaluate", "axis=1) > 1)", "axis=1) > 2)", "rank_rows' 'more than one tie' test is > 2"),
    ("evaluate", "if diverged.size:", "if False:", "rank_rows accepts a non-finite target score"),
    ("evaluate", "1.0 / np.log2(ranks + 1.0)", "1.0 / np.log(ranks + 1.0)", "NDCG discount in natural log"),
    ("evaluate", "np.mean(ranks <= k)", "np.mean(ranks < k)", "Recall@k off by one"),
    ("evaluate", "[lo : lo + EVAL_BLOCK]", "[lo : lo + EVAL_BLOCK - 1]", "evaluation blocks drop their last example"),
    ("softmax", "scores -= np.repeat(np.maximum", "scores -= 0 * np.repeat(np.maximum", "_fold without its max shift"),
    ("softmax", 'np.einsum("ij,j->i", rows, queries) if', "rows @ queries if", "GEMV single-query item product"),
    ("softmax", "range(0, len(scores), tile)", "range(0, len(scores) - 1, tile)", "the fold skips the last row"),
    ("softmax", "- _logsumexp(cl)", "- 0.0", "score_all without log Z"),
    ("softmax", "out = shifted.sum(axis=1)", "out = shifted.sum(axis=0)", "row logsumexp sums the wrong axis"),
    ("softmax", ">= tables.dim", "> tables.dim", "lift rule >= becomes >"),
    ("softmax", "pm[within, pos] -= 1.0", "pass", "member gradient misses its target's -1"),
    ("softmax", "counter.add(t.size - int(is_item.sum()))", "counter.add(t.size)", "item targets cost a text dot"),
    ("inference", "survivors = (scores >= kth)", "survivors = (scores > kth)", "_rank_topk drops ties at the k-th"),
    ("inference", "kth > item_bounds[cluster]", "kth >= item_bounds[cluster]", "search stops at a tied bound"),
    ("inference", "keep = scores >= kth", "keep = scores > kth", "search drops members tied at the k-th"),
    ("inference", "np.lexsort((ordinals,", "np.lexsort((-ordinals,", "search tie-break reversed"),
    ("inference", "bounds < best_scores[-1]]", "bounds <= best_scores[-1]]", "a tied cluster counted as pruned"),
    ("inference", "[:probes]", "[: probes + 1]", "ANN probes one cluster too many"),
    ("inference", "(2.0 * cl[:n_text]", "(cl[:n_text]", "ANN text score not doubled"),
    ("inference", "tables.centroids.data[cluster_map.item_assignment]", "0.0", "ANN rows without centroids"),
    ("inference", "if index.tables_version != tables.version:", "if False:", "stale ANN index served"),
    ("tables", "+= 1\n            self._drop_derived()", "+= 1", "writing() keeps the derived copies"),
    ("tables", "if value is None:", "if True:", "derived copies rebuilt on every call"),
    ("tables", 'check_finite(arr, "embedding table")', "pass", "tables accept NaN and Inf"),
    ("tables", 'check_finite(self.weight, "projection weight")', "pass", "a projection head accepts a NaN weight"),
    ("tables", 'check_finite(self.bias, "projection bias")', "pass", "a projection head accepts a NaN bias"),
    ("tables", "raise error(f", "raise ValueError(f", "a non-finite update raises ValueError, so it exits as usage"),
    ("tables", "self.item_projected()[cluster_map.item_order]", "self.item_projected()", "rows left in item order"),
    ("tables", "d_proj[pos[start:end][hit]] +=", "d_proj[pos[start:end][hit]] =",
     "finalize overwrites an encoder row's gradient"),
    ("tables", "d_proj[np.searchsorted(proj_rows, rows)] +=", "d_proj[np.searchsorted(proj_rows, rows)] =",
     "finalize overwrites a row two sources touch"),
    ("tables", "self.d_proj_bias += d_proj", "self.d_proj_bias -= d_proj", "head bias gradient sign flipped"),
    ("tables", "if left.shape[1] == 1:", "if False:",
     EQUIVALENT + "a rank-1 part's left @ right has the einsum's bits; the einsum is the faster of the two"),
    ("trainer", "math.pi * step / max_steps", "math.pi * (step + 1) / max_steps", "cosine schedule off by one"),
    ("trainer", "check_finite(written, name, TrainingDivergedError)", "pass", "a non-finite block is written"),
    ("trainer", "if self.learning_rate * self.weight_decay >= 1.0:", "if False:",
     "a decay product of 1 or more accepted"),
    ("trainer", "if n_train == 0:  # before any model", "if False:  # before any model",
     "an empty train split builds a model first"),
    ("trainer", 'if cluster_map is None and config.softmax_mode == "full":', "if False:",
     "a full-softmax model is clustered again"),
    ("trainer", "if clustering not in (*CLUSTERINGS, None):", "if False:", "a full-softmax model takes any clustering"),
    ("trainer", "data.events[ends] +", "data.events[ends - 1] +", "training targets the history's last item"),
    ("catalog", "np.lexsort((np.array(event_times", "np.lexsort((-np.arange(len(codes)), np.array(event_times",
     "equal-timestamp events in reverse input order"),
    ("catalog", "PRICE_BUCKET_COUNT + 1)[1:-1]", "PRICE_BUCKET_COUNT)[1:-1]", "price edges are not deciles"),
    ("catalog", 'side="right"', 'side="left"', "a price on an edge falls below it"),
    ("catalog", "kept = per_user >= 3", "kept = per_user > 3", "users with three events dropped"),
    ("catalog", "elif (gaps := missing[item_index]) and", "elif False and", "later events never fill metadata"),
    ("snapshot", "if stored != fh.crc:", "if False:", "snapshot checksum unchecked"),
    ("snapshot", "if not np.isfinite(arr).all():", "if False:", "snapshot float payloads unchecked"),
    ("snapshot", "if meta_len < left:", "if False:", "trailing snapshot bytes accepted"),
    ("snapshot", "np.array_equal(assignment[:n_text], np.arange(n_text))", "True", "text clusters unchecked"),
    ("cli", '!= (polarity == "with")', '== (polarity == "with")', "the mode check inverted"),
    ("cli", 'resolved[dest], unread[dest] = None, f"', 'unread[dest] = f"',
     "an unread option still sets the modes that name it"),
    ("cli", "{mode}{unread.get(named, '')}", "{mode}", "a refusal omits the mode that left its option unread"),
    ("cli", "value < minimum", "value <= minimum", "a value at its minimum rejected"),
    ("cli", "if choices and value != default and value not in choices:", "if False:", "the choice check dropped"),
    ("cli", 'value in (None, ""):', "value is None:", "an empty required value accepted"),
    ("cli", "if value is None and dest in file_values:", "if dest in file_values:", "a config value beats its flag"),
    ("cli", "if key in sections[current]:", "if False:", "a repeated config key accepted"),
    ("cli", 'raw.removeprefix("\\ufeff") if line_no == 1 else raw', "raw", "a leading byte-order mark not skipped"),
    ("cli", "raise UsageError(message)", "sys.exit(2)", "an argparse error exits without the trailer"),
    ("cli", "opts = _resolve(args)", "opts = _resolve(args); _out_dir(opts)", "the out-dir made before any input is read"),
    ("cli", "EXIT_USAGE = 1", "EXIT_USAGE = 2", "usage errors exit with the data code"),
    ("cli", '_fail(EXIT_DATA, "data"', '_fail(EXIT_DATA, "usage"', "the data trailer typed usage"),
    ("cli", "except (ValueError, EOFError) as exc:", "except EOFError as exc:", "a feature file numpy rejects exits as usage"),
    ("cli", "_check_snapshot_matches(snapshot, data)\n    return", "return", "a snapshot of another corpus accepted"),
    ("cli", 'exclude = bool(opts["exclude_history"])', "exclude = False", "--exclude-history not passed through"),
    ("cli", "if min(ks) < 1:", "if min(ks) < 0:", "a recall cutoff of 0 accepted"),
    ("cli", 'if snapshot.softmax_mode != "twolevel":', "if False:", "bench ranks a full-softmax snapshot"),
    ("cli", "tables.n_total + tables.n_item_clusters if", "tables.n_total if",
     "unpruned engines' token counts miss the first-level logits"),
    ("cli", "except (TrainingDivergedError, RuntimeWarning) as exc:", "except TrainingDivergedError as exc:",
     "a RuntimeWarning raised as an error escapes main"),
]

CHILD = (
    "import sys, hsrec, pytest; print('hsrec from', hsrec.__file__, flush=True); sys.exit(pytest.main(sys.argv[1:]))"
)


def module_path(src: Path, module: str) -> Path:
    return src / "hsrec" / f"{module}.py"


def stale() -> list[str]:
    """One line per mutant whose snippet does not occur exactly once in ``src/``."""
    out = []
    for number, (module, snippet, _, _) in enumerate(MUTANTS, start=1):
        count = module_path(ROOT / "src", module).read_text().count(snippet)
        if count != 1:
            out.append(f"mutant {number} ({module}): snippet found {count} times: {snippet!r}")
    return out


def run_suite(work: Path, mutant=None, timeout=None):
    """Run tier-1 against a copy of ``src/`` in ``work``, with ``mutant``
    applied; return ``(exit code or None on timeout, output, seconds)``."""
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        module, snippet, replacement, _ = mutant
        path = module_path(src, module)
        path.write_text(path.read_text().replace(snippet, replacement))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "-W", "error::RuntimeWarning", "--tb=no", "-rfE", f"--basetemp={work / 'tmp'}", str(ROOT / "tests")]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        return None, out, time.monotonic() - start
    first = proc.stdout.partition("\n")[0]
    if not first.startswith("hsrec from ") or not Path(first[11:]).resolve().is_relative_to(src.resolve()):
        sys.exit(f"the suite did not import hsrec from the copy {src}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode, proc.stdout, time.monotonic() - start


def killers(output: str) -> Counter:
    """Failed or erroring tests, parametrized cases counted under their test."""
    tests = Counter()
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            test = rest.split(" - ")[0].split("[")[0]
            tests[test.removeprefix("tests/")] += 1
    return tests


def main() -> int:
    bad = stale()
    if bad:
        print("\n".join(bad))
        return 2
    with tempfile.TemporaryDirectory(prefix="hsrec-mutants-") as tmp:
        tmp = Path(tmp)
        code, output, seconds = run_suite(tmp / "base")
        if code != 0:
            print(output[-3000:])
            print("the unmutated suite does not pass")
            return 2
        timeout = 5 * seconds
        print(f"unmutated suite: {seconds:.0f} s; per-mutant timeout {timeout:.0f} s", file=sys.stderr, flush=True)

        def run(numbered):
            number, mutant = numbered
            result = run_suite(tmp / f"m{number}", mutant, timeout)
            print(f"mutant {number}: exit {result[0]}, {result[2]:.0f} s", file=sys.stderr, flush=True)
            return result

        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            results = list(pool.map(run, enumerate(MUTANTS, start=1)))

    counts, errors = Counter(), []
    print(f"{'#':>2}  {'module':<9} {'result':<10} mutant, then its killing tests")
    for number, ((module, _, _, note), (code, output, _)) in enumerate(zip(MUTANTS, results), start=1):
        tests = killers(output)
        equivalent = note.startswith(EQUIVALENT)
        if code is None:
            result = "timeout"
        elif code == 0:
            result = "equivalent" if equivalent else "SURVIVED"
        else:
            result = "killed"
        counts[result] += 1
        print(f"{number:>2}  {module:<9} {result:<10} {note.removeprefix(EQUIVALENT)}")
        for test, cases in sorted(tests.items()):
            print(f"{'':>24}{test}" + (f" ({cases} cases)" if cases > 1 else ""))
        if code and not tests:
            print(f"{'':>24}(exit {code}, no test named)")
        if result == "SURVIVED":
            errors.append(f"mutant {number} survived and is not marked equivalent")
        elif equivalent and result != "equivalent":
            errors.append(f"mutant {number} is marked equivalent but was {result}")
    print(f"{len(MUTANTS)} mutants: " + ", ".join(f"{n} {r}" for r, n in sorted(counts.items())))
    print("\n".join(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
