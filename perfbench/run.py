"""Benchmark of moprompt's training loop, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scalar-desk --seed 0 --seconds 30 --trace 0

`--workload all` runs every workload in one process; its metric names are
prefixed with the workload's, and peak_rss_mb is then the process's peak so
far. The workloads and the metrics, with their units, are listed in
BENCHMARK.json; the cells behind each workload are in perfbench/workloads.py.

A run times public `moprompt.train` calls for `--seconds` seconds and at
least one whole pass of the workload, after a repeated set-up and one
untimed warm-up call per cell. Every call's metrics.csv is checked. With
`--trace 1` each call also runs a second time with every layer wrapped (see
tracing.py), and the per-layer metrics are printed instead of the
end-to-end ones. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

`--write-reference` re-records perfbench/reference.json: the warm-up
calls' metrics.csv and checkpoint digest, against which every run reports,
but does not fail on, drift.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the loop is single threaded, and a BLAS pool on a
# small machine only contends with the process that drives the benchmark.
# Must be set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# Set-up time then always includes compiling the package, and the
# benchmark leaves no bytecode caches behind.
sys.dont_write_bytecode = True

import tracing
from workloads import WORKLOADS, ZERO_CALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPS = 31
REPLAY_KEEP = 16
VALUE_COLUMNS = ("mean_of_means", "expected_product", "hvi")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed as a result."""


def fresh_import():
    """Import moprompt from SRC anew, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == "moprompt" or n.startswith("moprompt.")]:
        del sys.modules[name]
    mp = importlib.import_module("moprompt")
    if Path(mp.__file__).resolve().parent != SRC / "moprompt":
        raise BenchError(f"moprompt imported from {mp.__file__}, not from {SRC}")
    return mp


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def git_sha():
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "moprompt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks


def check_output(result, text: str, cell, steps: int, eval_every: int) -> list:
    """Problems with one call's output; an empty list means it passed."""
    problems = [f"seed {a['seed']} aborted at step {a['step']}: {a['reason']}" for a in result.aborts]
    rows = list(csv.DictReader(io.StringIO(text)))
    expected_rows = 1 + steps // eval_every
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} metrics rows, expected {expected_rows}")
    for row in rows:
        for col, raw in row.items():
            if col in ("step", "seed", "method") or (col == "mgda_norm_sq" and raw == ""):
                continue
            try:
                value = float(raw)
            except (TypeError, ValueError):
                problems.append(f"step {row['step']}: {col}={raw!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"step {row['step']}: {col} is not finite")
            elif (col.startswith("mean_") or col in VALUE_COLUMNS) and not 0.0 <= value <= 1.0:
                problems.append(f"step {row['step']}: {col}={value!r} outside [0, 1]")
    if cell.method == "mgda" and not any(row.get("mgda_norm_sq") for row in rows[1:]):
        problems.append("mgda rows carry no mgda_norm_sq")
    return problems


def best_expected_product(text: str) -> float:
    return max(float(row["expected_product"]) for row in csv.DictReader(io.StringIO(text)))


def reference_drift(expected: str, got: str) -> str:
    """Which columns moved against the reference, and by how much at most."""
    a = list(csv.DictReader(io.StringIO(expected)))
    b = list(csv.DictReader(io.StringIO(got)))
    if len(a) != len(b) or (a and a[0].keys() != b[0].keys()):
        return f"shape changed: {len(a)} rows -> {len(b)} rows"
    moved = {}
    for ra, rb in zip(a, b):
        for col in ra:
            if ra[col] == rb[col]:
                continue
            try:
                diff = abs(float(ra[col]) - float(rb[col]))
            except ValueError:
                diff = math.inf
            moved[col] = max(moved.get(col, 0.0), diff)
    return ", ".join(f"{col} max |diff| {diff:.3g}" for col, diff in moved.items())


# ---------------------------------------------------------------------------
# one workload


def setup(workload, seed, out_dir):
    """Import and build every config, SETUP_REPS times; keeps the last.

    Returns the package, the warm-up configs, one per cell, and the pass:
    a list of groups, each a list of (cell, config seed, config).
    """
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous import's garbage, outside the timed span
        start = time.perf_counter()
        mp = fresh_import()

        def build(data):
            return mp.config_from_dict(data, profile=workload.profile)

        warmup = [build(workload.reference_config(cell, out_dir)) for cell in workload.cells]
        groups = [
            [(cell, s, build(workload.config(cell, s, out_dir))) for cell, s in group]
            for group in workload.schedule(seed)
        ]
        times.append(time.perf_counter() - start)
    return mp, warmup, groups, statistics.median(times)


def tail(samples: list):
    """Value at the highest percentile with at least ten samples above it."""
    xs = sorted(samples)
    i = max(0, len(xs) - 11)
    return xs[i], 100.0 * (i + 1) / len(xs)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str, log) -> dict:
    workload = WORKLOADS[name]
    out_dir = os.path.join(work_dir, name)
    mp, warmup, groups, setup_s = setup(workload, seed, out_dir)
    references = json.loads(REFERENCE.read_text()).get(name, {}) if REFERENCE.is_file() else {}

    attempted = failed = 0
    seen = {}

    def call(fn, cell, config_seed, cfg):
        """Run and check one `train` call; returns seconds, metrics.csv, checkpoint."""
        nonlocal attempted, failed
        start = time.perf_counter()
        result = fn(cfg)
        elapsed = time.perf_counter() - start
        text = Path(cfg.out_dir, "metrics.csv").read_text(encoding="utf-8")
        problems = check_output(result, text, cell, cfg.steps, cfg.eval_every)
        weights = Path(cfg.out_dir, f"checkpoint_{config_seed}.txt").read_text(encoding="utf-8")
        key = (cell.label, config_seed, cfg.eval_every)
        if seen.setdefault(key, (text, weights)) != (text, weights):
            problems.append("repeat of this call is not byte-identical")
        attempted += 1
        if problems:
            failed += 1
            log(f"FAIL {name} {cell.label} seed={config_seed}: " + "; ".join(problems[:5]))
        return elapsed, text, weights

    # The warm-up calls are the result canary: the same configs whatever
    # the seed, compared with the stored reference and summarized as
    # best_expected_product, which would otherwise spread across seeds far
    # beyond any bound (m=4 products are near 5e-4).
    drift, best = {}, []
    for cell, cfg in zip(workload.cells, warmup):
        _, text, weights = call(mp.train, cell, 0, cfg)
        best.append(best_expected_product(text))
        expected = references.get(cell.label)
        if expected is None:
            drift[cell.label] = "no reference recorded"
        else:
            moved = []
            if expected["metrics_csv"] != text:
                moved.append(reference_drift(expected["metrics_csv"], text))
            if expected["checkpoint_sha256"] != sha256(weights):
                moved.append("final weights differ")
            if moved:
                drift[cell.label] = "; ".join(moved)
    for label, what in drift.items():
        log(f"reference drift {name} {label}: {what}")

    # At least one whole pass, then more groups until `seconds` have gone.
    # A sample is one group: ms per step over one call of every cell, since
    # cells of one workload can differ in cost and a per-call median would
    # then fall between them. Later passes repeat the first one's calls,
    # which checks that repeats are byte-identical.
    tracer = tracing.Tracer(REPLAY_KEEP) if trace else None
    traced_train = tracer.span(tracing.ROOT_SPAN, mp.train) if trace else None
    samples = []
    steps = wall = traced_wall = 0.0
    counts = None
    i = 0
    start = time.perf_counter()
    while i < len(groups) or time.perf_counter() - start < seconds:
        first_pass = i < len(groups)
        group_s = 0.0
        for cell, config_seed, cfg in groups[i % len(groups)]:
            group_s += call(mp.train, cell, config_seed, cfg)[0]
            if trace:
                tracer.recording = first_pass
                restore = tracer.install()
                try:
                    traced_wall += call(traced_train, cell, config_seed, cfg)[0]
                finally:
                    tracer.uninstall(restore)
        samples.append(1000.0 * group_s / (workload.steps * len(groups[0])))
        steps += workload.steps * len(groups[0])
        wall += group_s
        i += 1
        if trace and i == len(groups):
            counts = tracer.counts()

    p_tail, pct = tail(samples)
    e2e = {
        "steps_per_s": steps / wall,
        "step_ms.p50": statistics.median(samples),
        "step_ms.tail": p_tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_expected_product": 100.0 * statistics.fmean(best),
    }
    notes = {
        "step_ms.tail": f"p{pct:.1f} of {len(samples)} groups",
        "best_expected_product": "x100, table1-analog product of the warm-up calls",
    }
    info = {
        "groups": len(samples),
        "groups_per_pass": len(groups),
        "steps_per_call": workload.steps,
        "tail_percentile": pct,
        "reference_drift": drift,
    }
    if not trace:
        return {"metrics": e2e, "notes": notes, "info": info, "attempted": attempted, "failed": failed}

    layers = tracing.layer_metrics(tracer, counts, steps)
    layers["trace.overhead"] = steps / traced_wall - e2e["steps_per_s"]
    replayed, info["replay"] = tracing.replay(sys.modules["moprompt.geometry"], sys.modules["moprompt.mgda"], tracer)
    layers.update(replayed)

    # Dispatch invariants and wrapped names that disappeared are failures.
    for layer in ZERO_CALLS[name]:
        attempted += 1
        if layers[f"{layer}.calls"] != 0:
            failed += 1
            log(f"FAIL {name}: {layer} was called {layers[f'{layer}.calls']} times, expected 0")
    for missing in tracing.missing_names():
        attempted += 1
        failed += 1
        log(f"FAIL {name}: wrapped name {missing} no longer exists")
    notes.update({k: f"moves {tracing.prediction(k)}" for k in layers})
    return {"metrics": layers, "notes": notes, "info": info, "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# entry point


def write_reference(work_dir: str) -> None:
    refs = {}
    for name, workload in WORKLOADS.items():
        out_dir = os.path.join(work_dir, name)
        mp, warmup, _, _ = setup(workload, 0, out_dir)
        refs[name] = {}
        for cell, cfg in zip(workload.cells, warmup):
            mp.train(cfg)
            refs[name][cell.label] = {
                "metrics_csv": Path(out_dir, "metrics.csv").read_text(encoding="utf-8"),
                "checkpoint_sha256": sha256(Path(out_dir, "checkpoint_0.txt").read_text(encoding="utf-8")),
            }
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    try:
        if not (SRC / "moprompt" / "__init__.py").is_file():
            raise BenchError(f"no moprompt sources under {SRC}; run from a source checkout")
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError(f"{spec_path} is missing")
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        sys.path.insert(0, str(SRC))
        build = ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
        try:
            if args.write_reference:
                write_reference(work_dir)
                return 0
            seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
            names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
            results = {n: run_workload(n, args.seed, seconds, bool(args.trace), work_dir, log) for n in names}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, res in results.items():
        if set(res["metrics"]) != {m["name"] for m in listed}:
            raise RuntimeError(f"metrics computed {sorted(res['metrics'])} differ from BENCHMARK.json")
        prefix = f"{name}." if len(results) > 1 else ""
        for m in listed:
            value = float(res["metrics"][m["name"]])
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            note = res["notes"].get(m["name"], "")
            print(f"{name:13s} {m['name']:40s} {value:14.6g} {m['unit']:9s} {note}")
        res["info"]["failed_frac"] = res["failed"] / res["attempted"]
        print(f"{name:13s} failed_frac {res['failed']}/{res['attempted']} = {res['info']['failed_frac']:.3g}")
        print("info " + json.dumps({"workload": name, "seed": args.seed, "trace": args.trace, **res["info"]}))
    print("machine " + json.dumps(machine_info()))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
