"""Benchmark of the full ``tripmatch run`` pipeline on a synthetic city.

Usage (from the repository root):

    python3 perfbench/run.py --workload published-day --seed 1 --seconds 30 --trace 0

The seed generates the workload's inputs (cached per workload and seed under
perfbench/.cache, outside every timed region). Each timed run is
``pipeline.run_all`` with methods new-live, old-live and static, one job,
in a fresh process; runs follow each other as a closed loop of one client
until ``--seconds`` is used up, at least three of them. Every run's outputs
are checked against the truth manifest and hashed, and the runs of one
invocation must give identical digests; the full digests are printed so
that runs of other commits can be compared with them.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over the runs, times scaled to a reference host speed measured by a fixed
probe around every run); with ``--trace 1`` it reports the per-layer metrics
of the traced runs, interleaved with untraced ones to measure the trace
overhead.
The process exits 1 when any check fails and 2 when the program under test
is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import truthcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
WORK = HERE / ".work"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
KEEP_DATASETS = 6
# The host's speed drifts by up to half again for minutes at a time, more than
# the bounds allow. The run's own process times a fixed probe just before and
# just after the pipeline, and the run's times are scaled by
# REFERENCE_PROBE_S / (mean probe time): reported seconds are those of a host
# whose probe takes REFERENCE_PROBE_S. It is the median probe of the baseline
# runs in README.md, so reported seconds match that host's typical wall time.
REFERENCE_PROBE_S = 0.094
TIMES = ("run_s", "setup_s", "match_s")

E2E_UNITS = {
    "run_s": "s", "setup_s": "s", "match_s": "s", "peak_rss_mb": "MB",
    "recall_new_live": "ratio", "recall_old_live": "ratio",
    "recall_static": "ratio", "recall_combined": "ratio",
}


def _source_hash(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _dataset(citygen, workload, seed: int, scale: float) -> tuple[Path, dict]:
    """The cached inputs for (workload, seed), generated on first use."""
    generator = _source_hash([HERE / "citygen.py", SRC / "tripmatch" / "ingest.py"])
    tag = f"-x{scale:g}" if scale < 1.0 else ""
    path = CACHE / f"{workload.name}-s{seed}{tag}-{generator}"
    if not (path / "truth.json").exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        tmp = Path(tempfile.mkdtemp(dir=CACHE, prefix=".gen-"))
        try:
            citygen.generate(tmp, workload, seed)
            tmp.rename(path)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"generated {path.name} in {time.perf_counter() - start:.1f} s")
        for old in sorted((p for p in CACHE.iterdir() if p.is_dir()
                           and not p.name.startswith(".")),
                          key=lambda p: p.stat().st_mtime)[:-KEEP_DATASETS]:
            shutil.rmtree(old, ignore_errors=True)
    return path, json.loads((path / "truth.json").read_text(encoding="utf-8"))


class Runs:
    """Runs pipelines in fresh processes and checks every output."""

    def __init__(self, dataset: Path, truth: dict, label: str):
        self.dataset = dataset
        self.truth = truth
        self.label = label
        self.results: list[dict] = []
        self.scores = []
        self.digests: dict[str, str] | None = None
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def run(self, trace: bool) -> bool:
        """One pipeline run; False when it did not complete."""
        WORK.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
        cmd = [sys.executable, str(HERE / "child.py"), str(self.dataset), str(out)]
        if trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-3:]
                return self._broken(f"pipeline run exited {proc.returncode}: "
                                    + " | ".join(tail))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["trace"] = trace
            score = truthcheck.score(out, self.truth)
            self.attempted += score.attempted
            self.failed += score.failed
            self.problems += score.problems
            if score.car_recognised:
                self.problems.append(f"{score.car_recognised} car trip(s) "
                                     "recognised as public transport")
            self._check_digests(truthcheck.digests(out))
            if trace:
                shutil.copyfile(out / "spans.csv", WORK / f"spans-{self.label}.csv")
            self.results.append(result)
            self.scores.append(score)
            return True
        except subprocess.TimeoutExpired:
            return self._broken(f"pipeline run exceeded {CHILD_TIMEOUT_S} s")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _broken(self, message: str) -> bool:
        self.problems.append(message)
        n = 3 * self.truth["vehicular_segments_expected"]
        self.attempted += n
        self.failed += n
        return False

    def _check_digests(self, digests: dict[str, str]) -> None:
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in digests if digests[k] != self.digests[k])
            self.problems.append(f"outputs differ between runs: {changed}")

    def timed(self, trace: bool) -> list[dict]:
        return [r for r in self.results if r["trace"] == trace]


def _loop(runs: Runs, seconds: float, schedule) -> None:
    """Closed loop: the next run starts when the previous one ends, while the
    time left fits another run like the slowest so far."""
    start = time.perf_counter()
    slowest = 0.0
    for n, trace in enumerate(schedule):
        t0 = time.perf_counter()
        if not runs.run(trace):
            return
        result = runs.results[-1]
        for key in TIMES:
            if key in result:
                result["scaled_" + key] = (result[key] * REFERENCE_PROBE_S
                                           / result["probe_s"])
        slowest = max(slowest, time.perf_counter() - t0)
        if n + 1 >= MIN_RUNS and time.perf_counter() - start + slowest > seconds:
            return


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _end_to_end(runs: Runs) -> dict[str, float]:
    timed = runs.timed(False)
    score = runs.scores[0]
    metrics = {key: _median(timed, "scaled_" + key) for key in TIMES}
    metrics["peak_rss_mb"] = _median(timed, "peak_rss_mb")
    for method in ("new-live", "old-live", "static", "combined"):
        metrics["recall_" + method.replace("-", "_")] = score.recall(method)
    print(f"{len(timed)} runs, one process each, one at a time; host probe "
          + ", ".join(f"{r['probe_s']:.4f}" for r in timed)
          + f" s (reference {REFERENCE_PROBE_S} s)")
    for key in TIMES:
        each = ", ".join(f"{r['scaled_' + key]:.3f}" for r in timed)
        wall = ", ".join(f"{r[key]:.3f}" for r in timed)
        print(f"  {key:<16} {metrics[key]:10.3f} s      median of {each}; "
              f"unscaled {wall}")
    print(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:10.3f} MB     median")
    for method, count in score.recognised.items():
        key = "recall_" + method.replace("-", "_")
        print(f"  {key:<16} {metrics[key]:10.4f} ratio  "
              f"{count}/{score.pt_trips} logged public-transport trips")
    cars = len(runs.truth["car_trips"])
    print(f"  {'car_recognised':<16} {score.car_recognised:10d} count  "
          f"of {cars} car trips")
    print(f"  {'error_rate':<16} {runs.failed / max(1, runs.attempted):10.4f} "
          f"ratio  {runs.failed}/{runs.attempted} (segment, method) matches")
    return metrics


def _per_layer(runs: Runs, layer_unit) -> dict[str, float]:
    traced, plain = runs.timed(True), runs.timed(False)
    names = traced[0]["layers"]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in names}
    metrics["trace_overhead_s"] = (_median(traced, "scaled_run_s")
                                   - _median(plain, "scaled_run_s"))
    print(f"{len(traced)} traced and {len(plain)} untraced runs")
    shares = {layer: statistics.median(r["shares"][layer] for r in traced)
              for layer in traced[0]["shares"]}
    print("  layer self time, share of the traced run: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:12.4f} {layer_unit(name)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the city (smoke tests); 1 is the benchmark")
    args = parser.parse_args(argv)

    if not (SRC / "tripmatch" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'tripmatch'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import citygen
    import layers

    if args.workload not in citygen.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(citygen.WORKLOADS)}")
    workload = citygen.WORKLOADS[args.workload].scaled(args.scale)
    dataset, truth = _dataset(citygen, workload, args.seed, args.scale)
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{truth['rows']['transit_live']} fleet positions of "
          f"{truth['vehicles']} vehicles, {truth['rows']['gtfs_stop_times']} "
          f"stop_times, {truth['rows']['device_data_filtered']} device samples, "
          f"{truth['rows']['manual_log']} logged trips")

    runs = Runs(dataset, truth, f"{workload.name}-s{args.seed}")
    # traced runs alternate with untraced ones, which give the overhead's base
    _loop(runs, args.seconds, itertools.cycle((False, True)) if args.trace
          else itertools.repeat(False))
    correct = not runs.problems
    metrics = {}
    if correct:
        metrics = (_per_layer(runs, layers.unit) if args.trace
                   else _end_to_end(runs))
        for name, digest in runs.digests.items():
            print(f"sha256 {digest}  {name}")
    for problem in runs.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    unit = layers.unit if args.trace else E2E_UNITS.get
    print(json.dumps({
        "correct": correct, "attempted": runs.attempted, "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
