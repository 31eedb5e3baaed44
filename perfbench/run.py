#!/usr/bin/env python3
"""End-to-end benchmark of the fedfraud CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed operation is one `python3 -m fedfraud.cli ...` child process,
run one at a time (a closed loop with one client). The benchmark passes no
`--threads` flag and sets no BLAS or OpenMP thread variables, so it times
what a user runs. Inputs are made from --seed before timing starts.

--trace 0 prints the end-to-end metrics: the medians over the timed runs
of wall time, CPU time and peak RSS of the CLI process, the import-only
set-up time, and the federated model's test AUC from the report.
--trace 1 runs the CLI untraced, then once more in-process under
perfbench/traced.py, and prints the per-layer metrics of the traced run.

Every run is checked: exit code 0, every expected report file present, AUC
finite and in (0, 1], and report bytes (all but config.json, which echoes
--out) identical across the runs of one invocation, traced run included.
A failed check counts the run as failed; no run is dropped. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import traced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

DEADLINE_S = 170.0        # the whole invocation must end within 180 s
# Import-only processes for setup_s: some before the timed runs and more
# after each one, so the median samples the whole measuring window.
SETUP_FIRST, SETUP_BETWEEN = 5, 3
MIN_TIMED_RUNS = 2

# ULB credit-card shape: 284 807 rows, 492 fraud, Time, V1..V28, Amount.
ULB_ROWS, ULB_FRAUD, ULB_PCA = 284_807, 492, 28
# Mahalanobis distance between the fraud and legit V-column means.
ULB_SEPARATION = 3.5

BENCHMARK_REPORTS = ("model_fed.json", "report.csv", "report.txt", "rounds.csv")
SWEEP_REPORTS = ("sweep.csv",)

FED_MANY_CONFIG = {"synthetic_n": 200_000, "synthetic_features": 30,
                   "synthetic_fraud_fraction": 0.05, "k_clients": 50,
                   "participation": 0.5, "rounds": 100}

# Reduced inputs for perfbench/smoke.py; they exercise the same code paths.
TINY = {
    "ulb_rows": 6_000, "ulb_fraud": 50,
    "fed_many_config": {**FED_MANY_CONFIG, "synthetic_n": 4_000, "k_clients": 10,
                        "rounds": 4},
    "sweep_config": {"sweep_sample_counts": [500, 1000], "sweep_repeats": 1,
                     "rounds": 2},
}

# The traced run's JSON line carries BENCHMARK.json's per_layer metrics,
# which are the ones every workload reports. WORKLOAD_LAYERS are printed by
# name too, on the workloads where that layer runs.
WORKLOAD_LAYERS = {
    "ulb-benchmark": ("data.load_csv_s", "data.load_csv_rows_per_s",
                      "models.lr_fit_s", "models.dt_fit_s", "models.mlp_fit_s",
                      "kernels.best_split_s", "kernels.best_split_calls",
                      "metrics.summarize_s", "metrics.summarize_calls"),
    "fed-many-clients": ("data.make_synthetic_s", "models.mlp_fit_s",
                         "federated.round_tail_s", "federated.round_tail_pctl",
                         "metrics.summarize_s", "metrics.summarize_calls"),
    "sweep-synthetic": ("data.make_synthetic_s", "federated.round_tail_s",
                        "federated.round_tail_pctl"),
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no fedfraud sources)."""


def per_layer_names() -> tuple[str, ...]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return tuple(m["name"] for m in json.load(fh)["per_layer"])


# --- inputs -------------------------------------------------------------------

def write_ulb_csv(path: str, seed: int, rows: int, fraud: int) -> None:
    """A CSV shaped like the public ULB credit-card file: quoted header,
    Time, V1..V28 (unequal scales), Amount, and quoted "0"/"1" labels.

    Generated here from the benchmark seed, not by `fedfraud gen-synthetic`,
    so a change to the package's generator cannot change the input.
    """
    rng = np.random.default_rng([seed, 284_807])
    is_fraud = np.zeros(rows, dtype=np.int64)
    is_fraud[rng.choice(rows, fraud, replace=False)] = 1
    seconds = np.sort(rng.integers(0, 172_792, rows))
    scale = np.linspace(2.0, 0.3, ULB_PCA)
    direction = rng.standard_normal(ULB_PCA)
    direction /= np.linalg.norm(direction)
    v = rng.standard_normal((rows, ULB_PCA))
    v[is_fraud == 1] += ULB_SEPARATION * direction
    v *= scale
    amount = np.round(rng.lognormal(3.0, 1.6, rows), 2)
    header = ["Time"] + [f"V{i}" for i in range(1, ULB_PCA + 1)] + ["Amount", "Class"]
    fmt = "%d," + ",".join(["%.15g"] * ULB_PCA) + ',%.2f,"%d"'
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f'"{h}"' for h in header) + "\n")
        np.savetxt(fh, np.column_stack([seconds, v, amount, is_fraud]), fmt=fmt)


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def prepare(workload: str, seed: int, tmp: str, tiny: bool):
    """Write the workload's inputs; return (CLI argv, expected reports)."""
    common = ["--seed", str(seed)]
    if workload == "ulb-benchmark":
        csv_path = os.path.join(tmp, "ulb.csv")
        rows, fraud = ((TINY["ulb_rows"], TINY["ulb_fraud"]) if tiny
                       else (ULB_ROWS, ULB_FRAUD))
        write_ulb_csv(csv_path, seed, rows, fraud)
        return (["benchmark", "--data", csv_path, "--ratio", "1:100"] + common,
                BENCHMARK_REPORTS)
    if workload == "fed-many-clients":
        cfg = write_json(os.path.join(tmp, "config.json"),
                         TINY["fed_many_config"] if tiny else FED_MANY_CONFIG)
        return (["fed-vs-central", "--scheme", "quantity_skew", "--config", cfg]
                + common, BENCHMARK_REPORTS)
    if workload == "sweep-synthetic":
        argv = ["sweep-sampling"] + common
        if tiny:
            argv += ["--config", write_json(os.path.join(tmp, "config.json"),
                                            TINY["sweep_config"])]
        return argv, SWEEP_REPORTS
    raise BenchError(f"unknown workload {workload!r}")


# --- child processes ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path: str, timeout: float) -> dict:
    """Run one child to completion; wall time from launch to exit, CPU time
    and peak RSS from the child's own rusage."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def log_tail(path: str, lines: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def manifest(tmp: str) -> dict:
    log = os.path.join(tmp, "manifest.log")
    result = run_child([sys.executable, os.path.join(HERE, "manifest.py")], log, 60)
    if result["exit"] != 0:
        raise BenchError("cannot import fedfraud from src/:\n" + log_tail(log))
    with open(log, encoding="utf-8") as fh:
        return json.loads(fh.read().strip().splitlines()[-1])


def setup_times(tmp: str, repeats: int) -> list[float]:
    """Wall time of processes that only import fedfraud.cli and exit."""
    log = os.path.join(tmp, "setup.log")
    times = []
    for _ in range(repeats):
        result = run_child([sys.executable, "-c", "import fedfraud.cli"], log, 60)
        if result["exit"] != 0:
            raise BenchError("import fedfraud.cli failed:\n" + log_tail(log))
        times.append(result["wall_s"])
    return times


# --- checks -------------------------------------------------------------------

def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fed_auc(out: str, reports) -> float:
    """Test AUC of the federated MLP: the mlp_fed row of report.csv, or the
    mean of the sweep.csv AUCs. Raises ValueError on a bad value."""
    name = "sweep.csv" if reports == SWEEP_REPORTS else "report.csv"
    with open(os.path.join(out, name), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if name == "report.csv":
        rows = [r for r in rows if r["model"] == "mlp_fed"]
    aucs = [float(r["auc"]) for r in rows]
    if not aucs:
        raise ValueError(f"{name} holds no federated AUC")
    for auc in aucs:
        if not (math.isfinite(auc) and 0.0 < auc <= 1.0):
            raise ValueError(f"{name}: AUC {auc!r} is not finite and in (0, 1]")
    return statistics.fmean(aucs)


def check_run(result: dict, out: str, reports, log: str) -> list[str]:
    """Fill result with digests and AUC; return the failed checks."""
    problems = []
    if result["exit"] != 0:
        problems.append(f"exit code {result['exit']}: {log_tail(log).strip()}")
    missing = [r for r in reports if not os.path.isfile(os.path.join(out, r))]
    if missing:
        problems.append(f"missing report files {missing}")
    result["digests"] = {r: sha256(os.path.join(out, r)) for r in reports
                         if r not in missing}
    if not missing:
        try:
            result["fed_auc"] = fed_auc(out, reports)
        except (ValueError, KeyError) as exc:
            problems.append(f"bad AUC: {exc}")
    return problems


# --- one invocation -----------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.deadline = time.perf_counter() + DEADLINE_S
        self.runs: list[dict] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def cli_run(self, tmp: str, argv, reports, traced_spans: str | None = None):
        index = len(self.runs)
        out = os.path.join(tmp, f"out{index}")
        log = os.path.join(tmp, f"run{index}.log")
        if traced_spans is None:
            cmd = [sys.executable, "-m", "fedfraud.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced.py"), traced_spans]
        result = run_child(cmd + argv + ["--out", out], log, self.remaining())
        result["traced"] = traced_spans is not None
        result["problems"] = check_run(result, out, reports, log)
        if self.runs and not result["problems"]:
            if result["digests"] != self.runs[0]["digests"]:
                result["problems"].append("report bytes differ from run 0")
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(result)
        kind = "traced run" if result["traced"] else "run"
        print(f"{kind} {index}: wall {result['wall_s']:.3f} s, cpu "
              f"{result['cpu_s']:.3f} s, peak rss {result['peak_rss_mb']:.1f} MiB, "
              f"exit {result['exit']}"
              + "".join(f"\n  FAILED: {p}" for p in result["problems"]), flush=True)
        return result

    def timed_loop(self, tmp, argv, reports, budget: float, min_runs: int,
                   setup: list[float] | None = None):
        """Run untraced CLI processes until the next one would overrun
        `budget` seconds, but at least `min_runs` times. With `setup`, add
        set-up timings after each run."""
        start = time.perf_counter()
        longest = 0.0
        while True:
            result = self.cli_run(tmp, argv, reports)
            if setup is not None:
                setup += setup_times(tmp, SETUP_BETWEEN)
            longest = max(longest, result["wall_s"])
            elapsed = time.perf_counter() - start
            if self.remaining() < longest * 1.5:
                break
            if len([r for r in self.runs if not r["traced"]]) >= min_runs \
                    and elapsed + longest > budget:
                break

    def run(self, trace: bool) -> dict:
        os.makedirs(WORK, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=WORK)
        try:
            return self._run(tmp, trace)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _run(self, tmp: str, trace: bool) -> dict:
        info = manifest(tmp)
        print("manifest " + json.dumps(info, sort_keys=True), flush=True)
        setup = [] if trace else setup_times(tmp, SETUP_FIRST)
        argv, reports = prepare(self.workload, self.seed, tmp, self.tiny)
        print("cli: python3 -m fedfraud.cli " + " ".join(
            os.path.relpath(a, ROOT) if a.startswith(tmp) else a for a in argv),
            flush=True)

        if trace:
            # Untraced runs for the overhead baseline and the byte check,
            # leaving room for the traced run.
            self.timed_loop(tmp, argv, reports, self.seconds / 2, 1)
            spans_path = os.path.join(tmp, "spans.json")
            traced_result = self.cli_run(tmp, argv, reports, spans_path)
            metrics = self.layer_metrics(spans_path, traced_result)
        else:
            self.timed_loop(tmp, argv, reports, self.seconds, MIN_TIMED_RUNS, setup)
            metrics = self.end_to_end(setup)

        failed = sum(1 for r in self.runs if r["problems"])
        first = self.runs[0]
        for name, digest in sorted(first["digests"].items()):
            print(f"sha256 {name} {digest}")
        summary = {"correct": failed == 0, "attempted": len(self.runs),
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}}
        self.save(info, summary)
        return summary

    def end_to_end(self, setup: list[float]) -> dict:
        timed = self.runs
        out = {}
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")):
            values = [r[key] for r in timed]
            out[key] = (statistics.median(values), unit)
            print(f"{key} = {out[key][0]:.4f} {unit} (median of {len(values)} runs, "
                  f"min {min(values):.4f}, max {max(values):.4f}; a tail "
                  f"percentile needs at least 11 runs)")
        out["setup_s"] = (statistics.median(setup), "s")
        print(f"setup_s = {out['setup_s'][0]:.4f} s (median of {len(setup)} "
              f"import-only processes, min {min(setup):.4f}, max {max(setup):.4f})")
        aucs = [r["fed_auc"] for r in timed if "fed_auc" in r]
        if aucs:
            out["fed_auc"] = (aucs[0], "AUC")
            print(f"fed_auc = {aucs[0]:.6f} AUC")
        return out

    def layer_metrics(self, spans_path: str, traced_result: dict) -> dict:
        try:
            with open(spans_path, encoding="utf-8") as fh:
                recorded = json.load(fh)
        except (OSError, ValueError) as exc:
            traced_result["problems"].append(f"no spans recorded: {exc}")
            recorded = {"missing": [], "spans": []}
        for target in recorded["missing"]:
            print(f"trace: patch target {target} no longer exists")
        metrics, notes = traced.layer_metrics(recorded["spans"])
        untraced = [r["wall_s"] for r in self.runs if not r["traced"]]
        metrics["trace.overhead_s"] = (
            traced_result["wall_s"] - statistics.median(untraced), "s")
        notes["trace.overhead_s"] = (f"traced wall minus median of "
                                     f"{len(untraced)} untraced runs")
        common = per_layer_names()
        for name in common + WORKLOAD_LAYERS[self.workload]:
            if name in metrics:
                value, unit = metrics[name]
                note = f" ({notes[name]})" if name in notes else ""
                print(f"{name} = {value:.6g} {unit}{note}")
            else:
                print(f"{name} absent: "
                      + notes.get(name, "its spans recorded no calls"))
        return {k: metrics[k] for k in common if k in metrics}

    def save(self, info: dict, summary: dict) -> None:
        """Keep the manifest beside the results, one file per invocation."""
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, f"{self.workload}-seed{self.seed}-"
                                     f"trace{int(self.runs[-1]['traced'])}.json")
        write_json(path, {"workload": self.workload, "seed": self.seed,
                          "seconds": self.seconds, "manifest": info,
                          "runs": self.runs, **summary})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs, for the smoke test only")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "fedfraud", "cli.py")):
        print(f"perfbench: no fedfraud sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, args.tiny)
    try:
        summary = bench.run(trace=bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
