"""End-to-end and per-layer benchmark of nhqubit.

    python3 nhbench/run.py --workload all                # every metric, all workloads
    python3 nhbench/run.py --workload scenarios --seed 3 --seconds 15 --trace 0

One closed-loop client: worker processes run one after another, never side
by side, each running one op at a time (see README.md for the workloads
and metrics).  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, whose wall time is compared against untraced
workers that ran the same ops.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import common
import tracing
import workloads

# Workers per untraced run, at least: set-up time is their median, and
# 11 passes of the 13 presets put op_tail_ms inside one preset's cluster.
MIN_WORKERS = {"figures": 11, "scenarios": 4, "analysis": 4, "horizon": 4}
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "ok_frac": "ratio",
                    "peak_rss_mb": "MB"}


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest value that still
    has at least TAIL_BEYOND samples above it, with its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    cut = ordered[n - TAIL_BEYOND]  # the TAIL_BEYOND-th largest
    below = [v for v in ordered if v < cut]
    if not below:
        return ordered[-1], 100.0, 0
    value = below[-1]
    beyond = sum(v > value for v in ordered)
    return value, 100.0 * (n - beyond) / n, beyond


# --- workers ---------------------------------------------------------------

class Runner:
    """Starts workers one at a time and checks their outputs after each."""

    def __init__(self, workload: str, inputs: dict, out: Path):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.count = 0
        self.package = None
        self.problems: list[str] = []

    def worker(self, chunk: list[int], trace: bool) -> dict:
        work_dir = self.out / f"w{self.count}"
        self.count += 1
        work_dir.mkdir(parents=True)
        spec = {"workload": self.workload, "inputs": self.inputs,
                "chunk": chunk, "trace": trace, "out_dir": str(work_dir),
                "result_path": str(work_dir / "result.json")}
        spec_path = work_dir / "spec.json"
        spec["spawn_ns"] = time.monotonic_ns()
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "worker.py"),
             str(spec_path)],
            env=common.child_env(), cwd=common.ROOT, capture_output=True,
            text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        result = rescale(json.loads((work_dir / "result.json").read_text()))
        self.package = result["package"]
        self._check(work_dir, result["ops"])
        if trace:  # keep the last traced worker's spans, nothing else
            for path in self.out.glob("spans-w*.tsv"):
                path.unlink()
            (work_dir / "spans.tsv").rename(self.out / f"spans-{work_dir.name}.tsv")
        shutil.rmtree(work_dir)
        return result

    def _check(self, work_dir: Path, records: list[dict]) -> None:
        """Check every op that finished; mark the ones that fail."""
        ops = self.inputs["ops"]
        if self.workload == "analysis":
            for k, cfg in enumerate(self.inputs["trajectories"]):
                found = self._run_check(checks.check_trajectory_file,
                                        work_dir / f"traj_{k}.csv", cfg)
                if found:
                    self.problems.append(f"trajectory {k}: {found[0]}")
        check = {"figures": checks.check_preset_dir,
                 "scenarios": checks.check_scenario_dir,
                 "horizon": checks.check_scenario_dir,
                 "analysis": checks.check_analysis_dir}[self.workload]
        for rec in records:
            if rec["error"] is not None:
                continue
            op = ops[rec["index"]]
            found = self._run_check(check, work_dir / f"op{rec['index']}", op)
            if found:
                rec["error"] = "output check: " + "; ".join(found)
                self.problems.append(f"op {rec['index']}: {rec['error']}")

    @staticmethod
    def _run_check(check, *args) -> list[str]:
        try:
            return check(*args)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


def rescale(result: dict) -> dict:
    """Times at the reference host speed (see common.calibration_ns): each
    op and the set-up by the calibrations just before and after it, and a
    traced worker's layer times by its median calibration."""
    ref = common.CALIBRATION_REF_NS
    for rec in result["ops"]:
        before, after = rec["calibration_ns"]
        rec["wall_ns"] = rec["raw_ns"] * ref / (0.5 * (before + after))
    before, after = result["setup_calibration_ns"]
    result["setup_s"] = result["setup_raw_s"] * ref / (0.5 * (before + after))
    if "trace" in result:
        scale = ref / statistics.median(
            c for rec in result["ops"] for c in rec["calibration_ns"])
        result["trace"]["wall_ns"] = sum(r["raw_ns"] for r in result["ops"])
        result["trace"] = {k: v * scale if k.endswith("_ns") else v
                           for k, v in result["trace"].items()}
    return result


def chunks(workload: str):
    """Consecutive chunks of the op list, wrapping round at its end."""
    size, block = workloads.CHUNK[workload], workloads.BLOCK[workload]
    start = 0
    while True:
        yield [(start + i) % block for i in range(size)]
        start += size


def run_untraced(runner: Runner, seconds: float) -> list[dict]:
    """Whole passes over the op list, one chunk per worker, until a pass
    ends after a third of `seconds` of op time (raw, not rescaled) and at
    least MIN_WORKERS set-ups were timed.  A pass takes 12-15 s at the seed
    commit, so a run is one pass and weighs each op of the block equally,
    whatever the host speed."""
    results = []
    measured = 0.0
    per_pass = workloads.BLOCK[runner.workload] // workloads.CHUNK[runner.workload]
    for chunk in chunks(runner.workload):
        if (len(results) % per_pass == 0 and measured >= seconds / 3
                and len(results) >= MIN_WORKERS[runner.workload]):
            break
        results.append(runner.worker(chunk, False))
        measured += sum(r["raw_ns"] for r in results[-1]["ops"]) / 1e9
    return results


def run_traced(runner: Runner, seconds: float) -> tuple[list, list]:
    """Pairs of workers on the same chunk, untraced then traced, until a
    third of `seconds` of op time (raw, both sides) is measured."""
    plain, traced = [], []
    measured = 0.0
    for chunk in chunks(runner.workload):
        if measured >= seconds / 3:
            break
        plain.append(runner.worker(chunk, False))
        traced.append(runner.worker(chunk, True))
        measured += sum(r["raw_ns"]
                        for r in plain[-1]["ops"] + traced[-1]["ops"]) / 1e9
    return plain, traced


# --- metrics ---------------------------------------------------------------

def op_records(results):
    return [rec for r in results for rec in r["ops"]]


def end_to_end(results) -> tuple[dict, dict]:
    recs = op_records(results)
    walls_ms = [rec["wall_ns"] / 1e6 for rec in recs]
    failed = sum(rec["error"] is not None for rec in recs)
    tail_ms, pct, beyond = tail(walls_ms)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": len(recs) / (sum(walls_ms) / 1e3),
        "op_p50_ms": statistics.median(walls_ms),
        "op_tail_ms": tail_ms,
        "ok_frac": (len(recs) - failed) / len(recs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    detail = {"ops": len(recs), "failed": failed, "workers": len(results),
              "tail_percentile": pct, "tail_samples_beyond": beyond,
              "fail_frac": failed / len(recs),
              "raw_op_p50_ms": statistics.median(
                  rec["raw_ns"] / 1e6 for rec in recs),
              "raw_setup_s": statistics.median(
                  r["setup_raw_s"] for r in results),
              "host_speed": statistics.median(
                  common.CALIBRATION_REF_NS / c for rec in recs
                  for c in rec["calibration_ns"])}
    return metrics, detail


def per_layer(plain, traced) -> tuple[dict, list]:
    totals: dict = {}
    for r in traced:
        totals = tracing.add_totals(totals, r["trace"])
    metrics = tracing.layer_metrics(totals, len(op_records(traced)),
                                    totals["wall_ns"])
    metrics["trace.overhead"] = (
        sum(rec["wall_ns"] for rec in op_records(traced))
        / sum(rec["wall_ns"] for rec in op_records(plain)))
    absent = sorted({layer for r in traced for layer in r["absent_layers"]})
    return metrics, absent


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workloads.make_ops(workload, seed)
    out = common.OUT_DIR / f"{workload}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(workload, inputs, out)
    if trace:
        plain, traced = run_traced(runner, seconds)
        metrics, absent = per_layer(plain, traced)
        units = {k: tracing.unit(k) for k in metrics}
        results = plain + traced
        detail = {"absent_layers": absent}
    else:
        results = run_untraced(runner, seconds)
        metrics, detail = end_to_end(results)
        units = END_TO_END_UNITS
    recs = op_records(results)
    failed = sum(rec["error"] is not None for rec in recs)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "correct": not runner.problems,
        "attempted": len(recs), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "detail": detail,
        "problems": runner.problems[:20],
        "ops": [[rec["index"], rec["wall_ns"] / 1e6, rec["error"]]
                for rec in recs],
        "machine": common.machine_facts(),
        "package": runner.package,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# {w}: attempted {report['attempted']}, failed {report['failed']}, "
          f"correct {report['correct']}")
    for k, m in report["metrics"].items():
        print(f"{w:10s} {k:28s} {m['value']:14.6g} {m['unit']}")
    d = report["detail"]
    if "tail_percentile" in d:
        print(f"{w:10s} {'fail_frac':28s} {d['fail_frac']:14.6g} ratio")
        print(f"{w:10s} op_tail_ms is p{d['tail_percentile']:.2f} of "
              f"{d['ops']} ops ({d['tail_samples_beyond']} beyond), "
              f"{d['workers']} workers")
    if d.get("absent_layers"):
        print(f"{w:10s} absent layers: {', '.join(d['absent_layers'])}")
    for p in report["problems"][:5]:
        print(f"{w:10s} problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_checkout()
    except common.MissingCheckout as exc:
        print(f"nhbench: {exc}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names]
    facts = reports[0]["machine"]
    print(f"# nproc {facts['nproc']}, python {facts['python']}, numpy "
          f"{facts['numpy']}, scipy {facts['scipy']}, backend "
          f"{reports[0]['package']['backend']}, git {facts['git_rev']}")
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
