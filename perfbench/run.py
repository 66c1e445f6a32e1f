"""The leftsym benchmark: seeded closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decompose-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                      # every workload, untraced and traced

Each workload runs in fresh worker processes (perfbench/worker.py) with
BLAS pinned to one thread.  Several workers only set up and exit, so set-up
time is the median of several start-ups; the last one also runs the timed
passes.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones declared in BENCHMARK.json, with --trace 1 the per-layer
ones.  Full results, with the environment record, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUPS_AROUND = 3  # set-up-only workers before and again after the timed one
DEADLINE_S = 170.0  # a run ends within this, or fails
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run to the end."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _source_id() -> dict:
    """The git commit when the checkout is a repository, and a hash of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; returns its set-up time and the rest of its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "LSPK_EPS"}
    env.update(PINNED)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if line.strip() != "READY":
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
            raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup_s, rest


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_worker([*base, "--setup-only"], deadline)[0] for _ in range(SETUPS_AROUND)]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans", str(out_dir / f"{workload}-seed{seed}.spans.jsonl")]
    setup_s, stdout = _worker([*base, *extra], deadline)
    setups.append(setup_s)
    setups += [_worker([*base, "--setup-only"], deadline)[0] for _ in range(SETUPS_AROUND)]
    result = json.loads(stdout.strip().splitlines()[-1])
    result["raw"]["setup_s"] = statistics.median(setups)
    result["setup_s"] = result["raw"]["setup_s"] * result["speed_scale"]
    result["setup_samples"] = setups
    result["workload"] = workload
    result["env"].update(_source_id())
    return result


def summarize(result: dict) -> dict:
    """attempted, failed, refused and the failures by job and exception class."""
    recs = result["records"]
    failed = [r for r in recs if r["status"] == "failed"]
    refused = Counter(r["error"] for r in recs if r["status"] == "refused")
    by_job = Counter((r["name"], r["error"]) for r in failed)
    detail = {(r["name"], r["error"]): r.get("detail", "") for r in failed}
    wrong = [r for r in failed if r["error"] != "CapOverrun"]
    return {
        "attempted": len(recs),
        "failed": len(failed),
        "refused": dict(refused),
        "correct": not wrong,
        "failures": [{"job": j, "error": e, "count": c, "detail": detail[(j, e)]}
                     for (j, e), c in by_job.items()],
    }


def metric_values(result: dict, trace: int, raw: bool = False) -> dict:
    """The declared metrics of a run; raw=True gives the unscaled times."""
    if trace:
        return dict(result["per_layer"])
    times = result["raw"] if raw else result
    out = {k: times[k] for k in ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "job_large_ms")}
    out["peak_rss_mb"] = result["peak_rss_mb"]
    return out


def report(result: dict, summary: dict, trace: int, spec: dict) -> None:
    s = result["samples"]
    env = result["env"]
    print(f"== {result['workload']}  seed {env['seed']}  closed loop, 1 client, "
          f"{s['passes']} untraced pass(es) of {s['jobs']} jobs; each job at its median latency")
    print("   times scaled to the reference machine state; raw times in brackets")
    print(f"   env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
          f"{env['blas_version']} threads={env['blas_threads']}, nproc {env['nproc']}, "
          f"commit {env['git_commit']}, src {env['src_sha256'][:12]}")
    notes = {
        "setup_s": f"median of {len(result['setup_samples'])} worker start-ups",
        "wall_s": f"one pass: sum over the {s['jobs']} jobs",
        "job_p50_ms": f"median of {s['jobs']} jobs",
        "job_tail_ms": f"p{s['tail_percentile']:.1f}, {s['tail_jobs_beyond']} of {s['jobs']} jobs "
                       "beyond it",
        "job_large_ms": f"{s['large_jobs']} jobs at n={s['large_n']}",
        "peak_rss_mb": "ru_maxrss of the timed worker",
    }
    values, raw = metric_values(result, 0), metric_values(result, 0, raw=True)
    for m in spec["end_to_end"]:
        name = m["name"]
        print(f"   {name:<14} {values[name]:>12.4f} {m['unit']:<3} [{raw[name]:>12.4f}]  "
              f"({notes[name]})")
    frac = summary["failed"] / summary["attempted"]
    print(f"   {'fail_frac':<14} {frac:>12.4f} ratio ({summary['failed']} failed of "
          f"{summary['attempted']} attempted)")
    refused = ", ".join(f"{k} x{v}" for k, v in summary["refused"].items()) or "none"
    print(f"   refused with a named error: {refused}")
    for f in summary["failures"]:
        print(f"   FAILED {f['job']}: {f['error']} x{f['count']}: {f['detail']}")
    if trace:
        layer = result["per_layer"]
        print("   per layer (traced passes):")
        for m in spec["per_layer"]:
            print(f"     {m['name']:<44} {layer[m['name']]:>14.6g} {m['unit']}")


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    result = run_workload(workload, seed, seconds, trace)
    summary = summarize(result)
    report(result, summary, trace, spec)
    values = metric_values(result, trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    doc = {**summary, "metrics": metrics, "raw": metric_values(result, 0, raw=True),
           "env": result["env"], "samples": result["samples"],
           "setup_samples": result["setup_samples"], "records": result["records"]}
    (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(doc, indent=1))
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main() -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *workloads))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "leftsym" / "__init__.py").is_file():
        print(f"error: no leftsym sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.workload != "all":
            line = run_one(args.workload, args.seed, seconds, args.trace, spec)
        else:
            runs = {(w, t): run_one(w, args.seed, seconds, t, spec)
                    for w in workloads for t in (0, 1)}
            line = {
                "correct": all(r["correct"] for r in runs.values()),
                "attempted": sum(r["attempted"] for r in runs.values()),
                "failed": sum(r["failed"] for r in runs.values()),
                "metrics": {f"{w}.{k}": v for (w, _), r in runs.items()
                            for k, v in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
