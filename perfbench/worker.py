"""One workload in a fresh process: set up, run closed-loop passes, check.

Started by run.py, never imported by it.  Protocol on stdout: the line
READY once set-up (import, seeded input generation, warm-up) is done, then,
unless --setup-only, one JSON line with the measurements.  BLAS
threads are pinned by the environment run.py starts this process with.

A pass runs the workload's fixed job list once, one job at a time.  Each
job's check runs after its timer stops.  Passes repeat while the next one is
expected to end within --seconds.  With --trace 1 untraced and traced
passes alternate: the untraced ones give the tracing overhead and the
reference digests that every traced job must reproduce bit for bit.

On a shared two-vCPU x86-64 virtual machine the cores switch between a
fast and a slow state, 1.5x to 2x apart, on time scales from milliseconds
to minutes.  So a probe of fixed
work is timed between every two jobs, and each job's latency is also
reported scaled to the machine state it ran in:
scaled = latency * PROBE_REF_S / (mean of the probes before and after it).
The raw latencies are kept beside the scaled ones.  speed_scale, the
reference over the run's median probe, scales the set-up times that run.py
measures around this run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import leftsym  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import JOB_CAP_S, WORKLOADS, Job  # noqa: E402

TAIL_BEYOND = 10  # jobs of the list slower than the reported tail latency
PROBE_REF_S = 1.6e-3  # the probe's time on such a machine's cores in their fast state

_rng = np.random.default_rng(0)
_PC, _PP, _PV = (_rng.standard_normal(shape) for shape in ((8, 8, 8), (8, 8), (8,)))

# function-level per-layer metrics: (function, statistic)
FUNCTION_METRICS = (
    ("core.change_basis", "calls"),
    ("core.change_basis", "self_s"),
    ("decompose.find_idempotent_H", "self_s"),
    ("decompose.split_h", "self_s"),
    ("decompose.eigensplit", "self_s"),
    ("decompose.extract_structure", "self_s"),
    ("systems.system_residuals", "self_s"),
    ("construct.build_lspk", "self_s"),
    ("forms.check_left_symmetric", "self_s"),
    ("forms.koszul_form", "calls_per_job"),
    ("forms.check_left_symmetric", "calls_per_job"),
    ("forms.check_hessian", "calls_per_job"),
    ("geometry.levi_civita_product", "calls_per_job"),
    ("geometry.base_curvature", "self_s"),
    ("geometry.tangent_bundle_ricci", "self_s"),
    ("search.newton_search", "self_s"),
    ("algfile.parse_algebra_file", "self_s"),
    ("algfile.render_algebra_file", "self_s"),
)
EXPONENTS = ("core.change_basis", "decompose.decompose", "geometry.tangent_bundle_ricci")


def probe() -> float:
    """Median of three timings of fixed interpreter, einsum and small-call work."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x = 0.0
        for i in range(3000):
            x += i * 0.5
        np.einsum("ia,jb,ijk,ck->abc", _PP, _PP, _PC, _PP)
        for _ in range(30):
            np.einsum("i,ijk->kj", _PV, _PC)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs jobs, times them, checks them and keeps one record per job run."""

    def __init__(self, jobs: list[Job], tracer: tr.Tracer | None):
        self.jobs = jobs
        self.tracer = tracer
        self.records: list[dict] = []
        self.passes: list[dict] = []
        self.reference: dict[int, str] = {}

    def run_pass(self, traced: bool) -> float:
        """One pass over the job list; returns its elapsed time with checks."""
        start = perf_counter()
        index = len(self.passes)
        before = probe()
        for j, job in enumerate(self.jobs):
            before = self._run_job(index, j, job, traced, before)
        wall = sum(r["latency_s"] for r in self.records if r["pass"] == index)
        self.passes.append({"traced": traced, "wall_s": wall})
        return perf_counter() - start

    def _run_job(self, index: int, j: int, job: Job, traced: bool, before: float) -> float:
        """Runs one job; returns the probe time measured right after it."""
        span = self.tracer.job(index * len(self.jobs) + j, job.n) if traced else nullcontext()
        out, error = None, None
        t0 = perf_counter()
        try:
            with span:
                out = job.run()
        except Exception as exc:  # a failing job is recorded, the loop goes on
            error = exc
        latency = perf_counter() - t0
        after = probe()

        rec = {"pass": index, "job": j, "name": job.name, "n": job.n, "traced": traced,
               "latency_s": latency, "probe_s": (before + after) / 2.0, "status": "ok",
               "margin": 0.0}
        if error is not None:
            rec.update(status="failed", error=type(error).__name__, detail=str(error)[:300])
        else:
            try:
                verdict = job.check(out)
                digest = job.digest(out)
            except Exception as exc:  # a malformed result is a wrong answer
                rec.update(status="failed", error="WrongAnswer",
                           detail=f"check raised {type(exc).__name__}: {exc}"[:300])
            else:
                rec["margin"] = verdict.margin
                rec["counters"] = verdict.counters
                if verdict.problems:
                    rec.update(status="failed", error="WrongAnswer",
                               detail="; ".join(verdict.problems)[:300])
                elif verdict.refused:
                    rec.update(status="refused", error=verdict.refused)
                want = self.reference.setdefault(j, digest)
                if traced and digest != want:
                    rec.update(status="failed", error="TracedOutputDiffers",
                               detail="a traced output differs from the untraced one")
        if latency > JOB_CAP_S and rec["status"] != "failed":
            rec.update(status="failed", error="CapOverrun",
                       detail=f"{latency:.1f} s above the {JOB_CAP_S:.0f} s cap")
        self.records.append(rec)
        return after


def scaled(rec: dict) -> float:
    return rec["latency_s"] * PROBE_REF_S / rec["probe_s"]


def job_medians(runner: Runner, traced: bool, latency=scaled) -> list[float]:
    """Each job's median latency over the passes of one kind."""
    by_job: list[list[float]] = [[] for _ in runner.jobs]
    for r in runner.records:
        if r["traced"] == traced:
            by_job[r["job"]].append(latency(r))
    return [statistics.median(v) for v in by_job]


def _latency_stats(per_job: list[float], sizes: list[int]) -> dict:
    ordered = sorted(per_job)
    rank = max(len(ordered) - TAIL_BEYOND, 1)  # 1-based, from the fastest
    top = max(sizes)
    return {
        "wall_s": sum(per_job),
        "job_p50_ms": 1e3 * statistics.median(per_job),
        "job_tail_ms": 1e3 * ordered[rank - 1],
        "job_large_ms": 1e3 * statistics.median(t for t, n in zip(per_job, sizes) if n == top),
    }


def end_to_end(runner: Runner) -> dict:
    """End-to-end metrics of the untraced passes.

    Each job's latency is its median over the passes; the statistics are
    over the job list at those latencies.  wall_s is the time of one pass,
    job_tail_ms the highest percentile with TAIL_BEYOND jobs of the list
    beyond it, job_large_ms the median over the jobs at the largest n.
    """
    sizes = [job.n for job in runner.jobs]
    rank = max(len(sizes) - TAIL_BEYOND, 1)
    return {
        **_latency_stats(job_medians(runner, False), sizes),
        "raw": _latency_stats(job_medians(runner, False, lambda r: r["latency_s"]), sizes),
        "samples": {
            "passes": sum(not p["traced"] for p in runner.passes),
            "jobs": len(sizes),
            "tail_percentile": 100.0 * rank / len(sizes),
            "tail_jobs_beyond": len(sizes) - rank,
            "large_n": max(sizes),
            "large_jobs": sizes.count(max(sizes)),
        },
    }


def per_layer(runner: Runner, tracer: tr.Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json, from the traced passes."""
    traced = [p["wall_s"] for p in runner.passes if p["traced"]]
    layers = tr.layer_metrics(tracer.spans, len(traced), len(runner.jobs), sum(traced))
    functions = layers.pop("functions")
    out = dict(layers)
    for name, stat in FUNCTION_METRICS:
        out[f"{name}.{stat}"] = functions.get(name, {}).get(stat, 0.0)
    for name in EXPONENTS:
        slope = tr.exponent(tracer.spans, name)
        out[f"{name}.exponent"] = 0.0 if slope is None else slope
    roots = sum(r.get("counters", {}).get("search.roots", 0) for r in runner.records)
    seeds = sum(r.get("counters", {}).get("search.seeds", 0) for r in runner.records)
    out["search.roots_per_seed"] = roots / seeds if seeds else 0.0
    out["algfile.bytes"] = sum(functions.get(f, {}).get("bytes", 0.0)
                               for f in tr.BYTES_FUNCTIONS)
    out["trace.overhead_frac"] = (
        sum(job_medians(runner, True)) / sum(job_medians(runner, False)) - 1.0
    )
    out["check.worst_margin"] = max(r["margin"] for r in runner.records)
    out["trace.accounted_frac"] = (
        sum(v for k, v in layers.items() if k.endswith(".self_s")) * len(traced) / sum(traced)
    )
    return out


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 has no dict mode; the record says so
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "leftsym": leftsym.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced spans (JSON lines)")
    args = ap.parse_args()

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        warm = Runner(workload.warmup, None)
        warm.run_pass(False)
        bad = [r for r in warm.records if r["status"] != "ok"]
        if bad:
            print(f"warm-up failed: {bad}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = tr.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        runner = Runner(workload.jobs, tracer)
        start = perf_counter()
        took = [runner.run_pass(False)]
        if tracer is not None:
            took[-1] += runner.run_pass(True)
        while perf_counter() - start + statistics.median(took) <= args.seconds:
            took.append(runner.run_pass(False))
            if tracer is not None:
                took[-1] += runner.run_pass(True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        result = end_to_end(runner)
        result["peak_rss_mb"] = peak_rss_mb
        result["speed_scale"] = PROBE_REF_S / statistics.median(
            r["probe_s"] for r in runner.records)
        if tracer is not None:
            result["per_layer"] = per_layer(runner, tracer)
            if args.spans:
                tracer.write(args.spans)
        result["env"] = environment(args.seed)
        result["records"] = runner.records
        print(json.dumps(result), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
