"""The langadapt benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a langadapt checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed, then runs jobs for S
seconds in a closed loop: one client, one child process per job, the next job
only after the previous one has finished and been checked. A job runs every
langadapt CLI call of its workload (``job.py``). Every job's artifacts pass
through the correctness gate (``gate.py``) outside the timed section; a job
fails on a nonzero exit, a crash or a failed check.

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json. With ``--trace 1`` jobs alternate between untraced and
traced, and the run reports the per-layer metrics from the traced jobs'
spans (``spans.py``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median, quantiles

import spans

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
MIN_JOBS = 3
JOB_TIMEOUT_S = 120.0

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = (
    ("corpus.ingest.*", "job_s", "tokenizer-train; partly fertility-adapt"),
    ("corpus.read_task_records.*", "job_s", "build-collection"),
    ("tokenizer.train_bpe.*", "job_s", "tokenizer-train; no change predicted on the other three"),
    ("tokenizer.fertility.*, tokenizer.encode_bytes.*", "job_s", "fertility-adapt"),
    ("tokenizer.load_model.busy_s, tokenizer.save_model.busy_s", "job_s", "fertility-adapt, tokenizer-train"),
    ("vocab_adapt.* (time, averaged)", "job_s", "fertility-adapt"),
    ("vocab_adapt.adapt_embeddings.rss_hwm_mb", "peak_rss_mb", "fertility-adapt"),
    ("collection.* (time, instances, keep_ratio, mb_per_s)", "job_s", "build-collection"),
    ("collection.build_collection.rss_hwm_mb", "peak_rss_mb", "build-collection"),
    ("metrics.*", "job_s", "score only"),
    ("cli.main.self_s, cli.hashed_mb", "job_s", "all; most on build-collection and fertility-adapt"),
    ("cli.main.cpu_s", "job_s (work ran in parallel if cpu_s > job_s)", "all"),
)


@dataclass
class Job:
    """Timings and outcome of one child process."""

    index: int
    traced: bool
    setup_s: float = 0.0
    job_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    hashed_mb: float = 0.0
    spans: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def run_job(run: Path, invocations: list[list[str]], index: int, traced: bool) -> Job:
    """Spawn one job child in ``run`` and wait for it; the gate runs separately."""
    job = Job(index, traced)
    shutil.rmtree(run / "out", ignore_errors=True)
    spec, result, log = run / "job-spec.json", run / "job-result.json", run / "job-stderr.txt"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"job": index, "trace": traced, "invocations": invocations}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    with open(log, "wb") as stderr:
        spawned = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "job.py"), spec.name, result.name],
            cwd=run, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        try:
            child.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            job.errors.append(f"killed after {JOB_TIMEOUT_S:.0f} s")
    if child.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        job.errors.append(f"exit code {child.returncode}: {' | '.join(tail)}")
    if result.exists():
        payload = json.loads(result.read_text())
        job.setup_s = payload["ready"] - spawned
        job.job_s = payload["end"] - payload["start"]
        job.cpu_s = payload["cpu_s"]
        job.peak_rss_mb = payload["peak_rss_mb"]
        job.spans = payload["spans"]
    elif not job.errors:
        job.errors.append("the job wrote no result")
    return job


def run_jobs(run: Path, invocations: list[list[str]], checker, seconds: float, trace: bool) -> list[Job]:
    """The closed loop: jobs one after another until ``seconds`` have passed.

    Each job's artifacts go through ``checker`` before the next job starts.
    When tracing, every second job is traced so that both kinds are measured.
    """
    jobs: list[Job] = []
    deadline = time.monotonic() + seconds
    while len(jobs) < MIN_JOBS or time.monotonic() < deadline:
        job = run_job(run, invocations, len(jobs), traced=trace and len(jobs) % 2 == 1)
        if not job.errors:
            job.hashed_mb = hashed_mb(run)
            job.errors = checker.check(run)
        jobs.append(job)
    return jobs


def hashed_mb(run: Path) -> float:
    """Bytes the CLI hashed for its manifests: every input and output listed."""
    total = 0
    for manifest_path in (run / "out").rglob("manifest.json"):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        total += sum((run / path).stat().st_size for path in manifest["inputs"])
        total += sum((manifest_path.parent / name).stat().st_size for name in manifest["outputs"])
    return total / float(1 << 20)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)}, p25 {q1:.4f}, p75 {q3:.4f}, max {max(values):.4f}"


def end_to_end(jobs: list[Job]) -> dict[str, tuple[float, str]]:
    """The run's end-to-end metrics, each with a note on its samples.

    ``job_s`` is the mean job time, the run's job time over its job count.
    Other tenants of a shared host slow every job by up to 1.8x, for tens of
    seconds to minutes at a time, so a run's jobs mix a fast and a slow
    level. The mean moves in proportion to the share of slow jobs; a median
    or a minimum jumps between the levels when that share is near its
    quantile. ``setup_s`` and ``peak_rss_mb`` are medians.
    """
    setup_s = [job.setup_s for job in jobs]
    job_s = [job.job_s for job in jobs]
    peak_rss_mb = [job.peak_rss_mb for job in jobs]
    return {
        "setup_s": (median(setup_s), _spread(setup_s)),
        "job_s": (fmean(job_s), f"mean; median {median(job_s):.4f}, {_spread(job_s)}"),
        "peak_rss_mb": (median(peak_rss_mb), _spread(peak_rss_mb)),
    }


def per_layer(jobs: list[Job]) -> tuple[dict[str, float], str]:
    traced = [job for job in jobs if job.traced]
    plain = [job for job in jobs if not job.traced]
    values = spans.median_metrics([spans.job_layer_metrics(job.spans, job.job_s) for job in traced])
    traced_job_s = median(job.job_s for job in traced)
    values["cli.hashed_mb"] = median(job.hashed_mb for job in traced)
    values["cli.main.cpu_s"] = median(job.cpu_s for job in plain)
    values["trace.overhead_s"] = traced_job_s - median(job.job_s for job in plain)
    note = (
        f"median of {len(traced)} traced and {len(plain)} untraced jobs; traced job_s "
        f"{traced_job_s:.4f} s, of which layer self times plus cli.main.self_s account for "
        f"{values['trace.accounted_ratio']:.2%}"
    )
    return values, note


def _print_table(metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> None:
    width = max(map(len, metrics)) + 2
    for name in sorted(metrics, key=lambda n: (n.split(".")[0] if "." in n else "", n)):
        layer = name.split(".")[0] if "." in name else "end-to-end"
        print(f"  {layer:<12}{name:<{width}}{metrics[name]:>14.6g} {units[name]:<6} {notes.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    root = Path.cwd()
    required = [root / "src/langadapt/cli.py", root / "tests/synthdata.py", root / "tests/oracles.py"]
    missing = [str(path.relative_to(root)) for path in required if not path.is_file()]
    if missing:
        print(f"error: run from the root of a langadapt checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import gate
    import inputs
    import langadapt.cli  # noqa: F401  (writes bytecode before any job's set-up is timed)

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in benchmark[section]}

    work = root / ".perfbench-work"
    run = work / f"run-{os.getpid()}"
    shutil.rmtree(run, ignore_errors=True)
    try:
        began = time.monotonic()
        generated = inputs.generate(args.workload, args.seed, args.size, run, work / "cache")
        pinned = None
        if args.seed == DEFAULT_SEED and args.size == "standard":
            pinned = json.loads((BENCH_DIR / "pinned.json").read_text()).get(args.workload)
        checker = gate.Gate(args.workload, pinned)
        print(f"== langadapt benchmark: workload={args.workload} seed={args.seed} size={args.size} "
              f"trace={args.trace} ==")
        print("traffic: " + ", ".join(f"{k}={v}" for k, v in generated.traffic.items()))
        print(f"inputs generated in {time.monotonic() - began:.2f} s (not measured)")

        jobs = run_jobs(run, generated.invocations, checker, args.seconds, bool(args.trace))
        failed = [job for job in jobs if job.errors]
        for job in failed:
            print(f"job {job.index} FAILED: " + "; ".join(job.errors))
        # Metrics come from the passing jobs; when none passed, from every job
        # that ran to its end, so a wrong result is still reported as such.
        measured = [job for job in jobs if not job.errors] or [job for job in jobs if job.job_s > 0]
        if not measured or (args.trace and len({job.traced for job in measured}) < 2):
            print("error: too few jobs ran to their end to report metrics", file=sys.stderr)
            return 1

        print(f"jobs: {len(jobs)} attempted, {len(failed)} failed; closed loop, 1 client, "
              f"one child process per job, {args.seconds:g} s")
        if args.trace:
            metrics, note = per_layer(measured)
            print(f"per-layer metrics ({note})")
            _print_table(metrics, units, {})
            print("layer metric -> end-to-end metric it should move -> workload")
            for layer_metrics, target, workloads in LAYER_MAP:
                print(f"  {layer_metrics} -> {target} -> {workloads}")
        else:
            summary = end_to_end(measured)
            metrics = {name: value for name, (value, _) in summary.items()}
            _print_table(metrics, units, {name: spread for name, (_, spread) in summary.items()})
        print(f"  {'end-to-end':<12}fail_ratio {len(failed) / len(jobs):.6g} ratio ({len(failed)} of {len(jobs)} jobs)")

        if set(metrics) != set(units):
            print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
                  file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": not failed,
            "attempted": len(jobs),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(run, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
