"""Self-test of the benchmark, at tiny input sizes. Takes about half a minute.

Usage, from the root of a langadapt checkout: python3 perfbench/selftest.py

1. Runs every workload untraced and traced, and checks that each run passes
   and prints every end-to-end or per-layer metric of BENCHMARK.json by name
   with its unit, plus fail_ratio.
2. For every workload, runs the closed loop with one byte flipped in the
   second job's largest artifact, and checks that exactly that job fails, so
   a corrupt artifact shows in fail_ratio; and that pinned checksums reject
   the same flip.
3. Checks that the benchmark exits nonzero, printing no result, in a
   directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_reports(benchmark: dict, workloads: tuple[str, ...]) -> None:
    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny"])
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {entry["name"]: entry["unit"] for entry in benchmark[section]}
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert printed == expected, (workload, section, set(printed) ^ set(expected))
            table = lines[:-1]
            for name, unit in expected.items():
                assert any(f" {name} " in line and f" {unit} " in line for line in table), (workload, name)
            assert any("fail_ratio" in line and " ratio " in line for line in table), workload
            print(f"ok   {workload} --trace {trace}: {len(expected)} metrics printed with units")


def _flip(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def check_gate(workloads: tuple[str, ...], work: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    import gate
    import inputs
    import run

    class CorruptingGate(gate.Gate):
        """Flips one byte of the largest artifact of the second job, then checks."""

        def check(self, run_dir: Path) -> list[str]:
            if self.reference is not None and not hasattr(self, "flipped"):
                target = max((p for p in (run_dir / "out").rglob("*") if p.is_file()),
                             key=lambda p: p.stat().st_size)
                _flip(target)
                self.flipped = target.relative_to(run_dir)
            return super().check(run_dir)

    for workload in workloads:
        run_dir = work / workload
        generated = inputs.generate(workload, 1, "tiny", run_dir, work / "cache")
        checker = CorruptingGate(workload)
        jobs = run.run_jobs(run_dir, generated.invocations, checker, 0.0, trace=False)
        failed = [job.index for job in jobs if job.errors]
        assert failed == [1], f"{workload}: failed jobs {failed} after flipping a byte in job 1"
        print(f"ok   {workload}: one flipped byte in {checker.flipped} fails job 1, "
              f"fail_ratio {len(failed)}/{len(jobs)}: {jobs[1].errors[0][:80]}")
        # The last job was clean; its artifacts stand in for pinned checksums.
        pinned = gate.Gate(workload, pinned=gate.artifact_digests(run_dir / "out"))
        _flip(run_dir / checker.flipped)
        assert pinned.check(run_dir), f"{workload}: pinned checksums passed a flipped byte"


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _run(["--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print(f"ok   bare directory: exit code {done.returncode}, no result printed")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = tuple(entry["name"] for entry in benchmark["workloads"])
    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_reports(benchmark, workloads)
        check_gate(workloads, work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
