"""One benchmark job: a fresh interpreter runs a workload's langadapt CLI calls.

Usage: python job.py SPEC RESULT

SPEC is a JSON file with the job id, the list of CLI argument lists and whether
to trace. The job imports ``langadapt.cli`` first and notes the monotonic time
at which it is ready for its first call; the parent subtracts its spawn time
to get the set-up time. RESULT receives the ready, start and end times, the
exit code of each call, the job's CPU time and peak resident set and, when
traced, the spans.
"""

import json
import resource
import sys
import time

import langadapt.cli

READY = time.monotonic()

import spans  # noqa: E402  (after READY: not part of the set-up being measured)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(spec["job"])
        spans.install(tracer)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    codes = [langadapt.cli.main(argv) for argv in spec["invocations"]]
    end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": READY,
        "start": start,
        "end": end,
        "codes": codes,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "peak_rss_mb": spans.rss_hwm_mb(),
        "spans": [span.to_json_dict() for span in tracer.spans] if tracer else [],
    }
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
