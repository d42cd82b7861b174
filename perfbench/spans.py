"""Layer spans for a traced benchmark job, and the per-layer metrics they give.

A traced job replaces the langadapt functions the CLI reaches through module
attributes (``tokenizer.train_bpe``, ``collection.build_collection``, ...) with
wrappers that open a span around each call. A span records its name, start,
end, parent span, job id, counts and the resident-set high-water mark at its
end. Spans stay in memory until the job ends.

Two layers need care. ``vocab_adapt`` binds ``encode_bytes`` by name, so the
wrapper goes on ``vocab_adapt.encode_bytes``. ``corpus.ingest`` and
``corpus.read_task_records`` are generators consumed inside other layers, so
their span sums only the time spent inside ``next()``, and that time is
subtracted from the consumer's self time.

A span's self time is its busy time minus the busy time of its child spans.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from statistics import median

MB = float(1 << 20)


def rss_hwm_mb() -> float:
    """This process's peak resident set so far (VmHWM), in MB.

    ``getrusage``'s ``ru_maxrss`` is not used: at exec the kernel folds the
    spawning parent's high-water mark into it, so a child of a large parent
    would report the parent's size.
    """
    with open("/proc/self/status", "rb") as status:
        for line in status:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "busy", "child_busy", "counts", "rss_mb")

    def __init__(self, span_id: int, name: str, parent: int | None, job: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = time.perf_counter()
        self.busy = self.child_busy = 0.0
        self.counts: dict[str, float] = {}
        self.rss_mb = 0.0

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Opens spans around wrapped calls of one job; a stack tracks nesting."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.job)
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.rss_mb = rss_hwm_mb()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Trace every call of ``module.attr``; ``count(result, args)`` adds counts."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            self._stack.append(span)
            try:
                result = inner(*args, **kwargs)
                if count is not None:
                    span.counts.update(count(result, args))
                return result
            finally:
                self._stack.pop()
                self._finish(span)
                span.busy = span.end - span.start
                if self._stack:
                    self._stack[-1].child_busy += span.busy

        setattr(module, attr, traced)

    def wrap_iter(self, module, attr: str, name: str, size=None) -> None:
        """Trace a generator function: busy time is the time spent in ``next()``.

        ``size(args)`` gives the bytes the stream reads, for a throughput.
        """
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            stream = inner(*args, **kwargs)
            nbytes = size(args) if size is not None else None

            def consume():
                span = None
                items = 0
                try:
                    while True:
                        began = time.perf_counter()
                        if span is None:
                            span = self._open(name)
                            span.start = began
                        try:
                            item = next(stream)
                        except StopIteration:
                            return
                        finally:
                            spent = time.perf_counter() - began
                            span.busy += spent
                            if self._stack:
                                self._stack[-1].child_busy += spent
                        items += 1
                        yield item
                finally:
                    if span is not None:
                        self._finish(span)
                        span.counts["items"] = items
                        if nbytes is not None:
                            span.counts["bytes"] = nbytes
                    stream.close()

            return consume()

        setattr(module, attr, traced)


SCORE_FUNCTIONS = (
    "chrf_pp",
    "rouge_l",
    "corpus_bleu",
    "weighted_f1",
    "mc1_accuracy",
    "safety_preference",
)
READERS = ("read_prediction_pairs", "read_labeled_pairs", "read_likelihood_pairs", "read_mc1_items")


def install(tracer: Tracer) -> None:
    """Wrap each layer function the CLI calls."""
    from langadapt import cli, collection, corpus, metrics, tokenizer, vocab_adapt

    def path_size(args):
        return os.path.getsize(args[0])

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap_iter(corpus, "ingest", "corpus.ingest", size=path_size)
    tracer.wrap_iter(corpus, "read_task_records", "corpus.read_task_records")
    tracer.wrap(tokenizer, "train_bpe", "tokenizer.train_bpe", lambda r, a: {"merges": len(r.merges)})
    tracer.wrap(
        tokenizer, "fertility", "tokenizer.fertility",
        lambda r, a: {"tokens": sum(report.total_tokens for report in r)},
    )
    tracer.wrap(tokenizer, "load_model", "tokenizer.load_model")
    tracer.wrap(tokenizer, "save_model", "tokenizer.save_model")
    tracer.wrap(vocab_adapt, "encode_bytes", "tokenizer.encode_bytes")
    tracer.wrap(vocab_adapt, "load_embeddings", "vocab_adapt.load_embeddings")
    tracer.wrap(
        vocab_adapt, "adapt_embeddings", "vocab_adapt.adapt_embeddings",
        lambda r, a: {"averaged": r[1].averaged},
    )
    tracer.wrap(vocab_adapt, "save_embeddings", "vocab_adapt.save_embeddings")
    tracer.wrap(
        collection, "build_collection", "collection.build_collection",
        lambda r, a: {"instances": len(r[0])},
    )
    tracer.wrap(collection, "subsample_to_target", "collection.subsample_to_target")
    tracer.wrap(
        collection, "write_instances_jsonl", "collection.write_instances_jsonl",
        lambda r, a: {"lines": r, "bytes": os.path.getsize(a[1])},
    )
    for reader in READERS:
        tracer.wrap(metrics, reader, "metrics.read", lambda r, a: {"lines": len(r)})
    for function in SCORE_FUNCTIONS:
        tracer.wrap(metrics, function, f"metrics.{function}")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def job_layer_metrics(spans: list[dict], job_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job; layers the job never called read 0."""
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    rss: dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        busy[name] += span["busy"]
        self_s[name] += span["busy"] - span["child_busy"]
        rss[name] = max(rss[name], span["rss_mb"])
        for key, value in span["counts"].items():
            counts[f"{name}.{key}"] += value
    m = {
        "corpus.ingest.busy_s": busy["corpus.ingest"],
        "corpus.ingest.docs": counts["corpus.ingest.items"],
        "corpus.ingest.mb_per_s": _ratio(counts["corpus.ingest.bytes"] / MB, busy["corpus.ingest"]),
        "corpus.read_task_records.busy_s": busy["corpus.read_task_records"],
        "corpus.read_task_records.records": counts["corpus.read_task_records.items"],
        "tokenizer.train_bpe.self_s": self_s["tokenizer.train_bpe"],
        "tokenizer.train_bpe.merges": counts["tokenizer.train_bpe.merges"],
        "tokenizer.train_bpe.merges_per_s": _ratio(
            counts["tokenizer.train_bpe.merges"], self_s["tokenizer.train_bpe"]
        ),
        "tokenizer.fertility.self_s": self_s["tokenizer.fertility"],
        "tokenizer.fertility.tokens": counts["tokenizer.fertility.tokens"],
        "tokenizer.fertility.tokens_per_s": _ratio(
            counts["tokenizer.fertility.tokens"], self_s["tokenizer.fertility"]
        ),
        "tokenizer.encode_bytes.calls": float(
            sum(1 for span in spans if span["name"] == "tokenizer.encode_bytes")
        ),
        "tokenizer.encode_bytes.busy_s": busy["tokenizer.encode_bytes"],
        "tokenizer.load_model.busy_s": busy["tokenizer.load_model"],
        "tokenizer.save_model.busy_s": busy["tokenizer.save_model"],
        "vocab_adapt.load_embeddings.busy_s": busy["vocab_adapt.load_embeddings"],
        "vocab_adapt.adapt_embeddings.self_s": self_s["vocab_adapt.adapt_embeddings"],
        "vocab_adapt.adapt_embeddings.averaged": counts["vocab_adapt.adapt_embeddings.averaged"],
        "vocab_adapt.adapt_embeddings.rss_hwm_mb": rss["vocab_adapt.adapt_embeddings"],
        "vocab_adapt.save_embeddings.busy_s": busy["vocab_adapt.save_embeddings"],
        "collection.build_collection.busy_s": busy["collection.build_collection"],
        "collection.build_collection.instances": counts["collection.build_collection.instances"],
        "collection.build_collection.rss_hwm_mb": rss["collection.build_collection"],
        "collection.subsample_to_target.busy_s": busy["collection.subsample_to_target"],
        "collection.keep_ratio": _ratio(
            counts["collection.write_instances_jsonl.lines"],
            counts["collection.build_collection.instances"],
        ),
        "collection.write_instances_jsonl.busy_s": busy["collection.write_instances_jsonl"],
        "collection.write_instances_jsonl.mb_per_s": _ratio(
            counts["collection.write_instances_jsonl.bytes"] / MB,
            busy["collection.write_instances_jsonl"],
        ),
        "metrics.read.busy_s": busy["metrics.read"],
        "metrics.read.lines": counts["metrics.read.lines"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.accounted_ratio": _ratio(sum(self_s.values()), job_s),
    }
    for function in SCORE_FUNCTIONS:
        m[f"metrics.{function}.busy_s"] = busy[f"metrics.{function}"]
    return m


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced jobs of a run."""
    return {key: median(job[key] for job in per_job) for key in per_job[0]}
