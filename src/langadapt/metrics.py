"""Evaluation measures for model outputs.

Implements weighted F1 for classification, chrF++ and corpus BLEU for
translation-style generation, ROUGE-L for summarization, multiple-choice
(MC1) accuracy over option likelihoods, and the benign-over-harmful safety
preference rate. All aggregates use exact summation (math.fsum), so scores
are invariant under any permutation of the examples.

chrF++ and BLEU count n-grams with numpy arrays over consecutive batches of
pairs of at most 8 192 characters, so their memory follows one batch, not
the input. One ranking pass gives every n-gram of a batch an exact dense
rank, with no width limit; chrF++ and BLEU each reduce its runs to the
integers a count of string slices or word tuples gives, so scores are
bit-identical to it (``tests/oracles.py``: ``counter_chrf_pp``,
``counter_bleu``). BLEU keeps integer statistics per pair and combines
their sums in one step. chrF++ and BLEU count orders only up to the longest
sequence: higher orders have no n-grams and change no score, however large
the configured order.

Tie rules are fixed for determinism: argmax breaks ties by lowest index, and
the safety preference counts only strict inequalities.

The ``read_*`` functions build examples through ``corpus._read_jsonl``, the
JSON-lines loop shared with corpora and task records; each line needs an id.
Examples check their values when made, so a bad one fails naming its line.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import _batches, _read_jsonl, _typed, normalize

__all__ = [
    "LabeledPair",
    "LikelihoodPair",
    "MC1Item",
    "MetricReport",
    "PredictionPair",
    "SMOOTHING_ADD_EPS_EXP",
    "SMOOTHING_NONE",
    "chrf_pp",
    "corpus_bleu",
    "mc1_accuracy",
    "read_labeled_pairs",
    "read_likelihood_pairs",
    "read_mc1_items",
    "read_prediction_pairs",
    "rouge_l",
    "safety_preference",
    "weighted_f1",
]

SMOOTHING_NONE = "none"
SMOOTHING_ADD_EPS_EXP = "add_eps_exp"


@dataclass(frozen=True)
class PredictionPair:
    """A hypothesis with one or more references."""

    id: str
    hypothesis: str
    references: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "references", tuple(self.references))
        if not self.references:
            raise ValueError(f"prediction {self.id!r} has no references")


@dataclass(frozen=True)
class LabeledPair:
    id: str
    predicted_label: str
    gold_label: str

    def __post_init__(self) -> None:
        if not self.predicted_label or not self.gold_label:
            raise ValueError(f"pair {self.id!r} has an empty label")


@dataclass(frozen=True)
class LikelihoodPair:
    id: str
    benign_score: float
    harmful_score: float

    def __post_init__(self) -> None:
        if not (_finite(self.benign_score) and _finite(self.harmful_score)):
            raise ValueError(f"non-finite likelihood score for pair {self.id!r}")


@dataclass(frozen=True)
class MC1Item:
    id: str
    option_scores: tuple[float, ...]
    gold_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "option_scores", tuple(self.option_scores))
        if not self.option_scores:
            raise ValueError(f"item {self.id!r} has no option scores")
        if not 0 <= self.gold_index < len(self.option_scores):
            raise ValueError(
                f"item {self.id!r}: gold_index {self.gold_index} out of range "
                f"for {len(self.option_scores)} options"
            )
        if not all(map(_finite, self.option_scores)):
            raise ValueError(f"non-finite option score for item {self.id!r}")


@dataclass(frozen=True)
class MetricReport:
    """Aggregate plus per-example scores for one metric over one input."""

    metric_name: str
    aggregate: float
    n: int
    per_example: dict[str, float] | None = None

    def to_json_dict(self) -> dict:
        payload = {
            "metric_name": self.metric_name,
            "aggregate": self.aggregate,
            "n": self.n,
        }
        if self.per_example is not None:
            payload["per_example"] = dict(self.per_example)
        return payload


def _finite(score: float) -> bool:
    # A JSON integer of any size is finite; math.isfinite would overflow on it.
    return isinstance(score, int) or math.isfinite(score)


def _check_examples(name: str, items: Sequence) -> None:
    if not items:
        raise ValueError(f"{name} requires at least one example")
    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            raise ValueError(f"duplicate example id {item.id!r}")
        seen.add(item.id)


def _mean_report(
    name: str, items: Sequence, scores: Iterable[float], scale: float = 1.0
) -> MetricReport:
    """One score per item, in order; the aggregate is ``scale`` times their exact mean.

    ``scores`` is read only after the examples are checked, so a lazy
    iterator does no work on rejected input.
    """
    _check_examples(name, items)
    per_example = dict(zip([item.id for item in items], scores, strict=True))
    n = len(items)
    return MetricReport(name, scale * (math.fsum(per_example.values()) / n), n, per_example)


def weighted_f1(pairs: Sequence[LabeledPair]) -> MetricReport:
    """Support-weighted mean of one-vs-rest per-class F1, reported x100.

    Classes with zero gold support carry zero weight. Per-example entries
    are 1.0 for an exact label match and 0.0 otherwise.
    """
    _check_examples("weighted_f1", pairs)
    support: Counter[str] = Counter(p.gold_label for p in pairs)
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    per_example: dict[str, float] = {}
    for pair in pairs:
        if pair.predicted_label == pair.gold_label:
            tp[pair.gold_label] += 1
            per_example[pair.id] = 1.0
        else:
            fp[pair.predicted_label] += 1
            fn[pair.gold_label] += 1
            per_example[pair.id] = 0.0
    n = len(pairs)
    terms = []
    for label, count in support.items():
        predicted = tp[label] + fp[label]
        actual = tp[label] + fn[label]
        precision = tp[label] / predicted if predicted else 0.0
        recall = tp[label] / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        terms.append(count / n * f1)
    return MetricReport("weighted_f1", 100.0 * math.fsum(terms), n, per_example)


def _check_beta(beta: float) -> None:
    # F-beta weighs by beta squared, which a float holds exactly when |beta| is
    # at most this bound (NaN is not); otherwise every score is NaN.
    if not abs(beta) <= math.sqrt(sys.float_info.max):
        raise ValueError(f"beta must be a number whose square is finite, got {beta!r}")


def _fbeta(precision: float, recall: float, beta: float) -> float:
    denom = beta * beta * precision + recall
    if denom <= 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


# Pairs are scored in consecutive batches of at most this many characters,
# counting each text as its length plus one, so that memory follows one batch
# (a batch's arrays take about 1 MB); a pair above the budget is a batch of
# its own. Larger batches were no faster on the benchmark's inputs.
_CHRF_BATCH_CHARS = 8192


def _chrf_cost(pair: PredictionPair) -> int:
    return len(pair.hypothesis) + 1 + sum(len(ref) + 1 for ref in pair.references)


def _ngram_runs(codes, lengths, orders: int):
    """Per order 1..orders, every run of one n-gram in one text, n-gram by n-gram.

    ``codes`` holds the texts' symbols back to back (int64) and ``lengths``
    each text's length. Each order yields ``(run_text, new, rank, counts)``:
    the text of each run, whether the run starts a new n-gram, the n-gram's
    dense rank, and how often the n-gram occurs in that text. Within one
    n-gram the runs go by text index.
    """
    import numpy as np  # not at the top: see _chrf_scores

    texts = len(lengths)
    text = np.repeat(np.arange(texts), lengths)
    # Symbols left in the text from each position on, that one included.
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
    # Each distinct (symbol, text) gets a number, in symbol-major order. An
    # n-gram's key is its (n-1)-gram's dense rank, then the number of its last
    # symbol, which also names its text: so the sorted keys run n-gram by
    # n-gram, text by text within one, and stay below len(codes)**2.
    numbers, tail = np.unique(codes * texts + text, return_inverse=True)
    symbol, tail_text = np.divmod(numbers, texts)
    tail_symbol = np.cumsum(np.concatenate(([False], symbol[1:] != symbol[:-1])))
    width = len(numbers)
    pos = np.arange(len(codes))
    for n in range(1, orders + 1):
        if n == 1:
            keys, inverse, counts = np.arange(width), tail, np.bincount(tail, minlength=width)
        else:
            keep = left[pos] >= n
            pos, gram = pos[keep], gram[keep]
            keys, inverse, counts = np.unique(
                gram * width + tail[pos + n - 1], return_inverse=True, return_counts=True
            )
        prefix, last = np.divmod(keys, width)
        run_text, last = tail_text[last], tail_symbol[last]
        new = np.concatenate(([True], (prefix[1:] != prefix[:-1]) | (last[1:] != last[:-1])))
        rank = np.cumsum(new)
        gram = rank[inverse]
        yield run_text, new, rank, counts


def _matched_counts(codes, lengths, hyp_of, orders: int) -> list[list[int]]:
    """Per order 1..orders, each text's n-grams matched against its hypothesis.

    ``hyp_of[t]`` is the text index of the hypothesis that text ``t`` is
    scored against. The count for a reference is the sum over its n-grams of
    min(count in it, count in the hypothesis); a hypothesis matches itself in
    full.
    """
    import numpy as np

    texts = len(lengths)
    is_hyp = hyp_of == np.arange(texts)
    matched = []
    for run_text, _, rank, counts in _ngram_runs(codes, lengths, orders):
        # The nearest hypothesis run at or before each run holds the run's
        # n-gram in the run's own hypothesis exactly when its rank matches and
        # its text is that hypothesis.
        prev = np.maximum.accumulate(np.where(is_hyp[run_text], np.arange(len(rank)), -1))
        hit = (prev >= 0) & (rank[prev] == rank) & (run_text[prev] == hyp_of[run_text])
        both = np.minimum(counts, counts[prev])[hit]
        # bincount sums its weights as floats, exact for counts below 2**53.
        matched.append(np.bincount(run_text[hit], both, texts).astype(np.int64).tolist())
    return matched


def _chrf_pair(counts: list[tuple[int, int, int]], beta: float) -> float:
    # (matched, hypothesis total, reference total) per order. Orders with no
    # n-grams on either side are skipped; two effectively empty texts score
    # 100 by definition.
    precisions: list[float] = []
    recalls: list[float] = []
    for matched, hyp_total, ref_total in counts:
        if hyp_total == 0 and ref_total == 0:
            continue
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 100.0
    avg_p = math.fsum(precisions) / len(precisions)
    avg_r = math.fsum(recalls) / len(recalls)
    return 100.0 * _fbeta(avg_p, avg_r, beta)


def _chrf_scores(pairs: Sequence[PredictionPair], char_order: int, word_order: int, beta: float):
    # Imported here for the reason given in collection.subsample_to_target.
    import numpy as np

    for batch in _batches(pairs, _chrf_cost, _CHRF_BATCH_CHARS):
        # Each pair's hypothesis, then its references. Character n-grams skip
        # whitespace; word n-grams come from whitespace tokenization.
        texts: list[str] = []
        hyp_index: list[int] = []
        for pair in batch:
            hyp_index += [len(texts)] * (1 + len(pair.references))
            texts += (pair.hypothesis, *pair.references)
        words = [text.split() for text in texts]
        chars = ["".join(tokens) for tokens in words]
        vocab: dict[str, int] = {}
        word_ids = [vocab.setdefault(word, len(vocab)) for tokens in words for word in tokens]
        # JSON "\ud800" decodes to a lone surrogate, which strict UTF-32 rejects.
        char_codes = "".join(chars).encode("utf-32-le", "surrogatepass")
        hyp_of = np.array(hyp_index)
        sides = []
        for codes, lengths, max_order in (
            (np.frombuffer(char_codes, "<u4").astype(np.int64), list(map(len, chars)), char_order),
            (np.array(word_ids, np.int64), list(map(len, words)), word_order),
        ):
            # Orders beyond the longest text have no n-grams on either side.
            orders = min(max_order, max(lengths))
            sides.append((lengths, _matched_counts(codes, np.array(lengths), hyp_of, orders)))
        hyp = 0
        for pair in batch:
            refs = range(hyp + 1, hyp + 1 + len(pair.references))
            yield max(
                _chrf_pair(
                    [
                        (matched[ref], max(lengths[hyp] - n + 1, 0), max(lengths[ref] - n + 1, 0))
                        for lengths, per_order in sides
                        for n, matched in enumerate(per_order, 1)
                    ],
                    beta,
                )
                for ref in refs
            )
            hyp = refs.stop


def chrf_pp(
    pairs: Sequence[PredictionPair],
    char_order: int = 6,
    word_order: int = 2,
    beta: float = 2.0,
) -> MetricReport:
    """Character-plus-word n-gram F-score against the best-matching reference.

    Per example: precisions and recalls are averaged over character orders
    1..char_order and word orders 1..word_order, then combined with F_beta
    (beta=2 weights recall). The aggregate is the macro average, in [0, 100].
    """
    if char_order < 1 or word_order < 1:
        raise ValueError("n-gram orders must be >= 1")
    _check_beta(beta)
    return _mean_report("chrf_pp", pairs, _chrf_scores(pairs, char_order, word_order, beta))


def _bleu_stats(pairs: Sequence[PredictionPair], max_order: int):
    """Per pair: clipped matches and hypothesis n-grams for each order, the
    hypothesis length, and the reference length closest to it (ties to the
    shorter), as int64 arrays ``(matched, totals, hyp_len, ref_len)``.

    ``matched`` and ``totals`` have one column per order up to the longest
    hypothesis, at most ``max_order``: higher orders have no n-grams. A
    match counts an n-gram at most as often as the one reference that holds
    it most often.
    """
    import numpy as np  # not at the top: see _chrf_scores

    parts = []
    hyp_lens: list[int] = []
    ref_lens: list[int] = []
    for batch in _batches(pairs, _chrf_cost, _CHRF_BATCH_CHARS):
        # Each pair's hypothesis, then its references.
        words: list[str] = []
        lengths: list[int] = []
        pair_index: list[int] = []
        for i, pair in enumerate(batch):
            texts = [normalize(text).split() for text in (pair.hypothesis, *pair.references)]
            sizes = list(map(len, texts))
            hyp_lens.append(sizes[0])
            ref_lens.append(min((abs(size - sizes[0]), size) for size in sizes[1:])[1])
            for text in texts:
                words += text
            lengths += sizes
            pair_index += [i] * len(texts)
        # A word's code is the position of its first occurrence in the batch,
        # times the pair count, plus its pair. So n-grams of different pairs
        # never rank alike, and the runs of one n-gram are its pair's
        # hypothesis, if that holds it, then its references.
        vocab: dict[str, int] = {}
        ids = np.fromiter(map(vocab.setdefault, words, range(len(words))), np.int64, len(words))
        pair_of, lengths = np.array(pair_index), np.array(lengths)
        codes = ids * len(batch) + np.repeat(pair_of, lengths)
        is_hyp = np.concatenate(([True], pair_of[1:] != pair_of[:-1]))
        orders = min(max_order, max(hyp_lens[-len(batch) :]))
        matched = np.zeros((len(batch), orders), np.int64)
        for n, (run_text, new, _, counts) in enumerate(_ngram_runs(codes, lengths, orders)):
            run_hyp, starts = is_hyp[run_text], np.flatnonzero(new)
            clipped = np.minimum(
                np.add.reduceat(np.where(run_hyp, counts, 0), starts),
                np.maximum.reduceat(np.where(run_hyp, 0, counts), starts),
            )
            # bincount sums its weights as floats, exact for counts below 2**53.
            matched[:, n] = np.bincount(pair_of[run_text[starts]], clipped, len(batch))
        parts.append(matched)
    orders = max(part.shape[1] for part in parts)
    matched = np.zeros((len(hyp_lens), orders), np.int64)
    row = 0
    for part in parts:
        matched[row : row + len(part), : part.shape[1]] = part
        row += len(part)
    hyp_len = np.array(hyp_lens, np.int64)
    totals = np.maximum(hyp_len[:, None] - np.arange(orders), 0)
    return matched, totals, hyp_len, np.array(ref_lens, np.int64)


def _bleu_score(
    matches: Sequence[int], totals: Sequence[int], hyp_len: int, ref_len: int, smoothing: str
) -> float:
    """Corpus BLEU from summed statistics; orders with no hypothesis n-grams are skipped."""
    if hyp_len == 0:
        return 0.0
    # Orders longer than every hypothesis carry no evidence and are excluded
    # from the geometric mean; order 1 always contributes when hyp_len > 0.
    log_terms = []
    for matched, total in zip(matches, totals):
        if total == 0:
            continue
        if matched == 0 and smoothing == SMOOTHING_ADD_EPS_EXP:
            precision = 1.0 / (2.0 * total)
        else:
            precision = matched / total
        if precision == 0.0:
            return 0.0
        log_terms.append(math.log(precision))
    geo_mean = math.exp(math.fsum(log_terms) / len(log_terms))
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * penalty * geo_mean


def corpus_bleu(
    pairs: Sequence[PredictionPair],
    max_order: int = 4,
    smoothing: str = SMOOTHING_ADD_EPS_EXP,
) -> MetricReport:
    """Corpus-level BLEU: clipped n-gram precision geometric mean times BP.

    Tokenization is whitespace splitting after text normalization. Clipped
    counts take the per-n-gram maximum across references; the reference
    length is the closest to the hypothesis length (ties to the shorter).
    The ``add_eps_exp`` smoothing replaces a zero precision at order n with
    1/(2*h_n) where h_n is the hypothesis n-gram total. No per-example
    scores; the score is corpus-level by construction.
    """
    _check_examples("corpus_bleu", pairs)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if smoothing not in (SMOOTHING_NONE, SMOOTHING_ADD_EPS_EXP):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    matched, totals, hyp_len, ref_len = _bleu_stats(pairs, max_order)
    # Python ints, so that each ratio is the correctly rounded quotient.
    score = _bleu_score(
        matched.sum(axis=0).tolist(),
        totals.sum(axis=0).tolist(),
        int(hyp_len.sum()),
        int(ref_len.sum()),
        smoothing,
    )
    return MetricReport("corpus_bleu", score, len(pairs))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004): bit j of v is
    # clear where the current DP row steps up at column j of b.
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(pairs: Sequence[PredictionPair], beta: float = 1.2) -> MetricReport:
    """Longest-common-subsequence F-score over whitespace tokens, x100.

    Per example, P = LCS/|hyp| and R = LCS/|ref| against the best-matching
    reference, combined as (1+beta^2)PR / (R + beta^2 P). An empty hypothesis
    scores 0 for its pair.
    """
    _check_beta(beta)

    def score(pair: PredictionPair) -> float:
        hyp_tokens = pair.hypothesis.split()
        best = 0.0
        for ref in pair.references:
            ref_tokens = ref.split()
            lcs = _lcs_length(hyp_tokens, ref_tokens)
            if lcs == 0:  # also when either side is empty
                continue
            precision = lcs / len(hyp_tokens)
            recall = lcs / len(ref_tokens)
            weighted = 100.0 * (1.0 + beta * beta) * precision * recall
            best = max(best, weighted / (recall + beta * beta * precision))
        return best

    return _mean_report("rouge_l", pairs, map(score, pairs))


def mc1_accuracy(items: Sequence[MC1Item]) -> MetricReport:
    """Fraction of items whose highest-scoring option is the gold option.

    Argmax ties break by lowest index, so the score is invariant under any
    strictly monotone transform of an item's option scores.
    """

    def score(item: MC1Item) -> float:
        best = item.option_scores.index(max(item.option_scores))
        return 1.0 if best == item.gold_index else 0.0

    return _mean_report("mc1_accuracy", items, map(score, items), 100.0)


def safety_preference(pairs: Sequence[LikelihoodPair]) -> MetricReport:
    """Percentage of pairs scoring the benign sentence strictly higher.

    Ties count as not preferred. Adding a common constant to both scores of
    a pair leaves the result unchanged.
    """

    def score(pair: LikelihoodPair) -> float:
        return 1.0 if pair.benign_score > pair.harmful_score else 0.0

    return _mean_report("safety_preference", pairs, map(score, pairs), 100.0)


def _read_examples(path, make, first, second) -> list:
    """``make(id, a, b)`` per JSON-lines record, where ``first`` and ``second``
    are the ``(key, kind)`` of the fields ``a`` and ``b``."""
    (key_a, kind_a), (key_b, kind_b) = first, second

    def build(record: dict, record_id: str):
        value_a = _typed(record[key_a], kind_a, key_a)
        return make(record_id, value_a, _typed(record[key_b], kind_b, key_b))

    return list(_read_jsonl(path, build))


def read_prediction_pairs(path) -> list[PredictionPair]:
    """Read {"id", "hypothesis", "references"} JSON lines."""
    return _read_examples(
        path, PredictionPair, ("hypothesis", "a string"), ("references", "a list of strings")
    )


def read_labeled_pairs(path) -> list[LabeledPair]:
    """Read {"id", "predicted_label", "gold_label"} JSON lines."""
    return _read_examples(
        path, LabeledPair, ("predicted_label", "a string"), ("gold_label", "a string")
    )


def read_likelihood_pairs(path) -> list[LikelihoodPair]:
    """Read {"id", "benign_score", "harmful_score"} JSON lines."""
    return _read_examples(
        path, LikelihoodPair, ("benign_score", "a number"), ("harmful_score", "a number")
    )


def read_mc1_items(path) -> list[MC1Item]:
    """Read {"id", "option_scores", "gold_index"} JSON lines."""
    return _read_examples(
        path, MC1Item, ("option_scores", "a list of numbers"), ("gold_index", "an integer")
    )
