"""Evaluation measures for model outputs.

Implements weighted F1 for classification, chrF++ and corpus BLEU for
translation-style generation, ROUGE-L for summarization, multiple-choice
(MC1) accuracy over option likelihoods, and the benign-over-harmful safety
preference rate. All aggregates use exact summation (math.fsum), so scores
are invariant under any permutation of the examples.

chrF++ and BLEU count n-grams with numpy arrays over consecutive batches of
pairs of at most 8 192 characters, so their memory follows one batch, not
the input. One ranking pass tags each symbol with its pair, so the runs of
an n-gram are its pair's hypothesis, then its references; chrF++ clips each
reference's counts by the hypothesis's, BLEU the hypothesis's by the largest
reference's. Scores are bit-identical to counting string slices or word
tuples (``tests/oracles.py``: ``counter_chrf_pp``, ``counter_bleu``). BLEU
keeps integer statistics per pair and combines their sums in one step. Both
count orders only up to the longest sequence: higher orders have no n-grams.

Tie rules are fixed for determinism: argmax breaks ties by lowest index, and
the safety preference counts only strict inequalities.

The ``read_*`` functions build examples through ``corpus._read_jsonl``, the
JSON-lines loop shared with corpora and task records; each line needs an id.
Examples check their values when made, so a bad one fails naming its line.
"""

from __future__ import annotations

import math
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Sequence

from .corpus import _batches, _read_jsonl, _typed

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
# counting each text as its length plus one, so that memory follows one batch;
# a pair above the budget is a batch of its own. chrF++'s arrays hold
# characters, about 1 MB a batch, and larger batches were no faster on the
# benchmark's inputs. BLEU's hold words, about one per seven characters, so
# its batches take four times the characters for fewer numpy calls.
_CHRF_BATCH_CHARS = 8192
_BLEU_BATCH_CHARS = 32768


def _pair_chars(pair: PredictionPair) -> int:
    return len(pair.hypothesis) + 1 + sum(len(ref) + 1 for ref in pair.references)


def _batch_texts(pairs: Sequence[PredictionPair], split, budget: int):
    """Per batch of at most ``budget`` characters of pairs, each pair's
    hypothesis then its references, as words.

    Yields ``(spans, texts, pair_of, codes)``: the range of text indices of
    each pair (its hypothesis first), each text's ``split`` words, each
    text's pair in the batch, and the code of every word back to back
    (int64), which is the position in the batch of its first occurrence.
    """
    import numpy as np  # not at the top: see collection.subsample_to_target

    for batch in _batches(pairs, _pair_chars, budget):
        spans: list[range] = []
        texts: list[list[str]] = []
        for pair in batch:
            spans.append(range(len(texts), len(texts) + 1 + len(pair.references)))
            texts += map(split, (pair.hypothesis, *pair.references))
        pair_of = np.repeat(np.arange(len(spans)), list(map(len, spans)))
        vocab: dict[str, int] = {}
        codes = np.array(list(map(vocab.setdefault, chain.from_iterable(texts), count())), np.int64)
        yield spans, texts, pair_of, codes


def _hyp_runs(codes, lengths, pair_of, orders: int):
    """Per order 1..orders, every run of one n-gram in one text, n-gram by n-gram.

    ``codes`` holds the texts' symbols back to back (int64), ``lengths``
    each text's length and ``pair_of`` each text's pair; a pair's texts are
    consecutive, its hypothesis first. Each symbol is tagged with its pair,
    so an n-gram belongs to one pair and its runs are that pair's
    hypothesis, if it holds the n-gram, then its references, by text. Each
    order yields ``(run_text, run_hyp, first, in_hyp, counts)``: each run's
    text, whether that text is a hypothesis, the first run of each n-gram,
    the n-gram's count in the hypothesis, and each run's count.
    """
    import numpy as np  # not at the top: see collection.subsample_to_target

    texts = len(lengths)
    text = np.repeat(np.arange(texts), lengths)
    is_hyp = np.concatenate(([True], pair_of[1:] != pair_of[:-1]))
    # Symbols left in the text from each position on, that one included.
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
    # Each distinct (symbol, text) gets a number, in symbol-major order, and
    # each distinct (symbol, pair) a tag. An n-gram's key is its (n-1)-gram's
    # dense rank, then the number of its last symbol, which also names its
    # text: so the sorted keys run n-gram by n-gram, text by text within one,
    # and stay below len(codes)**2.
    numbers, tail = np.unique(codes * texts + text, return_inverse=True)
    symbol, tail_text = np.divmod(numbers, texts)
    tail_tag = symbol * texts + pair_of[tail_text]
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
        run_text, last = tail_text[last], tail_tag[last]
        new = np.concatenate(([True], (prefix[1:] != prefix[:-1]) | (last[1:] != last[:-1])))
        gram = np.cumsum(new)[inverse]
        first = np.flatnonzero(new)
        run_hyp = is_hyp[run_text]
        # A hypothesis run is the first run of its n-gram.
        yield run_text, run_hyp, first, np.where(run_hyp[first], counts[first], 0), counts


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
    import numpy as np  # not at the top: see collection.subsample_to_target

    # Character n-grams skip whitespace; word n-grams come from whitespace
    # tokenization.
    for spans, words, pair_of, word_codes in _batch_texts(pairs, str.split, _CHRF_BATCH_CHARS):
        chars = ["".join(tokens) for tokens in words]
        # JSON "\ud800" decodes to a lone surrogate, which strict UTF-32 rejects.
        char_codes = "".join(chars).encode("utf-32-le", "surrogatepass")
        sides = []
        for codes, lengths, max_order in (
            (np.frombuffer(char_codes, "<u4").astype(np.int64), list(map(len, chars)), char_order),
            (word_codes, list(map(len, words)), word_order),
        ):
            # Orders beyond the longest text have no n-grams on either side.
            orders = min(max_order, max(lengths))
            matched = []
            runs = _hyp_runs(codes, np.array(lengths), pair_of, orders)
            for run_text, _, first, in_hyp, counts in runs:
                # A text matches each of its n-grams as often as both it and
                # its hypothesis hold it. bincount sums its weights as
                # floats, exact for counts below 2**53.
                both = np.minimum(counts, np.repeat(in_hyp, np.diff(first, append=len(counts))))
                matched.append(np.bincount(run_text, both, len(words)).astype(np.int64).tolist())
            sides.append((lengths, matched))
        for hyp, *refs in spans:
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


def _bleu_words(text: str) -> list[str]:
    return unicodedata.normalize("NFC", text).split()


def _bleu_stats(pairs: Sequence[PredictionPair], max_order: int):
    """Per pair: clipped matches and hypothesis n-grams for each order, the
    hypothesis length, and the reference length closest to it (ties to the
    shorter), as int64 arrays ``(matched, totals, hyp_len, ref_len)``.

    ``matched`` and ``totals`` have one column per order up to the longest
    hypothesis, at most ``max_order``: higher orders have no n-grams. A
    match counts an n-gram at most as often as the one reference that holds
    it most often.
    """
    import numpy as np  # not at the top: see collection.subsample_to_target

    parts = []
    hyp_lens: list[int] = []
    ref_lens: list[int] = []
    for spans, texts, pair_of, codes in _batch_texts(pairs, _bleu_words, _BLEU_BATCH_CHARS):
        sizes = list(map(len, texts))
        for hyp, *refs in spans:
            hyp_lens.append(sizes[hyp])
            ref_lens.append(min((abs(sizes[ref] - sizes[hyp]), sizes[ref]) for ref in refs)[1])
        orders = min(max_order, max(hyp_lens[-len(spans) :]))
        matched = np.zeros((len(spans), orders), np.int64)
        runs = _hyp_runs(codes, np.array(sizes), pair_of, orders)
        for n, (run_text, run_hyp, first, in_hyp, counts) in enumerate(runs):
            clipped = np.minimum(in_hyp, np.maximum.reduceat(np.where(run_hyp, 0, counts), first))
            # bincount sums its weights as floats, exact for counts below 2**53.
            matched[:, n] = np.bincount(pair_of[run_text[first]], clipped, len(spans))
        parts.append(matched)
    orders = max(part.shape[1] for part in parts)
    matched = np.concatenate([np.pad(p, ((0, 0), (0, orders - p.shape[1]))) for p in parts])
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

    Tokenization is whitespace splitting after NFC normalization. Clipped
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
