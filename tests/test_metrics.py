import json
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from langadapt import metrics
from langadapt.corpus import IngestError
from langadapt.metrics import (
    LabeledPair,
    LikelihoodPair,
    MC1Item,
    PredictionPair,
    chrf_pp,
    corpus_bleu,
    mc1_accuracy,
    rouge_l,
    safety_preference,
    weighted_f1,
)

from oracles import counter_bleu, counter_chrf_pp, naive_chrf, naive_rouge_l
from synthdata import make_lexicon

WORDS = ["kucing", "makan", "nasi", "di", "rumah", "besar", "itu", "dia", "pergi", "cepat"]


def random_sentence(rng, max_tokens=40):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, max_tokens + 1)))


def prediction(pair_id, hypothesis, *references):
    return PredictionPair(id=pair_id, hypothesis=hypothesis, references=tuple(references))


# Tiny vocabularies with many repeated tokens: long runs of equal characters
# and words stress n-gram clipping and every LCS tie.
TINY_TEXT = st.lists(st.sampled_from(["a", "b", "ab", "aab"]), max_size=40).map(" ".join)

# Symbols that chrF++'s code-point arrays must count like string slices: CJK
# and Cyrillic, a character outside the BMP, lone surrogates (JSON "\ud800"
# decodes to one) and a surrogate pair kept as two code points, and Unicode
# whitespace (U+00A0, U+2028) that str.split() splits on; st.characters()
# adds an alphabet as large as Unicode.
WIDE_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            ["a", "b", "ab", "字", "漢字", "жж", "\U0001F600", "\ud800", "\udfff",
             "\ud83d\ude00", " ", "\u00a0", "\u2028", "\n"]
        ),
        st.characters(),
    ),
    max_size=30,
).map("".join)


@st.composite
def wide_pairs(draw):
    """1-6 pairs, each with 1-4 references, any of them possibly empty."""
    return [
        prediction(str(i), draw(WIDE_TEXT), *draw(st.lists(WIDE_TEXT, min_size=1, max_size=4)))
        for i in range(draw(st.integers(1, 6)))
    ]


def random_words_pairs(rng, n, words, lo, hi):
    def sentence():
        return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))

    return [prediction(str(i), sentence(), sentence()) for i in range(n)]


def memory_pairs():
    """About 2 MB of text; chrF++ scoring it all as one batch peaks above 300 MB."""
    return random_words_pairs(random.Random(29), 2000, make_lexicon("ind", 300, 0), 30, 80)


def traced_peak(score, pairs):
    """The report of ``score(pairs)`` and the peak bytes traced while making it."""
    score(pairs[:1])  # numpy is imported on the first call
    tracemalloc.start()
    try:
        report = score(pairs)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWeightedF1:
    def test_all_correct(self):
        pairs = [LabeledPair(str(i), "A", "A") for i in range(5)]
        assert weighted_f1(pairs).aggregate == 100.0

    def test_hand_computed_fixture(self):
        pairs = [
            LabeledPair("1", "A", "A"),
            LabeledPair("2", "B", "A"),
            LabeledPair("3", "B", "B"),
        ]
        # class A: P=1, R=1/2, F1=2/3; class B: P=1/2, R=1, F1=2/3
        # weighted: (2/3)*(2/3) + (1/3)*(2/3) = 2/3
        assert weighted_f1(pairs).aggregate == pytest.approx(66.67, abs=0.01)

    def test_never_correct(self):
        pairs = [LabeledPair(str(i), "X", "Y") for i in range(4)]
        assert weighted_f1(pairs).aggregate == 0.0

    def test_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            weighted_f1([])

    def test_duplicate_id(self):
        # Readers reject a repeat; a caller passing pairs directly must not
        # have one silently dropped from ``per_example``.
        with pytest.raises(ValueError, match="^duplicate example id '1'$"):
            weighted_f1([LabeledPair("1", "A", "A"), LabeledPair("1", "B", "A")])

    def test_prediction_only_classes_carry_no_weight(self):
        pairs = [LabeledPair("1", "C", "A"), LabeledPair("2", "A", "A")]
        report = weighted_f1(pairs)
        # only class A has gold support; P_A=1, R_A=1/2 -> F1=2/3
        assert report.aggregate == pytest.approx(100 * 2 / 3)


class TestChrfPP:
    def test_identical(self):
        assert chrf_pp([prediction("1", "halo dunia", "halo dunia")]).aggregate == 100.0

    def test_disjoint(self):
        assert chrf_pp([prediction("1", "aaa", "zzz")]).aggregate == 0.0

    def test_both_empty_is_100_one_empty_is_0(self):
        assert chrf_pp([prediction("1", "", "")]).aggregate == 100.0
        assert chrf_pp([prediction("2", "", "abc")]).aggregate == 0.0
        assert chrf_pp([prediction("3", "abc", "")]).aggregate == 0.0

    def test_matches_naive_oracle(self):
        rng = random.Random(21)
        pairs = [
            prediction(str(i), random_sentence(rng), random_sentence(rng))
            for i in range(50)
        ]
        report = chrf_pp(pairs)
        for pair in pairs:
            expected = naive_chrf(pair.hypothesis, pair.references[0])
            assert report.per_example[pair.id] == pytest.approx(expected, abs=1e-4)

    @settings(max_examples=150, deadline=None)
    @given(
        hyp=TINY_TEXT,
        ref=TINY_TEXT,
        other=TINY_TEXT,
        char_order=st.integers(1, 6),
        word_order=st.integers(1, 3),
    )
    @example(hyp="", ref="a b", other="", char_order=6, word_order=2)
    @example(hyp="a b", ref="", other="", char_order=6, word_order=2)
    @example(hyp="", ref="", other="ab", char_order=6, word_order=2)
    @example(hyp="aab", ref="ab a", other="b", char_order=6, word_order=2)
    def test_tiny_vocabulary_matches_naive_oracle(self, hyp, ref, other, char_order, word_order):
        orders = {"char_order": char_order, "word_order": word_order}
        single = chrf_pp([prediction("1", hyp, ref)], **orders).per_example["1"]
        assert single == pytest.approx(naive_chrf(hyp, ref, **orders), abs=1e-4)
        multi = chrf_pp([prediction("1", hyp, ref, other)], **orders).per_example["1"]
        expected = max(naive_chrf(hyp, ref, **orders), naive_chrf(hyp, other, **orders))
        assert multi == pytest.approx(expected, abs=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=wide_pairs(),
        char_order=st.integers(1, 8),
        word_order=st.integers(1, 3),
        budget=st.sampled_from([1, 24, 96, metrics._CHRF_BATCH_CHARS]),
    )
    @example(pairs=[prediction("1", "", "")], char_order=6, word_order=2, budget=1)
    @example(
        pairs=[
            prediction("1", "\ud800字 a", "\ud800字", "字"),
            prediction("2", "ab", "b a", "", "ab"),
        ],
        char_order=6,
        word_order=2,
        budget=8,
    )
    # One batch: pair 2's reference is pair 1's hypothesis, and pair 1's
    # reference holds "a" and "a a" more often than its hypothesis does.
    @example(
        pairs=[prediction("1", "a b", "a a a b"), prediction("2", "b a", "a b")],
        char_order=6,
        word_order=2,
        budget=metrics._CHRF_BATCH_CHARS,
    )
    def test_equals_counter_oracle(self, pairs, char_order, word_order, budget):
        # Small budgets make the drawn lists cross batch boundaries; budget 1
        # puts every pair above it, in a batch of its own.
        orders = {"char_order": char_order, "word_order": word_order}
        with mock.patch.object(metrics, "_CHRF_BATCH_CHARS", budget):
            report = chrf_pp(pairs, **orders)
        expected = counter_chrf_pp(pairs, **orders)
        assert report.per_example == expected
        assert report.aggregate == math.fsum(expected.values()) / len(pairs)

    def test_batches_cross_the_budget_equal_counter_oracle(self):
        rng = random.Random(23)
        pairs = random_words_pairs(rng, 150, WORDS, 1, 40)
        long_text = " ".join(rng.choice(WORDS) for _ in range(2000))
        pairs.insert(70, prediction("long", long_text, long_text[::-1], "kucing"))
        assert len(long_text) > metrics._CHRF_BATCH_CHARS
        report = chrf_pp(pairs)
        expected = counter_chrf_pp(pairs)
        assert report.per_example == expected
        assert report.aggregate == math.fsum(expected.values()) / len(pairs)

    def test_memory_follows_the_batch_not_the_input(self):
        report, peak = traced_peak(chrf_pp, memory_pairs())
        assert report.n == 2000
        assert peak < 4_000_000

    def test_multi_reference_takes_best(self):
        single = chrf_pp([prediction("1", "kucing makan", "kucing makan")]).aggregate
        multi = chrf_pp(
            [prediction("1", "kucing makan", "anjing tidur", "kucing makan")]
        ).aggregate
        assert multi == single == 100.0

    def test_invalid_orders(self):
        with pytest.raises(ValueError, match="orders"):
            chrf_pp([prediction("1", "a", "a")], char_order=0)


class TestCorpusBleu:
    def test_perfect(self):
        pairs = [
            prediction("1", "kucing makan nasi", "kucing makan nasi"),
            prediction("2", "dia pergi", "dia pergi"),
        ]
        assert corpus_bleu(pairs).aggregate == pytest.approx(100.0)

    def test_zero_fourgram_unsmoothed(self):
        pairs = [prediction("1", "a b c d", "a b x d")]  # no common 4-gram
        assert corpus_bleu(pairs, smoothing="none").aggregate == 0.0

    def test_hand_counted_fixture_order2(self):
        # Clipped counts worked out by hand for max_order=2, smoothing none:
        #   s1 hyp=ref="the cat sat on the mat":   1g 6/6, 2g 5/5, len 6/6
        #   s2 "a quick brown fox" vs "the quick brown fox jumps":
        #       1g 3/4, 2g 2/3, len 4/5
        #   s3 "hello world" vs {"hello there world", "hi world"}:
        #       1g 2/2, 2g 0/1, len 2/2 (closest ref)
        #   s4 "good morning friends" vs "good morning dear friends":
        #       1g 3/3, 2g 1/2, len 3/4
        #   s5 "it rains" vs "it rains heavily today": 1g 2/2, 2g 1/1, len 2/4
        # totals: p1 = 16/17, p2 = 9/12, h = 17, r = 21
        pairs = [
            prediction("1", "the cat sat on the mat", "the cat sat on the mat"),
            prediction("2", "a quick brown fox", "the quick brown fox jumps"),
            prediction("3", "hello world", "hello there world", "hi world"),
            prediction("4", "good morning friends", "good morning dear friends"),
            prediction("5", "it rains", "it rains heavily today"),
        ]
        expected = 100.0 * math.exp(1 - 21 / 17) * math.sqrt((16 / 17) * (9 / 12))
        report = corpus_bleu(pairs, max_order=2, smoothing="none")
        assert report.aggregate == pytest.approx(expected, abs=1e-4)
        assert report.per_example is None

    def test_all_hypotheses_empty(self):
        pairs = [prediction("1", "", "a b"), prediction("2", "", "c")]
        assert corpus_bleu(pairs).aggregate == 0.0

    def test_smoothing_keeps_toy_corpus_nonzero(self):
        pairs = [prediction("1", "a b c d", "a b x d")]
        assert corpus_bleu(pairs, smoothing="add_eps_exp").aggregate > 0.0

    def test_unknown_smoothing(self):
        with pytest.raises(ValueError, match="smoothing"):
            corpus_bleu([prediction("1", "a", "a")], smoothing="laplace")


# Words that NFC composes ("e" + U+0301 is "é", U+212B is "Å") and runs of
# whitespace that the tokenization collapses, U+00A0 and U+2028 among them.
BLEU_TEXT = st.lists(
    st.sampled_from(
        ["a", "b", "ab", "é", "e\u0301", "Å", "\u212b", " ", "  ", "\t", "\n", "\u00a0", "\u2028"]
    ),
    max_size=30,
).map("".join)


@st.composite
def bleu_pairs(draw):
    """1-6 pairs, each with 1-3 references, any of them possibly empty."""
    return [
        prediction(str(i), draw(BLEU_TEXT), *draw(st.lists(BLEU_TEXT, min_size=1, max_size=3)))
        for i in range(draw(st.integers(1, 6)))
    ]


class TestBleuStatistics:
    @staticmethod
    def assert_equals_counter_oracle(pairs, max_order, smoothing):
        matched, totals, hyp_len, ref_len = metrics._bleu_stats(pairs, max_order)
        report = corpus_bleu(pairs, max_order, smoothing)
        stats, aggregate = counter_bleu(pairs, max_order, smoothing)
        # Orders go up to the longest hypothesis; a shorter one has zeros there.
        width = min(max_order, max(entry[2] for entry in stats))
        assert matched.tolist() == [m + [0] * (width - len(m)) for m, _, _, _ in stats]
        assert totals.tolist() == [t + [0] * (width - len(t)) for _, t, _, _ in stats]
        assert hyp_len.tolist() == [entry[2] for entry in stats]
        assert ref_len.tolist() == [entry[3] for entry in stats]
        assert report.aggregate == aggregate

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=bleu_pairs(),
        max_order=st.integers(1, 6),
        smoothing=st.sampled_from([metrics.SMOOTHING_NONE, metrics.SMOOTHING_ADD_EPS_EXP]),
        budget=st.sampled_from([1, 24, 96, metrics._CHRF_BATCH_CHARS]),
    )
    @example(pairs=[prediction("1", "", "")], max_order=4, smoothing="none", budget=1)
    @example(
        pairs=[
            prediction("1", "e\u0301  b\u00a0a b", "é b", "a\tb a b"),
            prediction("2", "a a a", "", "a a", "a"),
            prediction("3", "", "a b"),
        ],
        max_order=4,
        smoothing="add_eps_exp",
        budget=8,
    )
    def test_equals_counter_oracle(self, pairs, max_order, smoothing, budget):
        # Small budgets make the drawn lists cross batch boundaries; budget 1
        # puts every pair above it, in a batch of its own.
        with mock.patch.object(metrics, "_CHRF_BATCH_CHARS", budget):
            self.assert_equals_counter_oracle(pairs, max_order, smoothing)

    def test_batches_cross_the_budget_equal_counter_oracle(self):
        rng = random.Random(24)
        pairs = random_words_pairs(rng, 150, WORDS, 1, 40)
        long_text = " ".join(rng.choice(WORDS) for _ in range(2000))
        pairs.insert(70, prediction("long", long_text, long_text[::-1], "kucing makan"))
        assert len(long_text) > metrics._CHRF_BATCH_CHARS
        self.assert_equals_counter_oracle(pairs, 4, metrics.SMOOTHING_ADD_EPS_EXP)

    def test_memory_follows_the_batch_not_the_input(self):
        report, peak = traced_peak(corpus_bleu, memory_pairs())
        assert report.n == 2000
        assert peak < 4_000_000


def test_orders_beyond_the_longest_sequence_cost_nothing():
    # Orders above every text's length have no n-grams. A config may still
    # ask for 10**6 of them; neither time nor memory may follow that number.
    pairs = [prediction("1", "kucing makan", "kucing tidur")]
    chrf_pp(pairs)  # numpy is imported on the first call
    tracemalloc.start()
    try:
        chrf = chrf_pp(pairs, char_order=10**6, word_order=10**6)
        bleu = corpus_bleu(pairs, max_order=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chrf == chrf_pp(pairs, char_order=11, word_order=2)
    assert bleu == corpus_bleu(pairs, max_order=2)
    assert peak < 1_000_000


class TestRougeL:
    def test_identical(self):
        assert rouge_l([prediction("1", "halo dunia", "halo dunia")]).aggregate == 100.0

    def test_hand_formula_case(self):
        # hyp "the cat sat" vs ref "the cat": LCS=2, P=2/3, R=1, beta=1.2
        report = rouge_l([prediction("1", "the cat sat", "the cat")])
        beta2 = 1.2 * 1.2
        expected = 100.0 * (1 + beta2) * (2 / 3) * 1.0 / (1.0 + beta2 * (2 / 3))
        assert report.aggregate == pytest.approx(expected, abs=1e-9)
        assert report.aggregate == pytest.approx(82.99, abs=0.01)

    def test_disjoint(self):
        assert rouge_l([prediction("1", "aaa bbb", "xxx yyy")]).aggregate == 0.0

    def test_empty_hypothesis_scores_zero(self):
        report = rouge_l([prediction("1", "", "abc")])
        assert report.per_example["1"] == 0.0

    def test_matches_naive_oracle(self):
        rng = random.Random(31)
        pairs = [
            prediction(str(i), random_sentence(rng), random_sentence(rng))
            for i in range(50)
        ]
        report = rouge_l(pairs)
        for pair in pairs:
            expected = naive_rouge_l(pair.hypothesis, pair.references[0])
            assert report.per_example[pair.id] == expected

    @settings(max_examples=150, deadline=None)
    @given(hyp=TINY_TEXT, ref=TINY_TEXT, other=TINY_TEXT)
    @example(hyp="", ref="a b", other="")
    @example(hyp="a b", ref="", other="")
    @example(hyp="aab", ref="ab a", other="b")
    def test_tiny_vocabulary_equals_naive_oracle(self, hyp, ref, other):
        single = rouge_l([prediction("1", hyp, ref)]).per_example["1"]
        assert single == naive_rouge_l(hyp, ref)
        multi = rouge_l([prediction("1", hyp, ref, other)]).per_example["1"]
        assert multi == max(single, naive_rouge_l(hyp, other))


@pytest.mark.parametrize("score", [chrf_pp, rouge_l])
@pytest.mark.parametrize(
    "beta", [math.nan, math.inf, 1e200, 10**200], ids=["nan", "inf", "float", "int"]
)
def test_beta_whose_square_is_not_finite_rejected(score, beta):
    with pytest.raises(ValueError) as caught:
        score([prediction("1", "a b", "a c")], beta=beta)
    assert str(caught.value) == f"beta must be a number whose square is finite, got {beta!r}"


class TestMc1Accuracy:
    def test_gold_highest(self):
        items = [MC1Item("1", (0.1, 0.9, 0.2), 1)]
        assert mc1_accuracy(items).aggregate == 100.0

    def test_tie_breaks_to_lowest_index(self):
        items = [MC1Item("1", (0.5, 0.5, 0.5), 0)]
        assert mc1_accuracy(items).aggregate == 100.0
        items = [MC1Item("2", (0.5, 0.5, 0.5), 1)]
        assert mc1_accuracy(items).aggregate == 0.0

    def test_matches_naive_recount(self):
        rng = random.Random(41)
        items = [
            MC1Item(str(i), tuple(rng.random() for _ in range(rng.randrange(2, 6))),
                    rng.randrange(2))
            for i in range(20)
        ]
        report = mc1_accuracy(items)
        correct = 0
        for item in items:
            best = max(range(len(item.option_scores)), key=lambda j: (item.option_scores[j], -j))
            correct += best == item.gold_index
        assert report.aggregate == pytest.approx(100.0 * correct / len(items))

    def test_gold_index_out_of_range(self):
        with pytest.raises(ValueError, match="gold_index"):
            MC1Item("1", (0.1, 0.2), 2)

    def test_non_finite_names_id(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="bad"):
                items = [MC1Item("ok", (0.1, 0.9), 1), MC1Item("bad", (bad, 1.0), 1)]
                mc1_accuracy(items)

    def test_integer_too_large_for_a_float_is_finite(self):
        items = [MC1Item("1", (0.5, 10**400, 0.9), 1), MC1Item("2", (10**400, 10**400 + 1), 0)]
        assert mc1_accuracy(items).per_example == {"1": 1.0, "2": 0.0}

    def test_monotone_transform_invariance(self):
        rng = random.Random(43)
        items = [
            MC1Item(str(i), tuple(rng.uniform(-3, 3) for _ in range(4)), rng.randrange(4))
            for i in range(100)
        ]
        base = mc1_accuracy(items).aggregate
        linear = [
            MC1Item(i.id, tuple(2 * s + 1 for s in i.option_scores), i.gold_index) for i in items
        ]
        exped = [
            MC1Item(i.id, tuple(math.exp(s) for s in i.option_scores), i.gold_index) for i in items
        ]
        assert mc1_accuracy(linear).aggregate == base
        assert mc1_accuracy(exped).aggregate == base


class TestSafetyPreference:
    def test_all_benign_preferred(self):
        pairs = [LikelihoodPair(str(i), -1.0, -2.0) for i in range(5)]
        assert safety_preference(pairs).aggregate == 100.0

    def test_ties_count_as_not_preferred(self):
        pairs = [LikelihoodPair(str(i), -1.5, -1.5) for i in range(5)]
        assert safety_preference(pairs).aggregate == 0.0

    def test_matches_naive_recount(self):
        rng = random.Random(51)
        pairs = [
            LikelihoodPair(str(i), rng.uniform(-5, 0), rng.uniform(-5, 0)) for i in range(100)
        ]
        report = safety_preference(pairs)
        count = sum(1 for p in pairs if p.benign_score > p.harmful_score)
        assert report.aggregate == pytest.approx(100.0 * count / len(pairs))

    def test_constant_shift_invariance(self):
        rng = random.Random(52)
        pairs = [
            LikelihoodPair(str(i), rng.uniform(-5, 0), rng.uniform(-5, 0)) for i in range(50)
        ]
        shifted = [
            LikelihoodPair(p.id, p.benign_score + 7.5, p.harmful_score + 7.5) for p in pairs
        ]
        assert safety_preference(shifted).aggregate == safety_preference(pairs).aggregate

    def test_integer_too_large_for_a_float_is_finite(self):
        pairs = [LikelihoodPair("1", 10**400, 0.5), LikelihoodPair("2", 0.5, 10**400)]
        assert safety_preference(pairs).per_example == {"1": 1.0, "2": 0.0}

    def test_non_finite_names_id(self):
        with pytest.raises(ValueError, match="bad"):
            pairs = [LikelihoodPair("ok", -1.0, -2.0), LikelihoodPair("bad", float("nan"), -2.0)]
            safety_preference(pairs)


class TestPermutationInvariance:
    def test_example_level_metrics(self):
        rng = random.Random(61)
        pred_pairs = [
            prediction(str(i), random_sentence(rng), random_sentence(rng)) for i in range(30)
        ]
        labeled = [
            LabeledPair(str(i), rng.choice("ABC"), rng.choice("ABC")) for i in range(30)
        ]
        likelihood = [
            LikelihoodPair(str(i), rng.uniform(-3, 0), rng.uniform(-3, 0)) for i in range(30)
        ]
        items = [
            MC1Item(str(i), tuple(rng.random() for _ in range(4)), rng.randrange(4))
            for i in range(30)
        ]
        baselines = (
            chrf_pp(pred_pairs).aggregate,
            rouge_l(pred_pairs).aggregate,
            corpus_bleu(pred_pairs).aggregate,
            weighted_f1(labeled).aggregate,
            safety_preference(likelihood).aggregate,
            mc1_accuracy(items).aggregate,
        )
        for trial in range(10):
            shuffle = random.Random(trial)
            for seq in (pred_pairs, labeled, likelihood, items):
                shuffle.shuffle(seq)
            assert chrf_pp(pred_pairs).aggregate == baselines[0]
            assert rouge_l(pred_pairs).aggregate == baselines[1]
            assert corpus_bleu(pred_pairs).aggregate == baselines[2]
            assert weighted_f1(labeled).aggregate == baselines[3]
            assert safety_preference(likelihood).aggregate == baselines[4]
            assert mc1_accuracy(items).aggregate == baselines[5]


READER_RECORDS = {
    "read_prediction_pairs": {"id": "1", "hypothesis": "a", "references": ["a"]},
    "read_labeled_pairs": {"id": "1", "predicted_label": "A", "gold_label": "B"},
    "read_likelihood_pairs": {"id": "1", "benign_score": -1.0, "harmful_score": -2.0},
    "read_mc1_items": {"id": "1", "option_scores": [0.1, 0.9], "gold_index": 1},
}


def malformed_records():
    """A record each reader must reject after a valid one, and a message fragment."""
    cases = []
    for reader, valid in READER_RECORDS.items():
        other = dict(valid, id="2")
        last = list(valid)[-1]
        cases += [
            (reader, "non-object", ["a"], "must be an object"),
            (reader, "missing-id", {k: v for k, v in other.items() if k != "id"}, "no 'id'"),
            (reader, "duplicate-id", valid, "duplicate id"),
            (reader, "missing-field", {k: v for k, v in other.items() if k != last},
             f"missing key {last!r}"),
        ]
    for reader, case, change, message in (
        ("read_prediction_pairs", "non-list", {"references": "a"}, "must be a list"),
        ("read_mc1_items", "non-list", {"option_scores": 0.5}, "must be a list"),
        ("read_likelihood_pairs", "non-numeric", {"benign_score": "x"}, "must be a number"),
        ("read_likelihood_pairs", "null-score", {"harmful_score": None}, "must be a number"),
        ("read_mc1_items", "non-numeric", {"option_scores": ["x", 0.1]}, "must be a number"),
        ("read_mc1_items", "list-index", {"gold_index": [1]}, "int"),
        ("read_prediction_pairs", "no-references", {"references": []}, "has no references"),
        ("read_labeled_pairs", "empty-label", {"gold_label": ""}, "has an empty label"),
        ("read_mc1_items", "no-options", {"option_scores": []}, "has no option scores"),
    ):
        cases.append((reader, case, dict(READER_RECORDS[reader], id="2", **change), message))
    return [
        pytest.param(reader, record, message, id=f"{reader}-{case}")
        for reader, case, record, message in cases
    ]


class TestReaders:
    def test_prediction_reader(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            json.dumps({"id": "1", "hypothesis": "a", "references": ["a", "b"]}) + "\n",
            encoding="utf-8",
        )
        (pair,) = metrics.read_prediction_pairs(path)
        assert pair.references == ("a", "b")

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "1", "hypothesis": "a", "references": ["a"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            metrics.read_prediction_pairs(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(
            b'{"id": "1", "hypothesis": "a", "references": ["a"]}\n'
            b'{"id": "2", "hypothesis": "\xff", "references": ["a"]}\n'
        )
        with pytest.raises(IngestError, match=r"preds\.jsonl: line 2: invalid UTF-8 at byte 27"):
            metrics.read_prediction_pairs(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        line = json.dumps({"id": "1", "predicted_label": "A", "gold_label": "B"})
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            metrics.read_labeled_pairs(path)

    @pytest.mark.parametrize("reader, record, message", malformed_records())
    def test_malformed_record_names_line(self, tmp_path, reader, record, message):
        # The blank first line checks that file lines are counted, not records.
        path = tmp_path / "input.jsonl"
        lines = ["", json.dumps(READER_RECORDS[reader]), json.dumps(record)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: ") as caught:
            getattr(metrics, reader)(path)
        assert message in str(caught.value)

    def test_report_json_shape(self):
        report = weighted_f1([LabeledPair("1", "A", "A")])
        payload = report.to_json_dict()
        assert payload["metric_name"] == "weighted_f1"
        assert payload["n"] == 1
        assert payload["per_example"] == {"1": 1.0}
        bleu = corpus_bleu([prediction("1", "a", "a")])
        assert "per_example" not in bleu.to_json_dict()
