"""Naive reference implementations used only as oracles in tests.

These are deliberately slow, direct transcriptions of the documented
behavior: the BPE trainer rescans every word each iteration, the encoder
replays merges one by one over the whole sequence, the collection oracle
builds one instance per copy, and the metric oracles count n-grams with
plain loops or, for ``counter_chrf_pp`` and ``counter_bleu``, one ``Counter``
per order and text.
The model file oracle puts the whole payload through ``json.dumps``.
None of them share code with the library paths they check.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import unicodedata
from collections import Counter


def _split_words(text: str) -> list[bytes]:
    # Words are maximal runs of non-whitespace bytes; the six ASCII
    # whitespace bytes delimit and never participate in merges.
    out = []
    current = bytearray()
    for byte in text.encode("utf-8"):
        if byte in b" \t\n\r\x0b\x0c":
            if current:
                out.append(bytes(current))
                current = bytearray()
        else:
            current.append(byte)
    if current:
        out.append(bytes(current))
    return out


def _replace_pair(ids: list[int], left: int, right: int, new_id: int) -> list[int]:
    out = []
    i = 0
    while i < len(ids):
        if i + 1 < len(ids) and ids[i] == left and ids[i + 1] == right:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def naive_train_bpe(texts, vocab_size, special_names=("pad", "eos", "unk")):
    """O(n^2) BPE trainer: full recount and rescan on every iteration.

    Returns (pieces, merges) with the same layout as the library: special
    placeholders, then the 256 bytes, then one piece per merge. Pair
    frequency ties break by (lower left id, lower right id); merges need a
    pair frequency of at least 2; pairs whose concatenation would duplicate
    an existing piece are permanently banned.
    """
    word_freqs: dict[bytes, int] = {}
    for text in texts:
        for word in _split_words(text):
            word_freqs[word] = word_freqs.get(word, 0) + 1
    return naive_train_bpe_counts(word_freqs, vocab_size, special_names)


def naive_train_bpe_counts(word_freqs, vocab_size, special_names=("pad", "eos", "unk")):
    """``naive_train_bpe`` from a table of whitespace-free words and their counts."""
    pieces = [f"<{name}>".encode("utf-8") for name in special_names]
    pieces += [bytes([i]) for i in range(256)]
    offset = len(special_names)
    words = [([offset + b for b in word], freq) for word, freq in word_freqs.items()]
    merges: list[tuple[int, int]] = []
    banned: set[tuple[int, int]] = set()
    while len(pieces) < vocab_size:
        counts: dict[tuple[int, int], int] = {}
        for ids, freq in words:
            for i in range(len(ids) - 1):
                pair = (ids[i], ids[i + 1])
                counts[pair] = counts.get(pair, 0) + freq
        for pair in banned:
            counts.pop(pair, None)
        best = None
        while counts:
            candidate = max(counts.items(), key=lambda kv: (kv[1], -kv[0][0], -kv[0][1]))
            pair, freq = candidate
            if freq < 2:
                break
            if pieces[pair[0]] + pieces[pair[1]] in pieces:
                banned.add(pair)
                del counts[pair]
                continue
            best = pair
            break
        if best is None:
            break
        new_id = len(pieces)
        pieces.append(pieces[best[0]] + pieces[best[1]])
        merges.append(best)
        words = [(_replace_pair(ids, best[0], best[1], new_id), freq) for ids, freq in words]
    return pieces, merges


def naive_encode_bytes(pieces, merges, n_specials: int, data: bytes) -> list[int]:
    """Encode by replaying every merge, in order, over the whole sequence."""
    ids = [n_specials + b for b in data]
    for rank, (left, right) in enumerate(merges):
        ids = _replace_pair(ids, left, right, n_specials + 256 + rank)
    return ids


def json_model_bytes(model) -> bytes:
    """The canonical model file: the four fields through ``json.dumps(indent=2)``."""
    payload = {
        "version": 1,
        "special_tokens": dict(model.special_tokens),
        "pieces": [base64.b64encode(p).decode("ascii") for p in model.pieces],
        "merges": [list(m) for m in model.merges],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _char_ngrams(text: str, n: int) -> dict[str, int]:
    chars = ""
    for ch in text:
        if not ch.isspace():
            chars += ch
    counts: dict[str, int] = {}
    for i in range(len(chars) - n + 1):
        gram = chars[i : i + n]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _word_ngrams(text: str, n: int) -> dict[tuple, int]:
    words = text.split()
    counts: dict[tuple, int] = {}
    for i in range(len(words) - n + 1):
        gram = tuple(words[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def naive_chrf(hyp: str, ref: str, char_order=6, word_order=2, beta=2.0) -> float:
    """Direct counting oracle for the chrF++ pair score."""
    precisions = []
    recalls = []
    for extractor, max_n in ((_char_ngrams, char_order), (_word_ngrams, word_order)):
        for n in range(1, max_n + 1):
            hyp_counts = extractor(hyp, n)
            ref_counts = extractor(ref, n)
            hyp_total = sum(hyp_counts.values())
            ref_total = sum(ref_counts.values())
            if hyp_total == 0 and ref_total == 0:
                continue
            matched = 0
            for gram, count in hyp_counts.items():
                matched += min(count, ref_counts.get(gram, 0))
            precisions.append(matched / hyp_total if hyp_total else 0.0)
            recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 100.0
    avg_p = sum(precisions) / len(precisions)
    avg_r = sum(recalls) / len(recalls)
    denom = beta * beta * avg_p + avg_r
    if denom == 0:
        return 0.0
    return 100.0 * (1 + beta * beta) * avg_p * avg_r / denom


def _counter_ngrams(seq, n: int) -> Counter:
    return Counter([seq[i : i + n] for i in range(len(seq) - n + 1)])


def _counter_chrf_grams(text: str, char_order: int, word_order: int) -> list:
    words = tuple(text.split())
    return [
        (_counter_ngrams(seq, n), max(len(seq) - n + 1, 0))
        for seq, max_n in (("".join(words), char_order), (words, word_order))
        for n in range(1, max_n + 1)
    ]


def _counter_chrf_pair(hyp_grams: list, ref_grams: list, beta: float) -> float:
    precisions = []
    recalls = []
    for (hyp_counts, hyp_total), (ref_counts, ref_total) in zip(hyp_grams, ref_grams):
        if hyp_total == 0 and ref_total == 0:
            continue
        matched = sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
        precisions.append(matched / hyp_total if hyp_total else 0.0)
        recalls.append(matched / ref_total if ref_total else 0.0)
    if not precisions:
        return 100.0
    avg_p = math.fsum(precisions) / len(precisions)
    avg_r = math.fsum(recalls) / len(recalls)
    denom = beta * beta * avg_p + avg_r
    if denom <= 0.0:
        return 0.0
    return 100.0 * ((1.0 + beta * beta) * avg_p * avg_r / denom)


def counter_chrf_pp(pairs, char_order=6, word_order=2, beta=2.0) -> dict[str, float]:
    """chrF++ per example id with one ``Counter`` of slices per order and text.

    Unlike ``naive_chrf`` it does the library's floating-point arithmetic step
    for step (``math.fsum`` averages, the same F-beta expression), so its
    scores must equal the library's exactly, not only approximately.
    """
    scores = {}
    for pair in pairs:
        hyp_grams = _counter_chrf_grams(pair.hypothesis, char_order, word_order)
        scores[pair.id] = max(
            _counter_chrf_pair(hyp_grams, _counter_chrf_grams(ref, char_order, word_order), beta)
            for ref in pair.references
        )
    return scores


def counter_bleu(pairs, max_order=4, smoothing="add_eps_exp"):
    """Corpus BLEU with one ``Counter`` of word tuples per order and text.

    Returns ``(stats, aggregate)``. ``stats`` holds, per pair, the clipped
    matches and the hypothesis n-grams of each order up to the hypothesis
    length (at most ``max_order``), the hypothesis length and the reference
    length closest to it (ties to the shorter). The aggregate does the
    library's floating-point arithmetic step for step, so it must equal the
    library's exactly.
    """
    stats = []
    for pair in pairs:
        hyp = tuple(unicodedata.normalize("NFC", pair.hypothesis).split())
        refs = [tuple(unicodedata.normalize("NFC", ref).split()) for ref in pair.references]
        matched = []
        totals = []
        for n in range(1, min(max_order, len(hyp)) + 1):
            hyp_grams = _counter_ngrams(hyp, n)
            ref_grams = [_counter_ngrams(ref, n) for ref in refs]
            totals.append(sum(hyp_grams.values()))
            matched.append(
                sum(
                    min(count, max(grams[gram] for grams in ref_grams))
                    for gram, count in hyp_grams.items()
                )
            )
        ref_len = min((abs(len(ref) - len(hyp)), len(ref)) for ref in refs)[1]
        stats.append((matched, totals, len(hyp), ref_len))
    hyp_len = sum(entry[2] for entry in stats)
    ref_len = sum(entry[3] for entry in stats)
    if hyp_len == 0:
        return stats, 0.0
    matches: Counter = Counter()
    totals: Counter = Counter()
    for matched, order_totals, _, _ in stats:
        for n, (count, total) in enumerate(zip(matched, order_totals), 1):
            matches[n] += count
            totals[n] += total
    log_terms = []
    for n, total in totals.items():
        if matches[n] == 0 and smoothing == "add_eps_exp":
            precision = 1.0 / (2.0 * total)
        else:
            precision = matches[n] / total
        if precision == 0.0:
            return stats, 0.0
        log_terms.append(math.log(precision))
    geo_mean = math.exp(math.fsum(log_terms) / len(log_terms))
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return stats, 100.0 * penalty * geo_mean


def naive_rouge_l(hyp: str, ref: str, beta=1.2) -> float:
    """Full-table LCS oracle for the ROUGE-L pair score."""
    a = hyp.split()
    b = ref.split()
    if not a or not b:
        return 0.0
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    lcs = table[len(a)][len(b)]
    if lcs == 0:
        return 0.0
    precision = lcs / len(a)
    recall = lcs / len(b)
    return 100.0 * (1 + beta * beta) * precision * recall / (recall + beta * beta * precision)


def _naive_hash64(seed, source, key):
    digest = hashlib.sha256(f"{seed}\x1f{source}\x1f{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _naive_subsample(instances, target, seed):
    n = len(instances)
    indices = {}
    for index, instance in enumerate(instances):
        indices.setdefault(instance.source, []).append(index)
    quotas = {source: target * len(ix) // n for source, ix in indices.items()}
    by_remainder = sorted(
        indices, key=lambda s: (-(target * len(indices[s]) % n), -len(indices[s]), s)
    )
    for source in by_remainder[: target - sum(quotas.values())]:
        quotas[source] += 1
    chosen = []
    for source, ix in indices.items():
        ranked = sorted(range(len(ix)), key=lambda pos: _naive_hash64(seed, source, str(pos)))
        chosen.extend(ix[pos] for pos in ranked[: quotas[source]])
    return [instances[i] for i in sorted(chosen)]


def naive_collection(registry, records, plan, out_dir):
    """Build, split, subsample and write a collection one instance per copy.

    Every copy is its own instance made with ``replace``; subsampling sorts
    all hashed positions of a source; each line is one ``json.dumps``.
    Writes ``phase1.jsonl`` and ``phase2.jsonl`` under ``out_dir`` and
    returns the instance count per source.
    """
    from dataclasses import replace

    from langadapt.collection import render_template

    stream, per_source, kept = [], {}, {}
    for record in sorted(records, key=lambda r: (r.source, r.id)):
        source_plan = plan.per_source[record.source]
        if source_plan.cap is not None and kept.get(record.source, 0) >= source_plan.cap:
            continue
        kept[record.source] = kept.get(record.source, 0) + 1
        templates = registry.for_task(record.task_type)
        template = templates[_naive_hash64(plan.seed, record.source, record.id) % len(templates)]
        base = render_template(template, record, phase=source_plan.phase)
        for copy_index in range(source_plan.upsample_factor):
            stream.append(replace(base, copy_index=copy_index))
        per_source[record.source] = per_source.get(record.source, 0) + source_plan.upsample_factor
    targets = plan.target_totals or {}
    for phase in ("phase1", "phase2"):
        selected = [instance for instance in stream if instance.phase.value == phase]
        if targets.get(phase, len(selected)) < len(selected):
            selected = _naive_subsample(selected, targets[phase], plan.seed)
        with open(out_dir / f"{phase}.jsonl", "w", encoding="utf-8", newline="\n") as handle:
            for instance in selected:
                handle.write(json.dumps(instance.to_json_dict(), ensure_ascii=False) + "\n")
    return per_source
