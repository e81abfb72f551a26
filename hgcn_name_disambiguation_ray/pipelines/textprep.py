"""Text-analysis operators over a documents Dataset (training-data prep).

Each is a plain-task `map_batches` stage over Arrow batches:

  * token_count     — whitespace tokens + the engine's len>1 token rule
                      + a BPE-ish subword regex count
  * quality_score   — length / punctuation / digit / stopword ratios and
                      mean word length, composed into one [0,1] score
  * language_id     — character n-gram + stopword heuristic over built-in
                      profiles (en/de/fr/es + zh by script); no models
  * fingerprint     — winnowing rolling-hash document fingerprint

Every stage is fully vectorized: splitting / regex counting run as Arrow
kernels over whole columns, per-document statistics come from prefix sums
and segmented reductions over the flattened token arrays (the same
pattern `functions/text.py` uses) — no `for row in batch` loops.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from hgcn_name_disambiguation_ray.functions.hashing import stable_hash64_array
from hgcn_name_disambiguation_ray.functions.text import split_ws_flat
from hgcn_name_disambiguation_ray.stages.groupagg import (
    auto_join,
    bucketed_group_apply,
    bucketed_sum,
    group_topk,
    topk,
)

# BPE-ish subword splitter: letter runs, digit runs, single punctuation
_BPE_PATTERN = r"[A-Za-z]+|\d+|[^\sA-Za-z\d]"

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "on"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "zu", "von"},
    "fr": {"le", "la", "les", "et", "est", "pas", "pour", "dans", "que", "une"},
    "es": {"el", "la", "los", "y", "es", "no", "con", "para", "que", "una"},
}

_CJK_PATTERN = r"[一-鿿]"


def _fill(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.fill_null(col, "")


def _seg_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row sums of a flat value array given row offsets (prefix-sum)."""
    cum = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def _token_lens(flat: np.ndarray) -> np.ndarray:
    if len(flat) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.frompyfunc(len, 1, 1)(flat).astype(np.int64)


def token_count(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """(id, n_ws_tokens, n_tokens, n_subwords): whitespace count, the
    engine's len>1 token count, and BPE-ish subword count."""

    def body(t: pa.Table) -> pa.Table:
        flat, offsets = split_ws_flat(t[text_col])
        lens = _token_lens(flat)
        n_ws = _seg_sum(np.ones(len(flat), dtype=np.int64), offsets)
        n_tok = _seg_sum((lens > 1).astype(np.int64), offsets)
        n_sub = pc.count_substring_regex(_fill(t[text_col]), pattern=_BPE_PATTERN)
        return pa.table(
            {
                id_col: t[id_col],
                "n_ws_tokens": pa.array(n_ws),
                "n_tokens": pa.array(n_tok),
                "n_subwords": n_sub.cast(pa.int64()),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def quality_score(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """(id, n_chars2, n_words, mean_word_len, punct_ratio, digit_ratio,
    stop_ratio, quality) — all ratios in [0,1], quality a simple composite."""

    def body(t: pa.Table) -> pa.Table:
        col = _fill(t[text_col])
        flat, offsets = split_ws_flat(col)
        lens = _token_lens(flat)
        n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        n_words = _seg_sum(np.ones(len(flat), dtype=np.int64), offsets)
        sum_lens = _seg_sum(lens, offsets)
        with np.errstate(invalid="ignore"):
            mean_word_len = np.where(n_words > 0, sum_lens / np.maximum(n_words, 1), 0.0)

        n_punct = pc.count_substring_regex(
            col, pattern=r"[^\p{L}\p{N}\s]"
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        n_digit = pc.count_substring_regex(
            col, pattern=r"\p{Nd}"
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        safe_chars = np.maximum(n_chars, 1)
        punct_ratio = np.where(n_chars > 0, n_punct / safe_chars, 0.0)
        digit_ratio = np.where(n_chars > 0, n_digit / safe_chars, 0.0)

        stops = _STOPWORDS["en"]
        if len(flat):
            low = np.char.lower(flat.astype(str))
            is_stop = np.isin(low, sorted(stops)).astype(np.int64)
            n_stop = _seg_sum(is_stop, offsets)
        else:
            n_stop = np.zeros(len(n_words), dtype=np.int64)
        stop_ratio = np.where(n_words > 0, n_stop / np.maximum(n_words, 1), 0.0)

        length_ok = np.where((n_words >= 20) & (n_words <= 10000), 1.0, 0.3)
        wordlen_ok = np.where((mean_word_len >= 3.0) & (mean_word_len <= 12.0), 1.0, 0.3)
        quality = (
            0.4 * length_ok
            + 0.3 * wordlen_ok
            + 0.2 * (1.0 - np.minimum(1.0, punct_ratio * 4))
            + 0.1 * (1.0 - np.minimum(1.0, digit_ratio * 4))
        )
        return pa.table(
            {
                id_col: t[id_col],
                "n_chars2": pa.array(n_chars),
                "n_words": pa.array(n_words),
                "mean_word_len": pa.array(mean_word_len),
                "punct_ratio": pa.array(punct_ratio),
                "digit_ratio": pa.array(digit_ratio),
                "stop_ratio": pa.array(stop_ratio),
                "quality": pa.array(quality),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


# alphabetical order — ties resolve to the first maximal language
_LANGS = sorted(_STOPWORDS)
_STOP_LISTS = [np.array(sorted(_STOPWORDS[lg])) for lg in _LANGS]


def language_id(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """(id, pred_lang) per document, as a plain task over the module's
    stopword profiles.

    Vectorized: CJK detection is one Arrow regex count; stopword overlap
    is computed over the flattened distinct (doc, word) pairs with one
    np.isin + segmented sum per language profile."""

    def body(t: pa.Table) -> pa.Table:
        n = t.num_rows
        col = _fill(t[text_col])
        cjk = pc.count_substring_regex(col, pattern=_CJK_PATTERN).to_numpy(
            zero_copy_only=False
        ) > 0
        flat, offsets = split_ws_flat(col, lower=True)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        if len(flat):
            uniq = pd.DataFrame({"d": doc_idx, "w": flat.astype(str)}).drop_duplicates()
            ud, uw = uniq["d"].to_numpy(), uniq["w"].to_numpy()
        else:
            ud, uw = doc_idx, flat
        scores = np.zeros((n, len(_LANGS)), dtype=np.int64)
        for j, sw in enumerate(_STOP_LISTS):
            hit = np.isin(uw, sw)
            scores[:, j] = np.bincount(ud[hit], minlength=n)
        best = scores.argmax(axis=1)            # first max = alphabetical min
        preds = np.asarray(_LANGS, dtype=object)[best]
        preds[scores.max(axis=1) == 0] = "unknown"
        preds[cjk] = "zh"
        return pa.table({id_col: t[id_col], "pred_lang": pa.array(preds, type=pa.string())})

    return ds.map_batches(body, batch_format="pyarrow")


def vocabulary(
    ds: Dataset,
    text_col: str = "text",
    min_count: int = 1,
    n_buckets: int = 64,
) -> Dataset:
    """Corpus vocabulary: (token, n_docs, n_occurrences) per distinct
    lowercased whitespace token. Per-batch partial counts shrink the
    shuffle; the merge runs bucketed (token is a high-cardinality key —
    at web scale this is how the tokenizer-training vocab is built)."""

    def partial(t: pa.Table) -> pa.Table:
        flat, offsets = split_ws_flat(t[text_col], lower=True)
        if len(flat) == 0:
            return pa.table({"token": pa.array([], type=pa.string()),
                             "n_docs": pa.array([], type=pa.int64()),
                             "n_occurrences": pa.array([], type=pa.int64())})
        doc = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
        df = pd.DataFrame({"d": doc, "w": flat.astype(str)})
        occ = df.groupby("w", sort=False).agg(
            n_occurrences=("d", "size"), n_docs=("d", "nunique")
        ).reset_index()
        return pa.Table.from_pandas(
            occ.rename(columns={"w": "token"}), preserve_index=False
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("token", as_index=False, sort=False)[["n_docs", "n_occurrences"]].sum()
        return out[out["n_occurrences"] >= min_count]

    return bucketed_group_apply(partials, ["token"], merge, n_buckets=n_buckets)


# conservative, order-matters scrub patterns (RE2-compatible)
_PII_PATTERNS = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("url", r"https?://[^\s]+", "<URL>"),
    ("phone", r"\+?\d{1,3}[-. (]?\d{3}[-. )]?\d{3}[-. ]?\d{4}", "<PHONE>"),
]


def pii_scrub(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Replace emails / urls / phone-shaped spans with typed placeholder
    tokens; emits per-doc hit counts alongside the scrubbed text. All
    regex passes are Arrow kernels over the whole column."""

    def body(t: pa.Table) -> pa.Table:
        col = _fill(t[text_col])
        counts = {}
        for name, pat, repl in _PII_PATTERNS:
            counts[f"n_{name}"] = pc.count_substring_regex(col, pattern=pat).cast(pa.int64())
            col = pc.replace_substring_regex(col, pattern=pat, replacement=repl)
        return pa.table({id_col: t[id_col], "text_scrubbed": col, **counts})

    return ds.map_batches(body, batch_format="pyarrow")



def _tf_pairs(text_col: str, id_col: str):
    """Per-batch (doc, token, tf) partials — shared by tfidf_top_terms and
    token_freq_score so the two stages cannot drift apart."""

    def body(t: pa.Table) -> pa.Table:
        flat, offsets = split_ws_flat(t[text_col], lower=True)
        ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
        doc = np.repeat(ids, np.diff(offsets))
        if len(flat) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "token": pa.array([], type=pa.string()),
                             "tf": pa.array([], type=pa.int64())})
        df = pd.DataFrame({id_col: doc, "token": flat.astype(str)})
        tf = df.groupby([id_col, "token"], sort=False).size().reset_index(name="tf")
        return pa.Table.from_pandas(tf, preserve_index=False)

    return body


def tfidf_top_terms(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
) -> Dataset:
    """Per-doc top-k terms RANKED BY (tf desc, df asc, token asc):
    (doc_id, token, tf, df, tfidf_micro).

    The ranking is deliberately NOT by the float tf-idf product: integer
    keys make the selection bit-exact against any engine (no float
    rounding at rank boundaries), and df-ascending already prefers the
    rarer term at equal tf. Consequence a caller must know: a stopword
    with high tf can out-rank a distinctive lower-tf term — consumers
    wanting strict tf-idf order should re-sort the emitted tfidf_micro
    (already an integer) over a larger k. tf-idf = tf·ln(N/df).
    Composition of the engine's own operators: per-batch (doc, token, tf)
    partials -> document frequencies via `vocabulary` -> size-probed
    `auto_join` on the token key -> bucketed `group_topk` per doc."""

    n_docs_total = ds.count()

    pairs = ds.map_batches(_tf_pairs(text_col, id_col), batch_format="pyarrow")
    dfreq = vocabulary(ds, text_col=text_col).map_batches(
        lambda t: pa.table({"token": t["token"], "df": t["n_docs"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    joined = auto_join(pairs, dfreq, on=["token"])

    def score(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        df_ = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        micro = np.round(tf * np.log(n_docs_total / df_) * 1e6).astype(np.int64)
        return t.append_column("tfidf_micro", pa.array(micro))

    scored = joined.map_batches(score, batch_format="pyarrow")
    return group_topk(scored, keys=[id_col], sort_col="tf", k=k,
                      tie_cols=["df", "token"])


def pack_sequences(
    ds: Dataset,
    token_col: str = "n_tokens",
    id_col: str = "doc_id",
    budget: int = 512,
    n_buckets: int = 16,
) -> Dataset:
    """Greedy sequence packing for LLM training: docs hash into buckets,
    are ordered by id within the bucket, and fill sequences left to right
    until the token budget would overflow (over-budget docs get their own
    sequence). Deterministic: output (doc_id, bucket, seq_idx) is a pure
    function of the inputs, independent of execution order — each bucket
    packs independently, which is the partitioning assumption."""

    def add_bucket(t: pa.Table) -> pa.Table:
        from hgcn_name_disambiguation_ray.stages.sampling import _ids64, hash_bucket

        # high-bit bucket, not %: the Knuth hash's low bits carry raw id
        # structure (stride-16 id schemes would collapse into ONE bucket
        # and break the bucket-fits-a-worker partitioning assumption)
        b = hash_bucket(_ids64(t, id_col), n_buckets).astype(np.int32)
        return t.append_column("bucket", pa.array(b, type=pa.int32()))

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for bval, g in df.groupby("bucket", sort=False):
            g = g.sort_values(id_col, kind="stable")
            toks = g[token_col].to_numpy()
            seq = np.zeros(len(g), dtype=np.int64)
            cur, acc = 0, 0
            for i, n in enumerate(toks):
                if acc > 0 and acc + n > budget:
                    cur += 1
                    acc = 0
                seq[i] = cur
                acc += int(n)
            out.append(pd.DataFrame({id_col: g[id_col].to_numpy(),
                                     "bucket": np.full(len(g), bval, dtype=np.int64),
                                     "seq_idx": seq}))
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
            {id_col: pd.Series(dtype=np.int64), "bucket": pd.Series(dtype=np.int64),
             "seq_idx": pd.Series(dtype=np.int64)})

    withb = ds.map_batches(add_bucket, batch_format="pyarrow")
    return bucketed_group_apply(withb, ["bucket"], pack, n_buckets=n_buckets)


def compression_ratio(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """zlib-compressed size / raw size per doc — the classic repetitive-
    junk signal (highly compressible text is boilerplate or spam; the
    Gopher/RefinedWeb-style quality rule). zlib is a per-row C call."""
    import zlib

    def body(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        ratios = np.ones(len(texts), dtype=np.float64)
        for i, s in enumerate(texts):
            raw = (s or "").encode("utf-8")
            if raw:
                ratios[i] = len(zlib.compress(raw, 6)) / len(raw)
        return pa.table({id_col: t[id_col], "compression_ratio": pa.array(ratios)})

    return ds.map_batches(body, batch_format="pyarrow")


def fingerprint(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id",
    window: int = 8,
) -> Dataset:
    """Winnowing fingerprint: token rolling hashes, min per sliding window,
    XOR-folded over the distinct selected values to one uint64 per doc.

    Segmented implementation: one global sliding-window-min over the flat
    hash array (windows crossing doc boundaries masked out), short docs
    (len <= window) reduced whole, then a lexsort dedup + XOR reduceat."""
    MIX = np.uint64(0x9E3779B97F4A7C15)

    def body(t: pa.Table) -> pa.Table:
        n = t.num_rows
        flat, offsets = split_ws_flat(t[text_col], lower=True)
        h = stable_hash64_array(flat)
        L = np.diff(offsets)
        fps = np.zeros(n, dtype=np.uint64)

        sel_vals: list[np.ndarray] = []
        sel_docs: list[np.ndarray] = []
        big = L > window
        if big.any() and len(h) >= window:
            wmins = np.lib.stride_tricks.sliding_window_view(h, window).min(axis=1)
            cnt = (L - window + 1)[big]
            base = np.repeat(offsets[:-1][big], cnt)
            local = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt)[:-1]]).astype(np.int64), cnt
            )
            sel_vals.append(wmins[base + local])
            sel_docs.append(np.repeat(np.flatnonzero(big), cnt))
        small = (L > 0) & (L <= window)
        if small.any():
            # per-doc min for ALL nonempty docs first: consecutive nonempty
            # starts are each other's end offsets, so reduceat segments are
            # exact doc extents (a reduceat over only the small starts would
            # bleed into interleaved big docs)
            nonempty = L > 0
            allmins = np.zeros(n, dtype=np.uint64)
            allmins[nonempty] = np.minimum.reduceat(h, offsets[:-1][nonempty])
            sel_vals.append(allmins[small])
            sel_docs.append(np.flatnonzero(small))
        if sel_vals:
            vals = np.concatenate(sel_vals)
            docs = np.concatenate(sel_docs)
            order = np.lexsort((vals, docs))
            sv, sd = vals[order], docs[order]
            new = np.r_[True, (sd[1:] != sd[:-1]) | (sv[1:] != sv[:-1])]
            uv, ud = sv[new], sd[new]
            with np.errstate(over="ignore"):
                mixed = uv * MIX
            starts = np.flatnonzero(np.r_[True, ud[1:] != ud[:-1]])
            folded = np.bitwise_xor.reduceat(mixed, starts)
            fps[ud[starts]] = folded
        return pa.table({id_col: t[id_col], "fingerprint": pa.array(fps, type=pa.uint64())})

    return ds.map_batches(body, batch_format="pyarrow")


def repetition_stats(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id",
    dup_thresh: float = 0.2,
) -> Dataset:
    """Gopher-style word-repetition signals per doc: duplicate-word
    fraction (1 - distinct/total) and most-frequent-word fraction, plus
    a flag at the duplicate-word threshold (Rae et al. 2021 use this
    family of rules to drop boilerplate/spam from MassiveText).

    Segmented: tokens hash to 64-bit (collision odds within one doc are
    ~n²/2⁶⁴ — statistics, not identity, so this is safe), one lexsort by
    (doc, hash), run boundaries give distinct counts and max run length
    per doc with no Python loop."""

    def body(t: pa.Table) -> pa.Table:
        n = t.num_rows
        flat, offsets = split_ws_flat(t[text_col])
        n_words = np.diff(offsets)
        h = stable_hash64_array(flat)
        docidx = np.repeat(np.arange(n, dtype=np.int64), n_words)
        distinct = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
        if len(h):
            order = np.lexsort((h, docidx))
            hs, ds_ = h[order], docidx[order]
            new = np.r_[True, (ds_[1:] != ds_[:-1]) | (hs[1:] != hs[:-1])]
            np.add.at(distinct, ds_[new], 1)
            run_starts = np.flatnonzero(new)
            run_len = np.diff(np.append(run_starts, len(hs)))
            np.maximum.at(top, ds_[run_starts], run_len)
        nw = np.maximum(n_words, 1)
        dup_frac = np.where(n_words > 0, 1.0 - distinct / nw, 0.0)
        top_frac = np.where(n_words > 0, top / nw, 0.0)
        return pa.table(
            {
                id_col: t[id_col],
                "n_words2": pa.array(n_words),
                "dup_word_frac_r": pa.array(np.round(dup_frac, 6)),
                "top_word_frac_r": pa.array(np.round(top_frac, 6)),
                "flagged": pa.array((dup_frac > dup_thresh).astype(np.int64)),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def source_stats(
    ds: Dataset,
    blocklist: set[str] | frozenset[str] = frozenset(),
    source_col: str = "source",
    chars_col: str = "n_chars",
) -> Dataset:
    """Per-source corpus stats after dropping blocklisted sources — the
    domain-level filter every crawl pipeline runs (C4/RefinedWeb drop
    whole hosts). The blocklist is a small broadcast set applied inside
    map_batches (no shuffle); the per-source rollup pre-aggregates per
    batch so the bucketed sum moves one row per (batch, source)."""
    blocked = frozenset(blocklist)

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(t[source_col], value_set=pa.array(sorted(blocked), type=pa.string()))) if blocked else None
        if mask is not None:
            t = t.filter(mask)
        # count_all, not count(source): counting the group key itself
        # reports 0 docs for a null-source group whose sum_chars is real
        tt = t.group_by(source_col).aggregate(
            [([], "count_all"), (chars_col, "sum")]
        )
        return pa.table(
            {
                source_col: tt[source_col],
                "n_docs": tt["count_all"].cast(pa.int64()),
                "sum_chars": tt[f"{chars_col}_sum"].cast(pa.int64()),
            }
        )

    return bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow"), [source_col], ["n_docs", "sum_chars"]
    )


def length_histogram(
    ds: Dataset,
    edges: tuple[int, ...] = (50, 100, 150, 200, 300, 500, 1000),
    chars_col: str = "n_chars",
) -> Dataset:
    """Exact doc-length histogram over fixed bucket edges: bucket i holds
    lengths in [edges[i-1], edges[i]).  Per-batch bincount partials, then
    a bucketed sum — the whole corpus collapses to len(edges)+1 rows
    before anything shuffles."""
    e = np.asarray(edges, dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        x = t[chars_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.searchsorted(e, x, side="right")
        cnt = np.bincount(b, minlength=len(e) + 1)
        return pa.table(
            {
                "bucket": pa.array(np.arange(len(e) + 1, dtype=np.int64)),
                "n_docs": pa.array(cnt.astype(np.int64)),
            }
        )

    # partials emit every bucket per batch (bincount), so empty buckets
    # appear as zero rows — drop them to match a GROUP BY over the data
    return bucketed_sum(
        ds.map_batches(partial, batch_format="pyarrow"), ["bucket"], ["n_docs"]
    ).map_batches(lambda t: t.filter(pc.greater(t["n_docs"], 0)), batch_format="pyarrow")


def bigram_counts(
    ds: Dataset, k: int = 100, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Global top-k bigrams with counts (the n-gram statistics step of a
    corpus-analysis pipeline). Bigrams form by pairing each flat token
    with its successor, masking pairs that cross document boundaries;
    per-batch np.unique partials shrink the shuffle to distinct bigrams
    per batch before the bucketed sum. Ties at the boundary break by
    bigram text ascending, so the result is deterministic."""

    def partial(t: pa.Table) -> pa.Table:
        flat, offsets = split_ws_flat(t[text_col], lower=True)
        n_words = np.diff(offsets)
        if len(flat) > 1:
            docidx = np.repeat(np.arange(len(n_words), dtype=np.int64), n_words)
            same = docidx[1:] == docidx[:-1]
            u = flat.astype("U")
            bg = np.char.add(np.char.add(u[:-1][same], " "), u[1:][same])
            vals, cnts = np.unique(bg, return_counts=True)
        else:
            vals = np.zeros(0, dtype="U1")
            cnts = np.zeros(0, dtype=np.int64)
        return pa.table(
            {
                "bigram": pa.array(vals.astype(object), type=pa.string()),
                "n": pa.array(cnts.astype(np.int64)),
            }
        )

    # After the bucketed sum every bigram appears exactly once globally,
    # so topk's per-block prune preserves every global winner and the
    # final sort sees (#blocks x k) rows, not the corpus-sized distinct
    # table.
    counts = bucketed_sum(ds.map_batches(partial, batch_format="pyarrow"), ["bigram"], ["n"])
    return topk(counts, ["n", "bigram"], descending=[True, False], k=k)


def char_quantiles(
    ds: Dataset,
    qs: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
    chars_col: str = "n_chars",
) -> Dataset:
    """EXACT discrete quantiles of a bounded-integer column, computed
    distributed: per-batch value counts (the corpus collapses to its
    distinct values before anything moves), a bucketed sum over values,
    then one tiny driver pass over the sorted (value, count) frame to
    read off the quantiles. Works at any corpus size whose DISTINCT
    value count is small (lengths, scores, years — the usual stats
    targets); for unbounded domains use a sketch instead.

    The q-quantile is the value at 1-based rank ceil(q*n) of the sorted
    column, computed in exact integer arithmetic over q_milli = 1000*q
    (float q*n rounds the wrong way at exactly-divisible ranks:
    0.1 * 5000 = 500.0000000000001)."""
    qs = tuple(qs)

    def partial(t: pa.Table) -> pa.Table:
        x = t[chars_col].to_numpy(zero_copy_only=False).astype(np.int64)
        vals, cnts = np.unique(x, return_counts=True)
        return pa.table(
            {"value": pa.array(vals), "cnt": pa.array(cnts.astype(np.int64))}
        )

    agg = bucketed_sum(ds.map_batches(partial, batch_format="pyarrow"), ["value"], ["cnt"])
    # the aggregated frame is len(distinct values) — tiny by assumption
    df = agg.to_pandas().sort_values("value").reset_index(drop=True)
    vals = df["value"].to_numpy(dtype=np.int64)
    cum = df["cnt"].to_numpy(dtype=np.int64).cumsum()
    n = int(cum[-1]) if len(cum) else 0
    q_milli = np.round(np.asarray(qs, dtype=np.float64) * 1000).astype(np.int64)
    if n:
        ranks = ((q_milli * n + 999) // 1000).clip(1, n)
        picked = vals[np.searchsorted(cum, ranks, side="left")]
    else:
        picked = np.zeros(len(q_milli), dtype=np.int64)
    import ray.data as rd

    return rd.from_arrow(
        pa.table({"q_milli": pa.array(q_milli), "value": pa.array(picked)})
    )


def doc_chunks(
    ds: Dataset,
    chunk_tokens: int = 32,
    overlap: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Context-window chunking: split each doc into overlapping
    fixed-size token windows (the standard pretraining-corpus step that
    turns long documents into model-sized sequences). Chunk i covers
    tokens [i*stride, i*stride + chunk_tokens) with stride =
    chunk_tokens - overlap; the last chunk is the remainder; empty docs
    emit no chunks. 1-to-n row fan-out inside one map_batches — no
    shuffle, no Python loop: the window expansion is numpy index
    arithmetic and the chunk text is rebuilt with ONE Arrow take +
    binary_join over the flat token values."""
    if not 0 <= overlap < chunk_tokens:
        raise ValueError("need 0 <= overlap < chunk_tokens")
    stride = chunk_tokens - overlap

    def body(t: pa.Table) -> pa.Table:
        from hgcn_name_disambiguation_ray.stages.dedup import _grouped_arange

        col = _fill(t[text_col])
        parts = pc.split_pattern_regex(pc.fill_null(col, ""), pattern=r"\s+")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        off = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = parts.values
        # drop empty tokens (leading/trailing whitespace runs); after the
        # filter, the kept element at raw position j sits at cum[j], so
        # cum[off] — NOT rebased by cum[off[0]] — are the row offsets into
        # the filtered child even when the list array starts mid-buffer
        vlen = pc.binary_length(vals).to_numpy(zero_copy_only=False)
        keep = vlen > 0
        cum = np.zeros(len(vals) + 1, dtype=np.int64)
        np.cumsum(keep, out=cum[1:])
        vals = vals.filter(pa.array(keep))
        off = cum[off]

        L = np.diff(off)
        n_chunks = np.where(
            L == 0,
            0,
            np.where(L <= chunk_tokens, 1, (L - chunk_tokens + stride - 1) // stride + 1),
        ).astype(np.int64)
        total = int(n_chunks.sum())
        if total == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=t[id_col].type),
                    "chunk_id": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "chunk_text": pa.array([], type=pa.string()),
                }
            )
        doc_idx = np.repeat(np.arange(len(L), dtype=np.int64), n_chunks)
        chunk_ord = _grouped_arange(n_chunks)
        start = chunk_ord * stride
        clen = np.minimum(chunk_tokens, L[doc_idx] - start)
        gather = np.repeat(off[:-1][doc_idx] + start, clen) + _grouped_arange(clen)
        new_off = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(clen, out=new_off[1:])
        # int64 offsets (LargeListArray): an int32 cast would silently wrap
        # if one batch's total chunk-token count exceeded 2^31
        chunk_lists = pa.LargeListArray.from_arrays(
            pa.array(new_off), vals.take(pa.array(gather))
        )
        return pa.table(
            {
                id_col: t[id_col].take(pa.array(doc_idx)),
                "chunk_id": pa.array(chunk_ord, type=pa.int64()),
                "n_tokens": pa.array(clen, type=pa.int64()),
                "chunk_text": pc.binary_join(chunk_lists, " "),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def token_freq_score(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Mean corpus-frequency of a doc's tokens — the cheap stand-in for
    LM-perplexity quality filtering (docs dominated by rare/garbage
    tokens score low; boilerplate scores high). INTEGER-exact on purpose:
    score_milli = floor(1000 * Σ_w count(w) / n_tokens), all int64, so
    the result is bit-identical to the SQL oracle with no float
    summation-order hazard. (Overflow bound: Σ tf·count stays < 2^63 for
    any corpus under ~10^9 total tokens per doc·10^9 occurrences; at
    trillion-token scale switch the partial sums to two-limb integers.)

    Composition of the engine's own operators: per-batch (doc, token, tf)
    partials -> corpus occurrence counts via `vocabulary` -> size-probed
    `auto_join` on the token key -> bucketed per-doc integer sums."""

    pairs = ds.map_batches(_tf_pairs(text_col, id_col), batch_format="pyarrow")
    occ = vocabulary(ds, text_col=text_col).map_batches(
        lambda t: pa.table(
            {"token": t["token"], "c": t["n_occurrences"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    joined = auto_join(pairs, occ, on=["token"])

    def weigh(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "s": pa.array(tf * c),
                "n_tokens": pa.array(tf),
            }
        )

    sums = bucketed_sum(
        joined.map_batches(weigh, batch_format="pyarrow"), [id_col], ["s", "n_tokens"]
    )

    def score(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "n_tokens": pa.array(n),
                "freq_score_milli": pa.array(1000 * s // n),
            }
        )

    return sums.map_batches(score, batch_format="pyarrow")


# Gopher quality-rule stopword list (Rae et al. 2021, "Scaling Language
# Models: ... Gopher", appendix A1.1 — the 8-word "stop word" presence rule)
_GOPHER_STOPS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Gopher-style document quality rules as integer-exact flags:
    (id, n_words, flag_word_count, flag_word_len, flag_alpha, flag_stop,
    gopher_pass).

      * flag_word_count — 50 <= n_words <= 100,000
      * flag_word_len   — mean word length in [3, 10], tested as the
                          integer cross-multiplication
                          3*n_words <= sum_word_lens <= 10*n_words
      * flag_alpha      — >= 80% of words contain an alphabetic char
                          (5*n_alpha_words >= 4*n_words)
      * flag_stop       — >= 2 DISTINCT words from the 8-word Gopher
                          stop list appear in the doc
      * gopher_pass     — all of the above

    Every flag is an integer comparison over integer counts (no float
    ratios), so the DuckDB oracle reproduces it bit-exactly. Fully
    vectorized: one whitespace split per batch, segmented sums over the
    flat token array, one Arrow regex pass for the alpha test."""

    def body(t: pa.Table) -> pa.Table:
        col = _fill(t[text_col])
        flat, offsets = split_ws_flat(col)
        lens = _token_lens(flat)
        n_words = _seg_sum(np.ones(len(flat), dtype=np.int64), offsets)
        sum_lens = _seg_sum(lens, offsets)
        if len(flat):
            flat_arr = pa.array(flat, type=pa.large_string())
            is_alpha = (
                pc.match_substring_regex(flat_arr, "[A-Za-z]")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
        else:
            is_alpha = np.zeros(0, dtype=np.int64)
        n_alpha = _seg_sum(is_alpha, offsets)
        n_stop_kinds = np.zeros(len(n_words), dtype=np.int64)
        for w in _GOPHER_STOPS:
            hit = (flat == w).astype(np.int64) if len(flat) else np.zeros(0, np.int64)
            n_stop_kinds += (_seg_sum(hit, offsets) > 0).astype(np.int64)

        flag_word_count = ((n_words >= 50) & (n_words <= 100_000)).astype(np.int64)
        flag_word_len = (
            (n_words > 0) & (3 * n_words <= sum_lens) & (sum_lens <= 10 * n_words)
        ).astype(np.int64)
        flag_alpha = ((n_words > 0) & (5 * n_alpha >= 4 * n_words)).astype(np.int64)
        flag_stop = (n_stop_kinds >= 2).astype(np.int64)
        gopher_pass = flag_word_count * flag_word_len * flag_alpha * flag_stop
        return pa.table(
            {
                id_col: t[id_col],
                "n_words": pa.array(n_words),
                "flag_word_count": pa.array(flag_word_count),
                "flag_word_len": pa.array(flag_word_len),
                "flag_alpha": pa.array(flag_alpha),
                "flag_stop": pa.array(flag_stop),
                "gopher_pass": pa.array(gopher_pass),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")
