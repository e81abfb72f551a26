"""Deduplication operators over a document Dataset.

Exact and near-duplicate detection are first-class operators of the
engine (the 100 TB training-data-pipeline companion to the linkage
core; the reference's only dedup is the by-id `unique_works` dict,
`openAlex_to_HGCN.py:233-241`, SURVEY.md D1):

  * exact_dedup      — content hash -> hash-partitioned keep-min-id
  * minhash_lsh_dedup— word-shingle MinHash -> banded LSH buckets ->
                       candidate pairs -> signature-estimated Jaccard
                       verify -> transitive closure -> canonical ids
  * ngram_jaccard_dedup — same candidate generation, EXACT n-gram
                       Jaccard verify over per-doc shingle-hash sets
  * simhash_dedup    — 64-bit SimHash, banded into 4x16-bit tables,
                       Hamming-distance verify, closure
  * embedding_cosine_dedup — random-hyperplane LSH over an embedding
                       column, exact-cosine verify, closure

Everything streams. NOTHING here materializes an unbounded set on the
driver: at web scale 30-50 % of the corpus is duplicated, so candidate
pairs / signatures / vectors are NOT small relative to the input.

  * minhash / ngram verify = two distributed hash joins (candidates
    ⋈ features on u, then on v) + a vectorized per-batch check. The
    feature payload (128-perm signature / shingle-hash set) is too wide
    to replicate into every band row, so the join ships it exactly once
    per referenced vertex.
  * simhash / embedding verify runs INSIDE the candidate-pair bucket:
    the (narrow) fingerprint / vector rides along with the band rows, so
    pair expansion and verification happen in the same partition with
    zero additional shuffles.

All signatures are computed vectorized per batch (flat token arrays +
segmented numpy minima); shingle hashes are a mix-chain over consecutive
token hashes — no per-row Python loops and no string re-joins. Canonical
id = min doc id of the duplicate component (deterministic).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from hgcn_name_disambiguation_ray.functions.hashing import (
    band_keys,
    content_hash128,
    hamming_distance64,
    minhash_signatures_flat,
    perm_params,
    simhash_flat,
)
from hgcn_name_disambiguation_ray.stages.closure import connected_components
from hgcn_name_disambiguation_ray.stages.similarity import _as_matrix
from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_group_apply, hash_join

_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHINGLE_SEED = np.uint64(0x51_7C_C1_B7)


def exact_dedup(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """One row per distinct text: (keep_id = min id, n_copies).

    Equality is decided by a 128-bit blake2b content hash carried as two
    uint64 columns (64 bits birthday-collides at ~2^32 docs — guaranteed
    at the 10^12-doc design scale; 128 bits puts the first collision at
    ~2^64, see `content_hash128`). Content hashes are high-cardinality
    (~one group per distinct doc), so the merge runs through the
    bucketed-groupby pattern — vectorized pandas aggregation per bucket,
    never a Ray dispatch per group."""

    def hash_batch(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        # null text hashes as "" (consistent with the near-dup tokenizers'
        # fill_null) — NOT str(None), which would merge null-text docs
        # with docs whose literal text is 'None'
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        texts = np.asarray(_pc.fill_null(col, "").to_pandas(), dtype=object)
        hi, lo = content_hash128(texts)
        return pa.table(
            {
                id_col: t[id_col],
                "h_hi": pa.array(hi, type=pa.uint64()),
                "h_lo": pa.array(lo, type=pa.uint64()),
            }
        )

    def partial(t: pa.Table) -> pa.Table:
        # per-batch combine: (hash, min_id, count) — shrinks the shuffle
        g = t.group_by(["h_hi", "h_lo"]).aggregate([(id_col, "min"), (id_col, "count")])
        # rename BY NAME: pyarrow's aggregate column order (keys first vs
        # last) is version-dependent; a positional rename silently
        # mislabels the hash halves as keep_id on other releases
        ren = {f"{id_col}_min": "keep_id", f"{id_col}_count": "n_copies"}
        return g.rename_columns([ren.get(c, c) for c in g.column_names])

    hashed = ds.map_batches(hash_batch, batch_format="pyarrow")
    partials = hashed.map_batches(partial, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["h_hi", "h_lo"], as_index=False, sort=False).agg(
            keep_id=("keep_id", "min"), n_copies=("n_copies", "sum")
        )

    merged = bucketed_group_apply(partials, ["h_hi", "h_lo"], merge, n_buckets=64)
    return merged.select_columns(["keep_id", "n_copies"])


def exact_dedup_corpus(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """The deduped CORPUS itself: the min-id representative row of every
    distinct text survives, all other copies drop. The keep-set is
    O(distinct docs) — never broadcastable at web scale — so survivors
    are selected with a distributed LEFT SEMI join against it."""
    keep = exact_dedup(ds, text_col, id_col).map_batches(
        lambda t: pa.table({id_col: t["keep_id"]}), batch_format="pyarrow"
    )
    return hash_join(ds, keep, on=[id_col], how="semi")


# --------------------------------------------------------------------------
# vectorized shingle construction
# --------------------------------------------------------------------------

def _grouped_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated — the classic segmented arange."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _token_hashes_flat(texts: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Lowercased whitespace tokens -> (flat uint64 hashes, offsets).

    Arrow-native end to end: split via Arrow kernel, hash straight off
    the values buffers — tokens never materialize as Python objects."""
    from hgcn_name_disambiguation_ray.functions.text import split_ws_hashed

    return split_ws_hashed(texts, lower=True)


def _shingle_hashes_flat(
    th: np.ndarray, offsets: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n-token shingle hashes per doc (mix-chain over consecutive token
    hashes). Docs with 0 < len < n contribute one whole-doc shingle;
    empty docs contribute none. Fully vectorized."""
    L = np.diff(offsets)
    n_sh = np.where(L >= n, L - n + 1, (L > 0).astype(np.int64))
    sh_offsets = np.zeros(len(L) + 1, dtype=np.int64)
    np.cumsum(n_sh, out=sh_offsets[1:])
    out = np.zeros(int(sh_offsets[-1]), dtype=np.uint64)
    if len(out) == 0:
        return out, sh_offsets

    full = L >= n
    if full.any():
        cnt = (L - n + 1)[full]
        starts = np.repeat(offsets[:-1][full], cnt) + _grouped_arange(cnt)
        h = np.full(len(starts), _SHINGLE_SEED, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(n):
                h = (h * _MIX) ^ th[starts + j]
        out_pos = np.repeat(sh_offsets[:-1][full], cnt) + _grouped_arange(cnt)
        out[out_pos] = h

    short = (L > 0) & (L < n)
    if short.any():
        for ln in range(1, n):
            m = short & (L == ln)
            if not m.any():
                continue
            b = offsets[:-1][m]
            h = np.full(int(m.sum()), _SHINGLE_SEED, dtype=np.uint64)
            with np.errstate(over="ignore"):
                for j in range(ln):
                    h = (h * _MIX) ^ th[b + j]
            out[sh_offsets[:-1][m]] = h
    return out, sh_offsets


def _unique_per_doc(vals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique values per doc segment (set semantics), vectorized."""
    n_docs = len(offsets) - 1
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))
    order = np.lexsort((vals, doc))
    sv, sd = vals[order], doc[order]
    new = np.r_[True, (sd[1:] != sd[:-1]) | (sv[1:] != sv[:-1])] if len(sv) else np.zeros(0, bool)
    uv, ud = sv[new], sd[new]
    counts = np.bincount(ud, minlength=n_docs)
    uoff = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=uoff[1:])
    return uv, uoff


def _bin_from_u64(vals: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """uint64 segments -> one large_binary row per segment (8 B/value).

    Arrow's hash join rejects list-typed non-key fields, so per-doc
    signature / shingle-set payloads travel as binary blobs; both encode
    and decode are numpy buffer views, no per-row Python."""
    data = pa.py_buffer(np.ascontiguousarray(vals, dtype=np.uint64).tobytes())
    offs = pa.py_buffer((offsets.astype(np.int64) * 8).tobytes())
    return pa.Array.from_buffers(pa.large_binary(), len(offsets) - 1, [None, offs, data])


def _u64_from_bin(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """large_binary column -> (flat uint64 values, row offsets)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        raise ValueError("binary feature column must be non-null")
    offs_all = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    offs = offs_all[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint64)
    vals = data[offs[0] // 8 : offs[-1] // 8]
    return vals, (offs - offs[0]) // 8


class _SignatureStage:
    """Per-batch MinHash signatures over word-shingle hashes of `text_col`.

    With `with_sets=True` also emits the sorted-unique shingle-hash set
    per doc (for exact-Jaccard verification)."""

    def __init__(self, text_col: str, id_col: str, num_perms: int,
                 shingle_n: int, seed: int, with_sets: bool = False):
        self.text_col = text_col
        self.id_col = id_col
        self.shingle_n = shingle_n
        self.with_sets = with_sets
        self.a, self.b = perm_params(num_perms, seed)

    def __call__(self, t: pa.Table) -> pa.Table:
        th, toff = _token_hashes_flat(t[self.text_col])
        sh, soff = _shingle_hashes_flat(th, toff, self.shingle_n)
        sigs = minhash_signatures_flat(sh, soff, self.a, self.b)
        k = len(self.a)
        n = t.num_rows
        cols = {
            "doc_id": t[self.id_col],
            "signature": _bin_from_u64(
                sigs.reshape(-1), np.arange(0, (n + 1) * k, k, dtype=np.int64)
            ),
        }
        if self.with_sets:
            uv, uoff = _unique_per_doc(sh, soff)
            cols["shingles"] = _bin_from_u64(uv, uoff)
        return pa.table(cols)


def _explode_bands(n_bands: int):
    """(doc_id, signature) -> (doc_id, band, bucket) band rows."""

    def body(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=t["doc_id"].type),
                    "band": pa.array([], type=pa.int32()),
                    "bucket": pa.array([], type=pa.uint64()),
                }
            )
        vals, _ = _u64_from_bin(t["signature"])
        sigs = vals.reshape(n, -1)
        bands = band_keys(sigs, n_bands)
        return pa.table(
            {
                "doc_id": t["doc_id"].take(pa.array(np.repeat(np.arange(n), n_bands))),
                "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n)),
                "bucket": pa.array(bands.reshape(-1), type=pa.uint64()),
            }
        )

    return body


# --------------------------------------------------------------------------
# candidate-pair generation (bucketed; optional feature carry + in-bucket
# verification for ops with narrow per-doc features)
# --------------------------------------------------------------------------

def _segmented_pair_indices(
    sizes: np.ndarray, max_bucket: int
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute (row_u, row_v) positions into a concatenated, per-group-
    sorted member array for contiguous groups of the given sizes: the
    full triangle for groups with <= max_bucket members, star + chain
    (2m-3 edges, see the note below) for larger ones. Fully segmented —
    no Python loop over groups, so a partition holding millions of small
    collision groups costs numpy time, not interpreter time."""
    sizes = sizes.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    small = sizes <= max_bucket
    out_u: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    m = sizes[small]
    if m.size:
        # row-major triangle: pair ordinal q in [0, m(m-1)/2) decodes to
        # (i, j) via the largest i with S(i) = i*(2m-i-1)/2 <= q; the
        # float sqrt is off by at most one, fixed by the two guards
        g0 = starts[small]
        c = m * (m - 1) // 2
        coff = np.concatenate([[0], np.cumsum(c)])
        gidx = np.repeat(np.arange(m.size), c)
        q = np.arange(coff[-1], dtype=np.int64) - coff[gidx]
        mm = m[gidx]
        tm = 2 * mm - 1
        i = np.floor((tm - np.sqrt(tm.astype(np.float64) ** 2 - 8.0 * q)) / 2).astype(np.int64)
        np.clip(i, 0, np.maximum(mm - 2, 0), out=i)
        S = i * (2 * mm - i - 1) // 2
        over = S > q
        i[over] -= 1
        S[over] = i[over] * (2 * mm[over] - i[over] - 1) // 2
        under = S + (mm - 1 - i) <= q
        S[under] += mm[under] - 1 - i[under]
        i[under] += 1
        j = q - S + i + 1
        out_u.append(g0[gidx] + i)
        out_v.append(g0[gidx] + j)
    M = sizes[~small]
    if M.size:
        # star edges (min member -> rest) PLUS a chain over the sorted
        # members: for VERIFIED ops a failed star edge would otherwise
        # sever members from duplicates they genuinely match (the star
        # center may be the one non-duplicate in the bucket); with the
        # chain, any single outlier only drops its own links while the
        # rest stay connected. 2m-3 edges instead of m(m-1)/2.
        G0 = starts[~small]
        gi = np.repeat(np.arange(M.size), M - 1)
        off = np.concatenate([[0], np.cumsum(M - 1)])
        k = np.arange(off[-1], dtype=np.int64) - off[gi]
        out_u.append(G0[gi])
        out_v.append(G0[gi] + k + 1)
        gi2 = np.repeat(np.arange(M.size), M - 2)
        off2 = np.concatenate([[0], np.cumsum(M - 2)])
        k2 = np.arange(off2[-1], dtype=np.int64) - off2[gi2]
        out_u.append(G0[gi2] + k2 + 1)
        out_v.append(G0[gi2] + k2 + 2)
    if not out_u:
        z = np.array([], dtype=np.int64)
        return z, z
    return np.concatenate(out_u), np.concatenate(out_v)


def _multi_member_sorted(df: pd.DataFrame) -> tuple[pd.DataFrame, np.ndarray]:
    """Distinct (band, bucket, doc_id) rows of the >=2-member collision
    groups, sorted by (band, bucket, doc_id), plus per-group sizes."""
    df = df.drop_duplicates(["band", "bucket", "doc_id"])
    df = df[df.duplicated(["band", "bucket"], keep=False)]
    if df.empty:
        return df, np.array([], dtype=np.int64)
    df = df.sort_values(["band", "bucket", "doc_id"], ignore_index=True)
    b = df["band"].to_numpy()
    k = df["bucket"].to_numpy()
    new = np.empty(len(df), dtype=bool)
    new[0] = True
    new[1:] = (b[1:] != b[:-1]) | (k[1:] != k[:-1])
    sizes = np.diff(np.append(np.flatnonzero(new), len(df)))
    return df, sizes


def _pairs_in_bucket_groups(df: pd.DataFrame, max_bucket: int) -> pd.DataFrame:
    """Pair expansion for one bucket partition, fully segmented (one
    sort + numpy ordinal decode across ALL collision groups at once;
    singleton buckets — the vast majority — are dropped in one mask)."""
    df, sizes = _multi_member_sorted(df)
    if df.empty:
        return pd.DataFrame({"u": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)})
    iu, iv = _segmented_pair_indices(sizes, max_bucket)
    ids = df["doc_id"].to_numpy()
    return pd.DataFrame({"u": ids[iu], "v": ids[iv]})


def _candidate_pairs(band_rows: Dataset, max_bucket: int = 200) -> Dataset:
    """(band, bucket) collision groups -> GLOBALLY distinct candidate
    pairs (u, v), u < v.

    Bucket ids are high-cardinality (~#docs x bands groups), so grouping
    runs through the bucketed pattern: shuffle by hash(band,bucket) %
    n_buckets, expand pairs vectorized inside each partition. A true
    duplicate pair collides in MOST of its 32 bands, so without the final
    distinct pass the verify joins would process each real pair ~32x
    (measured 1.06M candidate rows for 42k true pairs); one cheap
    (u,v)-keyed shuffle removes the redundancy before the expensive
    feature joins."""
    pairs = bucketed_group_apply(
        band_rows,
        ["band", "bucket"],
        lambda df: _pairs_in_bucket_groups(df, max_bucket).drop_duplicates(["u", "v"]),
        n_buckets=64,
    )
    return bucketed_group_apply(
        pairs, ["u", "v"], lambda df: df.drop_duplicates(["u", "v"]), n_buckets=64
    )


def _candidate_pairs_verified(
    band_rows: Dataset,
    feat_col: str,
    verify: Callable[[pd.DataFrame], pd.DataFrame],
    max_bucket: int = 200,
    n_buckets: int = 64,
) -> Dataset:
    """Pair expansion WITH the per-doc feature carried into the bucket, so
    verification runs vectorized in the same partition (no second shuffle,
    no driver materialization). `verify` maps a DataFrame(u, v, feat_u,
    feat_v) to the surviving DataFrame(u, v).

    Use only for NARROW features (a uint64 fingerprint, one embedding):
    the feature is replicated once per band row."""

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"u": pd.Series(dtype=df["doc_id"].dtype),
                              "v": pd.Series(dtype=df["doc_id"].dtype)})
        df, sizes = _multi_member_sorted(df)
        if df.empty:
            return empty
        iu, iv = _segmented_pair_indices(sizes, max_bucket)
        ids = df["doc_id"].to_numpy()
        feats = df[feat_col].to_numpy()
        pairs = pd.DataFrame(
            {"u": ids[iu], "v": ids[iv], "feat_u": feats[iu], "feat_v": feats[iv]}
        ).drop_duplicates(["u", "v"])
        if pairs.empty:
            return empty
        kept = verify(pairs)
        return kept if len(kept) else empty

    return bucketed_group_apply(band_rows, ["band", "bucket"], per_bucket, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# distributed feature attach + verify (wide features: signatures, sets)
# --------------------------------------------------------------------------

def _verify_pairs_by_join(
    cand: Dataset,
    feats: Dataset,
    feat_col: str,
    verify_batch: Callable[[pa.Table], pa.Table],
    num_partitions: int | None = None,
) -> Dataset:
    """Attach per-vertex features to candidate pairs with two distributed
    hash joins (on u, then on v) and run a vectorized verify per batch.

    This is the scale path: candidate pairs at web scale are O(corpus), so
    neither the pairs nor the feature map may be pulled to the driver or
    broadcast whole. The inner joins also restrict the feature shuffle to
    candidate vertices — non-colliding docs never ship their features.

    Partition count is sized from the actual bytes moved (~256 MB per
    partition, floored at 2, capped at 4x cluster CPUs): each hash-join
    partition costs a fixed aggregator-actor overhead (~1.5 s measured),
    so small candidate sets must not fan out to #CPU partitions."""
    if num_partitions is None:
        import ray

        cand = cand.materialize()
        total = (cand.size_bytes() or 0) + (feats.size_bytes() or 0)
        cap = max(8, 4 * int(ray.cluster_resources().get("CPU", 8)))
        num_partitions = int(max(2, min(cap, total // (256 << 20) + 1)))
    fu = feats.map_batches(
        lambda t: pa.table({"u": t["doc_id"], f"{feat_col}_u": t[feat_col]}),
        batch_format="pyarrow",
    )
    fv = feats.map_batches(
        lambda t: pa.table({"v": t["doc_id"], f"{feat_col}_v": t[feat_col]}),
        batch_format="pyarrow",
    )
    j = hash_join(cand, fu, on=["u"], num_partitions=num_partitions)
    j = hash_join(j, fv, on=["v"], num_partitions=num_partitions)
    return j.map_batches(verify_batch, batch_format="pyarrow")


def _empty_edges(id_type: pa.DataType) -> pa.Table:
    return pa.table({"u": pa.array([], type=id_type), "v": pa.array([], type=id_type)})


def _finalize_components(verified: Dataset) -> Dataset:
    comps = connected_components(verified)
    return comps.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["mention_id"], "canonical_id": df["component"]}),
        batch_format="pandas",
    )


def _require_lineage(checkpoint_dir: str | None, input_lineage: str) -> None:
    if checkpoint_dir is not None and not input_lineage:
        raise ValueError(
            "checkpoint_dir needs a non-empty input_lineage identifying the "
            "input (e.g. its parquet path): without one a different corpus "
            "would be served a stale checkpoint"
        )


def minhash_lsh_dedup(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    num_perms: int = 128,
    bands: int = 32,
    shingle_n: int = 3,
    seed: int = 7,
    checkpoint_dir: str | None = None,
    input_lineage: str = "",
) -> Dataset:
    """Near-dup groups: (doc_id, canonical_id). Jaccard estimated from
    MinHash signatures (fraction of equal components) >= threshold.

    Signatures are wide (num_perms x uint64), so verification attaches
    them to candidate pairs via two bucketed hash joins — never a driver
    pull or whole-map broadcast (`_verify_pairs_by_join`).

    `checkpoint_dir` (with `input_lineage` identifying the input, e.g.
    its parquet path) checkpoints the signature stage — the expensive
    full-text pass — under the same lineage-manifest contract as the
    linkage pipeline (`sources/checkpoint.py`): a killed run resumes by
    reading signatures back instead of re-shingling the corpus."""
    _require_lineage(checkpoint_dir, input_lineage)
    sig_stage = _SignatureStage(text_col, id_col, num_perms, shingle_n, seed)

    def make_sigs() -> Dataset:
        return ds.map_batches(sig_stage, batch_format="pyarrow")

    if checkpoint_dir is not None:
        import os

        from hgcn_name_disambiguation_ray.sources.checkpoint import (
            checkpoint_stage,
            fingerprint,
        )

        sigs_ds = checkpoint_stage(
            make_sigs,
            os.path.join(checkpoint_dir, "minhash_signatures"),
            lineage=fingerprint(
                "minhash_sigs_v1", input_lineage, text_col, id_col, num_perms,
                shingle_n, seed,
            ),
        ).materialize()
    else:
        sigs_ds = make_sigs().materialize()
    band_rows = sigs_ds.select_columns(["doc_id", "signature"]).map_batches(
        _explode_bands(bands), batch_format="pyarrow"
    )
    cand = _candidate_pairs(band_rows)

    def verify(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _empty_edges(t["u"].type)
        su, _ = _u64_from_bin(t["signature_u"])
        sv, _ = _u64_from_bin(t["signature_v"])
        eq = (su.reshape(n, -1) == sv.reshape(n, -1)).mean(axis=1)
        return t.select(["u", "v"]).filter(pa.array(eq >= threshold))

    verified = _verify_pairs_by_join(cand, sigs_ds, "signature", verify)
    return _finalize_components(verified)


def ngram_jaccard_dedup(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    shingle_n: int = 3,
    seed: int = 7,
) -> Dataset:
    """Like minhash_lsh_dedup but with EXACT n-gram Jaccard verification
    over per-doc sorted shingle-hash sets. Candidate pairs from LSH; the
    (variable-width) sets are attached by distributed hash join and the
    intersection is computed by a segmented sort — vectorized, exact
    (up to 64-bit shingle-hash collisions), no driver materialization."""
    sig_stage = _SignatureStage(text_col, id_col, 128, shingle_n, seed, with_sets=True)
    feats = ds.map_batches(sig_stage, batch_format="pyarrow").materialize()
    band_rows = feats.select_columns(["doc_id", "signature"]).map_batches(
        _explode_bands(32), batch_format="pyarrow"
    )
    cand = _candidate_pairs(band_rows)

    def verify(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _empty_edges(t["u"].type)
        vu, ou = _u64_from_bin(t["shingles_u"])
        vv, ov = _u64_from_bin(t["shingles_v"])
        lu, lv = np.diff(ou), np.diff(ov)
        vals = np.concatenate([vu, vv])
        rows = np.concatenate(
            [np.repeat(np.arange(n, dtype=np.int64), lu), np.repeat(np.arange(n, dtype=np.int64), lv)]
        )
        # each side is a set, so a common value appears exactly twice ->
        # intersection size = adjacent-duplicate count after a stable sort
        order = np.lexsort((vals, rows))
        sv_, sr_ = vals[order], rows[order]
        dup = (sr_[1:] == sr_[:-1]) & (sv_[1:] == sv_[:-1]) if len(sv_) else np.zeros(0, bool)
        inter = np.bincount(sr_[1:][dup], minlength=n)
        union = lu + lv - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = (lu > 0) & (lv > 0) & (jac >= threshold)
        return t.select(["u", "v"]).filter(pa.array(keep))

    verified = _verify_pairs_by_join(cand, feats.select_columns(["doc_id", "shingles"]),
                                     "shingles", verify)
    return _finalize_components(verified)


def simhash_dedup(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> Dataset:
    """SimHash near-dup: 64-bit fingerprints, 4x16-bit band tables (any
    pair within Hamming distance <= 3 collides in at least one band),
    Hamming verify IN the candidate bucket (the fingerprint is 8 bytes,
    cheap to carry with the band rows), closure -> (doc_id, canonical_id)."""

    def fingerprints(t: pa.Table) -> pa.Table:
        th, toff = _token_hashes_flat(t[text_col])
        fps = simhash_flat(th, toff)
        return pa.table(
            {
                "doc_id": t[id_col],
                "fingerprint": pa.array(fps, type=pa.uint64()),
            }
        )

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        fps = np.asarray(t["fingerprint"].to_pandas(), dtype=np.uint64)
        ids = t["doc_id"].take(pa.array(np.tile(np.arange(n), 4)))
        bands = np.repeat(np.arange(4, dtype=np.int32), n)
        shifts = np.repeat(np.arange(4, dtype=np.uint64) * np.uint64(16), n)
        keys = (np.tile(fps, 4) >> shifts) & np.uint64(0xFFFF)
        return pa.table(
            {
                "doc_id": ids,
                "band": pa.array(bands, type=pa.int32()),
                "bucket": pa.array(keys, type=pa.uint64()),
                "fingerprint": pa.array(np.tile(fps, 4), type=pa.uint64()),
            }
        )

    fp_ds = ds.map_batches(fingerprints, batch_format="pyarrow")
    band_rows = fp_ds.map_batches(explode, batch_format="pyarrow")

    def verify(pairs: pd.DataFrame) -> pd.DataFrame:
        fu = pairs["feat_u"].to_numpy().astype(np.uint64)
        fv = pairs["feat_v"].to_numpy().astype(np.uint64)
        keep = hamming_distance64(fu, fv) <= max_hamming
        return pairs.loc[keep, ["u", "v"]]

    verified = _candidate_pairs_verified(band_rows, "fingerprint", verify)
    return _finalize_components(verified)


def embedding_cosine_dedup(
    ds: Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_bands: int = 16,
    planes_per_band: int = 12,
    seed: int = 11,
) -> Dataset:
    """Near-dup by embedding cosine: random-hyperplane LSH -> candidate
    pairs -> exact cosine verify via distributed feature joins -> closure.

    Recall math (the r2 defect this replaces): a single hyperplane
    agrees on a pair at angle θ with p = 1 - θ/π; a band of b planes
    collides with p^b; B bands miss with (1-p^b)^B. The old 2-band x
    8-plane layout missed a genuine θ≈18° (cos 0.95) near-dup with
    probability ≈ 0.33. At the 16-band x 12-plane default, p(0.95) =
    0.8976 -> band collision 0.2733 -> miss (1-0.2733)^16 ≈ 0.006
    (recall ≈ 0.994 AT the default threshold, higher above it), while a
    random pair (p = 0.5) collides per band with 2^-12 — bucket space
    stays 4096 per band so accidental candidates stay rare.

    The vector payload does NOT replicate into the 16 band rows: band
    rows carry only (doc_id, band, bucket); after globally-distinct
    candidate generation the vectors attach by hash join, shipped once
    per candidate vertex (`_verify_pairs_by_join`, the minhash pattern).
    """
    total_planes = n_bands * planes_per_band

    def feats_fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], type=t[id_col].type),
                             "vec": pa.array([], type=pa.large_binary())})
        vecs = np.ascontiguousarray(_as_matrix(t[vec_col]))
        d = vecs.shape[1]
        return pa.table(
            {
                "doc_id": t[id_col],
                "vec": _bin_from_u64(
                    vecs.reshape(-1).view(np.uint64),
                    np.arange(0, (n + 1) * d, d, dtype=np.int64),
                ),
            }
        )

    def band_fn(t: pa.Table) -> pa.Table:
        # consumes the materialized feats stage (vectors decode from the
        # binary blob), so the input dataset's upstream lineage executes
        # exactly once — deriving bands from `ds` would re-run it whole
        n = t.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], type=t["doc_id"].type),
                             "band": pa.array([], type=pa.int32()),
                             "bucket": pa.array([], type=pa.uint64())})
        flat, _ = _u64_from_bin(t["vec"])
        vecs = flat.view(np.float64).reshape(n, -1)
        rng = np.random.default_rng(seed)
        planes = rng.normal(size=(vecs.shape[1], total_planes))
        bits = ((vecs @ planes) > 0).reshape(n, n_bands, planes_per_band)
        weights = (np.uint64(1) << np.arange(planes_per_band, dtype=np.uint64))
        keys = (bits.astype(np.uint64) * weights[None, None, :]).sum(axis=2)
        return pa.table(
            {
                "doc_id": t["doc_id"].take(pa.array(np.repeat(np.arange(n), n_bands))),
                "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n)),
                "bucket": pa.array(keys.reshape(-1), type=pa.uint64()),
            }
        )

    feats = ds.map_batches(feats_fn, batch_format="pyarrow").materialize()
    band_rows = feats.map_batches(band_fn, batch_format="pyarrow")
    cand = _candidate_pairs(band_rows, max_bucket=500)

    def verify(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _empty_edges(t["u"].type)
        vu, ou = _u64_from_bin(t["vec_u"])
        vv, _ = _u64_from_bin(t["vec_v"])
        a = vu.view(np.float64).reshape(n, -1)
        b = vv.view(np.float64).reshape(n, -1)
        denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        cos = np.where(denom > 0, np.einsum("ij,ij->i", a, b) / np.maximum(denom, 1e-300), 0.0)
        return t.select(["u", "v"]).filter(pa.array(cos >= threshold))

    verified = _verify_pairs_by_join(cand, feats, "vec", verify)
    return _finalize_components(verified)



# --------------------------------------------------------------------------
# C4-style duplicate-span removal (segment-level exact dedup)
# --------------------------------------------------------------------------

# (doc_id, seg_idx) packs into one int64 order code so "first occurrence"
# is a single integer MIN: code = doc_id * 2^20 + seg_idx. The guards keep
# the packing collision-free and the code positive.
_SEG_SHIFT = 1 << 20          # max 2^20 segments per doc (~16M tokens)
_SEG_MAX_DOC = 1 << 43        # doc_id must fit the remaining high bits


def _segment_rows(
    t: pa.Table, text_col: str, id_col: str, seg_tokens: int, with_text: bool
) -> pa.Table:
    """One row per `seg_tokens`-token whitespace segment of each doc:
    (id, seg_idx, h_hi, h_lo[, seg, n_segs]). Fully vectorized — the
    split is an Arrow kernel, segment strings come from one
    `binary_join` over a segment-offset ListArray (no Python joins),
    and the 128-bit hash is the same collision-safe `content_hash128`
    exact_dedup uses."""
    from hgcn_name_disambiguation_ray.functions.text import split_ws_flat

    flat, offsets = split_ws_flat(t[text_col])
    counts = offsets[1:] - offsets[:-1]
    n_segs = -(-counts // seg_tokens)  # ceil; 0 for empty docs
    if n_segs.size and int(n_segs.max()) >= _SEG_SHIFT:
        raise ValueError(
            f"segment_dedup: a document has >= {_SEG_SHIFT} segments; "
            "raise seg_tokens or widen the order-code packing"
        )
    ids_col = t[id_col]
    if isinstance(ids_col, pa.ChunkedArray):
        ids_col = ids_col.combine_chunks()
    ids = ids_col.to_numpy(zero_copy_only=False).astype(np.int64)
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= _SEG_MAX_DOC):
        raise ValueError(
            f"segment_dedup: {id_col} must be in [0, 2^43) to pack the "
            "first-occurrence order code"
        )
    # global flat positions where a segment starts (within-doc idx % K == 0)
    within = np.arange(len(flat), dtype=np.int64) - np.repeat(offsets[:-1], counts)
    starts = np.flatnonzero(within % seg_tokens == 0).astype(np.int64)
    seg_offsets = np.append(starts, len(flat))
    flat_arr = pa.array(flat, type=pa.large_string())
    lists = pa.LargeListArray.from_arrays(pa.array(seg_offsets, pa.int64()), flat_arr)
    segs = pa.compute.binary_join(lists, pa.scalar(" ", pa.large_string()))
    hi, lo = content_hash128(np.asarray(segs.to_pandas(), dtype=object))
    cols = {
        id_col: pa.array(np.repeat(ids, n_segs), type=pa.int64()),
        "seg_idx": pa.array(_grouped_arange(n_segs), type=pa.int64()),
        "h_hi": pa.array(hi, type=pa.uint64()),
        "h_lo": pa.array(lo, type=pa.uint64()),
    }
    if with_text:
        cols["seg"] = segs.cast(pa.string())
        cols["n_segs"] = pa.array(np.repeat(n_segs, n_segs), type=pa.int64())
    return pa.table(cols)


def segment_dedup(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    seg_tokens: int = 16,
    checkpoint_dir: str | None = None,
    input_lineage: str = "",
) -> Dataset:
    """C4-style duplicate-span removal: split each doc into consecutive
    `seg_tokens`-token segments, drop every segment whose exact text
    already occurred earlier in the corpus (first occurrence by
    (doc_id, seg_idx) survives), and reassemble the surviving segments
    into a cleaned document. Output: (id, clean_text, n_segs, n_kept);
    docs whose every segment was seen earlier produce no row.

    This is the span-level counterpart of `exact_dedup` (the C4/Gopher
    "three-sentence span" rule re-expressed over token segments — the
    corpus here is single-line text, so segments stand in for
    sentences). Reference has no span dedup; this extends D1
    (SURVEY.md §2, openAlex_to_HGCN.py:233-241) below doc granularity.

    Scale shape: two streaming passes over the corpus. Pass 1 ships
    only NARROW (hash, order-code) rows into a partial-combined
    bucketed groupby for the first-occurrence table. Pass 2 re-derives
    segments WITH text, joins the first-occurrence table back on the
    128-bit hash (distributed hash join — the firsts table is
    O(distinct segments), never broadcastable), filters to survivors,
    and reassembles per doc in a bucketed groupby. No driver-side
    materialization anywhere.

    `checkpoint_dir` (+ `input_lineage`) checkpoints the pass-1
    first-occurrence table so a killed run resumes at the pass-2 join."""
    _require_lineage(checkpoint_dir, input_lineage)

    def narrow(t: pa.Table) -> pa.Table:
        return _segment_rows(t, text_col, id_col, seg_tokens, with_text=False)

    def partial(t: pa.Table) -> pa.Table:
        code = pa.compute.add(
            pa.compute.multiply(t[id_col], pa.scalar(_SEG_SHIFT, pa.int64())),
            t["seg_idx"],
        )
        g = (
            t.drop_columns([id_col, "seg_idx"])
            .append_column("code", code)
            .group_by(["h_hi", "h_lo"])
            .aggregate([("code", "min")])
        )
        ren = {"code_min": "keep_code"}
        return g.rename_columns([ren.get(c, c) for c in g.column_names])

    def make_firsts() -> Dataset:
        return bucketed_group_apply(
            ds.map_batches(narrow, batch_format="pyarrow").map_batches(
                partial, batch_format="pyarrow"
            ),
            ["h_hi", "h_lo"],
            lambda df: df.groupby(["h_hi", "h_lo"], as_index=False, sort=False).agg(
                keep_code=("keep_code", "min")
            ),
            n_buckets=64,
        )

    if checkpoint_dir is not None:
        # checkpoint the first-occurrence table (the pass-1 full-corpus scan
        # + bucketed groupby) under the lineage-manifest contract — resume
        # skips straight to the pass-2 join (sources/checkpoint.py)
        import os

        from hgcn_name_disambiguation_ray.sources.checkpoint import (
            checkpoint_stage,
            fingerprint,
        )

        firsts = checkpoint_stage(
            make_firsts,
            os.path.join(checkpoint_dir, "segment_firsts"),
            lineage=fingerprint(
                "segment_firsts_v1", input_lineage, text_col, id_col, seg_tokens
            ),
        )
    else:
        firsts = make_firsts()

    def wide(t: pa.Table) -> pa.Table:
        return _segment_rows(t, text_col, id_col, seg_tokens, with_text=True)

    joined = hash_join(
        ds.map_batches(wide, batch_format="pyarrow"), firsts, on=["h_hi", "h_lo"]
    )

    def keep_first(t: pa.Table) -> pa.Table:
        code = pa.compute.add(
            pa.compute.multiply(t[id_col], pa.scalar(_SEG_SHIFT, pa.int64())),
            t["seg_idx"],
        )
        mask = pa.compute.equal(code, t["keep_code"])
        return t.select([id_col, "seg_idx", "seg", "n_segs"]).filter(mask)

    kept = joined.map_batches(keep_first, batch_format="pyarrow")

    def rebuild(t: pa.Table) -> pa.Table:
        # reassembly is the same binary_join trick as segmentation, run in
        # reverse: sort the bucket by (doc, seg_idx), derive per-doc run
        # offsets, join each run — no per-doc Python string building
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "clean_text": pa.array([], pa.string()),
                    "n_segs": pa.array([], pa.int64()),
                    "n_kept": pa.array([], pa.int64()),
                }
            )
        idx = pa.compute.sort_indices(
            t, sort_keys=[(id_col, "ascending"), ("seg_idx", "ascending")]
        )
        t = t.take(idx)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        change = np.flatnonzero(np.diff(ids)) + 1
        offsets = np.concatenate([[0], change, [len(ids)]]).astype(np.int64)
        segs = t["seg"]
        if isinstance(segs, pa.ChunkedArray):
            segs = segs.combine_chunks()
        lists = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), segs.cast(pa.large_string())
        )
        clean = pa.compute.binary_join(lists, pa.scalar(" ", pa.large_string()))
        starts = offsets[:-1]
        return pa.table(
            {
                id_col: pa.array(ids[starts], pa.int64()),
                "clean_text": clean.cast(pa.string()),
                "n_segs": t["n_segs"].take(pa.array(starts)),
                "n_kept": pa.array(np.diff(offsets), pa.int64()),
            }
        )

    return bucketed_group_apply(
        kept, [id_col], rebuild, n_buckets=64, batch_format="pyarrow"
    )
