"""In-engine corpus word vectors: distributed co-occurrence counting +
driver-side PPMI-SVD (the missing `gene/word2vec.model` analogue).

The reference loads a pre-trained 100-d word2vec model
(`name_disambiguation.py:766-768`) that is MISSING from its repo; its
committed cluster artifacts lean on that model for cross-component title
similarity (BASELINE.md "Real-data conformance"). This module trains a
drop-in replacement from the corpus itself, public-knowledge only
(PPMI + truncated SVD — Levy & Goldberg 2014 showed this factorization
approximates skip-gram with negative sampling):

  1. vocabulary + document frequencies: per-batch partial counts ->
     bucketed sum -> top-V cap (the only driver materialization, bounded
     by `max_vocab`);
  2. co-occurrence counting: vocab index broadcast once via ray.put;
     each batch emits distinct in-vocab token-id pairs per document and
     pre-counts them; a bucketed sum yields global (a, b, n) triples;
  3. driver: dense V x V PPMI (context-distribution smoothing 0.75) and
     a randomized truncated SVD (Halko et al. 2011) -> token vectors
     W = U_r * sqrt(s_r);
  4. persisted in the public word2vec TEXT format (+ a ".idf" sidecar
     with log(n_docs / (1 + df)) weights), so `HashEmbedder` /
     `LinkageConfig.word2vec_path` load it once per actor unchanged.

Counting scales with the corpus (distributed, pre-aggregated); the SVD
is a bounded model fit over the capped vocabulary — the same shape as
the IVF k-means fit in similarity.py.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_sum, worker_cached


def _token_lists(t: pa.Table, tokens_col: str) -> tuple[np.ndarray, np.ndarray]:
    from hgcn_name_disambiguation_ray.functions.text import explode_list

    flat, lens = explode_list(t[tokens_col])
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    return flat, offsets


_DOCS_SENTINEL = "\x00__docs__"


def _pruned_vocab_dataset(
    ds: Dataset,
    tokens_col: str,
    max_vocab: int,
    n_buckets: int = 32,
    idf_col: str | None = None,
) -> Dataset:
    """Distributed doc-frequency counting with a per-block top-V prune.

    The bucketed sum co-locates each token in exactly one bucket, so the
    buckets PARTITION the vocabulary: the global top-V by (df desc,
    token asc) is contained in the union of per-block top-Vs. Each block
    therefore keeps only its local V best rows plus one sentinel rider
    carrying the block's doc-count total — the driver receives at most
    n_blocks * (max_vocab + 1) rows, never the full distinct-token frame
    (billions of rows at web scale).

    When `idf_col` names a SECOND token-list column, each row also
    carries `df_idf` = distinct-doc count over that column (the idf
    weighting target when training tokens ⊃ title tokens)."""

    def partial(t: pa.Table) -> pa.Table:
        flat, offsets = _token_lists(t, tokens_col)
        n = len(offsets) - 1
        doc = np.repeat(np.arange(n), np.diff(offsets))
        df = pd.DataFrame({"doc": doc, "token": flat}).drop_duplicates()
        cnt = df.groupby("token", sort=False).size().reset_index(name="df")
        if idf_col is not None:
            flat_i, offsets_i = _token_lists(t, idf_col)
            doc_i = np.repeat(np.arange(len(offsets_i) - 1), np.diff(offsets_i))
            dfi = pd.DataFrame({"doc": doc_i, "token": flat_i}).drop_duplicates()
            cnt_i = dfi.groupby("token", sort=False).size().reset_index(name="df_idf")
            cnt = cnt.merge(cnt_i, on="token", how="left")
            cnt["df_idf"] = cnt["df_idf"].fillna(0).astype(np.int64)
        else:
            cnt["df_idf"] = cnt["df"]
        cnt["n_docs"] = 0
        if len(cnt):
            cnt.loc[cnt.index[0], "n_docs"] = n  # batch doc count rides on one row
        elif n:
            cnt = pd.DataFrame(
                {"token": [_DOCS_SENTINEL], "df": [0], "df_idf": [0], "n_docs": [n]}
            )
        return pa.Table.from_pandas(cnt, preserve_index=False)

    def prune(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # fold the block's doc-count riders into ONE sentinel row, then
        # keep only the block-local top-V real tokens
        n_docs_blk = int(pc.sum(t["n_docs"]).as_py() or 0)
        real = t.filter(pc.not_equal(t["token"], _DOCS_SENTINEL))
        top = real.sort_by([("df", "descending"), ("token", "ascending")]).slice(
            0, max_vocab
        )
        rider = pa.table(
            {
                "token": pa.array([_DOCS_SENTINEL]),
                "df": pa.array([0], type=top["df"].type),
                "df_idf": pa.array([0], type=top["df_idf"].type),
                "n_docs": pa.array([n_docs_blk], type=top["n_docs"].type),
            }
        )
        zeros = pa.array(np.zeros(top.num_rows, dtype=np.int64)).cast(
            top["n_docs"].type
        )
        top = top.set_column(top.schema.get_field_index("n_docs"), "n_docs", zeros)
        return pa.concat_tables([top.select(rider.column_names), rider])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    summed = bucketed_sum(
        partials, ["token"], ["df", "df_idf", "n_docs"], n_buckets=n_buckets
    )
    return summed.map_batches(prune, batch_format="pyarrow")


def vocab_doc_freq(
    ds: Dataset, tokens_col: str, max_vocab: int, idf_col: str | None = None
) -> tuple[pd.DataFrame, int]:
    """(top-V DataFrame(token, df, df_idf), n_docs) — df = docs containing
    token in `tokens_col`; df_idf the same over `idf_col` (defaults to
    df). The driver-side frame is bounded by n_blocks * (max_vocab + 1)
    rows (per-block top-V prune in `_pruned_vocab_dataset`), not the
    corpus's distinct-token count."""
    summed = _pruned_vocab_dataset(ds, tokens_col, max_vocab, idf_col=idf_col).to_pandas()
    n_docs = int(summed["n_docs"].sum())
    summed = summed[summed["token"] != _DOCS_SENTINEL]
    top = summed.sort_values(["df", "token"], ascending=[False, True]).head(max_vocab)
    return top[["token", "df", "df_idf"]].reset_index(drop=True), n_docs


def cooccurrence_triples(
    ds: Dataset, tokens_col: str, widx_ref: "ray.ObjectRef", n_buckets: int = 32
) -> pd.DataFrame:
    """Global (a, b, n) distinct-per-doc co-occurrence counts over the
    capped vocabulary. a < b; the driver frame is bounded by V^2 but in
    practice by the corpus's realized pair set."""

    def pair_count(t: pa.Table) -> pa.Table:
        widx = worker_cached(("pair_count", widx_ref.hex()), lambda: ray.get(widx_ref))
        empty = pa.table({"a": pa.array([], type=pa.int32()),
                          "b": pa.array([], type=pa.int32()),
                          "n": pa.array([], type=pa.int64())})
        flat, offsets = _token_lists(t, tokens_col)
        if len(flat) == 0:
            return empty
        doc = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        ids = pd.Series(flat).map(widx)
        df = pd.DataFrame({"doc": doc, "id": ids}).dropna()
        df["id"] = df["id"].astype(np.int32)
        df = df.drop_duplicates()
        # vectorized per-doc pair expansion (self-merge), pre-counted
        m = df.merge(df, on="doc")
        m = m[m["id_x"] < m["id_y"]]
        if m.empty:
            return empty
        cnt = m.groupby(["id_x", "id_y"], as_index=False, sort=False).size()
        cnt.columns = ["a", "b", "n"]
        return pa.Table.from_pandas(cnt, preserve_index=False)

    partials = ds.map_batches(pair_count, batch_format="pyarrow")
    return bucketed_sum(partials, ["a", "b"], ["n"], n_buckets=n_buckets).to_pandas()


def ppmi_svd(
    triples: pd.DataFrame, vocab_size: int, dim: int, seed: int = 7,
    alpha: float = 0.75, power_iters: int = 3,
) -> np.ndarray:
    """Dense PPMI over the capped vocab + randomized truncated SVD.
    Returns (V, dim) float64 token vectors W = U_r * sqrt(s_r)."""
    V = vocab_size
    C = np.zeros((V, V), dtype=np.float32)
    a = triples["a"].to_numpy()
    b = triples["b"].to_numpy()
    n = triples["n"].to_numpy().astype(np.float32)
    C[a, b] = n
    C[b, a] = n
    row = C.sum(1)
    total = max(row.sum(), 1.0)
    ctx = row ** alpha
    ctx /= max(ctx.sum(), 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log((C / total) / np.outer(row / total, ctx))
    pmi[~np.isfinite(pmi)] = 0.0
    M = np.maximum(pmi, 0.0).astype(np.float32)
    rng = np.random.default_rng(seed)
    r = min(dim + 20, V)
    Y = M @ rng.normal(size=(V, r)).astype(np.float32)
    for _ in range(power_iters):
        # re-orthonormalize EVERY power pass (Halko et al. 2011, Alg 4.4):
        # unorthonormalized M^(2q+1) collapses the sketch onto the top
        # singular directions — with sigma_k/sigma_1 = 0.1 the trailing
        # subspace signal after M^7 is ~1e-7, below float32 eps, so the
        # lower embedding dimensions were numerically noise
        Q, _ = np.linalg.qr(M @ Y)
        Y = M @ Q  # M symmetric
    Q, _ = np.linalg.qr(Y)
    B = Q.T @ M
    Ub, s, _ = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    d = min(dim, U.shape[1])
    return (U[:, :d] * np.sqrt(s[:d])).astype(np.float64)


def _with_host_tokens(tokens_col: str, host_col: str, out_col: str):
    """Batch fn: out_col = tokens_col ++ host_tokens(host_col) per row —
    venue/host words join the co-occurrence corpus (they discriminate
    entities sharing generic title words; measured +0.022 macro F1 on
    Arnetminer, BASELINE.md round 4)."""
    from hgcn_name_disambiguation_ray.functions.text import host_tokens

    def body(t: pa.Table) -> pa.Table:
        toks = t[tokens_col].to_pylist()
        hosts = t[host_col].to_pylist()
        combined = [
            (list(tok) if tok is not None else []) + host_tokens(h)
            for tok, h in zip(toks, hosts)
        ]
        return t.append_column(
            out_col, pa.array(combined, type=pa.list_(pa.string()))
        )

    return body


def train_word_vectors(
    ds: Dataset,
    out_path: str,
    tokens_col: str = "tokens",
    dim: int = 100,
    max_vocab: int = 12000,
    seed: int = 7,
    host_col: str | None = None,
) -> str:
    """Train PPMI-SVD token vectors over `ds[tokens_col]` and write them
    in word2vec text format to `out_path` (+ `<out_path>.idf` sidecar
    with per-token idf weights). Returns `out_path`.

    With `host_col`, venue/host tokens join each doc's co-occurrence
    context (vocab ranked by combined doc frequency) while the idf
    sidecar stays computed over `tokens_col` alone — the title tokens
    are the weighting target, and venue-only tokens deliberately land
    high-idf (they are strong entity discriminators)."""
    train_col = tokens_col
    if host_col is not None:
        train_col = "__train_tokens"
        ds = ds.map_batches(
            _with_host_tokens(tokens_col, host_col, train_col),
            batch_format="pyarrow",
        )
    vocab_df, n_docs = vocab_doc_freq(
        ds, train_col, max_vocab, idf_col=tokens_col if host_col else None
    )
    tokens = vocab_df["token"].tolist()
    widx = {t: i for i, t in enumerate(tokens)}
    widx_ref = ray.put(widx)
    triples = cooccurrence_triples(ds, train_col, widx_ref)
    W = ppmi_svd(triples, len(tokens), dim, seed=seed)
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(f"{len(tokens)} {W.shape[1]}\n")
        for t, v in zip(tokens, W):
            f.write(t + " " + " ".join(f"{x:.6g}" for x in v) + "\n")
    os.replace(tmp, out_path)
    idf = np.log(n_docs / (1 + vocab_df["df_idf"].to_numpy()))
    with open(out_path + ".idf.tmp", "w", encoding="utf-8") as f:
        for t, w in zip(tokens, idf):
            f.write(f"{t} {w:.6g}\n")
    os.replace(out_path + ".idf.tmp", out_path + ".idf")
    return out_path
