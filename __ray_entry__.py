"""Driver contract for the graft builder (Ray Data target).

`entry()` runs the flagship record-linkage pipeline; `queries()` exposes
one callable per implemented operator from SURVEY.md §2 plus the
training-data-prep suite (dedup / similarity / text analysis);
`oracle_sql()` gives the DuckDB-equivalent SQL for every
SQL-expressible query (same column names — the driver hash-compares).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

# the reference normalizer's punctuation class, escaped for DuckDB SQL
# (single quotes doubled); see functions/text.py PUNCT_PATTERN
_SQL_PUNCT = r"""[!"#$%&''()*+,\-./:;<=>?@[\\\]^_`{|}~—～]+"""

_SQL_TOKENS = (
    "list_filter(string_split(replace(lower(regexp_replace(text, '"
    + _SQL_PUNCT
    + "', ' ', 'g')), chr(9), ' '), ' '), x -> length(x) > 1)"
)


def _docs(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _fixture_pages_dir() -> str:
    """Deterministic fixture under /tmp (pages-table stand-in: the graded
    input shape; /root/testdata has no pages table)."""
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture

    out = "/tmp/hgcn_ray_fixture_v1"
    done = os.path.join(out, "_done")
    if not os.path.exists(done):
        # build into a pid-unique tmp dir and atomically rename: a crash
        # mid-write (or a concurrent run) must never leave a half-written
        # fixture that bare-existence checks then serve forever
        import shutil

        tmp = f"{out}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        write_fixture(
            FixtureSpec(n_names=4, persons_per_name=3, docs_per_person=10, hot_name_factor=3),
            tmp,
        )
        open(os.path.join(tmp, "_done"), "w").close()
        # attempt the atomic publish FIRST: rename fails if `out` exists,
        # so a COMPLETE fixture (done marker present) is never moved or
        # deleted — readers that passed the done check can never see the
        # directory vanish mid-read. Only a torn dir (no marker — which no
        # reader accepts) gets moved aside.
        try:
            os.rename(tmp, out)
        except OSError:
            if os.path.exists(done):  # concurrent winner completed
                shutil.rmtree(tmp, ignore_errors=True)
            else:
                stale = f"{out}.stale-{os.getpid()}"
                try:
                    os.rename(out, stale)
                except OSError:
                    pass
                try:
                    os.rename(tmp, out)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)  # lost a second race
                shutil.rmtree(stale, ignore_errors=True)
    return out


def entry() -> Any:
    """Flagship: linkage over the deterministic pages fixture, plus a
    smoke read of sf0.001 documents. Returns the clusters DataFrame."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    n_docs = _docs("/root/testdata/sf0.001", columns=["doc_id"]).count()
    assert n_docs >= 0
    pages = rd.read_parquet(os.path.join(_fixture_pages_dir(), "pages.parquet"))
    clusters = run_linkage(pages, LinkageConfig())
    return clusters.to_pandas().sort_values("mention_id").reset_index(drop=True)


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

def _q_source_filter(sf_dir: str):
    import pyarrow.compute as pc

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "en")).select(["doc_id", "n_chars"]),
        batch_format="pyarrow",
    )


def _q_normalize_tokens(sf_dir: str):
    from hgcn_name_disambiguation_ray.functions.text import tokenize_column

    def body(t: pa.Table) -> pa.Table:
        tokens, _ = tokenize_column(t["text"])
        return pa.table({"doc_id": t["doc_id"], "tokens": tokens})

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(body, batch_format="pyarrow")


def _q_stemmed_tokens(sf_dir: str):
    from hgcn_name_disambiguation_ray.functions.text import tokenize_column

    def body(t: pa.Table) -> pa.Table:
        _, stemmed = tokenize_column(t["text"])
        return pa.table({"doc_id": t["doc_id"], "tokens_stemmed": stemmed})

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(body, batch_format="pyarrow")


def _q_token_count(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import token_count

    return token_count(_docs(sf_dir, columns=["doc_id", "text"])).select_columns(
        ["doc_id", "n_ws_tokens", "n_tokens"]
    )


def _q_exact_dedup(sf_dir: str):
    from hgcn_name_disambiguation_ray.stages.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir, columns=["doc_id", "text"]))


def _q_dedup_corpus(sf_dir: str):
    """Surviving rows after exact dedup (min-id representative per
    distinct text), selected via distributed left-semi join."""
    from hgcn_name_disambiguation_ray.stages.dedup import exact_dedup_corpus

    out = exact_dedup_corpus(_docs(sf_dir, columns=["doc_id", "text"]))
    return out.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"], "n_chars3": pa.compute.utf8_length(
                t["text"].combine_chunks()).cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def _q_lang_agg(sf_dir: str):
    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_sum

    ds = _docs(sf_dir, columns=["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("lang").aggregate([("n_chars", "count"), ("n_chars", "sum")])
        # rename by name (pyarrow aggregate column order is version-dependent)
        ren = {"n_chars_count": "n_docs", "n_chars_sum": "sum_chars"}
        return g.rename_columns([ren.get(c, c) for c in g.column_names])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return bucketed_sum(partials, ["lang"], ["n_docs", "sum_chars"])


def _q_cooccur_pairs(sf_dir: str):
    """A1 analogue: customer pairs sharing order dates, with shared-date
    counts. The pair space is high-cardinality (millions of groups), so
    the count runs through the bucketed-groupby pattern instead of Ray's
    per-group sort aggregate."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import (
        bucketed_group_apply,
        bucketed_sum,
    )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderdate", "o_custkey"]
    )

    # per-batch distinct partial BEFORE the shuffle: duplicate
    # (date, custkey) rows (a customer ordering twice in a day) never
    # leave their batch
    ds = ds.map_batches(
        lambda df: df.drop_duplicates(["o_orderdate", "o_custkey"]),
        batch_format="pandas",
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # one bucket partition holds many complete date groups. Pair
        # expansion is a vectorized self-merge per date (no Python loop
        # over groups), and the bucket emits PRE-COUNTED partials —
        # pairs recurring across dates within the bucket collapse here,
        # shrinking the second shuffle.
        df = df.drop_duplicates(["o_orderdate", "o_custkey"])
        dup = df.duplicated("o_orderdate", keep=False)
        df = df[dup]
        if df.empty:
            return pd.DataFrame({"custkey_i": pd.Series(dtype=np.int64),
                                 "custkey_j": pd.Series(dtype=np.int64),
                                 "n_shared": pd.Series(dtype=np.int64)})
        m = df.merge(df, on="o_orderdate")
        m = m[m["o_custkey_x"] < m["o_custkey_y"]]
        out = m.groupby(["o_custkey_x", "o_custkey_y"], as_index=False, sort=False).size()
        out.columns = ["custkey_i", "custkey_j", "n_shared"]
        return out

    p = bucketed_group_apply(ds, ["o_orderdate"], pairs, n_buckets=64)
    return bucketed_sum(p, ["custkey_i", "custkey_j"], ["n_shared"], n_buckets=64)


def _q_blocking_keys(sf_dir: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.functions.text import normalized_name_key

    ds = rd.read_parquet(os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"])
    return ds.map_batches(
        lambda t: pa.table(
            {"p_partkey": t["p_partkey"], "block_key": normalized_name_key(t["p_name"])}
        ),
        batch_format="pyarrow",
    )


def _q_shared_token_pairs(sf_dir: str):
    """A2 analogue: within-source doc pairs sharing >= 2 distinct tokens.

    `source` is a skewed low-cardinality key; a plain groupby would put
    one source's full rows on one worker, so this runs through the
    bucketed pattern (complete source groups co-locate per bucket, the
    pair expansion is a vectorized pandas self-merge)."""
    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_group_apply

    ds = _docs(sf_dir, columns=["doc_id", "text", "source"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_i": pd.Series(dtype=np.int64), "doc_j": pd.Series(dtype=np.int64),
             "n_shared": pd.Series(dtype=np.int64)}
        )
        e = df[["doc_id", "source"]].copy()
        e["tok"] = df["text"].str.split()
        e = e.explode("tok")
        e = e[e["tok"].str.len() > 1].drop_duplicates()
        m = e.merge(e, on=["source", "tok"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        cnt = m.groupby(["doc_id_x", "doc_id_y"]).size().reset_index(name="n_shared")
        cnt = cnt[cnt["n_shared"] >= 2]
        if cnt.empty:
            return empty
        return pd.DataFrame(
            {"doc_i": cnt["doc_id_x"].astype(np.int64),
             "doc_j": cnt["doc_id_y"].astype(np.int64),
             "n_shared": cnt["n_shared"].astype(np.int64)}
        )

    return bucketed_group_apply(ds, ["source"], per_bucket, n_buckets=16)


def _q_eval_counts(sf_dir: str):
    """A5: pairwise-eval count identity with true=label, pred=vec_id%7."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "label"])

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"t": df["label"], "p": df["vec_id"] % 7})

    full = bucketed_count(ds.map_batches(cells, batch_format="pandas"), ["t", "p"]).to_pandas()

    def c2(s):
        return (s * (s - 1) // 2).sum()

    tp = c2(full["n"])
    pp = c2(full.groupby("p")["n"].sum())
    ap = c2(full.groupby("t")["n"].sum())
    return pd.DataFrame({"tp": [int(tp)], "pp": [int(pp)], "ap": [int(ap)]})


def _q_window_counts(sf_dir: str):
    """Tumbling daily window counts per user over the events stream."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"])

    def day(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": df["user_id"], "day": df["ts"].dt.strftime("%Y-%m-%d")})

    days = ds.map_batches(day, batch_format="pandas")
    return bucketed_count(days, ["user_id", "day"], "n_events")


def _q_hopping_window(sf_dir: str):
    """2-day windows hopping by 1 day per user over the events stream —
    the overlapping-window aggregate a tumbling groupby can't express."""
    import ray.data as rd
    from hgcn_name_disambiguation_ray.stages.groupagg import hopping_window_count

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"])
    return hopping_window_count(
        ds, "user_id", "ts", window_us=2 * 86_400_000_000, hop_us=86_400_000_000
    )


def _q_json_props_stats(sf_dir: str):
    """Per-event-type stats over a JSON field extracted from the props
    sidecar — vectorized Arrow regex fast path (functions/jsonx.py),
    per-batch partial aggregation before the shuffle."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.functions.jsonx import json_extract_int64
    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_group_apply

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "props"]
    )

    def partial(t: pa.Table) -> pa.Table:
        k = json_extract_int64(t["props"], "k")
        g = pa.table({"event_type": t["event_type"], "k": k}).group_by(
            "event_type"
        ).aggregate([("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")])
        ren = {"k_count": "n", "k_sum": "sum_k", "k_min": "min_k", "k_max": "max_k"}
        return g.rename_columns([ren.get(c, c) for c in g.column_names])

    merge = [("n", "sum"), ("sum_k", "sum"), ("min_k", "min"), ("max_k", "max")]

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type", use_threads=False).aggregate(merge)
        return g.select(["event_type"] + [f"{c}_{f}" for c, f in merge]).rename_columns(
            ["event_type"] + [c for c, _ in merge]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return bucketed_group_apply(partials, ["event_type"], combine, batch_format="pyarrow")


def _q_top_orders(sf_dir: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import topk

    ds = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_totalprice"]
    )
    return topk(ds, ["o_totalprice", "o_orderkey"], descending=[True, False], k=10)


def _fetch_query_vector(sf_dir: str, vec_id: int) -> np.ndarray:
    """Single-row point lookup straight off the parquet file (predicate
    pushdown prunes row groups) — not a full Dataset scan."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", vec_id)],
    )
    return np.asarray(t["embedding"][0].as_py(), dtype=np.float64)


def _q_topk_cosine(sf_dir: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.similarity import brute_force_topk

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])
    q0 = _fetch_query_vector(sf_dir, 0)
    top = brute_force_topk(ds, q0[None, :], k=11)  # 11: drop the self hit
    df = top.to_pandas()
    df = df[df["vec_id"] != 0].nlargest(10, "score")
    # micro-cosine as int64: exact cross-engine comparison without float
    # representation noise (both sides compute in float64)
    return pd.DataFrame(
        {
            "vec_id": df["vec_id"].to_numpy(),
            "score_u": np.round(df["score"].to_numpy() * 1e6).astype(np.int64),
        }
    )


def _dedup_frame(ds) -> pd.DataFrame:
    """Materialize a dedup result with a guaranteed schema even when no
    duplicate components exist."""
    df = ds.to_pandas()
    if df.empty or "doc_id" not in df.columns:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "canonical_id": pd.Series(dtype=np.int64)})
    df["doc_id"] = df["doc_id"].astype(np.int64)
    df["canonical_id"] = df["canonical_id"].astype(np.int64)
    return df


# planted-duplicate corpus: every doc salted with 16 doc-unique tokens
# (suppressing accidental cross-doc near-duplicity: the real corpus holds
# pairs at 3-gram Jaccard ~0.99, which would sit inside minhash-estimator
# noise of any threshold) and cloned once under doc_id + _DUP_OFFSET, so
# the exact near-dup components are {id, id+offset} — a trivially exact
# SQL oracle for the probabilistic operators.
_DUP_OFFSET = 10_000_000


def _salted_planted_docs(sf_dir: str):
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def body(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        salted = [
            " ".join(f"p{d}s{j}" for j in range(8))
            + " " + (x or "") + " "
            + " ".join(f"q{d}s{j}" for j in range(8))
            for d, x in zip(ids, texts)
        ]
        return pa.table(
            {
                "doc_id": pa.array(
                    [int(d) for d in ids] + [int(d) + _DUP_OFFSET for d in ids],
                    type=pa.int64(),
                ),
                "text": pa.array(salted + salted, type=pa.string()),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


_PLANTED_DEDUP_SQL = (
    "SELECT doc_id, doc_id AS canonical_id FROM documents "
    f"UNION ALL SELECT doc_id + {_DUP_OFFSET} AS doc_id, doc_id AS canonical_id "
    "FROM documents"
)


def _q_minhash_dedup(sf_dir: str):
    from hgcn_name_disambiguation_ray.stages.dedup import minhash_lsh_dedup

    return _dedup_frame(minhash_lsh_dedup(_salted_planted_docs(sf_dir), threshold=0.9))


def _q_simhash_dedup(sf_dir: str):
    from hgcn_name_disambiguation_ray.stages.dedup import simhash_dedup

    # max_hamming=0: planted clones have identical fingerprints; the
    # nearest accidental (real near-dup) pair on the salted corpus
    # measures Hamming 3 at sf0.01 but 1 at sf0.1, so only exact-match
    # verification is collision-free at every scale the query runs at
    return _dedup_frame(simhash_dedup(_salted_planted_docs(sf_dir), max_hamming=0))


def _q_ngram_dedup(sf_dir: str):
    """Real (unsalted) corpus: the documents table holds genuine near-dup
    pairs, and the exact-Jaccard verify is SQL-expressible, so this one is
    oracle-checked end to end (LSH candidates -> exact verify -> closure)."""
    from hgcn_name_disambiguation_ray.stages.dedup import ngram_jaccard_dedup

    return _dedup_frame(ngram_jaccard_dedup(_docs(sf_dir, columns=["doc_id", "text"]), threshold=0.9))


def _q_embedding_neardup(sf_dir: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import embedding_cosine_dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        clone = pa.table(
            {
                "vec_id": pa.compute.add(t["vec_id"], _DUP_OFFSET),
                "embedding": t["embedding"],
            }
        )
        return pa.concat_tables([t, clone])

    return _dedup_frame(embedding_cosine_dedup(ds.map_batches(plant, batch_format="pyarrow"),
                                               threshold=0.98))


def _q_language_id(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import language_id

    return language_id(_docs(sf_dir, columns=["doc_id", "text"]))


def _q_gopher_rules(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import gopher_quality

    return gopher_quality(_docs(sf_dir, columns=["doc_id", "text"]))


def _q_segment_dedup(sf_dir: str):
    from hgcn_name_disambiguation_ray.stages.dedup import segment_dedup

    return segment_dedup(_docs(sf_dir, columns=["doc_id", "text"]), seg_tokens=16)


def _q_quality(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import quality_score

    ds = quality_score(_docs(sf_dir, columns=["doc_id", "text"]))

    def rounded(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": df["doc_id"],
                    "n_chars2": df["n_chars2"],
                    "n_words": df["n_words"],
                    "mean_word_len_r": df["mean_word_len"].round(6),
                }
            ),
            preserve_index=False,
        )

    return ds.map_batches(rounded, batch_format="pyarrow")


def _q_fingerprint(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import fingerprint

    return fingerprint(_docs(sf_dir, columns=["doc_id", "text"]))


def _q_ivf_topk(sf_dir: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.functions.hashing import stable_hash64
    from hgcn_name_disambiguation_ray.stages.similarity import IvfIndex

    # deterministic per-sf index dir: built once, reused by later runs
    # (the build-once / query-many shape the operator is designed for).
    # Keyed on a fingerprint of the INPUT DATA (path + parquet mtime/size),
    # not the path alone — regenerated fixture data invalidates the cache
    # instead of silently serving stale vectors.
    src = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(src)
    fp = stable_hash64(f"{sf_dir}|{st.st_mtime_ns}|{st.st_size}")
    # v2: deterministic hash-threshold centroid sample (a stale v1
    # index would silently serve old-sampling centroids)
    index_dir = f"/tmp/ivf_index_v2_{fp % (1 << 32):08x}"
    if os.path.exists(os.path.join(index_dir, "_centroids.npy")):
        idx = IvfIndex.load(index_dir)
    else:
        ds = rd.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
        )
        idx = IvfIndex.build(ds, index_dir, n_centroids=16)
    q = _fetch_query_vector(sf_dir, 0)[None, :]
    approx = idx.query(q, k=10, nprobe=4).to_pandas()
    # hard signal (r2 next-step #7): recall vs exact brute force rides as
    # an integral column and is PINNED — the query raises if the IVF probe
    # ever drops below the floor, so a silent quality regression fails the
    # driver run instead of passing rows-only
    from hgcn_name_disambiguation_ray.stages.similarity import brute_force_topk

    exact = brute_force_topk(
        rd.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
        ),
        q,
        k=10,
    ).to_pandas()
    hits = len(set(approx["vec_id"]) & set(exact["vec_id"]))
    recall_pct = (100 * hits) // max(1, len(exact))
    if recall_pct < 60:  # explicit raise: survives python -O, unlike assert
        raise ValueError(f"IVF recall {recall_pct}% < 60% floor at nprobe=4/16")
    approx["recall_pct"] = np.int64(recall_pct)
    return approx


def _q_cust_nation_join(sf_dir: str):
    """Broadcast join (SURVEY J3 pattern): nation+region (small sides,
    25 rows, shipped in the task closure) into the customer scan;
    aggregate per nation name."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count

    nation = pd.read_parquet(os.path.join(sf_dir, "nation.parquet"))[
        ["n_nationkey", "n_name", "n_regionkey"]
    ]
    region = pd.read_parquet(os.path.join(sf_dir, "region.parquet"))[["r_regionkey", "r_name"]]
    lookup = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "n_name", "r_name"]
    ]

    def join_nation(df: pd.DataFrame) -> pd.DataFrame:
        return df.merge(lookup, left_on="c_nationkey", right_on="n_nationkey")[["r_name", "n_name"]]

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"), columns=["c_nationkey"])
    joined = cust.map_batches(join_nation, batch_format="pandas")
    return bucketed_count(joined, ["r_name", "n_name"], "n_cust")


def _q_top_customers(sf_dir: str):
    """Order counts per customer (partial-agg + shuffle) joined with the
    broadcast customer-name side; deterministic top 10."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count, topk

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    counts = bucketed_count(orders, ["o_custkey"], "n_orders")
    top = topk(counts, ["n_orders", "o_custkey"], descending=[True, False], k=10).to_pandas()
    names = pd.read_parquet(os.path.join(sf_dir, "customer.parquet"))[["c_custkey", "c_name"]]
    return top.merge(names, left_on="o_custkey", right_on="c_custkey")[
        ["o_custkey", "c_name", "n_orders"]
    ]


def _q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped pruned scan + partial aggregation; integral sums
    only (float sums are not hash-comparable across engines)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_sum

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_quantity", "count")]
        )
        ren = {"l_quantity_sum": "sum_qty", "l_quantity_count": "n_rows"}
        return g.rename_columns([ren.get(c, c) for c in g.column_names])

    keys = ["l_returnflag", "l_linestatus"]
    agg = bucketed_sum(li.map_batches(partial, batch_format="pyarrow"), keys, ["sum_qty", "n_rows"])
    return agg.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("sum_qty"), "sum_qty",
            pc.round(t["sum_qty"]).cast(pa.int64()),
        ),
        batch_format="pyarrow",
    )


def _q_sessionize(sf_dir: str):
    """Stateful streaming window: per-user session count with a 30-minute
    inactivity gap (groupby user -> sorted per-group scan)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_group_apply

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # many complete user groups per bucket; one vectorized pass: a
        # session break = same-user gap > 30 min after a (user, ts) sort
        df = df.sort_values(["user_id", "ts"], kind="stable")
        uid = df["user_id"].to_numpy()
        ts = df["ts"].to_numpy()
        gaps_us = np.diff(ts).astype("timedelta64[us]").astype(np.int64)
        brk = np.r_[False, (uid[1:] == uid[:-1]) & (gaps_us > 1800 * 1_000_000)]
        out = pd.DataFrame({"user_id": uid, "brk": brk}).groupby(
            "user_id", as_index=False
        ).agg(n_sessions=("brk", "sum"), n_events=("brk", "size"))
        out["n_sessions"] = out["n_sessions"].astype(np.int64) + 1
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    return bucketed_group_apply(ev, ["user_id"], per_bucket, n_buckets=32)


def _q_multimodal_features(sf_dir: str):
    """Multimodal pipeline over REAL image payloads — binary PPM, PNG
    (stdlib-zlib codec, filters cycling 0-4) and JPEG (pure numpy
    Huffman+IDCT codec; 4:4:4 and 4:2:0, baseline and PROGRESSIVE
    multi-scan alternating) round-robin by doc id — all decoded
    fake=False; the stub remains only for inter-frame video. Each
    payload is a deterministic per-doc gradient image with varying
    dims, so decode/resize/featurize all do real work."""
    from hgcn_name_disambiguation_ray.functions.jpeg import synth_jpeg
    from hgcn_name_disambiguation_ray.stages.multimodal import (
        decode_resize_featurize,
        synth_png,
        synth_ppm,
    )

    docs = _docs(sf_dir, columns=["doc_id"]).limit(200)

    def to_items(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pandas(), dtype=np.int64)
        payloads = []
        mimes = []
        for i in ids:
            w, h = 16 + int(i % 7), 16 + int(i % 5)
            y, x = np.mgrid[0:h, 0:w]
            img = np.stack(
                [(x * 7 + i) % 256, (y * 11 + i) % 256, (x + y + i) % 256], axis=-1
            ).astype(np.uint8)
            if i % 3 == 0:
                payloads.append(synth_ppm(img))
                mimes.append("image/x-portable-pixmap")
            elif i % 3 == 1:
                payloads.append(synth_png(img))
                mimes.append("image/png")
            else:
                # (i//6)%2 alternates progressive across BOTH parities of i,
                # so progressive x {4:4:4, 4:2:0} all occur (i%3==2 rows
                # alternate even/odd; i%4-style masks collapse to one parity)
                payloads.append(
                    synth_jpeg(
                        img,
                        quality=95,
                        subsample=bool(i % 2),
                        progressive=bool((i // 6) % 2),
                    )
                )
                mimes.append("image/jpeg")
        return pa.table(
            {
                "item_id": pa.array([f"img-{i}" for i in ids], type=pa.string()),
                "payload": pa.array(payloads, type=pa.binary()),
                "mime": pa.array(mimes, type=pa.string()),
                "width": pa.array((16 + ids % 7).astype(np.int32)),
                "height": pa.array((16 + ids % 5).astype(np.int32)),
            }
        )

    items = docs.map_batches(to_items, batch_format="pyarrow")
    feats = decode_resize_featurize(items, out_w=4, out_h=4, fake=False)

    def summarize(t: pa.Table) -> pa.Table:
        sums = [int(np.round(np.sum(f) * 1e3)) for f in t["features"].to_pylist()]
        return pa.table(
            {"item_id": t["item_id"], "feat_sum_milli": pa.array(sums, type=pa.int64())}
        )

    return feats.map_batches(summarize, batch_format="pyarrow")


# the planted-truth macro pairwise F1 every linkage query must reach on
# the pages fixture (the pytest conformance floor)
LINKAGE_F1_FLOOR = 0.99


def _linkage_f1_checked(clusters) -> pd.DataFrame:
    """Pairwise scores of `clusters` (a pinned Dataset) against the
    fixture's truth; raises below the floor, so a quality regression
    fails the driver run instead of passing rows-only."""
    import pyarrow.parquet as pq

    from hgcn_name_disambiguation_ray.pipelines.linkage import clusters_with_truth
    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    truth = pq.read_table(os.path.join(_fixture_pages_dir(), "truth.parquet"))
    scores = pairwise_scores(clusters_with_truth(clusters, truth))
    f1 = float(scores.loc[scores["block_key"] == "__macro__", "f1"].iloc[0])
    if not f1 >= LINKAGE_F1_FLOOR:  # explicit raise (NaN too): survives python -O
        raise ValueError(f"linkage macro pairwise F1 {f1:.4f} < {LINKAGE_F1_FLOOR} floor")
    return scores


def _q_linkage_clusters(sf_dir: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    pages = rd.read_parquet(os.path.join(_fixture_pages_dir(), "pages.parquet"))
    clusters = run_linkage(pages, LinkageConfig()).materialize()
    _linkage_f1_checked(clusters)
    return clusters.to_pandas().sort_values("mention_id").reset_index(drop=True)


def _q_linkage_scores(sf_dir: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    pages = rd.read_parquet(os.path.join(_fixture_pages_dir(), "pages.parquet"))
    return _linkage_f1_checked(run_linkage(pages, LinkageConfig()))


def _q_asof_latest_event(sf_dir: str):
    """As-of join: for each order, the latest event of the mapped user at
    or before the order date (keyed shuffle + per-bucket merge_asof)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import asof_join

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def prep_orders(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.table(
            {
                "o_orderkey": pa.array(df["o_orderkey"], type=pa.int64()),
                "u": pa.array(df["o_custkey"] % 150, type=pa.int64()),
                "t": pa.array(pd.to_datetime(df["o_orderdate"]), type=pa.timestamp("us")),
            }
        )

    events = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "event_id"]
    )

    def prep_events(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.table(
            {
                "u": pa.array(df["user_id"], type=pa.int64()),
                "t": pa.array(df["ts"], type=pa.timestamp("us")),
                "event_id": pa.array(df["event_id"], type=pa.int64()),
            }
        )

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_group_apply

    left = orders.map_batches(prep_orders, batch_format="pyarrow")
    # unique ts per user (max event_id) for a deterministic as-of pick —
    # GLOBAL dedup (bucketed by u, so every (u, t) group co-locates), not
    # per-batch: duplicate (u, t) pairs spanning batches must not survive
    right = bucketed_group_apply(
        events.map_batches(prep_events, batch_format="pyarrow"),
        ["u"],
        lambda df: df.groupby(["u", "t"], as_index=False)["event_id"].max(),
    )
    out = asof_join(left, right, by=["u"], on="t", right_cols=["event_id"])
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"o_orderkey": df["o_orderkey"].astype(np.int64),
             "event_id": df["event_id"].astype(np.float64)}
        ),
        batch_format="pandas",
    )


def _q_range_week_events(sf_dir: str):
    """Range join: events of the mapped user within a 7-day window mapped
    deterministically into the events' time range, counted per order
    (interval tiling + bucketed co-location)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count, range_join

    DAY_US = 24 * 3600 * 1_000_000
    WEEK_US = 7 * DAY_US
    BASE_US = int(pd.Timestamp("2024-01-01").value // 1000)  # events live in Jan 2024

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )

    def prep_orders(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        s = BASE_US + (df["o_orderkey"] % 20) * DAY_US
        return pa.table(
            {
                "o_orderkey": pa.array(df["o_orderkey"], type=pa.int64()),
                "u": pa.array(df["o_custkey"] % 150, type=pa.int64()),
                "s": pa.array(s, type=pa.int64()),
                "e": pa.array(s + WEEK_US, type=pa.int64()),
            }
        )

    events = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "event_id"]
    )

    def prep_events(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        at_us = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        return pa.table(
            {
                "u": pa.array(df["user_id"], type=pa.int64()),
                "at": pa.array(at_us, type=pa.int64()),
                "event_id": pa.array(df["event_id"], type=pa.int64()),
            }
        )

    joined = range_join(
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        events.map_batches(prep_events, batch_format="pyarrow"),
        by=["u"], start="s", end="e", at="at", granularity=WEEK_US,
    )

    return bucketed_count(joined, ["o_orderkey"], "n_events")


def _q_segment_orders(sf_dir: str):
    """orders |><| customer on custkey -> order count per market segment.
    Goes through auto_join: the size probe broadcasts the (small) customer
    side instead of shuffling both; oversized right sides fall back to the
    distributed hash join (which the dedup verify joins and test_groupagg
    still exercise)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import auto_join, bucketed_count

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_mktsegment"]), batch_format="pyarrow"
    )
    joined = auto_join(orders, cust, on=["o_custkey"])
    return bucketed_count(joined, ["c_mktsegment"], "n_orders")


def _q_closure_components(sf_dir: str):
    """Distributed transitive closure (star-contraction, forced) over a
    deterministic 3-chain edge set derived from customer keys: edges
    (k, k-3) for 3 <= k <= 500 -> components = residues mod 3, reached
    only through ~165 contraction-merged hops per chain."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.closure import connected_components

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"])

    def edges(t: pa.Table) -> pa.Table:
        k = np.asarray([x for x in t["c_custkey"].to_pylist() if 3 <= x <= 500], dtype=np.int64)
        return pa.table(
            {
                "u": pa.array([f"n{v:04d}" for v in k], type=pa.string()),
                "v": pa.array([f"n{v - 3:04d}" for v in k], type=pa.string()),
            }
        )

    comps = connected_components(cust.map_batches(edges, batch_format="pyarrow"),
                                 force_distributed=True)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node_id": df["mention_id"].str.slice(1).astype(np.int64),
                "component": df["component"].str.slice(1).astype(np.int64),
            }
        )

    return comps.map_batches(rename, batch_format="pandas")


def _q_union_names(sf_dir: str):
    """Dataset.union (D5 analogue): customer + supplier rows unioned, then
    counted per nation key via partial aggregation."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_nationkey"]
    ).map_batches(
        lambda t: pa.table({"nationkey": t["c_nationkey"]}), batch_format="pyarrow"
    )
    supp = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_nationkey"]
    ).map_batches(
        lambda t: pa.table({"nationkey": t["s_nationkey"]}), batch_format="pyarrow"
    )
    both = cust.union(supp)
    return bucketed_count(both, ["nationkey"], "n_parties")


def _q_majority_assignment(sf_dir: str):
    """J4/J5: cluster -> person-id majority assignment with uniqueness +
    singleton fill (SURVEY D4), over a DETERMINISTIC labeled table derived
    from the customer table by modular arithmetic — SQL-replicable, so
    this query carries a full hash-exact oracle (r2 next-step #7; it was
    rows-only before). By construction each person belongs to exactly one
    cluster, so the greedy's claim order never contends and the oracle's
    per-cluster argmax is exact; the CONTENDED greedy path stays covered
    by tests/test_evaluate.py::test_majority_assignment. Persons that are
    never any cluster's majority fall through to singleton fill."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.evaluate import majority_assignment

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"])

    def to_labeled(t: pa.Table) -> pa.Table:
        k = np.asarray(t["c_custkey"].to_pandas(), dtype=np.int64)
        cluster = k % 40
        minority = (k // 40) % 4 == 0
        person = np.where(minority, cluster + 40, cluster)
        return pa.table(
            {
                "block_key": pa.array([f"b{v}" for v in (k % 2)], type=pa.string()),
                "cluster_id": pa.array([f"c{v}" for v in cluster], type=pa.string()),
                "person_id": pa.array([f"p{v}" for v in person], type=pa.string()),
            }
        )

    labeled = cust.map_batches(to_labeled, batch_format="pyarrow")
    return majority_assignment(labeled).to_pandas().sort_values(
        ["block_key", "person_id"]
    ).reset_index(drop=True)


def _q_vocabulary(sf_dir: str):
    """Corpus vocabulary with doc frequencies (tokenizer-training prep)."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import vocabulary

    return vocabulary(_docs(sf_dir, columns=["doc_id", "text"]), min_count=2)


def _q_pii_scrub(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import pii_scrub

    return pii_scrub(_docs(sf_dir, columns=["doc_id", "text"]))


def _q_tfidf_top_terms(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import tfidf_top_terms

    return tfidf_top_terms(_docs(sf_dir, columns=["doc_id", "text"]), k=3)


def _q_pack_sequences(sf_dir: str):
    """Greedy LLM-training sequence packing over whitespace token counts
    (budget 200, 4 hash buckets — deterministic, SQL-replicable)."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import pack_sequences, token_count

    counts = token_count(_docs(sf_dir, columns=["doc_id", "text"])).select_columns(
        ["doc_id", "n_ws_tokens"]
    )
    return pack_sequences(counts, token_col="n_ws_tokens", budget=200, n_buckets=4)


def _q_compression_ratio(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import compression_ratio

    ds = compression_ratio(_docs(sf_dir, columns=["doc_id", "text"]))
    return ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "ratio_milli": pa.compute.round(
                    pa.compute.multiply(t["compression_ratio"], 1000.0)
                ).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


_BLOCKLIST = ("src1", "src4")


def _q_repetition_docs(sf_dir: str):
    """Gopher-style word-repetition stats (dup-word / top-word fraction +
    flag); the whole computation is segmented numpy over flat tokens."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import repetition_stats

    return repetition_stats(_docs(sf_dir, columns=["doc_id", "text"]))


def _q_source_stats(sf_dir: str):
    """Domain-level crawl filter: drop blocklisted sources (broadcast set,
    no shuffle), then per-source doc/char rollup with per-batch partials."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import source_stats

    return source_stats(
        _docs(sf_dir, columns=["doc_id", "source", "n_chars"]),
        blocklist=frozenset(_BLOCKLIST),
    )


def _q_length_histogram(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import length_histogram

    return length_histogram(_docs(sf_dir, columns=["doc_id", "n_chars"]))


def _q_bigram_counts(sf_dir: str):
    from hgcn_name_disambiguation_ray.pipelines.textprep import bigram_counts

    return bigram_counts(_docs(sf_dir, columns=["doc_id", "text"]), k=100)


def _q_char_quantiles(sf_dir: str):
    """Exact distributed quantiles over the doc-length column (value-count
    partials; only distinct values shuffle)."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import char_quantiles

    return char_quantiles(_docs(sf_dir, columns=["doc_id", "n_chars"]))


def _q_train_test_split(sf_dir: str):
    """Deterministic 90/10 split by Knuth multiplicative hash of doc_id —
    pure modular arithmetic, so the oracle replicates it exactly in SQL."""
    from hgcn_name_disambiguation_ray.stages.sampling import hash_split

    return hash_split(_docs(sf_dir, columns=["doc_id"]), train_pct=90).select_columns(
        ["doc_id", "split"]
    )


def _q_sampled_docs(sf_dir: str):
    """Content-stable 20% sample (same rows on every run / cluster size)."""
    from hgcn_name_disambiguation_ray.stages.sampling import deterministic_sample

    return deterministic_sample(_docs(sf_dir, columns=["doc_id"]), frac=0.2)


def _q_group_topk_chars(sf_dir: str):
    """Per-language top-3 docs by n_chars (ties -> smaller doc_id)."""
    from hgcn_name_disambiguation_ray.stages.groupagg import group_topk

    return group_topk(
        _docs(sf_dir, columns=["lang", "doc_id", "n_chars"]),
        keys=["lang"], sort_col="n_chars", k=3, tie_cols=["doc_id"],
    )


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs with doc_id % 97 == 0 stand in for
    the eval set (small side, broadcast once); every other doc gets its
    overlapping-3-gram count vs that set plus a contaminated flag."""
    from hgcn_name_disambiguation_ray.stages.decontam import decontaminate

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def split(is_bench: bool):
        def body(t: pa.Table) -> pa.Table:
            ids = np.asarray(t["doc_id"].to_pandas(), dtype=np.int64)
            m = (ids % 97 == 0) == is_bench
            return t.filter(pa.array(m))

        return body

    bench = docs.map_batches(split(True), batch_format="pyarrow")
    corpus = docs.map_batches(split(False), batch_format="pyarrow")
    return decontaminate(corpus, bench, n=3)


def _q_stratified_sample(sf_dir: str):
    """Corpus mixing: deterministic 20-docs-per-language cap (Knuth-hash
    ranked, pure function of doc_id — identical at any cluster size)."""
    from hgcn_name_disambiguation_ray.stages.sampling import stratified_sample

    return stratified_sample(
        _docs(sf_dir, columns=["lang", "doc_id"]), "lang", 20
    )


def _q_doc_chunks(sf_dir: str):
    """Context-window chunking: 32-token windows with 8-token overlap,
    1-to-n fan-out inside one map_batches (Arrow take + binary_join)."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import doc_chunks

    return doc_chunks(
        _docs(sf_dir, columns=["doc_id", "text"]), chunk_tokens=32, overlap=8
    )


def _q_warc_roundtrip(sf_dir: str):
    """WARC ingestion (the Common Crawl container): the documents table
    is exported once as a per-record-gzip-member WARC archive (response
    records with real HTTP wrapping for even doc ids, WET-style
    conversion records for odd — both archive layouts Common Crawl
    ships), read back through `sources/warc.read_warc` (one parse task
    per archive, raw bytes via pyarrow.fs with compression pinned off,
    HTTP headers stripped in-pipeline), and compared hash-exact against
    the parquet view —
    the gzip-member split, WARC grammar, Content-Length slicing and
    HTTP strip must all be byte-perfect for the text to survive."""
    from hashlib import blake2b

    from hgcn_name_disambiguation_ray.sources.warc import read_warc, synth_warc

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    key = f"{st.st_mtime_ns:x}-{st.st_size:x}"
    d = blake2b(sf_dir.encode(), digest_size=4).hexdigest()
    out_dir = f"/tmp/graft_warc_{d}_{key}"
    # shard into several archives so the read itself is parallel
    n_shards = 4
    paths = [os.path.join(out_dir, f"part-{i}.warc.gz") for i in range(n_shards)]
    if not all(os.path.exists(p) for p in paths):
        import pyarrow.parquet as pq

        os.makedirs(out_dir, exist_ok=True)
        df = pq.read_table(src, columns=["doc_id", "text"]).to_pandas()
        tag = f".tmp-{os.getpid()}"
        for i in range(n_shards):
            part = df[df["doc_id"] % n_shards == i]
            recs = [
                {
                    "url": f"https://warc.test/{int(r.doc_id)}",
                    "date": "2020-09-13T12:26:40Z",
                    "payload": str(r.text).encode("utf-8"),
                    "type": "response" if int(r.doc_id) % 2 == 0 else "conversion",
                }
                for r in part.itertuples()
            ]
            with open(paths[i] + tag, "wb") as f:
                f.write(synth_warc(recs, gzip_per_record=True))
            os.rename(paths[i] + tag, paths[i])

    rows = read_warc(paths)  # url, warc_ts, payload, warc_type

    def to_docs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        doc_id = _pc.cast(
            _pc.replace_substring(t["url"], "https://warc.test/", ""), pa.int64()
        )
        text = _pc.cast(t["payload"], pa.string())
        return pa.table({"doc_id": doc_id, "text": text})

    return rows.map_batches(to_docs, batch_format="pyarrow")


def _q_pagerank(sf_dir: str):
    """Distributed PageRank (5 power iterations, damping 0.85) over the
    customer co-occurrence graph (the `cooccur_pairs` edge set, both
    directions). All arithmetic is integer micro-units
    (`stages/graphrank.py`), so the distributed result is bit-identical
    under any partitioning — which is what lets an iterative graph
    algorithm carry a full value-hash SQL oracle (the same recurrence
    unrolled as chained CTEs with DuckDB's `//` floor division)."""
    from hgcn_name_disambiguation_ray.stages.graphrank import pagerank

    pairs = _q_cooccur_pairs(sf_dir)

    def both_dirs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        i = t["custkey_i"].combine_chunks() if isinstance(t["custkey_i"], pa.ChunkedArray) else t["custkey_i"]
        j = t["custkey_j"].combine_chunks() if isinstance(t["custkey_j"], pa.ChunkedArray) else t["custkey_j"]
        return pa.table(
            {
                "src": pa.concat_arrays([_pc.cast(i, pa.int64()), _pc.cast(j, pa.int64())]),
                "dst": pa.concat_arrays([_pc.cast(j, pa.int64()), _pc.cast(i, pa.int64())]),
            }
        )

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow")
    ranks = pagerank(edges, iters=5, damping_milli=850)
    return ranks.map_batches(
        lambda t: pa.table({"node": t["node"], "pr_micro": t["rank"]}),
        batch_format="pyarrow",
    )


def _pagerank_oracle_sql(iters: int = 5) -> str:
    """The integer-micro-unit PageRank recurrence unrolled as chained
    CTEs (DuckDB rejects aggregates in recursive CTEs, and unrolling
    keeps the arithmetic literally identical to the engine's)."""
    sql = (
        "WITH d AS (SELECT DISTINCT o_orderdate, o_custkey FROM orders), "
        "p AS (SELECT a.o_custkey AS i, b.o_custkey AS j FROM d a "
        "JOIN d b ON a.o_orderdate = b.o_orderdate AND a.o_custkey < b.o_custkey "
        "GROUP BY 1, 2), "
        "e AS (SELECT i AS src, j AS dst FROM p UNION ALL SELECT j, i FROM p), "
        "nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e), "
        "od AS (SELECT src, count(*) AS c FROM e GROUP BY 1), "
        "r0 AS (SELECT node, CAST(1000000 AS BIGINT) AS pr FROM nodes)"
    )
    for t in range(1, iters + 1):
        sql += (
            f", r{t} AS (SELECT n.node, 150000 + 850 * COALESCE(s.s, 0) // 1000 AS pr "
            f"FROM nodes n LEFT JOIN (SELECT e.dst AS node, SUM(r.pr // od.c) AS s "
            f"FROM e JOIN r{t-1} r ON r.node = e.src JOIN od ON od.src = e.src "
            f"GROUP BY 1) s ON s.node = n.node)"
        )
    return sql + f" SELECT node, CAST(pr AS BIGINT) AS pr_micro FROM r{iters}"


def _q_multiformat_source(sf_dir: str):
    """Source-format coverage: the same rows land via ray.data.read_json
    (JSONL) and ray.data.read_csv, union, and aggregate — checked against
    the parquet view, so all three readers must agree. The JSONL/CSV
    renditions are materialized once under /tmp, keyed on the parquet
    file's (mtime, size) so regenerated fixtures re-export instead of
    silently serving stale rows."""
    import ray.data as rd

    from hashlib import blake2b

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    key = f"{st.st_mtime_ns:x}-{st.st_size:x}"
    # stable digest, not hash(): Python randomizes str hashes per process,
    # which would mint a fresh export dir every run
    d = blake2b(sf_dir.encode(), digest_size=4).hexdigest()
    out_dir = f"/tmp/graft_srcfmt_{d}_{key}"
    jsonl = os.path.join(out_dir, "docs.jsonl")
    csvf = os.path.join(out_dir, "docs.csv")
    if not (os.path.exists(jsonl) and os.path.exists(csvf)):
        import pyarrow.parquet as pq

        os.makedirs(out_dir, exist_ok=True)
        df = pq.read_table(src, columns=["doc_id", "lang"]).to_pandas()
        # per-process tmp names: two concurrent battery runs must not
        # interleave writes into one .tmp and cache the corruption
        tag = f".tmp-{os.getpid()}"
        df.to_json(jsonl + tag, orient="records", lines=True)
        df.to_csv(csvf + tag, index=False)
        os.rename(jsonl + tag, jsonl)
        os.rename(csvf + tag, csvf)

    both = rd.read_json(jsonl).union(rd.read_csv(csvf))
    return bucketed_count(both, ["lang"])


def _q_incremental_dedup(sf_dir: str):
    """Exact incremental crawl dedup: Bloom prefilter (no false
    negatives) routes only the maybe-seen subset through the distributed
    anti-join that resurrects false positives — output equals the plain
    anti-join bit for bit, at O(overlap) join volume. Snapshot = docs
    with doc_id % 3 == 0, keyed by text."""
    from hgcn_name_disambiguation_ray.stages.sketch import incremental_dedup

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def snap_only(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pandas(), dtype=np.int64)
        return t.filter(pa.array(ids % 3 == 0))

    snapshot = docs.map_batches(snap_only, batch_format="pyarrow")
    out = incremental_dedup(docs, snapshot, "text")
    return out.select_columns(["doc_id"])


def _q_approx_distinct(sf_dir: str):
    """HyperLogLog distinct-token count next to the exact answer, with
    the relative error as a column — the hard signal is integral to the
    output (err_milli pinned < 30 in tests; HLL standard error at p=12
    is ~1.6%). no_oracle: register sketches are not SQL-expressible;
    the 'exact' column itself comes from the engine's oracle-checked
    vocabulary operator."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import vocabulary
    from hgcn_name_disambiguation_ray.stages.sketch import approx_distinct_tokens

    docs = _docs(sf_dir, columns=["doc_id", "text"])
    est = approx_distinct_tokens(docs)
    exact = vocabulary(docs).count()
    err_milli = int(round(abs(est - exact) / max(exact, 1) * 1000))
    return pd.DataFrame(
        {
            "hll_estimate": pd.Series([est], dtype=np.int64),
            "exact_distinct": pd.Series([exact], dtype=np.int64),
            "err_milli": pd.Series([err_milli], dtype=np.int64),
        }
    )


def _q_kll_quantiles(sf_dir: str):
    """KLL quantile sketch (mergeable, bounded-state — the unbounded-domain
    companion to the exact `char_quantiles`) over a high-cardinality float
    column (mean token length = n_chars / n_tokens). Hard in-row signal:
    `err_milli` is the exact rank error of each estimate, measured against
    the full distributed CDF of the same column; pinned < 15 in tests
    (k=256 gives 2-5 milli empirically). no_oracle: compactor sketches are
    not SQL-expressible; the error column IS the check."""
    import pyarrow.compute as _pc

    from hgcn_name_disambiguation_ray.stages.sketch import kll_quantiles

    docs = _docs(sf_dir, columns=["doc_id", "n_chars", "text"])

    def mean_tok_len(t: pa.Table) -> pa.Table:
        toks = _pc.split_pattern(_pc.utf8_trim_whitespace(t["text"]), " ")
        n_tok = _pc.max_element_wise(_pc.list_value_length(toks), 1)
        ratio = _pc.divide(
            _pc.cast(t["n_chars"], pa.float64()), _pc.cast(n_tok, pa.float64())
        )
        return pa.table({"mean_tok_len": ratio})

    vals = docs.map_batches(mean_tok_len, batch_format="pyarrow")
    return kll_quantiles(vals, "mean_tok_len")


def _q_heavy_hitters(sf_dir: str):
    """Tokens exceeding 1/50 of the corpus token mass, found by the
    Misra-Gries candidate sketch + exact verify pass — NO full token
    shuffle (the scale path next to `vocabulary_counts`' exact groupby).
    The sketch guarantee (no item above total/(k+1) can be missed) plus
    the exact verification makes the output literally the SQL
    HAVING-count set, so this sketch-powered operator carries a full
    value-hash oracle."""
    from hgcn_name_disambiguation_ray.stages.sketch import heavy_hitters

    return heavy_hitters(_docs(sf_dir, columns=["doc_id", "text"]), k=50)


def _q_token_freq_score(sf_dir: str):
    """Mean corpus-frequency of each doc's tokens (integer-exact LM-
    perplexity stand-in for crawl quality filtering); a composition of
    vocabulary + auto_join + bucketed per-doc integer sums."""
    from hgcn_name_disambiguation_ray.pipelines.textprep import token_freq_score

    return token_freq_score(_docs(sf_dir, columns=["doc_id", "text"]))


def _q_audio_features(sf_dir: str):
    """REAL audio decode (stdlib RIFF/WAV parse — unlike the image/video
    stubs, no codec library is needed for PCM) + genuine DSP features.
    Payloads are deterministic sine WAVs synthesized from doc_id, so the
    known tone frequency rides in the output (freq_hz) next to the
    measured spectral centroid — the hard signal is integral: centroid
    tracks the tone within 5% on every row (pinned in
    tests/test_multimodal.py). no_oracle: WAV framing + FFT are not
    SQL-expressible."""
    from hgcn_name_disambiguation_ray.stages.multimodal import (
        decode_audio_features,
        synth_wav,
    )

    docs = _docs(sf_dir, columns=["doc_id"]).limit(100)

    def to_clips(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pandas(), dtype=np.int64)
        payloads = []
        for i in ids:
            freq = 200.0 + float(i % 20) * 40.0
            n = 8000 * 200 // 1000
            tt = np.arange(n) / 8000.0
            payloads.append(
                synth_wav(np.round(np.sin(2 * np.pi * freq * tt) * 0.5 * 32767), 8000)
            )
        return pa.table(
            {
                "item_id": pa.array([f"clip-{i}" for i in ids], type=pa.string()),
                "freq_hz": pa.array((200 + (ids % 20) * 40).astype(np.int64)),
                "payload": pa.array(payloads, type=pa.binary()),
                "mime": pa.array(["audio/wav"] * len(ids), type=pa.string()),
            }
        )

    clips = docs.map_batches(to_clips, batch_format="pyarrow")
    feats = decode_audio_features(
        clips.select_columns(["item_id", "payload", "mime"])
    )
    # attach the known tone: broadcast-free since freq decodes from the id
    def attach(t: pa.Table) -> pa.Table:
        ids = np.asarray(
            [int(s.split("-")[1]) for s in t["item_id"].to_pylist()], dtype=np.int64
        )
        return t.append_column("freq_hz", pa.array((200 + (ids % 20) * 40).astype(np.int64)))

    return feats.map_batches(attach, batch_format="pyarrow")


def _q_video_frames(sf_dir: str):
    """REAL video frame sampling across BOTH in-engine video paths,
    round-robin by doc id: even ids get MJPEG-in-MP4 payloads (frames
    encoded by the in-repo JPEG codec, muxed by functions/mp4.synth_mp4
    with multi-chunk sample tables, demuxed via the ISO BMFF
    stsd/stts/stsc/stsz/stco parse), odd ids get animated GIF payloads
    (true inter-frame delta coding: functions/gif.py LZW + disposal
    compositing) — all decoded fake=False by SampleFrames. no_oracle
    (container parsing + DCT/LZW are not SQL-expressible), so the
    result carries a HARD integral signal in-row: `match_direct` = 1
    iff the pipeline's decoded pixels are byte-identical to an
    independently regenerated source frame (exact for GIF — lossless —
    and exact vs decode_jpeg(synth_jpeg(...)) for MP4) — any
    mux/demux offset error, compositing bug or codec divergence shows
    up as 0. Pinned in tests/test_mp4.py and tests/test_gif.py."""
    from hgcn_name_disambiguation_ray.functions.gif import synth_gif
    from hgcn_name_disambiguation_ray.functions.jpeg import decode_jpeg, synth_jpeg
    from hgcn_name_disambiguation_ray.functions.mp4 import synth_mp4
    from hgcn_name_disambiguation_ray.stages.multimodal import sample_frames

    n_src, k = 6, 3  # 6 source frames, sample 3 -> source indices 1, 3, 5

    def frame_img(doc_id: int, fi: int) -> "np.ndarray":
        w, h = 16 + int(doc_id % 5), 16 + int(doc_id % 3)
        y, x = np.mgrid[0:h, 0:w]
        if doc_id % 2:  # GIF payloads are palettized: 16-gray pattern
            g = ((x * 3 + y * 5 + fi * 7 + doc_id) % 16 * 17).astype(np.uint8)
            return np.stack([g, g, g], axis=-1)
        return np.stack(
            [(x * 5 + doc_id + fi * 17) % 256, (y * 9 + fi * 3) % 256, (x + y + fi * 29) % 256],
            axis=-1,
        ).astype(np.uint8)

    def to_videos(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pandas(), dtype=np.int64)
        payloads = []
        mimes = []
        for i in ids:
            srcs = [frame_img(int(i), fi) for fi in range(n_src)]
            if i % 2:
                payloads.append(synth_gif(np.stack(srcs), delays_ms=[200] * n_src))
                mimes.append("image/gif")
            else:
                frames = [synth_jpeg(s, quality=92) for s in srcs]
                payloads.append(
                    synth_mp4(frames, width=16 + int(i % 5), height=16 + int(i % 3),
                              fps=5, timescale=1000, frames_per_chunk=2)
                )
                mimes.append("video/mp4")
        return pa.table(
            {
                "item_id": pa.array([f"vid-{i}" for i in ids], type=pa.string()),
                "payload": pa.array(payloads, type=pa.binary()),
                "mime": pa.array(mimes, type=pa.string()),
                "duration_ms": pa.array(np.full(len(ids), n_src * 200, dtype=np.int32)),
                "width": pa.array((16 + ids % 5).astype(np.int32)),
                "height": pa.array((16 + ids % 3).astype(np.int32)),
            }
        )

    docs = _docs(sf_dir, columns=["doc_id"]).limit(50)
    sampled = sample_frames(docs.map_batches(to_videos, batch_format="pyarrow"),
                            n_frames=k, fake=False)

    def verify(t: pa.Table) -> pa.Table:
        ids = [int(s.split("-")[1]) for s in t["item_id"].to_pylist()]
        fidx = t["frame_idx"].to_pylist()
        pix = t["pixels"].to_pylist()
        match = []
        sums = []
        for doc_id, j, p in zip(ids, fidx, pix):
            src = (n_src * (2 * j + 1)) // (2 * k)  # the sampled source index
            if doc_id % 2:  # GIF is lossless: exact source-frame equality
                direct = frame_img(doc_id, src).reshape(-1)
            else:
                direct = decode_jpeg(synth_jpeg(frame_img(doc_id, src), quality=92)).reshape(-1)
            got = np.asarray(p, dtype=np.uint8)
            match.append(int(len(got) == len(direct) and np.array_equal(got, direct)))
            sums.append(int(got.sum()))
        return pa.table(
            {
                "item_id": t["item_id"],
                "frame_idx": t["frame_idx"],
                "ts_ms": t["ts_ms"],
                "pix_sum": pa.array(sums, type=pa.int64()),
                "match_direct": pa.array(match, type=pa.int64()),
            }
        )

    return sampled.map_batches(verify, batch_format="pyarrow")


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd k-means over the embeddings table (k=8, 5
    iterations, deterministic Knuth-hash init). no_oracle: an iterative
    float64 fixpoint is not SQL-expressible — so the result carries its
    own HARD integral signal in-row: `match_ref` = 1 iff the row's
    distributed assignment equals a single-process reference Lloyd (same
    init, same iteration count) recomputed independently driver-side.
    The driver would see any fit/assignment divergence as match_ref = 0.
    The reference recompute is verification-only and bounded to the
    query's test scales (<= ~1e5 rows); also pinned by exact parity +
    partitioning-invariance tests in tests/test_similarity.py."""
    import ray
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sampling import split_hash
    from hgcn_name_disambiguation_ray.stages.similarity import (
        kmeans_assign,
        kmeans_fit,
    )

    k, iters = 8, 5
    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    centroids = kmeans_fit(ds, k=k, iters=iters)
    assigned = kmeans_assign(ds, centroids)

    # single-process reference Lloyd, same deterministic hash init and the
    # same distance expression kmeans_assign uses
    tbl = ds.to_pandas()
    ids = tbl["vec_id"].to_numpy(dtype=np.int64)
    X = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    h = split_hash(ids).astype(np.int64)
    Cr = X[np.lexsort((ids, h))[:k]].copy()
    for _ in range(iters):
        a = np.argmin(-2.0 * (X @ Cr.T) + (Cr * Cr).sum(axis=1)[None, :], axis=1)
        for j in range(k):
            m = a == j
            if m.any():
                Cr[j] = X[m].mean(axis=0)
    exp = np.argmin(-2.0 * (X @ Cr.T) + (Cr * Cr).sum(axis=1)[None, :], axis=1)
    order = np.argsort(ids)
    # full squared distances (not the argmin-only expression) so ties can
    # be recognized below; expansion form keeps this n x k, never n x k x d
    d2 = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * (X @ Cr.T)
        + (Cr * Cr).sum(axis=1)[None, :]
    )
    ref = ray.put((ids[order], exp[order].astype(np.int64), d2[order]))

    def attach(t: pa.Table) -> pa.Table:
        ids_s, exp_s, d2_s = ray.get(ref)
        vid = np.asarray(t["vec_id"].to_pandas(), dtype=np.int64)
        got = np.asarray(t["cluster"].to_pandas(), dtype=np.int64)
        pos = np.searchsorted(ids_s, vid)
        eq = got == exp_s[pos]
        # the distributed fit reduces per-block partial sums in a different
        # float64 order than the reference's np.mean — a row sitting exactly
        # between two centroids can flip argmin on the last ulp without
        # either run being wrong. Count it as a match when the reference's
        # own distances to the two chosen centroids are a numerical tie.
        d_got = d2_s[np.arange(len(pos)), got] if len(pos) else np.zeros(0)
        d_exp = d2_s[np.arange(len(pos)), exp_s[pos]] if len(pos) else np.zeros(0)
        tie = np.abs(d_got - d_exp) <= 1e-9 * np.maximum(1.0, np.abs(d_exp))
        match = (eq | tie).astype(np.int64)
        return t.append_column("match_ref", pa.array(match))

    return assigned.map_batches(attach, batch_format="pyarrow")


def _q_linkage_sharded(sf_dir: str):
    """`run_linkage` at 4 block-key shards over the pages fixture: the
    shards checkpoint independently (kill/resume covered in
    tests); output must equal the unsharded pipeline's clusters. Each
    call writes its shards to its own temporary directory, so it never
    serves shards another checkout's scorer wrote."""
    import tempfile

    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    src = os.path.join(_fixture_pages_dir(), "pages.parquet")
    with tempfile.TemporaryDirectory(prefix="hgcn_ray_shard_ckpt_") as ckpt:
        out = run_linkage(rd.read_parquet(src), LinkageConfig(), checkpoint_dir=ckpt,
                          lineage_token=src, n_shards=4).materialize()
        _linkage_f1_checked(out)
        # read into pandas before the shard files go
        return out.to_pandas().sort_values("mention_id").reset_index(drop=True)


def _q_linkage_arnetminer(sf_dir: str):
    """Real-data conformance: the reference's labeled Arnetminer corpus
    (110 names, ~9k publications) through the untouched production
    pipeline; returns per-name pairwise P/R/F1 plus the __macro__ row.
    sf_dir is unused — the input is the reference's own committed corpus."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        clusters_with_truth,
        run_linkage,
    )
    from hgcn_name_disambiguation_ray.sources.arnetminer import arnetminer_tables
    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    raw = "/root/reference/raw-data"
    if not os.path.isdir(raw):
        return pd.DataFrame({"block_key": pd.Series(dtype=object),
                             "precision": pd.Series(dtype=np.float64),
                             "recall": pd.Series(dtype=np.float64),
                             "f1": pd.Series(dtype=np.float64)})
    pages, truth = arnetminer_tables(raw)
    clusters = run_linkage(rd.from_arrow(pages), LinkageConfig())
    scores = pairwise_scores(clusters_with_truth(clusters, truth))
    return scores.sort_values("block_key").reset_index(drop=True)


def _q_linkage_arnetminer_artifact(sf_dir: str):
    """The artifact-regime run on the same corpus: in-engine-trained
    PPMI-SVD word vectors + unmasked cross-component GHAC (ghac_hybrid).
    Re-creates the regime behind the reference's COMMITTED artifacts
    (macro F1 0.892 from an external word2vec model its repo doesn't
    ship); measured here ≥ 0.78 (round 4: venue tokens joined the vector
    training corpus and the title vector) vs 0.609 for the faithful
    default — the macro row in the output carries the hard signal."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        clusters_with_truth,
        run_linkage_artifact,
    )
    from hgcn_name_disambiguation_ray.sources.arnetminer import arnetminer_tables
    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    raw = "/root/reference/raw-data"
    if not os.path.isdir(raw):
        return pd.DataFrame({"block_key": pd.Series(dtype=object),
                             "precision": pd.Series(dtype=np.float64),
                             "recall": pd.Series(dtype=np.float64),
                             "f1": pd.Series(dtype=np.float64)})
    pages, truth = arnetminer_tables(raw)
    # key the cached word-vector model on the corpus contents (file
    # names + mtimes + sizes), not the path alone — a regenerated corpus
    # retrains instead of silently reusing stale vectors
    stat = sorted(
        (f, int(s.st_mtime), s.st_size)
        for f in os.listdir(raw)
        for s in [os.stat(os.path.join(raw, f))]
    )
    clusters = run_linkage_artifact(
        rd.from_arrow(pages),
        model_path="/tmp/arnet_artifact_w2v.txt",
        lineage_token=repr(stat),
    )
    scores = pairwise_scores(clusters_with_truth(clusters, truth))
    return scores.sort_values("block_key").reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    # Ordering contract: the driver verifies the FIRST 50 dict entries against
    # oracle_sql().  50 of the 53 oracle-bearing queries come first (the
    # window is exactly full); token_count (driver-verified hash-exact in
    # rounds 1-3), lang_agg and source_filter (driver-verified in rounds
    # 1-4) rotate out to admit json_props_stats (r4) and heavy_hitters +
    # warc_roundtrip (r5), so every oracle-bearing query has driver
    # evidence in at least one round.
    # no_oracle queries follow, led by the two highest-signal ones (the
    # Arnetminer artifact regime and the IVF index, both of which carry hard
    # in-row signals pinned by tests).
    return {
        "warc_roundtrip": _q_warc_roundtrip,
        "exact_dedup": _q_exact_dedup,
        "dedup_corpus": _q_dedup_corpus,
        "heavy_hitters": _q_heavy_hitters,
        "pagerank": _q_pagerank,
        "cooccur_pairs": _q_cooccur_pairs,
        "blocking_keys": _q_blocking_keys,
        "shared_token_pairs": _q_shared_token_pairs,
        "eval_counts": _q_eval_counts,
        "window_counts": _q_window_counts,
        "hopping_window": _q_hopping_window,
        "top_orders": _q_top_orders,
        "topk_cosine": _q_topk_cosine,
        "minhash_dedup": _q_minhash_dedup,
        "simhash_dedup": _q_simhash_dedup,
        "ngram_dedup": _q_ngram_dedup,
        "embedding_neardup": _q_embedding_neardup,
        "language_id": _q_language_id,
        "quality": _q_quality,
        "gopher_rules": _q_gopher_rules,
        "segment_dedup": _q_segment_dedup,
        "cust_nation_join": _q_cust_nation_join,
        "top_customers": _q_top_customers,
        "lineitem_agg": _q_lineitem_agg,
        "sessionize": _q_sessionize,
        "json_props_stats": _q_json_props_stats,
        "train_test_split": _q_train_test_split,
        "vocabulary_counts": _q_vocabulary,
        "pack_sequences": _q_pack_sequences,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "repetition_docs": _q_repetition_docs,
        "source_stats": _q_source_stats,
        "length_histogram": _q_length_histogram,
        "bigram_counts": _q_bigram_counts,
        "char_quantiles": _q_char_quantiles,
        "pii_scrub": _q_pii_scrub,
        "sampled_docs": _q_sampled_docs,
        "group_topk_chars": _q_group_topk_chars,
        "decontaminate": _q_decontaminate,
        "stratified_sample": _q_stratified_sample,
        "doc_chunks": _q_doc_chunks,
        "token_freq_score": _q_token_freq_score,
        "incremental_dedup": _q_incremental_dedup,
        "multiformat_source": _q_multiformat_source,
        "majority_assignment": _q_majority_assignment,
        "closure_components": _q_closure_components,
        "union_names": _q_union_names,
        "segment_orders": _q_segment_orders,
        "asof_latest_event": _q_asof_latest_event,
        "range_week_events": _q_range_week_events,
        # --- past the driver's 50-query window ---
        # token_count, lang_agg, source_filter and normalize_tokens keep
        # their oracles but rotate out of the window (token_count
        # driver-verified hash-exact in rounds 1-3, the rest in rounds 1-4 —
        # CORRECTNESS_r0{1..4}.json) to admit json_props_stats (r4) and
        # heavy_hitters + warc_roundtrip + pagerank (r5);
        # tools/check_queries.py still verifies all four locally at both
        # scales every round.
        "token_count": _q_token_count,
        "lang_agg": _q_lang_agg,
        "source_filter": _q_source_filter,
        "normalize_tokens": _q_normalize_tokens,
        # no_oracle queries follow, the two
        # highest-signal ones (hard in-row signals, pinned by tests) first ---
        "linkage_arnetminer_artifact": _q_linkage_arnetminer_artifact,
        "ivf_topk": _q_ivf_topk,
        "stemmed_tokens": _q_stemmed_tokens,
        "fingerprint_docs": _q_fingerprint,
        "multimodal_features": _q_multimodal_features,
        "linkage_clusters": _q_linkage_clusters,
        "linkage_scores": _q_linkage_scores,
        "linkage_arnetminer": _q_linkage_arnetminer,
        "linkage_sharded": _q_linkage_sharded,
        "compression_docs": _q_compression_ratio,
        "kmeans_clusters": _q_kmeans_clusters,
        "audio_features": _q_audio_features,
        "approx_distinct": _q_approx_distinct,
        "kll_quantiles": _q_kll_quantiles,
        "video_frames": _q_video_frames,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "source_filter": "SELECT doc_id, n_chars FROM documents WHERE lang = 'en'",
        "normalize_tokens": f"SELECT doc_id, {_SQL_TOKENS} AS tokens FROM documents",
        "token_count": (
            "SELECT doc_id, "
            "length(list_filter(string_split(text, ' '), x -> length(x) > 0)) AS n_ws_tokens, "
            "length(list_filter(string_split(text, ' '), x -> length(x) > 1)) AS n_tokens "
            "FROM documents"
        ),
        "exact_dedup": (
            "SELECT min(doc_id) AS keep_id, count(*) AS n_copies FROM documents GROUP BY text"
        ),
        "dedup_corpus": (
            "SELECT doc_id, length(text) AS n_chars3 FROM documents "
            "WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY text)"
        ),
        "lang_agg": (
            "SELECT lang, CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS sum_chars FROM documents GROUP BY lang"
        ),
        "warc_roundtrip": (
            # the WARC export/reader must return exactly the documents rows
            "SELECT doc_id, text FROM documents"
        ),
        "pagerank": _pagerank_oracle_sql(5),
        "heavy_hitters": (
            # exact heavy-hitter set: count(*) * k > total token count —
            # precisely what the MG-candidates + exact-verify pass returns
            "WITH toks AS (SELECT unnest(list_filter(string_split("
            "regexp_replace(lower(text), '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0)) AS token FROM documents), "
            "tot AS (SELECT count(*) AS n FROM toks) "
            "SELECT token, count(*) AS cnt FROM toks GROUP BY token "
            "HAVING count(*) * 50 > (SELECT n FROM tot) ORDER BY token"
        ),
        "cooccur_pairs": (
            "WITH d AS (SELECT DISTINCT o_orderdate, o_custkey FROM orders) "
            "SELECT a.o_custkey AS custkey_i, b.o_custkey AS custkey_j, "
            "count(*) AS n_shared FROM d a JOIN d b ON a.o_orderdate = b.o_orderdate "
            "AND a.o_custkey < b.o_custkey GROUP BY 1, 2"
        ),
        "blocking_keys": (
            "SELECT p_partkey, CASE WHEN len(nparts) <= 1 THEN coalesce(nparts[1], '') "
            "ELSE nparts[1] || ' ' || nparts[-1] END AS block_key FROM ("
            "SELECT p_partkey, list_filter(string_split(regexp_replace(lower(p_name), "
            "'\\s+', ' ', 'g'), ' '), x -> length(x) > 0) AS nparts FROM part)"
        ),
        "shared_token_pairs": (
            "WITH toks AS (SELECT DISTINCT doc_id, source, unnest("
            "list_filter(string_split(text, ' '), x -> length(x) > 1)) AS tok "
            "FROM documents) "
            "SELECT a.doc_id AS doc_i, b.doc_id AS doc_j, count(*) AS n_shared "
            "FROM toks a JOIN toks b ON a.source = b.source AND a.tok = b.tok "
            "AND a.doc_id < b.doc_id GROUP BY 1, 2 HAVING count(*) >= 2"
        ),
        "eval_counts": (
            "WITH cells AS (SELECT label AS t, vec_id % 7 AS p, count(*) AS n "
            "FROM embeddings GROUP BY 1, 2) "
            "SELECT CAST(sum(n * (n-1) // 2) AS BIGINT) AS tp, "
            "(SELECT CAST(sum(n * (n-1) // 2) AS BIGINT) FROM "
            "(SELECT sum(n) AS n FROM cells GROUP BY p)) AS pp, "
            "(SELECT CAST(sum(n * (n-1) // 2) AS BIGINT) FROM "
            "(SELECT sum(n) AS n FROM cells GROUP BY t)) AS ap FROM cells"
        ),
        "cust_nation_join": (
            "SELECT r_name, n_name, count(*) AS n_cust FROM customer "
            "JOIN nation ON c_nationkey = n_nationkey "
            "JOIN region ON n_regionkey = r_regionkey GROUP BY 1, 2"
        ),
        "top_customers": (
            "WITH cnt AS (SELECT o_custkey, count(*) AS n_orders FROM orders GROUP BY 1) "
            "SELECT o_custkey, c_name, n_orders FROM cnt "
            "JOIN customer ON o_custkey = c_custkey "
            "ORDER BY n_orders DESC, o_custkey LIMIT 10"
        ),
        "lineitem_agg": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(round(sum(l_quantity)) AS BIGINT) AS sum_qty, "
            "count(*) AS n_rows FROM lineitem GROUP BY 1, 2"
        ),
        "closure_components": (
            "SELECT c_custkey AS node_id, CAST(c_custkey % 3 AS BIGINT) AS component "
            "FROM customer WHERE c_custkey <= 500"
        ),
        "range_week_events": (
            "WITH o AS (SELECT o_orderkey, o_custkey % 150 AS u, "
            "TIMESTAMP '2024-01-01' + (o_orderkey % 20) * INTERVAL 1 DAY AS s "
            "FROM orders) "
            "SELECT o_orderkey, count(*) AS n_events FROM o JOIN events "
            "ON events.user_id = o.u AND events.ts >= o.s "
            "AND events.ts <= o.s + INTERVAL 7 DAY GROUP BY 1"
        ),
        "asof_latest_event": (
            "WITH ev AS (SELECT user_id, ts, max(event_id) AS event_id "
            "FROM events GROUP BY 1, 2), "
            "o AS (SELECT o_orderkey, o_custkey % 150 AS u, "
            "CAST(o_orderdate AS TIMESTAMP) AS t FROM orders) "
            "SELECT o.o_orderkey, CAST(ev.event_id AS DOUBLE) AS event_id "
            "FROM o ASOF LEFT JOIN ev ON o.u = ev.user_id AND ev.ts <= o.t"
        ),
        "segment_orders": (
            "SELECT c_mktsegment, count(*) AS n_orders FROM orders "
            "JOIN customer ON o_custkey = c_custkey GROUP BY 1"
        ),
        # deterministic labeled table from customer (same arithmetic as the
        # Ray query); persons are cluster-exclusive by construction, so the
        # greedy assignment == per-cluster argmax and is SQL-expressible;
        # unclaimed persons fill singletons in sorted order per block
        "majority_assignment": (
            "WITH lab AS (SELECT 'b' || CAST(c_custkey % 2 AS VARCHAR) AS block_key, "
            "'c' || CAST(c_custkey % 40 AS VARCHAR) AS cluster_id, "
            "CASE WHEN (c_custkey // 40) % 4 = 0 "
            "THEN 'p' || CAST(c_custkey % 40 + 40 AS VARCHAR) "
            "ELSE 'p' || CAST(c_custkey % 40 AS VARCHAR) END AS person_id FROM customer), "
            "counts AS (SELECT block_key, cluster_id, person_id, count(*) AS n "
            "FROM lab GROUP BY 1, 2, 3), "
            "major AS (SELECT block_key, cluster_id, person_id, "
            "row_number() OVER (PARTITION BY block_key, cluster_id "
            "ORDER BY n DESC, person_id) AS rn FROM counts), "
            "assigned AS (SELECT block_key, person_id, cluster_id AS assigned_cluster "
            "FROM major WHERE rn = 1), "
            "leftover AS (SELECT l.block_key, l.person_id FROM "
            "(SELECT DISTINCT block_key, person_id FROM lab) l "
            "LEFT JOIN assigned a ON a.block_key = l.block_key "
            "AND a.person_id = l.person_id WHERE a.person_id IS NULL), "
            "singles AS (SELECT block_key, person_id, '__singleton_' || "
            "CAST(row_number() OVER (PARTITION BY block_key ORDER BY person_id) - 1 "
            "AS VARCHAR) AS assigned_cluster FROM leftover) "
            "SELECT * FROM assigned UNION ALL SELECT * FROM singles "
            "ORDER BY block_key, person_id"
        ),
        "union_names": (
            "SELECT nationkey, count(*) AS n_parties FROM ("
            "SELECT c_nationkey AS nationkey FROM customer "
            "UNION ALL SELECT s_nationkey FROM supplier) GROUP BY 1"
        ),
        "sessionize": (
            "WITH g AS (SELECT user_id, ts, CASE WHEN epoch(ts - lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts)) > 1800 THEN 1 ELSE 0 END AS brk "
            "FROM events) "
            "SELECT user_id, CAST(sum(brk) + 1 AS BIGINT) AS n_sessions, "
            "count(*) AS n_events FROM g GROUP BY user_id"
        ),
        "window_counts": (
            "SELECT user_id, strftime(ts, '%Y-%m-%d') AS day, count(*) AS n_events "
            "FROM events GROUP BY 1, 2"
        ),
        "json_props_stats": (
            "WITH e AS (SELECT event_type, "
            "CAST(json_extract_string(props, '$.k') AS BIGINT) AS k FROM events) "
            "SELECT event_type, count(k) AS n, CAST(sum(k) AS BIGINT) AS sum_k, "
            "min(k) AS min_k, max(k) AS max_k FROM e GROUP BY 1"
        ),
        "hopping_window": (
            # same tiling as the engine: event at t lands in windows with
            # start hop*i, i in [(t - window)//hop + 1, t//hop]
            "WITH e AS (SELECT user_id, epoch_us(ts) AS t FROM events), "
            "w AS (SELECT user_id, unnest(range((t - 172800000000) // 86400000000 + 1, "
            "t // 86400000000 + 1)) AS i FROM e) "
            "SELECT user_id, i * 86400000000 AS wstart, "
            "CAST(count(*) AS BIGINT) AS n_events FROM w GROUP BY 1, 2"
        ),
        "top_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
        ),
        "topk_cosine": (
            "WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS e FROM embeddings WHERE vec_id = 0) "
            "SELECT vec_id, CAST(round(list_cosine_similarity(CAST(embedding AS DOUBLE[]), "
            "(SELECT e FROM q)) * 1e6) AS BIGINT) AS score_u FROM embeddings WHERE vec_id != 0 "
            "ORDER BY list_cosine_similarity(CAST(embedding AS DOUBLE[]), (SELECT e FROM q)) DESC, "
            "vec_id LIMIT 10"
        ),
        "tfidf_top_terms": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter(string_split("
            "regexp_replace(lower(text), '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0)) AS token FROM documents), "
            "tf AS (SELECT doc_id, token, count(*) AS tf FROM toks GROUP BY 1, 2), "
            "dfreq AS (SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df "
            "FROM toks GROUP BY 1), "
            "n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents) "
            "SELECT doc_id, token, tf, df, "
            "CAST(round(tf * ln(n / df) * 1e6) AS BIGINT) AS tfidf_micro "
            "FROM tf JOIN dfreq USING (token), n "
            "QUALIFY row_number() OVER (PARTITION BY doc_id "
            "ORDER BY tf DESC, df, token) <= 3"
        ),
        "pack_sequences": (
            # the same greedy scan, replayed row-by-row per bucket with a
            # recursive CTE over id-ordered rows
            "WITH RECURSIVE d AS (SELECT doc_id, "
            "length(list_filter(string_split(text, ' '), x -> length(x) > 0)) AS n, "
            "(((doc_id + 0) * 2654435761) % 4294967296) * 4 // 4294967296 AS bucket "
            "FROM documents), "
            "o AS (SELECT doc_id, n, bucket, "
            "row_number() OVER (PARTITION BY bucket ORDER BY doc_id) AS rn FROM d), "
            "r(bucket, rn, doc_id, seq_idx, acc) AS ("
            "SELECT bucket, rn, doc_id, 0, n FROM o WHERE rn = 1 "
            "UNION ALL SELECT o.bucket, o.rn, o.doc_id, "
            "CASE WHEN r.acc > 0 AND r.acc + o.n > 200 THEN r.seq_idx + 1 "
            "ELSE r.seq_idx END, "
            "CASE WHEN r.acc > 0 AND r.acc + o.n > 200 THEN o.n ELSE r.acc + o.n END "
            "FROM r JOIN o ON o.bucket = r.bucket AND o.rn = r.rn + 1) "
            "SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, "
            "CAST(seq_idx AS BIGINT) AS seq_idx FROM r"
        ),
        "vocabulary_counts": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter(string_split("
            "regexp_replace(lower(text), '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0)) AS token FROM documents) "
            "SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs, "
            "count(*) AS n_occurrences FROM toks GROUP BY 1 HAVING count(*) >= 2"
        ),
        "repetition_docs": (
            # docs here always have >= 1 word (synthetic corpus); the engine
            # emits zeros for empty docs, which the LEFT JOIN mirrors
            "WITH w AS (SELECT doc_id, unnest(list_filter(string_split(text, ' '), "
            "x -> length(x) > 0)) AS tok FROM documents), "
            "c AS (SELECT doc_id, tok, count(*) AS c FROM w GROUP BY 1, 2), "
            "d AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_distinct, "
            "CAST(sum(c) AS BIGINT) AS n_words2, CAST(max(c) AS BIGINT) AS top FROM c GROUP BY 1) "
            "SELECT doc.doc_id, coalesce(d.n_words2, 0) AS n_words2, "
            "round(coalesce(1.0 - d.n_distinct / CAST(d.n_words2 AS DOUBLE), 0.0), 6) AS dup_word_frac_r, "
            "round(coalesce(d.top / CAST(d.n_words2 AS DOUBLE), 0.0), 6) AS top_word_frac_r, "
            "CAST(coalesce(1.0 - d.n_distinct / CAST(d.n_words2 AS DOUBLE), 0.0) > 0.2 AS BIGINT) AS flagged "
            "FROM documents doc LEFT JOIN d ON doc.doc_id = d.doc_id"
        ),
        "source_stats": (
            "SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS sum_chars FROM documents "
            "WHERE source NOT IN ('src1', 'src4') GROUP BY source"
        ),
        "length_histogram": (
            # bucket i = lengths in [edges[i-1], edges[i]); edges
            # (50,100,150,200,300,500,1000) as in length_histogram()
            "WITH b AS (SELECT CASE WHEN n_chars < 50 THEN 0 WHEN n_chars < 100 THEN 1 "
            "WHEN n_chars < 150 THEN 2 WHEN n_chars < 200 THEN 3 WHEN n_chars < 300 THEN 4 "
            "WHEN n_chars < 500 THEN 5 WHEN n_chars < 1000 THEN 6 ELSE 7 END AS bucket "
            "FROM documents) "
            "SELECT bucket, CAST(count(*) AS BIGINT) AS n_docs FROM b GROUP BY bucket"
        ),
        "bigram_counts": (
            "WITH t AS (SELECT doc_id, list_filter(string_split(lower(text), ' '), "
            "x -> length(x) > 0) AS toks FROM documents), "
            "p AS (SELECT doc_id, unnest(list_zip(list_slice(toks, 1, len(toks) - 1), "
            "list_slice(toks, 2, len(toks)))) AS z FROM t WHERE len(toks) >= 2), "
            "bg AS (SELECT z[1] || ' ' || z[2] AS bigram FROM p) "
            "SELECT bigram, CAST(count(*) AS BIGINT) AS n FROM bg "
            "GROUP BY bigram ORDER BY n DESC, bigram ASC LIMIT 100"
        ),
        "char_quantiles": (
            # rank = ceil(q*n) in exact integer milli-arithmetic, mirroring
            # the engine (float q*n rounds the wrong way at exact ranks)
            "WITH s AS (SELECT n_chars AS value, "
            "row_number() OVER (ORDER BY n_chars) AS rk FROM documents), "
            "nn AS (SELECT count(*) AS n FROM documents), "
            "q AS (SELECT unnest([100, 250, 500, 750, 900, 990]) AS q_milli) "
            "SELECT q.q_milli, s.value FROM q, nn, s "
            "WHERE s.rk = greatest(1, (q.q_milli * nn.n + 999) // 1000)"
        ),
        "pii_scrub": (
            # same pattern ORDER as the engine: email -> url -> phone, each
            # counted on the text as scrubbed so far (both engines run RE2)
            "WITH s1 AS (SELECT doc_id, "
            "CAST(len(regexp_extract_all(text, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email, "
            "regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', "
            "'<EMAIL>', 'g') AS t1 FROM documents), "
            "s2 AS (SELECT doc_id, n_email, "
            "CAST(len(regexp_extract_all(t1, 'https?://[^\\s]+')) AS BIGINT) AS n_url, "
            "regexp_replace(t1, 'https?://[^\\s]+', '<URL>', 'g') AS t2 FROM s1) "
            "SELECT doc_id, regexp_replace(t2, "
            "'\\+?\\d{1,3}[-. (]?\\d{3}[-. )]?\\d{3}[-. ]?\\d{4}', '<PHONE>', 'g') "
            "AS text_scrubbed, n_email, n_url, "
            "CAST(len(regexp_extract_all(t2, "
            "'\\+?\\d{1,3}[-. (]?\\d{3}[-. )]?\\d{3}[-. ]?\\d{4}')) AS BIGINT) AS n_phone "
            "FROM s2"
        ),
        "train_test_split": (
            "SELECT doc_id, CASE WHEN (((doc_id + 0) * 2654435761) % 4294967296) "
            "* 100 // 4294967296 < 90 THEN 'train' ELSE 'test' END AS split "
            "FROM documents"
        ),
        "sampled_docs": (
            "SELECT doc_id FROM documents WHERE "
            f"((doc_id + 0) * 2654435761) % 4294967296 < {int(0.2 * (1 << 32))}"
        ),
        "group_topk_chars": (
            "SELECT lang, doc_id, n_chars FROM documents "
            "QUALIFY row_number() OVER (PARTITION BY lang "
            "ORDER BY n_chars DESC, doc_id) <= 3"
        ),
        "decontaminate": (
            # 3-gram shingles (same whole-doc fallback for short docs as
            # the dedup family); benchmark = doc_id % 97 == 0; overlap =
            # corpus shingle OCCURRENCES matching the benchmark's
            # DISTINCT shingle set
            "WITH toks AS (SELECT doc_id, list_filter(string_split("
            "regexp_replace(lower(text), '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0) AS tk FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(tk) >= 3 THEN "
            "list_transform(range(1, len(tk) - 1), i -> tk[i] || ' ' || "
            "tk[i+1] || ' ' || tk[i+2]) ELSE [array_to_string(tk, ' ')] END "
            "AS shingles FROM toks WHERE len(tk) > 0), "
            "occ AS (SELECT doc_id, unnest(shingles) AS s FROM sh), "
            "bench AS (SELECT DISTINCT s FROM occ WHERE doc_id % 97 = 0), "
            "corpus AS (SELECT doc_id FROM documents WHERE doc_id % 97 <> 0), "
            "hits AS (SELECT o.doc_id, count(*) AS k FROM occ o "
            "JOIN bench b USING (s) WHERE o.doc_id % 97 <> 0 GROUP BY 1) "
            "SELECT c.doc_id, coalesce(h.k, 0) AS overlap_ngrams, "
            "CAST(coalesce(h.k, 0) > 0 AS BIGINT) AS contaminated "
            "FROM corpus c LEFT JOIN hits h USING (doc_id)"
        ),
        "stratified_sample": (
            "SELECT lang, doc_id FROM documents "
            "QUALIFY row_number() OVER (PARTITION BY lang "
            "ORDER BY ((doc_id + 0) * 2654435761) % 4294967296 DESC, doc_id) "
            "<= 20"
        ),
        "incremental_dedup": (
            "SELECT d.doc_id FROM documents d WHERE NOT EXISTS ("
            "SELECT 1 FROM documents s WHERE s.doc_id % 3 = 0 "
            "AND s.text = d.text)"
        ),
        "multiformat_source": (
            # the JSONL + CSV renditions each carry every documents row
            "SELECT lang, 2 * count(*) AS n FROM documents GROUP BY lang"
        ),
        "token_freq_score": (
            # integer-exact: floor(1000 * sum of corpus occurrence counts
            # of the doc's tokens / n_tokens); docs with zero tokens drop
            "WITH toks AS (SELECT doc_id, unnest(list_filter(string_split("
            "regexp_replace(lower(text), '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0)) AS w FROM documents), "
            "occ AS (SELECT w, count(*) AS c FROM toks GROUP BY 1), "
            "per AS (SELECT t.doc_id, sum(o.c) AS s, count(*) AS n "
            "FROM toks t JOIN occ o USING (w) GROUP BY 1) "
            "SELECT doc_id, n AS n_tokens, "
            "CAST((1000 * s) // n AS BIGINT) AS freq_score_milli FROM per"
        ),
        "doc_chunks": (
            # 32-token windows, stride 24; last chunk = remainder; empty
            # docs emit nothing. DuckDB list slice is 1-based inclusive.
            "WITH toks AS (SELECT doc_id, list_filter(string_split("
            "regexp_replace(text, '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0) AS tk FROM documents), "
            "base AS (SELECT doc_id, tk, len(tk) AS L FROM toks WHERE len(tk) > 0), "
            "ch AS (SELECT doc_id, tk, L, unnest(range(0, CASE WHEN L <= 32 "
            "THEN 1 ELSE CAST(ceil((L - 32) / 24.0) AS BIGINT) + 1 END)) AS "
            "chunk_id FROM base) "
            "SELECT doc_id, chunk_id, LEAST(32, L - chunk_id*24) AS n_tokens, "
            "array_to_string(tk[CAST(chunk_id*24 + 1 AS BIGINT):"
            "CAST(chunk_id*24 + LEAST(32, L - chunk_id*24) AS BIGINT)], ' ') "
            "AS chunk_text FROM ch"
        ),
        "minhash_dedup": _PLANTED_DEDUP_SQL,
        "simhash_dedup": _PLANTED_DEDUP_SQL,
        "embedding_neardup": (
            "SELECT vec_id AS doc_id, vec_id AS canonical_id FROM embeddings "
            f"UNION ALL SELECT vec_id + {_DUP_OFFSET} AS doc_id, "
            "vec_id AS canonical_id FROM embeddings"
        ),
        "ngram_dedup": (
            # exact 3-gram Jaccard >= 0.9 over all pairs + recursive
            # transitive closure; canonical = min doc_id of the component
            "WITH RECURSIVE toks AS (SELECT doc_id, list_filter(string_split("
            "regexp_replace(lower(text), '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0) AS tk FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(tk) >= 3 THEN "
            "list_transform(range(1, len(tk) - 1), i -> tk[i] || ' ' || "
            "tk[i+1] || ' ' || tk[i+2]) ELSE [array_to_string(tk, ' ')] END "
            "AS shingles FROM toks WHERE len(tk) > 0), "
            "du AS (SELECT DISTINCT doc_id, unnest(shingles) AS s FROM sh), "
            "sizes AS (SELECT doc_id, count(*) AS n FROM du GROUP BY 1), "
            "pairs AS (SELECT a.doc_id AS u, b.doc_id AS v, count(*) AS inter "
            "FROM du a JOIN du b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2), "
            "edges AS (SELECT u, v FROM pairs "
            "JOIN sizes su ON pairs.u = su.doc_id "
            "JOIN sizes sv ON pairs.v = sv.doc_id "
            "WHERE CAST(inter AS DOUBLE) / (su.n + sv.n - inter) >= 0.9), "
            "sym AS (SELECT u, v FROM edges UNION SELECT v AS u, u AS v FROM edges), "
            "nodes AS (SELECT DISTINCT u AS nd FROM sym), "
            "r(nd, m) AS (SELECT nd, nd FROM nodes "
            "UNION SELECT r.nd, sym.v FROM r JOIN sym ON r.m = sym.u) "
            "SELECT nd AS doc_id, min(m) AS canonical_id FROM r GROUP BY 1"
        ),
        "language_id": (
            # mirrors textprep.language_id: CJK script wins; else the alphabetically
            # first language with the max distinct-stopword overlap; all-zero
            # overlap -> 'unknown'
            "WITH w AS (SELECT doc_id, text, list_filter(string_split("
            "regexp_replace(lower(text), '\\s+', ' ', 'g'), ' '), "
            "x -> length(x) > 0) AS words FROM documents), "
            "sc AS (SELECT doc_id, text, "
            "len(list_intersect(words, ['der','die','das','und','ist','nicht',"
            "'mit','ein','zu','von'])) AS s_de, "
            "len(list_intersect(words, ['the','and','of','to','in','is','that',"
            "'for','with','on'])) AS s_en, "
            "len(list_intersect(words, ['el','la','los','y','es','no','con',"
            "'para','que','una'])) AS s_es, "
            "len(list_intersect(words, ['le','la','les','et','est','pas','pour',"
            "'dans','que','une'])) AS s_fr FROM w) "
            "SELECT doc_id, CASE "
            "WHEN regexp_matches(text, '[一-鿿]') THEN 'zh' "
            "WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'unknown' "
            "WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de' "
            "WHEN s_en >= s_es AND s_en >= s_fr THEN 'en' "
            "WHEN s_es >= s_fr THEN 'es' ELSE 'fr' END AS pred_lang FROM sc"
        ),
        "quality": (
            "SELECT doc_id, length(text) AS n_chars2, "
            "length(list_filter(string_split(text, ' '), x -> length(x) > 0)) AS n_words, "
            "round(CASE WHEN length(list_filter(string_split(text, ' '), x -> length(x) > 0)) = 0 "
            "THEN 0.0 ELSE CAST(list_sum(list_transform(list_filter(string_split(text, ' '), "
            "x -> length(x) > 0), x -> length(x))) AS DOUBLE) / "
            "length(list_filter(string_split(text, ' '), x -> length(x) > 0)) END, 6) "
            "AS mean_word_len_r FROM documents"
        ),
        "gopher_rules": (
            "WITH toks AS (SELECT doc_id, list_filter(regexp_split_to_array("
            "coalesce(text, ''), '\\s+'), x -> x <> '') AS t FROM documents), "
            "words AS (SELECT doc_id, unnest(t) AS x FROM toks), "
            "agg AS (SELECT doc_id, count(*) AS n_words, "
            "sum(length(x)) AS sum_lens, "
            "sum(CASE WHEN regexp_matches(x, '[A-Za-z]') THEN 1 ELSE 0 END) AS n_alpha, "
            "count(DISTINCT CASE WHEN x IN ('the','be','to','of','and','that',"
            "'have','with') THEN x END) AS n_stop_kinds "
            "FROM words GROUP BY doc_id) "
            "SELECT k.doc_id, coalesce(a.n_words, 0) AS n_words, "
            "CAST(CASE WHEN a.n_words BETWEEN 50 AND 100000 THEN 1 ELSE 0 END "
            "AS BIGINT) AS flag_word_count, "
            "CAST(CASE WHEN a.n_words > 0 AND 3 * a.n_words <= a.sum_lens "
            "AND a.sum_lens <= 10 * a.n_words THEN 1 ELSE 0 END AS BIGINT) "
            "AS flag_word_len, "
            "CAST(CASE WHEN a.n_words > 0 AND 5 * a.n_alpha >= 4 * a.n_words "
            "THEN 1 ELSE 0 END AS BIGINT) AS flag_alpha, "
            "CAST(CASE WHEN a.n_stop_kinds >= 2 THEN 1 ELSE 0 END AS BIGINT) "
            "AS flag_stop, "
            "CAST((CASE WHEN a.n_words BETWEEN 50 AND 100000 THEN 1 ELSE 0 END) * "
            "(CASE WHEN a.n_words > 0 AND 3 * a.n_words <= a.sum_lens "
            "AND a.sum_lens <= 10 * a.n_words THEN 1 ELSE 0 END) * "
            "(CASE WHEN a.n_words > 0 AND 5 * a.n_alpha >= 4 * a.n_words "
            "THEN 1 ELSE 0 END) * "
            "(CASE WHEN a.n_stop_kinds >= 2 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS gopher_pass "
            "FROM toks k LEFT JOIN agg a ON k.doc_id = a.doc_id"
        ),
        "segment_dedup": (
            "WITH toks AS (SELECT doc_id, list_filter(regexp_split_to_array("
            "coalesce(text, ''), '\\s+'), x -> x <> '') AS t FROM documents), "
            "segs AS (SELECT doc_id, g.i AS seg_idx, (len(t) + 15) // 16 AS n_segs, "
            "array_to_string(t[g.i * 16 + 1 : (g.i + 1) * 16], ' ') AS seg "
            "FROM toks, LATERAL (SELECT unnest(range((len(t) + 15) // 16)) AS i) g), "
            "firsts AS (SELECT seg, min(doc_id * 1048576 + seg_idx) AS keep_code "
            "FROM segs GROUP BY seg) "
            "SELECT s.doc_id, string_agg(s.seg, ' ' ORDER BY s.seg_idx) AS clean_text, "
            "any_value(s.n_segs) AS n_segs, CAST(count(*) AS BIGINT) AS n_kept "
            "FROM segs s JOIN firsts f ON s.seg = f.seg "
            "WHERE s.doc_id * 1048576 + s.seg_idx = f.keep_code "
            "GROUP BY s.doc_id"
        ),
    }
