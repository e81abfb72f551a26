"""The flagship end-to-end record-linkage pipeline (SURVEY.md §3, §7).

    read_parquet(pages)                       # source, column-pruned
    -> map_batches(extract_batch)             # stateless; html dropped here
    -> map_batches(tokenize_batch)            # M2/M3 normalize+stem
    -> map_batches(add_block_keys)            # M1 normalized-name key
    [-> parquet checkpoint 'mentions']        # resume point; count pass reads
                                              #   ONLY the block_key column
    -> map_batches(salt_and_bucket)           # hot-key skew split + one int32
                                              #   __bucket per (block_key, salt)
                                              #   group; fused, maps in the closure
    -> sort("__bucket", boundaries=1..B-1)    # THE shuffle: exactly B buckets,
                                              #   no sampling round
    -> map_batches(score_block)               # one task per bucket; one
                                              #   BlockScorer per worker
    -> [closure over hub + cross-salt edges]  # only when salting occurred
    -> clusters(block_key, salt, mention_id, cluster_id)

`run_linkage` is the one entry point: mention prep (`_prepare_mentions`)
and the salt map run once, then the salt -> score -> merge tail
(`_score_and_merge`) runs once per block-key shard. The unsharded run is
the one-shard case; with `checkpoint_dir` set each shard's scorer output
is a resumable checkpoint of its own (`{checkpoint_dir}/shard={s}`).

Nothing materializes the pages table; mentions (token/key columns only,
no html) are the only intermediate, either checkpointed to Parquet or —
for small in-memory runs — pinned with `materialize()` so the skew-stats
pass does not recompute the extract.
"""

from __future__ import annotations

import functools
import heapq
import os
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

from hgcn_name_disambiguation_ray.config import LinkageConfig
from hgcn_name_disambiguation_ray.functions.hashing import stable_hash64_array
from hgcn_name_disambiguation_ray.functions.text import tokenize_batch
from hgcn_name_disambiguation_ray.sources.checkpoint import checkpoint_stage, fingerprint
from hgcn_name_disambiguation_ray.stages.blocking import (
    AssignSalt,
    add_block_keys,
    block_counts,
    hot_cluster_roots,
    make_salt_map,
)
from hgcn_name_disambiguation_ray.stages.extract import extract_batch
from hgcn_name_disambiguation_ray.stages.groupagg import _bucket_of, worker_cached
from hgcn_name_disambiguation_ray.stages.scorer import BlockScorer

MENTION_COLUMNS = [
    "url", "mention_id", "name", "title", "coentities", "host", "year",
    "tokens", "tokens_stemmed", "block_key",
]

# static stage schemas, passed to checkpoint_stage so a legitimately-empty
# stage (e.g. a shard with no blocks) round-trips its columns WITHOUT a
# second execution of the lineage; pinned against real stage output in
# tests/test_pipeline.py
MENTIONS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("mention_id", pa.string()),
        ("name", pa.string()),
        ("title", pa.string()),
        ("coentities", pa.list_(pa.string())),
        ("host", pa.string()),
        ("year", pa.int32()),
        ("tokens", pa.list_(pa.string())),
        ("tokens_stemmed", pa.list_(pa.string())),
        ("block_key", pa.string()),
    ]
)
MENTIONS_EXT_SCHEMA = MENTIONS_SCHEMA.append(
    pa.field("coentities_ext", pa.list_(pa.string()))
)
SCORER_SCHEMA = pa.schema(
    [
        ("block_key", pa.string()),
        ("salt", pa.int32()),
        ("mention_id", pa.string()),
        ("cluster_id", pa.string()),
        ("cluster_coentities", pa.list_(pa.string())),
        ("cluster_tokens", pa.list_(pa.string())),
    ]
)
CLUSTERS_SCHEMA = pa.schema(
    [
        ("block_key", pa.string()),
        ("salt", pa.int32()),
        ("mention_id", pa.string()),
        ("cluster_id", pa.string()),
    ]
)
OUT_COLS = CLUSTERS_SCHEMA.names
# the mention columns BlockScorer reads; coentities_ext only exists (and
# is only read) in the cross_merge="title" regime
SCORER_INPUT_COLUMNS = [
    "block_key", "mention_id", "coentities", "host", "tokens", "tokens_stemmed",
    "coentities_ext",
]


def extract_mentions(pages: Dataset, cfg: LinkageConfig | None = None) -> Dataset:
    """pages -> mentions: extract, tokenize, block keys. Stateless stages."""
    cfg = cfg or LinkageConfig()
    ds = pages.map_batches(extract_batch, batch_format="pyarrow", batch_size=cfg.extract_batch_size)

    def drop_invalid(t: pa.Table) -> pa.Table:
        # pages with no extractable entity mention (no name or no mention id)
        # carry no linkage signal; dropping them mirrors the reference's
        # guard-clause skip of malformed <publication> elements
        # (name_disambiguation.py:820-826)
        import pyarrow.compute as pc

        ok = pc.and_(
            pc.not_equal(pc.coalesce(t["name"], pa.scalar("")), ""),
            pc.not_equal(pc.coalesce(t["mention_id"], pa.scalar("")), ""),
        )
        return t.filter(ok)

    ds = ds.map_batches(drop_invalid, batch_format="pyarrow")
    ds = ds.map_batches(tokenize_batch, batch_format="pyarrow")
    ds = add_block_keys(ds)
    return ds.select_columns(MENTION_COLUMNS)


def _w2v_blob_ref(cfg: LinkageConfig):
    """Broadcast the word2vec model bytes ONCE via ray.put when the path
    is driver-readable. Workers on OTHER NODES cannot open a driver-local
    file (run_linkage_artifact trains to /tmp on the driver), so the
    model ships through the object store, fetched once per worker with
    its cached BlockScorer; a path the driver cannot see (worker-visible
    shared FS) falls back to a per-worker open(), redone when the file's
    mtime or size changes."""
    if not cfg.word2vec_path or not os.path.exists(cfg.word2vec_path):
        return None
    with open(cfg.word2vec_path, "rb") as f:
        w2v = f.read()
    idf = None
    idf_path = cfg.word2vec_path + ".idf"
    if os.path.exists(idf_path):
        with open(idf_path, "rb") as f:
            idf = f.read()
    return ray.put((w2v, idf))


def _scorer_parts(n_rows: int, cfg: LinkageConfig) -> int:
    """Bucket count B of the scorer stage (one scorer task and one output
    block per bucket): ~4x cluster CPUs at scale (keeps every core busy,
    bounds straggler tails), CAPPED by the input size — a small input
    split into 4xCPU near-empty blocks pays fixed per-block scheduling
    overhead through EVERY downstream stage (checkpoint, hot-root signal
    shuffles, relabel, sink) for no parallelism gain. Measured on the
    5k-page bench fixture at 32 cpus: scorer+merge 15.2 s at ~20 parts
    vs 32.9 s at 128. The row cap targets ~one salt-cap-sized sub-block
    per bucket."""
    by_cpu = max(8, 4 * int(ray.cluster_resources().get("CPU", 8)))
    by_rows = max(8, -(-n_rows // max(cfg.salt_cap, 64)))
    return min(by_cpu, by_rows)


def _large_group_rows(n_rows: int, cfg: LinkageConfig) -> int:
    """Scorer groups over n // (4B) rows are placed on buckets by the
    driver; smaller ones hash. At most 4B groups are that large."""
    return n_rows // (4 * _scorer_parts(n_rows, cfg))


def _place_large_groups(
    sizes: dict[str, int], salt_map: dict[str, int], min_rows: int, n_buckets: int
) -> dict[str, list[int]]:
    """{block_key: the bucket of each of its salts} for every (block_key,
    salt) group over `min_rows` rows, largest first onto the least-loaded
    bucket. A salted key's groups count as equal shares of its mentions
    (salts split by mention-id hash, so the shares are close)."""
    groups = []
    for k, n in sizes.items():
        n_salts = salt_map.get(k, 1)
        rows = -(-n // n_salts)
        if rows > min_rows:
            groups += [(rows, k, j) for j in range(n_salts)]
    groups.sort(key=lambda g: (-g[0], g[1], g[2]))
    load = [(0, b) for b in range(n_buckets)]
    placed: dict[str, list[int]] = {}
    for rows, k, j in groups:
        used, b = heapq.heappop(load)
        placed.setdefault(k, [0] * salt_map.get(k, 1))[j] = b
        heapq.heappush(load, (used + rows, b))
    return placed


def _salt_and_bucket(
    salt_map: dict[str, int], placed: dict[str, list[int]], n_buckets: int
) -> Callable[[pa.Table], pa.Table]:
    """The fused salt + bucket map: `AssignSalt`'s salt, then an int32
    `__bucket` per (block_key, salt) group, the driver's placement for a
    placed group and `_bucket_of % n_buckets` for every other one. Both
    maps are vectorized, and the placement rides in the closure as an
    Arrow key array and a (key, salt) -> bucket matrix."""
    assign = AssignSalt(salt_map)
    keys = sorted(placed)
    key_arr = pa.array(keys, type=pa.string())
    table = np.zeros((len(keys), max(map(len, placed.values()), default=1)), np.int32)
    for i, k in enumerate(keys):
        table[i, : len(placed[k])] = placed[k]

    def salt_and_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = assign(t)
        bucket = _bucket_of(t, ["block_key", "salt"], n_buckets)
        if keys:
            i = pc.fill_null(pc.index_in(t["block_key"], value_set=key_arr), -1).to_numpy()
            hit = i >= 0
            bucket[hit] = table[i[hit], t["salt"].to_numpy()[hit]]
        return t.append_column("__bucket", pa.array(bucket, type=pa.int32()))

    return salt_and_bucket


def _merge_hot_relabel(
    clusters: Dataset, salt_map: dict, cfg: LinkageConfig, out_cols: list[str]
) -> Dataset:
    """Last step of `_score_and_merge`: hot keys were split into salts, so
    sub-block LOCAL CLUSTERS merge transitively when they share >=
    cfg.cross_salt_min_signals distinct merge signals (coentity / LSH
    band) across salts; merges never cross block keys. `hot_cluster_roots`
    runs that merge in one driver pass below its signal-row gate and as
    bucketed shuffles above it. The root map (one row per merged hot
    cluster, small) rides in the relabel's closure as two Arrow arrays,
    and the relabel is an Arrow batch function: `index_in` over the map's
    keys, `take` of the roots, `coalesce` with the old id."""
    hot_keys = set(salt_map)

    def hot_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t["block_key"], value_set=pa.array(sorted(hot_keys))))

    hot_clusters = clusters.map_batches(hot_filter, batch_format="pyarrow")
    roots = pa.concat_tables(ray.get(hot_cluster_roots(
        hot_clusters, cfg, min_signals=cfg.cross_salt_min_signals
    ).to_arrow_refs()))
    if roots.num_rows == 0:
        # no hot cluster merged (e.g. a shard holding none of the run's hot
        # keys): relabel would be a no-op
        return clusters.select_columns(out_cols)
    src = roots["cluster_id"].combine_chunks()
    dst = roots["root"].combine_chunks()

    def relabel(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.select(out_cols)
        # only hot-key clusters are in the map: a miss takes a null index,
        # so `take` gives null and the old id stays
        cid = t["cluster_id"]
        new = pc.coalesce(pc.take(dst, pc.index_in(cid, value_set=src)), cid)
        return t.set_column(t.schema.get_field_index("cluster_id"), "cluster_id", new)

    return clusters.map_batches(relabel, batch_format="pyarrow")


def block_key_bucket(keys, n: int) -> np.ndarray:
    """`stable_hash64(block_key) % n` per key, as int32: the shard a key's
    mentions score in and the sink's `block_prefix` (n=64) it lands in."""
    return (stable_hash64_array(np.asarray(keys, dtype=object)) % np.uint64(n)).astype(np.int32)


def run_linkage(
    pages: Dataset,
    cfg: LinkageConfig | None = None,
    checkpoint_dir: str | None = None,
    lineage_token: str = "",
    mentions: Dataset | None = None,
    n_shards: int = 1,
) -> Dataset:
    """pages Dataset -> clusters Dataset(block_key, salt, mention_id, cluster_id).

    `mentions` lets a caller that already extracted+materialized the
    mention table (run_linkage_artifact trains word vectors on it) hand
    it in so the expensive parse stage runs once, not twice; it bypasses
    the mentions checkpoint, so pair it with a matching lineage_token.

    With `checkpoint_dir` set, block keys hash into `n_shards` shards and
    each shard's scorer output is checkpointed on its own, so a killed run
    resumes by skipping finished shards (no scorer task, no mentions scan)
    and re-running the cheap cross-salt merge over them. All salts of a
    key share its shard, so that merge never crosses a shard boundary.
    The output is the union of the shards, the same ids at any n_shards."""
    if n_shards < 1 or (n_shards > 1 and not checkpoint_dir):
        raise ValueError(
            f"n_shards={n_shards}: use 1, or more with a checkpoint_dir (shards "
            f"exist to be resumed one by one)"
        )
    cfg = cfg or LinkageConfig()
    mentions = _prepare_mentions(pages, cfg, checkpoint_dir, lineage_token, mentions)
    salt_map, sizes = _salt_map(mentions, cfg)
    w2v_ref = _w2v_blob_ref(cfg)
    if not checkpoint_dir:
        return _score_and_merge(lambda: mentions, cfg, salt_map, w2v_ref, sizes=sizes)
    lineage = fingerprint("clusters-v2", lineage_token, cfg, sorted(salt_map.items()), n_shards)

    def shard_mentions(s: int) -> Dataset:
        if n_shards == 1:
            return mentions

        def keep(t: pa.Table) -> pa.Table:
            return t.filter(block_key_bucket(t["block_key"], n_shards) == s)

        # pinned: the scorer's row count and its shuffle both read it
        return mentions.map_batches(keep, batch_format="pyarrow").materialize()

    shard_of = dict(zip(sizes, block_key_bucket(list(sizes), n_shards)))
    shards = [
        _score_and_merge(
            functools.partial(shard_mentions, s), cfg, salt_map, w2v_ref,
            (f"{checkpoint_dir}/shard={s}", f"{lineage}:{s}"),
            sizes={k: n for k, n in sizes.items() if shard_of[k] == s},
        )
        for s in range(n_shards)
    ]
    return shards[0].union(*shards[1:]) if n_shards > 1 else shards[0]


def _prepare_mentions(
    pages: Dataset,
    cfg: LinkageConfig,
    checkpoint_dir: str | None,
    lineage_token: str,
    mentions: Dataset | None = None,
) -> Dataset:
    """extract (unless `mentions` is given), then the optional
    `cross_merge="title"` 2-hop extension; each stage is checkpointed
    when `checkpoint_dir` is set and pinned otherwise, so the skew-stats
    pass and the scorer read it without recomputing the extract."""

    def stage(make, name: str, version: str, schema: pa.Schema) -> Dataset:
        if not checkpoint_dir:
            return make().materialize()
        return checkpoint_stage(
            make, f"{checkpoint_dir}/{name}",
            fingerprint(version, lineage_token, cfg), schema=schema,
        )

    if mentions is None:
        mentions = stage(lambda: extract_mentions(pages, cfg), "mentions",
                         "mentions-v1", MENTIONS_SCHEMA)
    if cfg.cross_merge == "title":
        # artifact regime: derive the 2-hop collaborator column before
        # blocking (global graph — must precede any key partitioning)
        from hgcn_name_disambiguation_ray.stages.coent import extend_coentities

        base = mentions
        mentions = stage(lambda: extend_coentities(base, cfg), "mentions_ext",
                         "mentions-ext-v1", MENTIONS_EXT_SCHEMA)
    return mentions


def _salt_map(mentions: Dataset, cfg: LinkageConfig) -> tuple[dict[str, int], dict[str, int]]:
    """One block-count pass gives the salt map {hot key: n_salts} and the
    mention count of every key that may hold a large scorer group. Only
    keys over min(salt_cap, n // (4B)) leave the Dataset, at most
    4B + n / salt_cap of them: the distinct-key set is unbounded at web
    scale and must never reach the driver whole."""
    n = mentions.count()
    counts = block_counts(mentions, min_count=min(cfg.salt_cap, _large_group_rows(n, cfg)))
    sizes = dict(zip(counts["block_key"], counts["n"].tolist())) if "n" in counts else {}
    return make_salt_map(counts, cfg.salt_cap), sizes


def _score_and_merge(
    mentions: Callable[[], Dataset],
    cfg: LinkageConfig,
    salt_map: dict[str, int],
    w2v_ref,
    scorer_ckpt: tuple[str, str] | None = None,
    sizes: dict[str, int] | None = None,
) -> Dataset:
    """The linkage tail over a pinned or checkpointed mention set: salt and
    bucket -> sort by bucket -> one BlockScorer task per bucket ->
    optional scorer checkpoint (stage dir, lineage) -> cross-salt merge
    when any key was salted. Output columns are CLUSTERS_SCHEMA's.
    `mentions()` gives the mention set and is only called when the scorer
    runs, so a finished checkpoint reads no mentions. `w2v_ref` is the
    run's `_w2v_blob_ref(cfg)`, put once per run so that every shard keys
    the same cached scorer. `sizes` holds the mention count of this
    shard's keys that may hold a large group (`_salt_map`); without it
    every group hashes to its bucket."""
    # a task, not an actor pool: each worker builds the scorer (and fetches
    # the model) once, and keeps it across tasks and shards
    emit_signatures = bool(salt_map)
    key = (repr(cfg), emit_signatures, w2v_ref.hex() if w2v_ref else None)

    def score_block(bucket: pa.Table) -> pa.Table:
        # a model only the workers can read is keyed by its stat, so one
        # rewritten in place is reloaded, as a driver-read one is
        st = os.stat(cfg.word2vec_path) if cfg.word2vec_path and w2v_ref is None else None
        k = (*key, st and (st.st_mtime_ns, st.st_size))
        scorer = worker_cached(k, lambda: BlockScorer(cfg, False, emit_signatures, w2v_ref))
        if bucket.num_rows == 0:
            return SCORER_SCHEMA.empty_table()
        # each (block_key, salt) run of the sorted bucket is one group
        t = bucket.drop_columns(["__bucket"]).sort_by(
            [("block_key", "ascending"), ("salt", "ascending")])
        bk, salt = t["block_key"].to_numpy(), t["salt"].to_numpy()
        cuts = [0, *(np.flatnonzero((bk[1:] != bk[:-1]) | (salt[1:] != salt[:-1])) + 1).tolist(),
                t.num_rows]
        return pa.concat_tables(
            [scorer(t.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])]
        ).combine_chunks()

    def score() -> Dataset:
        ms = mentions()
        # only the columns the scorer reads enter the shuffle (url, name,
        # title and year would be about 31 % of its bytes)
        inputs, schema = ms, ms.schema()
        if schema is not None:
            inputs = ms.select_columns(
                [c for c in SCORER_INPUT_COLUMNS if c in schema.names])
        n = ms.count()
        n_buckets = _scorer_parts(n, cfg)
        placed = _place_large_groups(sizes or {}, salt_map, _large_group_rows(n, cfg), n_buckets)
        # explicit boundaries: exactly one sort partition per bucket, and
        # no sampling round; a task then scores one whole bucket
        return inputs.map_batches(
            _salt_and_bucket(salt_map, placed, n_buckets), batch_format="pyarrow"
        ).sort("__bucket", boundaries=list(range(1, n_buckets))).map_batches(
            score_block, batch_size=None, batch_format="pyarrow"
        )

    if scorer_ckpt:
        clusters = checkpoint_stage(score, *scorer_ckpt, schema=SCORER_SCHEMA)
    else:
        clusters = score()
    if not salt_map:
        return clusters.select_columns(OUT_COLS)
    if not scorer_ckpt:
        # the scorer output feeds BOTH the cross-salt edge derivation and
        # the final relabel — pin it so the scorer runs exactly once
        clusters = clusters.materialize()
    return _merge_hot_relabel(clusters, salt_map, cfg, OUT_COLS)


def run_linkage_artifact(
    pages: Dataset,
    cfg: LinkageConfig | None = None,
    model_path: str = "/tmp/linkage_w2v.txt",
    checkpoint_dir: str | None = None,
    lineage_token: str = "",
    retrain: bool = False,
) -> Dataset:
    """The artifact-regime convenience entry point: train in-engine
    corpus word vectors (state/wordvec.py) unless `model_path` already
    exists, then run `run_linkage` with the cross-component-merge knobs
    on (`cross_merge="title"`, idf-weighted title vectors, 2-hop
    coauthor bonus, adaptive dendrogram cut — see `ghac_hybrid`).

    This regime re-creates the reference's COMMITTED cluster artifacts
    (`experimental-results/*_output.txt`, macro pairwise F1 0.892), which
    came from an unmasked-similarity GHCN + an external word2vec model
    missing from the reference repo — not from its current graph-masked
    code path (`name_disambiguation.py:61-108` = our default config).
    Measured on the 110-name Arnetminer corpus: macro F1 0.609 (faithful
    default) -> ~0.76 (this regime); BASELINE.md "Real-data conformance".

    Model caching is keyed on `lineage_token` (the file lands at
    `model_path.<fingerprint(token, dim)>`): without a token every call
    retrains, so a regenerated corpus can never be silently served by
    vectors trained on the previous one — the stale-cache failure the
    IVF index is also keyed against.
    """
    from hgcn_name_disambiguation_ray.state.wordvec import train_word_vectors

    cfg = cfg or LinkageConfig()
    if lineage_token:
        # v3: venue/host tokens joined the training corpus (round 4)
        actual_path = f"{model_path}.{fingerprint('w2v-v3', lineage_token, cfg.feature_dim)[:16]}"
        need_train = retrain or not os.path.exists(actual_path)
    else:
        actual_path = model_path
        need_train = True  # no lineage to trust a cached model against
    mentions: Dataset | None = None
    if need_train:
        mentions = extract_mentions(pages, cfg).materialize()
        train_word_vectors(mentions, actual_path, tokens_col="tokens",
                           dim=cfg.feature_dim, host_col="host")
    import dataclasses

    cfg = dataclasses.replace(cfg, cross_merge="title", word2vec_path=actual_path)
    return run_linkage(pages, cfg, checkpoint_dir=checkpoint_dir,
                       lineage_token=lineage_token, mentions=mentions)


def clusters_with_truth(clusters: Dataset, truth: pa.Table) -> Dataset:
    """Attach ground-truth person_id (fixtures only) for evaluation."""
    tdf = truth.to_pandas()[["mention_id", "person_id"]]

    def join(df: pd.DataFrame) -> pd.DataFrame:
        return df.merge(tdf, on="mention_id", how="inner")

    return clusters.map_batches(join, batch_format="pandas")


def write_clusters(clusters: Dataset, out_dir: str) -> None:
    """Resumable sink: Parquet partitioned by a bounded key-hash prefix."""
    def add_prefix(batch: pa.Table) -> pa.Table:
        # the scorer emits one contiguous block per bucket, so the batch
        # needs no combine_chunks before the partitioned write
        pref = block_key_bucket(batch["block_key"], 64)
        return batch.append_column("block_prefix", pa.array(pref, type=pa.int32()))

    clusters.map_batches(add_prefix, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["block_prefix"]
    )


def clusters_json_summary(clusters: Dataset, max_rows: int = 100_000) -> dict:
    """Reference-shaped JSON summary (S8, `name_disambiguation.py:236-239,
    741-748`): {block_key: {cluster_index: sorted mention ids}}, cluster
    indices densified per block in order of smallest member id. For small
    outputs / debugging only — the parquet sink is the scale path, and
    this raises rather than silently pulling a web-scale result onto the
    driver: callers must pass an explicit larger `max_rows` to override."""
    # materialize once: count() would otherwise execute the lazy lineage
    # for the gate and the pull below would execute it a second time
    clusters = clusters.materialize()
    n = clusters.count()
    if n > max_rows:
        raise ValueError(
            f"clusters_json_summary is a driver-side debug view: input has "
            f"{n} rows > max_rows={max_rows}. Use write_clusters (partitioned "
            f"parquet) for large outputs, or pass max_rows explicitly."
        )
    if n == 0:
        return {}
    df = clusters.select_columns(["block_key", "cluster_id", "mention_id"]).to_pandas()
    # one driver groupby: each cluster's sorted ids, its first id its min
    members = df.sort_values("mention_id", kind="stable").groupby(
        ["block_key", "cluster_id"]
    )["mention_id"].agg(list)
    out: dict = {}
    for (bk, _), ids in sorted(members.items(), key=lambda kv: (kv[0][0], kv[1][0])):
        block = out.setdefault(bk, {})
        block[len(block)] = ids
    return out


def write_metrics_csv(scores: pd.DataFrame, path: str) -> None:
    """Reference-shaped metrics CSV (S9, `name_disambiguation.py:1265-1303`):
    one row per block (name, Prec, Rec, F1) plus the macro 'Avg' row."""
    df = scores.rename(
        columns={"block_key": "name", "precision": "Prec", "recall": "Rec", "f1": "F1"}
    ).copy()
    df.loc[df["name"] == "__macro__", "name"] = "Avg"
    df.to_csv(path, index=False)


def lookup_clusters(clusters_dir: str, block_key: str) -> pd.DataFrame:
    """Offline analogue of the reference's author-info lookup CLI
    (SURVEY.md S10, `author_info_lookup.py` — a REST diagnostic; here the
    'index' is the partitioned sink itself): resolve one block key to its
    clusters by reading ONLY the `block_prefix=NN/` partition the key
    hashes to — the same prefix `write_clusters` assigned — so a lookup
    against a trillion-row output touches one partition, not the corpus.
    Returns (block_key, salt, mention_id, cluster_id) sorted for display."""
    import pyarrow.dataset as pads

    prefix = int(block_key_bucket([block_key], 64)[0])
    part_dir = os.path.join(clusters_dir, f"block_prefix={prefix}")
    if not os.path.isdir(part_dir):
        return pd.DataFrame(
            columns=["block_key", "salt", "mention_id", "cluster_id"]
        )
    dataset = pads.dataset(part_dir, format="parquet")
    t = dataset.to_table(
        columns=["block_key", "salt", "mention_id", "cluster_id"],
        filter=pads.field("block_key") == block_key,
    )
    return (
        t.to_pandas()
        .sort_values(["cluster_id", "mention_id"])
        .reset_index(drop=True)
    )
