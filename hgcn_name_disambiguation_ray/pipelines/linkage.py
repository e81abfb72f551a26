"""The flagship end-to-end record-linkage pipeline (SURVEY.md §3, §7).

    read_parquet(pages)                       # source, column-pruned
    -> map_batches(extract_batch)             # stateless; html dropped here
    -> map_batches(tokenize_batch)            # M2/M3 normalize+stem
    -> map_batches(add_block_keys)            # M1 normalized-name key
    [-> parquet checkpoint 'mentions']        # resume point; count pass reads
                                              #   ONLY the block_key column
    -> map_batches(AssignSalt(salt_map))      # hot-key skew split; a fused
                                              #   task, the map rides in the closure
    -> groupby(block_key, salt)               # THE shuffle
       .map_groups(score_block)               # a task; one BlockScorer per worker
    -> [closure over hub + cross-salt edges]  # only when salting occurred
    -> clusters(block_key, salt, mention_id, cluster_id)

`run_linkage` and `run_linkage_sharded` share the mention prep
(`_prepare_mentions`) and the salt -> score -> merge tail
(`_score_and_merge`); the sharded path runs the tail once per shard.

Nothing materializes the pages table; mentions (token/key columns only,
no html) are the only intermediate, either checkpointed to Parquet or —
for small in-memory runs — pinned with `materialize()` so the skew-stats
pass does not recompute the extract.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data import Dataset

from hgcn_name_disambiguation_ray.config import LinkageConfig
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
from hgcn_name_disambiguation_ray.stages.groupagg import worker_cached
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
    """Shuffle-partition count for the scorer stage: ~4x cluster CPUs at
    scale (keeps every core busy, bounds straggler tails), CAPPED by the
    input size — the shuffle's output-partition count follows its input
    block count, and a small input split into 4xCPU near-empty blocks
    pays fixed per-block scheduling overhead through EVERY downstream
    stage (scorer, hot-root signal shuffles, relabel) for no parallelism
    gain. Measured on the 5k-page bench fixture at 32 cpus: scorer+merge
    15.2 s at ~20 parts vs 32.9 s at 128. The row cap targets ~one
    salt-cap-sized sub-block per partition."""
    by_cpu = max(8, 4 * int(ray.cluster_resources().get("CPU", 8)))
    by_rows = max(8, -(-n_rows // max(cfg.salt_cap, 64)))
    return min(by_cpu, by_rows)


def _merge_hot_relabel(
    clusters: Dataset, salt_map: dict, cfg: LinkageConfig, out_cols: list[str]
) -> Dataset:
    """Last step of `_score_and_merge`: hot keys were split into salts, so
    sub-block LOCAL CLUSTERS merge transitively when they share >=
    cfg.cross_salt_min_signals distinct merge signals (coentity / LSH
    band) across salts; merges never cross block keys. The root map (one
    row per merged hot cluster, small) rides in the relabel's closure."""
    hot_keys = set(salt_map)

    def hot_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t["block_key"], value_set=pa.array(sorted(hot_keys))))

    hot_clusters = clusters.map_batches(hot_filter, batch_format="pyarrow")
    roots_df = hot_cluster_roots(
        hot_clusters, cfg, min_signals=cfg.cross_salt_min_signals
    ).to_pandas()
    if roots_df.empty:
        # no hot cluster merged (e.g. a shard holding none of the run's hot
        # keys); the empty result carries no columns, and relabel is a no-op
        return clusters.select_columns(out_cols)
    root_map = dict(zip(roots_df["cluster_id"], roots_df["root"]))

    def relabel(df: pd.DataFrame) -> pd.DataFrame:
        df = df[out_cols].copy()
        # vectorized: only hot-key clusters can appear in the root map,
        # so map + where beats a per-row Python closure over the corpus
        m = df["cluster_id"].map(root_map)
        df["cluster_id"] = m.where(m.notna(), df["cluster_id"])
        return df

    return clusters.map_batches(relabel, batch_format="pandas")


def run_linkage(
    pages: Dataset,
    cfg: LinkageConfig | None = None,
    checkpoint_dir: str | None = None,
    lineage_token: str = "",
    mentions: Dataset | None = None,
) -> Dataset:
    """pages Dataset -> clusters Dataset(block_key, salt, mention_id, cluster_id).

    `mentions` lets a caller that already extracted+materialized the
    mention table (run_linkage_artifact trains word vectors on it) hand
    it in so the expensive parse stage runs once, not twice; it bypasses
    the mentions checkpoint, so pair it with a matching lineage_token."""
    cfg = cfg or LinkageConfig()
    mentions = _prepare_mentions(pages, cfg, checkpoint_dir, lineage_token, mentions)
    salt_map = _salt_map(mentions, cfg)
    scorer_ckpt = None
    if checkpoint_dir:
        # the scorer is the expensive stage — its own checkpoint lets a
        # resumed run skip straight to the (cheap) merge/relabel
        scorer_ckpt = (
            f"{checkpoint_dir}/clusters",
            fingerprint("clusters-v1", lineage_token, cfg, sorted(salt_map.items())),
        )
    return _score_and_merge(mentions, cfg, salt_map, _w2v_blob_ref(cfg), scorer_ckpt)


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


def _salt_map(mentions: Dataset, cfg: LinkageConfig) -> dict[str, int]:
    # only hot keys (n > salt_cap) leave the Dataset — the distinct-key
    # set is unbounded at web scale and must never reach the driver whole
    return make_salt_map(block_counts(mentions, min_count=cfg.salt_cap), cfg.salt_cap)


def _score_and_merge(
    mentions: Dataset,
    cfg: LinkageConfig,
    salt_map: dict[str, int],
    w2v_ref,
    scorer_ckpt: tuple[str, str] | None = None,
) -> Dataset:
    """The linkage tail over a pinned or checkpointed mention set: salt ->
    repartition -> BlockScorer task -> optional scorer checkpoint (stage dir,
    lineage) -> cross-salt merge when any key was salted. Output columns
    are CLUSTERS_SCHEMA's. `w2v_ref` is the run's `_w2v_blob_ref(cfg)`,
    put once per run so that every shard keys the same cached scorer."""
    # an AssignSalt INSTANCE runs as a plain task fused with its neighbours
    # (the salt map holds hot keys only and travels in the closure)
    salted = mentions.map_batches(AssignSalt(salt_map), batch_format="pyarrow")
    salted = salted.repartition(_scorer_parts(mentions.count(), cfg))
    # a task, not an actor pool: each worker builds the scorer (and fetches
    # the model) once, and keeps it across tasks and run_linkage_sharded's shards
    emit_signatures = bool(salt_map)
    key = (repr(cfg), emit_signatures, w2v_ref.hex() if w2v_ref else None)

    def score_block(group: pa.Table) -> pa.Table:
        # a model only the workers can read is keyed by its stat, so one
        # rewritten in place is reloaded, as a driver-read one is
        st = os.stat(cfg.word2vec_path) if cfg.word2vec_path and w2v_ref is None else None
        k = (*key, st and (st.st_mtime_ns, st.st_size))
        return worker_cached(k, lambda: BlockScorer(cfg, False, emit_signatures, w2v_ref))(group)

    def score() -> Dataset:
        return salted.groupby(["block_key", "salt"]).map_groups(
            score_block, batch_format="pyarrow"
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


def run_linkage_sharded(
    pages: Dataset,
    cfg: LinkageConfig | None = None,
    checkpoint_dir: str = "/tmp/linkage_ckpt",
    lineage_token: str = "",
    n_shards: int = 16,
    max_shards_this_run: int | None = None,
) -> Dataset | None:
    """Per-partition resumable linkage: block keys hash into `n_shards`
    shards; each shard runs the scorer + cross-salt merge independently
    and lands in its own parquet directory with a lineage manifest. A
    killed run resumes by SKIPPING finished shards — the per-partition
    granularity the stage-level `checkpoint_stage` can't give. All salts
    of a key share its shard, so the cross-salt merge never crosses a
    shard boundary.

    `max_shards_this_run` bounds how many missing shards one call
    processes (tests use it to simulate a crash). Returns the full
    clusters Dataset, or None if shards remain unfinished."""
    import json

    from hgcn_name_disambiguation_ray.functions.hashing import stable_hash64_array

    cfg = cfg or LinkageConfig()
    mentions = _prepare_mentions(pages, cfg, checkpoint_dir, lineage_token)
    salt_map = _salt_map(mentions, cfg)
    w2v_ref = _w2v_blob_ref(cfg)

    def shard_of(t: pa.Table) -> pa.Table:
        import numpy as np

        keys = np.asarray(t["block_key"].to_pandas(), dtype=object)
        sh = (stable_hash64_array(keys) % n_shards).astype(np.int32)
        return t.append_column("__shard", pa.array(sh, type=pa.int32()))

    sharded = mentions.map_batches(shard_of, batch_format="pyarrow")
    base_lineage = fingerprint("clusters-shard-v1", lineage_token, cfg,
                               sorted(salt_map.items()), n_shards)

    done, missing = [], []
    for s in range(n_shards):
        mpath = os.path.join(checkpoint_dir, f"shard={s}", "_manifest.json")
        ok = False
        if os.path.exists(mpath):
            try:
                with open(mpath) as f:
                    ok = json.load(f).get("lineage") == f"{base_lineage}:{s}"
            except (json.JSONDecodeError, OSError):
                ok = False
        (done if ok else missing).append(s)

    budget = len(missing) if max_shards_this_run is None else max_shards_this_run
    for s in missing[:budget]:
        # pin the shard's mention set: it is a lazy filter over the
        # checkpoint scan, and the tail's count() and scorer would otherwise
        # each re-execute that scan end to end
        shard_ds = sharded.filter(expr=f"__shard == {s}").drop_columns(["__shard"])
        clusters = _score_and_merge(shard_ds.materialize(), cfg, salt_map, w2v_ref)
        checkpoint_stage(
            lambda: clusters,
            os.path.join(checkpoint_dir, f"shard={s}"),
            f"{base_lineage}:{s}",
            schema=CLUSTERS_SCHEMA,
        )
        done.append(s)

    if len(done) < n_shards:
        return None  # crashed / budgeted run: resume later
    # read_parquet accepts one directory but not a list of them: expand.
    # (project OUT_COLS: hive discovery parses the shard=N path segment
    # into a surplus column, and the unsharded path's schema is the contract)
    files = []
    for s in range(n_shards):
        d = os.path.join(checkpoint_dir, f"shard={s}", "data")
        files.extend(
            os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
        )
    return rd.read_parquet(files).select_columns(OUT_COLS)


def clusters_with_truth(clusters: Dataset, truth: pa.Table) -> Dataset:
    """Attach ground-truth person_id (fixtures only) for evaluation."""
    tdf = truth.to_pandas()[["mention_id", "person_id"]]

    def join(df: pd.DataFrame) -> pd.DataFrame:
        return df.merge(tdf, on="mention_id", how="inner")

    return clusters.map_batches(join, batch_format="pandas")


def write_clusters(clusters: Dataset, out_dir: str) -> None:
    """Resumable sink: Parquet partitioned by a bounded key-hash prefix."""
    def add_prefix(batch: pa.Table) -> pa.Table:
        import numpy as np

        from hgcn_name_disambiguation_ray.functions.hashing import stable_hash64_array

        keys = np.asarray(batch["block_key"].to_pandas(), dtype=object)
        pref = (stable_hash64_array(keys) % 64).astype(np.int32)
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
    # for the gate and the groupby below would execute it a second time
    clusters = clusters.materialize()
    n = clusters.count()
    if n > max_rows:
        raise ValueError(
            f"clusters_json_summary is a driver-side debug view: input has "
            f"{n} rows > max_rows={max_rows}. Use write_clusters (partitioned "
            f"parquet) for large outputs, or pass max_rows explicitly."
        )

    def per_block(g: pd.DataFrame) -> pd.DataFrame:
        by_cluster: dict[str, list[str]] = {}
        for mid, cid in zip(g["mention_id"], g["cluster_id"]):
            by_cluster.setdefault(cid, []).append(mid)
        ordered = sorted(by_cluster.values(), key=lambda ids: min(ids))
        return pd.DataFrame(
            {
                "block_key": [g["block_key"].iloc[0]] * len(ordered),
                "cluster_index": range(len(ordered)),
                "mention_ids": [sorted(ids) for ids in ordered],
            }
        )

    rows = clusters.groupby("block_key").map_groups(per_block, batch_format="pandas").to_pandas()
    out: dict = {}
    for bk, ci, mids in zip(rows["block_key"], rows["cluster_index"], rows["mention_ids"]):
        out.setdefault(bk, {})[int(ci)] = list(mids)
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
    import numpy as np
    import pyarrow.dataset as pads

    from hgcn_name_disambiguation_ray.functions.hashing import stable_hash64_array

    # convert to Python int BEFORE the modulo: numpy promotes
    # uint64_scalar % int to float64 and corrupts the prefix
    prefix = int(stable_hash64_array(np.array([block_key], dtype=object))[0]) % 64
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
