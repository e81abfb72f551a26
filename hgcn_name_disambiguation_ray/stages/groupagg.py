"""Bucketed high-cardinality group aggregation.

Ray Data's `groupby(...).aggregate(...)` / `map_groups` are sort-based
and dispatch Python work per GROUP in the reduce phase — fine for
thousands of groups, pathological for millions (the reduce tasks become
a per-row Python merge). The engine's workaround is the classic bucket
pattern (the same trick the blocking stage uses for hot keys, SURVEY.md
§4): hash the group key into `n_buckets` partitions, shuffle by the
SMALL bucket key, and run the real aggregation VECTORIZED (pandas
groupby) inside each bucket partition. Exactness is preserved — every
row of a group lands in the same bucket — while the Ray-level group
count drops from |distinct keys| to `n_buckets`.

At cluster scale `n_buckets` should be ~4x total cores so buckets
stay parallel and skew-tolerant; each bucket must fit a worker's heap
(bucket size ~ N / n_buckets for hash-uniform keys).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from hgcn_name_disambiguation_ray.functions.hashing import stable_hash64_array


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _bucket_of(df: pd.DataFrame, keys: list[str], n_buckets: int) -> np.ndarray:
    """Vectorized bucket assignment; integer keys mix numerically (no
    per-row string building), everything else hashes via blake2b."""
    h = np.full(len(df), np.uint64(0x51_7C_C1_B7), dtype=np.uint64)
    for k in keys:
        col = df[k]
        if np.issubdtype(col.dtype, np.integer):
            v = col.to_numpy().astype(np.uint64)
            v = (v ^ (v >> np.uint64(33))) * _MIX
            v ^= v >> np.uint64(29)
        else:
            v = stable_hash64_array(col.astype(str).to_numpy(dtype=object))
        h = (h * _MIX) ^ v
    return (h % np.uint64(n_buckets)).astype(np.int32)


def bucketed_group_apply(
    ds: Dataset,
    keys: list[str],
    apply: Callable,
    n_buckets: int = 64,
    batch_format: str = "pandas",
) -> Dataset:
    """Exact groupby(keys) -> `apply` over each full group, executed as
    groupby(bucket) -> vectorized apply per bucket partition.

    `apply` receives ALL rows of one bucket (many complete groups) and
    must itself do the per-key groupby — vectorized, not per-row. With
    batch_format="pyarrow" the applier gets/returns pa.Table (for stages
    whose columns pandas mangles, e.g. list<string>).
    """

    def add_bucket(t: pa.Table) -> pa.Table:
        buckets = _bucket_of(t.select(keys).to_pandas(), keys, n_buckets)
        return t.append_column("__bucket", pa.array(buckets, type=pa.int32()))

    if batch_format == "pyarrow":
        def per_bucket(t: pa.Table) -> pa.Table:
            return apply(t.drop_columns(["__bucket"]))
    else:
        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            return apply(g.drop(columns="__bucket"))

    return ds.map_batches(add_bucket, batch_format="pyarrow").groupby(
        "__bucket"
    ).map_groups(per_bucket, batch_format=batch_format)


def bucketed_count(
    ds: Dataset, keys: list[str], out_col: str = "n", n_buckets: int = 64
) -> Dataset:
    """Exact `SELECT keys, count(*) FROM ds GROUP BY keys` for
    high-cardinality keys (e.g. candidate-pair counting)."""

    def count(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: SQL GROUP BY keeps the NULL group; pandas drops it
        out = df.groupby(keys, as_index=False, sort=False, dropna=False).size()
        return out.rename(columns={"size": out_col})

    return bucketed_group_apply(ds, keys, count, n_buckets)


def hash_join(
    left: Dataset,
    right: Dataset,
    on: list[str],
    how: str = "inner",
    num_partitions: int | None = None,
) -> Dataset:
    """Distributed hash join for the big-big case where neither side fits
    a broadcast (small sides take `auto_join`'s broadcast merge, a plain
    task that resolves the table once per worker via `worker_cached`).
    Thin wrapper over Ray Data's partitioned hash join with an
    opinionated default partition count. Each partition costs an
    aggregator actor, so more partitions trade per-partition memory for
    fixed overhead (measured: 64 partitions is ~6x slower than 16 on a
    150k-row join) — size to data: partitions ~ input_bytes /
    (worker_heap / 4), floored at the CPU count for parallelism."""
    import ray

    cpus = ray.cluster_resources().get("CPU", 8)
    if num_partitions is None:
        num_partitions = max(8, int(cpus))
    join_type = {"inner": "inner", "left": "left_outer", "right": "right_outer",
                 "full": "full_outer", "semi": "left_semi", "anti": "left_anti"}[how]
    # Ray reserves half the CPUs for the join's aggregator actors; below 2
    # CPUs that leaves the tasks feeding the join less than the one CPU
    # each needs and the join never starts, so there they reserve none
    aggregators = {"num_cpus": 0} if cpus < 2 else None
    return left.join(right, join_type=join_type, num_partitions=num_partitions, on=tuple(on),
                     aggregator_ray_remote_args=aggregators)


_WORKER_CACHE: dict = {}
_WORKER_CACHE_MAX = 4


def worker_cached(key, build: Callable):
    """Bounded per-process memo, so a plain task keeps actor-style state
    (a broadcast table, a scorer) across the tasks a Ray worker runs:
    `build()` runs on a key's first call in this process, and past
    `_WORKER_CACHE_MAX` entries the oldest goes. An entry outlives its
    dataset in an idle worker, so a worker's heap keeps at most
    `_WORKER_CACHE_MAX` x the largest entry; a BlockScorer's part of that
    is its model, or its embedder's token cache, capped at
    `HashEmbedder.cache_max` tokens. `build` copies what it takes out of
    the object store: a zero-copy `ray.get` view would pin the object
    there for the entry's life, after the driver has dropped its ref.
    Nothing else invalidates an entry: a key must change whenever its
    value would (e.g. carry an ObjectRef's `hex()`)."""
    if key not in _WORKER_CACHE:
        while len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
            del _WORKER_CACHE[next(iter(_WORKER_CACHE))]
        _WORKER_CACHE[key] = build()
    return _WORKER_CACHE[key]


# right-side budget under which a join broadcasts instead of shuffling;
# ~64 MiB in every worker's heap is cheap next to an all-to-all exchange
BROADCAST_MAX_BYTES = 64 * 1024 * 1024


def auto_join(
    left: Dataset,
    right: Dataset,
    on: list[str],
    how: str = "inner",
    broadcast_max_bytes: int = BROADCAST_MAX_BYTES,
    num_partitions: int | None = None,
) -> Dataset:
    """Size-probing join: materializes the right side, and when it fits
    `broadcast_max_bytes` ships it ONCE via ray.put and merges per batch
    in a fused task that resolves the table once per worker
    (`worker_cached`; no shuffle of the big side, no per-partition
    aggregator actors — measured ~6x cheaper than the partitioned join on
    a 150k x 15k input). Larger right sides fall back to the distributed
    hash join. Broadcast supports inner/left; other join types always
    take the shuffle path."""
    import ray

    right_m = right.materialize()
    if how in ("inner", "left") and right_m.size_bytes() <= broadcast_max_bytes:
        # bounded by the byte budget — this is the legitimate broadcast
        # pattern, not an unbounded driver pull
        ref = ray.put(right_m.to_pandas())

        def build() -> pd.DataFrame:
            rdf = ray.get(ref).copy()  # owns its buffers: pins nothing
            # left-merge batches with unmatched rows NaN-fill integer
            # right columns to float64 while all-matched batches keep
            # int64 — a per-batch schema mismatch Arrow rejects. Cast
            # the RIGHT frame's integer payload columns to pandas
            # nullable Int64 once, so every merged batch agrees AND
            # 64-bit values above 2^53 (hashes, wide ids) survive
            # exactly — a float64 cast would silently round them.
            # Casting the source frame (not merge output) also stays
            # correct when a name collides and pandas suffixes it.
            if how == "left":
                for c in rdf.columns:
                    if c not in on and pd.api.types.is_integer_dtype(rdf[c]):
                        rdf[c] = rdf[c].astype("Int64")
            return rdf

        def merge(df: pd.DataFrame) -> pd.DataFrame:
            rdf = worker_cached(("broadcast_merge", ref.hex(), how), build)
            return df.merge(rdf, on=on, how=how)

        return left.map_batches(merge, batch_format="pandas")
    return hash_join(left, right_m, on=on, how=how, num_partitions=num_partitions)


def asof_join(
    left: Dataset,
    right: Dataset,
    by: list[str],
    on: str,
    right_cols: list[str] | None = None,
    n_buckets: int = 64,
) -> Dataset:
    """As-of join: for every left row, the latest right row with the same
    `by` keys and right[on] <= left[on] (Ray Data has no native as-of
    join). Both sides shuffle once by hash(by) % n_buckets — equal keys
    co-locate — then a vectorized pandas merge_asof per bucket.
    Partitioning assumption: one `by` group's rows fit a worker (same
    bound as any keyed window); `on` must be a sortable dtype shared by
    both sides. Left rows with no match keep nulls in right columns.
    """
    rcols = right_cols or [c for c in right.columns() if c not in by and c != on]
    overlap = (set(left.columns()) - set(by) - {on}) & set(rcols)
    if overlap:
        # pd.merge_asof would suffix these to c_x/c_y and the output
        # schema would be ambiguous — fail loudly instead of a per-bucket
        # KeyError deep in the shuffle
        raise ValueError(
            f"asof_join: columns {sorted(overlap)} exist on both sides; "
            "rename or pass right_cols to disambiguate"
        )

    def tag(side: str):
        def add(t: pa.Table) -> pa.Table:
            buckets = _bucket_of(t.select(by).to_pandas(), by, n_buckets)
            return t.append_column("__bucket", pa.array(buckets, type=pa.int32())).append_column(
                "__side", pa.array([side] * t.num_rows, type=pa.string())
            )

        return add

    # schemas are aligned (union requires it): each side carries the other
    # side's exclusive columns as nulls
    lcols = [c for c in left.columns()]
    lsch = left.schema()
    rsch = right.schema()
    types = dict(zip(lsch.names, lsch.types)) | dict(zip(rsch.names, rsch.types))

    def pad(missing: list[str]):
        def body(t: pa.Table) -> pa.Table:
            for c in missing:
                t = t.append_column(c, pa.nulls(t.num_rows, type=types[c]))
            return t

        return body

    lt = left.map_batches(tag("l"), batch_format="pyarrow").map_batches(
        pad([c for c in rcols if c not in lcols]), batch_format="pyarrow"
    )
    rt = right.map_batches(tag("r"), batch_format="pyarrow").map_batches(
        pad([c for c in lcols if c not in rcols + by + [on]]),
        batch_format="pyarrow",
    )
    rt = rt.select_columns(lt.columns())
    both = lt.union(rt)

    def merge(t: pa.Table) -> pd.DataFrame:
        # convert with NULLABLE integer dtypes: the unioned bucket holds
        # the other side's columns as nulls, and a plain to_pandas routes
        # int64-with-nulls through float64, silently rounding 64-bit
        # values above 2^53 (hashes, wide ids) before we ever see them
        g = t.to_pandas(
            types_mapper={
                pa.int64(): pd.Int64Dtype(),
                pa.int32(): pd.Int32Dtype(),
                pa.uint64(): pd.UInt64Dtype(),
            }.get
        ).drop(columns="__bucket")
        l = g[g["__side"] == "l"].drop(columns="__side")[lcols].sort_values(on, kind="stable")
        # sort right on (on, *rcols) so equal-`on` duplicates resolve to the
        # max rcols tuple deterministically (merge_asof picks the last row)
        r = g[g["__side"] == "r"].drop(columns="__side")[by + [on] + rcols].sort_values(
            [on] + rcols, kind="stable"
        )
        # merge_asof needs numpy-backed match keys; both sides' keys are
        # non-null by construction, so the downcast is lossless
        for c in by + [on]:
            for side in (l, r):
                if isinstance(side[c].dtype, pd.api.extensions.ExtensionDtype):
                    side[c] = side[c].astype(side[c].dtype.numpy_dtype)
        r = r.rename(columns={on: f"{on}_right"})
        # merge_asof keeps the full output schema even for empty sides;
        # nullable payload dtypes make every bucket emit one schema
        out = pd.merge_asof(
            l, r, left_on=on, right_on=f"{on}_right", by=by, direction="backward"
        )
        return out

    return both.groupby("__bucket").map_groups(merge, batch_format="pyarrow")


def range_join(
    intervals: Dataset,
    points: Dataset,
    by: list[str],
    start: str,
    end: str,
    at: str,
    granularity: int,
    n_buckets: int = 64,
) -> Dataset:
    """Interval-point range join: every (interval row, point row) pair
    with equal `by` keys and interval[start] <= point[at] <= interval[end]
    (inclusive; Ray Data has no native range join). `start`/`end`/`at`
    are int64 in the same unit.

    Strategy: tile the domain into windows of `granularity` (pick ~ the
    typical interval length — each interval then lands in O(1) windows);
    intervals replicate into every window they overlap, points into their
    single window; co-locate by hash(by + window) buckets and do a
    vectorized pandas inner merge + range filter per bucket. Exact: a
    qualifying pair always shares a window; a pair never shares two
    (points live in exactly one), so no dedup pass is needed.
    """

    overlap = (set(intervals.columns()) - set(by)) & (set(points.columns()) - set(by))
    if overlap:
        # the per-bucket pandas merge would suffix these to c_x/c_y and
        # the range filter would KeyError — fail loudly up front
        raise ValueError(
            f"range_join: columns {sorted(overlap)} exist on both sides; "
            "rename before joining"
        )

    def tile_intervals(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        lo = (df[start] // granularity).to_numpy()
        hi = (df[end] // granularity).to_numpy()
        reps = np.maximum(hi - lo + 1, 1).astype(np.int64)
        out = df.loc[df.index.repeat(reps)].reset_index(drop=True)
        if len(reps):  # np.concatenate rejects an empty list (empty block)
            out["__win"] = np.concatenate(
                [np.arange(a, a + r) for a, r in zip(lo, reps)]
            )
        else:
            out["__win"] = np.zeros(0, dtype=np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def tile_points(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["__win"] = df[at] // granularity
        return pa.Table.from_pandas(df, preserve_index=False)

    ivals = intervals.map_batches(tile_intervals, batch_format="pyarrow")
    pts = points.map_batches(tile_points, batch_format="pyarrow")

    keys = by + ["__win"]

    def tag(side: str):
        def add(t: pa.Table) -> pa.Table:
            buckets = _bucket_of(t.select(keys).to_pandas(), keys, n_buckets)
            return t.append_column("__bucket", pa.array(buckets, type=pa.int32())).append_column(
                "__side", pa.array([side] * t.num_rows, type=pa.string())
            )

        return add

    icols = intervals.columns()
    pcols = points.columns()
    isch, psch = intervals.schema(), points.schema()
    types = dict(zip(isch.names, isch.types)) | dict(zip(psch.names, psch.types))

    def pad(missing: list[str]):
        def body(t: pa.Table) -> pa.Table:
            for c in missing:
                t = t.append_column(c, pa.nulls(t.num_rows, type=types[c]))
            return t

        return body

    it = ivals.map_batches(tag("i"), batch_format="pyarrow").map_batches(
        pad([c for c in pcols if c not in icols]), batch_format="pyarrow"
    )
    pt = pts.map_batches(tag("p"), batch_format="pyarrow").map_batches(
        pad([c for c in icols if c not in pcols]), batch_format="pyarrow"
    )
    pt = pt.select_columns(it.columns())
    both = it.union(pt)
    out_pcols = [c for c in pcols if c not in by]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        i = g[g["__side"] == "i"][icols + ["__win"]]
        p = g[g["__side"] == "p"][by + ["__win"] + out_pcols]
        out = i.merge(p, on=by + ["__win"], how="inner").drop(columns="__win")
        keep = (out[start] <= out[at]) & (out[at] <= out[end])
        return out[keep]

    return both.groupby("__bucket").map_groups(merge, batch_format="pandas")


def group_topk(
    ds: Dataset,
    keys: list[str],
    sort_col: str,
    k: int,
    tie_cols: list[str] | None = None,
    n_buckets: int = 64,
) -> Dataset:
    """Top-k rows per group by sort_col DESC (ties broken ascending on
    `tie_cols` for determinism). High-cardinality-safe: groups co-locate
    by key hash, the head(k) runs vectorized per bucket — never a window
    over a global sort or a Ray dispatch per group."""
    tie = tie_cols or []

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            [sort_col] + tie, ascending=[False] + [True] * len(tie), kind="stable"
        )
        # dropna=False: a NULL group key is a real stratum (SQL PARTITION
        # BY keeps it); pandas would silently drop every such row
        return df.groupby(keys, sort=False, dropna=False).head(k)

    return bucketed_group_apply(ds, keys, apply, n_buckets)


def bucketed_sum(
    ds: Dataset, keys: list[str], value_cols: list[str], n_buckets: int = 64
) -> Dataset:
    """Exact per-key sums for high-cardinality keys; column names kept."""

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False, sort=False, dropna=False)[value_cols].sum()

    return bucketed_group_apply(ds, keys, _sum, n_buckets)


def hopping_window_count(
    ds: Dataset,
    key_col: str,
    ts_col: str,
    window_us: int,
    hop_us: int,
) -> Dataset:
    """Hopping (sliding) event-time window counts per key: every event
    lands in the window_us/hop_us overlapping windows covering its
    timestamp; window starts align to hop_us. Output (key, wstart,
    n_events) with wstart in epoch micros.

    Streaming shape: the tile expansion (a constant x window/hop blowup)
    and a per-batch (key, wstart) partial count happen inside
    map_batches, so the shuffle moves pre-aggregated counts, not tiled
    events. window_us must be a multiple of hop_us."""
    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    k = window_us // hop_us

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        tsv = ts.to_numpy(zero_copy_only=False).astype(np.int64)
        keys = t[key_col].to_numpy(zero_copy_only=False)
        # windows with start hop*i for i in [ (ts-window)//hop + 1, ts//hop ]
        i_lo = (tsv - window_us) // hop_us + 1
        starts = (
            (i_lo[:, None] + np.arange(k, dtype=np.int64)[None, :]) * hop_us
        ).ravel()
        tiled = pd.DataFrame({key_col: np.repeat(keys, k), "wstart": starts})
        out = tiled.groupby([key_col, "wstart"], as_index=False, sort=False).size()
        return pa.Table.from_pandas(
            out.rename(columns={"size": "n_events"}), preserve_index=False
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "wstart"])
        .aggregate(Sum("n_events", alias_name="n_events"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("n_events"),
            "n_events",
            t["n_events"].cast(pa.int64()),
        ),
        batch_format="pyarrow",
    )


def topk(
    ds: Dataset, cols: list[str], descending: list[bool], k: int
) -> Dataset:
    """Global EXACT top-k by a lexicographic key: every block prunes to
    its local top-k first (a block's non-top-k rows can never enter the
    global top-k), so the all-to-all sort sees (#blocks x k) rows instead
    of the full table — the difference between a bounded merge and a
    corpus-wide sort at scale."""
    order = [
        (c, "descending" if d else "ascending") for c, d in zip(cols, descending)
    ]

    def prune(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, k)

    return (
        ds.map_batches(prune, batch_format="pyarrow")
        .sort(cols, descending=descending)
        .limit(k)
    )
