"""Bucketed high-cardinality group aggregation.

Ray Data's `groupby(...).aggregate(...)` / `map_groups` are sort-based
and dispatch Python work per GROUP in the reduce phase — fine for
thousands of groups, pathological for millions (the reduce tasks become
a per-row Python merge). The engine's workaround is the classic bucket
pattern (the same trick the blocking stage uses for hot keys, SURVEY.md
§4): hash the group key into `n_buckets` partitions, shuffle by the
SMALL bucket key, and run the real aggregation VECTORIZED (an Arrow or
pandas groupby) inside each bucket partition. Exactness is preserved —
every row of a group lands in the same bucket — while the Ray-level
group count drops from |distinct keys| to `n_buckets`.

The rule: no Ray `groupby(...).aggregate(...)` anywhere. A keyed count
or sum is a per-batch partial (an Arrow `group_by`, `np.unique` or
`bincount` inside `map_batches`) merged by `bucketed_sum` (`bucketed_count`
packages the count); min/max merge through `bucketed_group_apply`.
Measured at 4 Ray CPUs over 32 input blocks, Ray's `aggregate(Sum)`
against `bucketed_sum` on the same partial rows: 2.5-2.9 s vs 1.2-1.4 s
at 1,000 keys, 27-29 s vs 1.4-1.6 s at 15,000 and 157-166 s vs 1.6 s at
100,000 — Ray's cost grows with the key count, the bucketed merge's
barely does. `block_counts` over 100,000 keys that each occur in all 32
blocks, 4 Ray CPUs on a one-core machine: 96.5 s on Ray's aggregate,
4.0 s bucketed. The fan-out is sized in one place, `n_buckets`.

At cluster scale `n_buckets` should be ~4x total cores so buckets
stay parallel and skew-tolerant; each bucket must fit a worker's heap
(bucket size ~ N / n_buckets for hash-uniform keys).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from hgcn_name_disambiguation_ray.functions.hashing import (
    hash_string_array,
    stable_hash64_array,
)


_MIX = np.uint64(0x9E3779B97F4A7C15)
# nulls of a key column form one group, so every batch must send them to
# the same bucket whatever the column's type
_NULL_HASH = np.uint64(0x6E75_6C6C)


def _bucket_of(t: pa.Table, keys: list[str], n_buckets: int) -> np.ndarray:
    """Vectorized bucket assignment from each key column's Arrow values,
    so a key hashes the same in every batch: integer keys mix
    numerically (through pandas, an int column holding a null turns
    float64 and its 1 hashes as "1.0"), strings hash their buffers, other
    types their str(); every null takes `_NULL_HASH`."""
    h = np.full(t.num_rows, np.uint64(0x51_7C_C1_B7), dtype=np.uint64)
    for k in keys:
        col = t[k]
        if pa.types.is_integer(col.type):
            v = pc.fill_null(col, 0).to_numpy().astype(np.uint64)
            v = (v ^ (v >> np.uint64(33))) * _MIX
            v ^= v >> np.uint64(29)
        elif pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = hash_string_array(col)
        else:
            v = stable_hash64_array(col.to_pandas().astype(str).to_numpy(dtype=object))
        if col.null_count:
            v[col.is_null().to_numpy()] = _NULL_HASH
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
        buckets = _bucket_of(t, keys, n_buckets)
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
    (worker_heap / 4), floored at the CPU count for parallelism.

    The aggregator actors reserve no CPU. Ray's default reserves CPUs for
    them, which starves the tasks feeding the join: at 4 CPUs two chained
    joins finish at 4 partitions but hang at 6 or 8, and at 1 CPU a
    single join never starts. With none reserved the chain finishes
    (`test_chained_hash_joins_finish_on_four_cpus`)."""
    import ray

    if num_partitions is None:
        num_partitions = max(8, int(ray.cluster_resources().get("CPU", 8)))
    join_type = {"inner": "inner", "left": "left_outer", "right": "right_outer",
                 "full": "full_outer", "semi": "left_semi", "anti": "left_anti"}[how]
    return left.join(right, join_type=join_type, num_partitions=num_partitions, on=tuple(on),
                     aggregator_ray_remote_args={"num_cpus": 0})


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


# pa -> pandas dtype map that keeps integer columns holding nulls exact
_NULLABLE_INTS = {
    pa.int64(): pd.Int64Dtype(),
    pa.int32(): pd.Int32Dtype(),
    pa.uint64(): pd.UInt64Dtype(),
}.get


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
            buckets = _bucket_of(t, by, n_buckets)
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
        g = t.to_pandas(types_mapper=_NULLABLE_INTS).drop(columns="__bucket")
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
            buckets = _bucket_of(t, keys, n_buckets)
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

    def merge(t: pa.Table) -> pd.DataFrame:
        # nullable integer dtypes, as in asof_join: each side's rows carry
        # the other side's columns as nulls, which a plain to_pandas turns
        # float64 (rounding values above 2^53)
        g = t.to_pandas(types_mapper=_NULLABLE_INTS)
        i = g[g["__side"] == "i"][icols + ["__win"]]
        p = g[g["__side"] == "p"][by + ["__win"] + out_pcols]
        out = i.merge(p, on=by + ["__win"], how="inner").drop(columns="__win")
        keep = (out[start] <= out[at]) & (out[at] <= out[end])
        return out[keep]

    return both.groupby("__bucket").map_groups(merge, batch_format="pyarrow")


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
    """Exact per-key sums for high-cardinality keys; column names kept.
    Arrow sums: integer columns stay int64, and a key whose values are
    all null sums to null, as SQL's SUM does."""

    def _sum(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate([(c, "sum") for c in value_cols])
        return g.select(keys + [f"{c}_sum" for c in value_cols]).rename_columns(keys + value_cols)

    return bucketed_group_apply(ds, keys, _sum, n_buckets, batch_format="pyarrow")


def bucketed_count(
    ds: Dataset, keys: list[str], out_col: str = "n", n_buckets: int = 64
) -> Dataset:
    """Exact `SELECT keys, count(*) AS out_col FROM ds GROUP BY keys` for
    high-cardinality keys: each batch counts its own keys in Arrow and
    `bucketed_sum` adds the partials, so the shuffle moves one row per
    (batch, key), not one per input row. As in SQL, null keys form their
    own group."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate([([], "count_all")])
        return g.select(keys + ["count_all"]).rename_columns(keys + [out_col])

    partials = ds.select_columns(keys).map_batches(partial, batch_format="pyarrow")
    return bucketed_sum(partials, keys, [out_col], n_buckets)


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
    fuses with `bucketed_count`'s per-batch (key, wstart) partial count, so
    the shuffle moves pre-aggregated counts, not tiled events. window_us
    must be a multiple of hop_us. Events with a null key count under a
    null key, as SQL's GROUP BY does; a pandas groupby would drop them."""
    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    k = window_us // hop_us

    def tile(t: pa.Table) -> pa.Table:
        ts = t[ts_col].combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        tsv = ts.to_numpy(zero_copy_only=False).astype(np.int64)
        # windows with start hop*i for i in [ (ts-window)//hop + 1, ts//hop ]
        i_lo = (tsv - window_us) // hop_us + 1
        starts = (
            (i_lo[:, None] + np.arange(k, dtype=np.int64)[None, :]) * hop_us
        ).ravel()
        rows = np.repeat(np.arange(t.num_rows), k)
        return pa.table({key_col: t[key_col].take(rows), "wstart": starts})

    return bucketed_count(
        ds.map_batches(tile, batch_format="pyarrow"), [key_col, "wstart"], "n_events"
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
