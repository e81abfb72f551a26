"""Bucketed high-cardinality groupby: exactness vs a pandas oracle."""

import numpy as np
import pandas as pd
import pytest


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_buckets", [1, 7, 64])
def test_bucketed_count_matches_pandas(n_buckets):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "a": rng.integers(0, 500, 5000),
            "b": rng.choice(list("xyzw"), 5000),
        }
    )
    got = (
        bucketed_count(rd.from_pandas(df), ["a", "b"], out_col="n", n_buckets=n_buckets)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["a", "b"], as_index=False).size().rename(columns={"size": "n"})
        .sort_values(["a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n": np.int64}), want.astype({"n": np.int64})
    )


@pytest.mark.usefixtures("ray_session")
def test_bucketed_sum_matches_pandas():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_sum

    rng = np.random.default_rng(6)
    df = pd.DataFrame(
        {
            "k": [f"key-{i}" for i in rng.integers(0, 300, 3000)],
            "v": rng.integers(0, 100, 3000),
        }
    )
    got = (
        bucketed_sum(rd.from_pandas(df), ["k"], ["v"], n_buckets=16)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    want = df.groupby("k", as_index=False)["v"].sum().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype({"v": np.int64}), want.astype({"v": np.int64}))


@pytest.mark.usefixtures("ray_session")
def test_bucketed_count_int_keys_with_nulls():
    """An int64 key hashes to one bucket whether or not its batch holds a
    null: batch [1, None, 2] and batch [1, 2, 3] give one row per key."""
    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_count

    batches = [[1, None, 2], [1, 2, 3]]
    ds = rd.from_arrow([pa.table({"k": pa.array(b, type=pa.int64())}) for b in batches])
    got = bucketed_count(ds, ["k"], out_col="n").to_pandas()
    want = pd.DataFrame({"k": sum(batches, [])}).groupby("k", dropna=False).size()

    def as_dict(keys, counts) -> dict:
        return {None if pd.isna(k) else int(k): int(n) for k, n in zip(keys, counts)}

    assert len(got) == len(want)
    assert as_dict(got["k"], got["n"]) == as_dict(want.index, want.values)


@pytest.mark.usefixtures("ray_session")
def test_hash_join_matches_pandas():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import hash_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame({"k": rng.integers(0, 50, 400), "lv": rng.integers(0, 9, 400)})
    right = pd.DataFrame({"k": np.arange(0, 40), "rv": np.arange(100, 140)})
    got = (
        hash_join(rd.from_pandas(left), rd.from_pandas(right), on=["k"], num_partitions=8)
        .to_pandas().sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    )
    want = left.merge(right, on="k").sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "lv", "rv"]].astype(np.int64), want.astype(np.int64)
    )


@pytest.mark.usefixtures("ray_session")
def test_asof_join_matches_pandas():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import asof_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 12, 300),
            "t": rng.integers(0, 1000, 300).astype(np.int64),
            "lv": np.arange(300),
        }
    )
    right = pd.DataFrame(
        {
            "k": rng.integers(0, 12, 200),
            "t": rng.integers(0, 1000, 200).astype(np.int64),
            "rv": np.arange(1000, 1200),
        }
    )
    got = (
        asof_join(rd.from_pandas(left), rd.from_pandas(right), by=["k"], on="t")
        .to_pandas().sort_values("lv").reset_index(drop=True)
    )
    want = pd.merge_asof(
        left.sort_values("t", kind="stable"),
        right.sort_values("t", kind="stable").rename(columns={"t": "t_right"}),
        left_on="t", right_on="t_right", by="k", direction="backward",
    ).sort_values("lv").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "t", "lv", "rv"]], want[["k", "t", "lv", "rv"]], check_dtype=False
    )


@pytest.mark.usefixtures("ray_session")
def test_range_join_matches_pandas():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import range_join

    rng = np.random.default_rng(11)
    iv = pd.DataFrame(
        {
            "k": rng.integers(0, 6, 120),
            "s": rng.integers(0, 500, 120).astype(np.int64),
            "iid": np.arange(120),
        }
    )
    iv["e"] = iv["s"] + rng.integers(0, 60, 120)
    pts = pd.DataFrame(
        {
            "k": rng.integers(0, 6, 300),
            "at": rng.integers(0, 560, 300).astype(np.int64),
            "pid": np.arange(300),
        }
    )
    got = (
        range_join(rd.from_pandas(iv), rd.from_pandas(pts), by=["k"],
                   start="s", end="e", at="at", granularity=64)
        .to_pandas().sort_values(["iid", "pid"]).reset_index(drop=True)
    )
    want = iv.merge(pts, on="k")
    want = want[(want["s"] <= want["at"]) & (want["at"] <= want["e"])]
    want = want.sort_values(["iid", "pid"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "s", "e", "iid", "at", "pid"]].astype(np.int64),
        want[["k", "s", "e", "iid", "at", "pid"]].astype(np.int64),
    )


@pytest.mark.usefixtures("ray_session")
def test_asof_join_left_only_buckets_keep_schema():
    """Buckets holding only left rows must emit the full output schema with
    consistent right-column dtypes (nullable int64 for null-fillable ints —
    NOT float64, which would round 64-bit values above 2^53)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import asof_join

    left = pd.DataFrame({"k": [1, 2, 3, 4], "t": [10, 20, 30, 40], "lv": [1, 2, 3, 4]})
    right = pd.DataFrame({"k": [2], "t": [5], "rv": [7]})  # keys 1/3/4 left-only
    out = asof_join(
        rd.from_pandas(left), rd.from_pandas(right), by=["k"], on="t",
        right_cols=["rv"], n_buckets=8,
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert len(out) == 4
    assert pd.api.types.is_integer_dtype(out["rv"]) or out["rv"].dtype == np.float64
    assert out.loc[out["k"] == 2, "rv"].iloc[0] == 7
    assert out.loc[out["k"] != 2, "rv"].isna().all()
    assert out["lv"].tolist() == [1, 2, 3, 4]


@pytest.mark.usefixtures("ray_session")
def test_asof_join_duplicate_on_ties_resolve_to_max_rcols():
    """Equal (by, on) right rows must resolve deterministically to the max
    rcols tuple, regardless of input row order."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import asof_join

    left = pd.DataFrame({"k": [1], "t": [10], "lv": [0]})
    for order in ([3, 9, 5], [9, 5, 3]):
        right = pd.DataFrame({"k": [1, 1, 1], "t": [10, 10, 10], "rv": order})
        out = asof_join(
            rd.from_pandas(left), rd.from_pandas(right), by=["k"], on="t",
            right_cols=["rv"],
        ).to_pandas()
        assert out["rv"].tolist() == [9.0]


@pytest.mark.usefixtures("ray_session")
def test_auto_join_both_paths_match_pandas():
    """The size probe must produce identical results on the broadcast path
    (huge budget) and the shuffle fallback (zero budget)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import auto_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame({"k": rng.integers(0, 50, 2000), "lv": np.arange(2000)})
    right = pd.DataFrame({"k": np.arange(40), "rv": np.arange(40) * 10})
    want = left.merge(right, on="k").sort_values(["lv"]).reset_index(drop=True)
    for budget in (1 << 30, 0):
        got = (
            auto_join(rd.from_pandas(left), rd.from_pandas(right), on=["k"],
                      broadcast_max_bytes=budget)
            .to_pandas().sort_values(["lv"]).reset_index(drop=True)[want.columns]
        )
        pd.testing.assert_frame_equal(
            got.astype({"k": np.int64, "lv": np.int64, "rv": np.int64}),
            want.astype({"k": np.int64, "lv": np.int64, "rv": np.int64}),
        )


def test_hopping_window_count(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import hopping_window_count

    # hop 10us, window 20us: event at t lands in windows floor(t/10)*10
    # and (floor(t/10)-1)*10
    rows = [
        {"u": 1, "t": 5},    # windows 0, -10
        {"u": 1, "t": 15},   # windows 10, 0
        {"u": 1, "t": 25},   # windows 20, 10
        {"u": 2, "t": 10},   # windows 10, 0
    ]
    # a second batch whose int key column holds nulls: null-key events
    # count under a null key (SQL GROUP BY), and its u=2 event joins the
    # first batch's u=2 counts
    nulls = pa.table({"u": pa.array([None, None, 2], pa.int64()), "t": [5, 12, 11]})
    out = hopping_window_count(
        rd.from_arrow([pa.Table.from_pylist(rows, nulls.schema), nulls]),
        "u", "t", window_us=20, hop_us=10,
    ).to_pandas()
    got = {
        (None if pd.isna(r.u) else int(r.u), int(r.wstart)): int(r.n_events)
        for r in out.itertuples()
    }
    assert got == {
        (1, -10): 1, (1, 0): 2, (1, 10): 2, (1, 20): 1,
        (2, 0): 2, (2, 10): 2,
        (None, -10): 1, (None, 0): 2, (None, 10): 1,
    }
    import pytest

    with pytest.raises(ValueError):
        hopping_window_count(rd.from_pandas(pd.DataFrame(rows)), "u", "t", 25, 10)


def test_auto_join_broadcast_left_consistent_dtypes(ray_session):
    import pandas as pd
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import auto_join

    big = 2**63 - 7  # above 2^53: a float64 roundtrip would corrupt it
    left = rd.from_pandas(pd.DataFrame({"k": list(range(40))}))
    right = rd.from_pandas(pd.DataFrame({"k": [0, 1], "payload": [big, 5]}))
    out = auto_join(left, right, on=["k"], how="left").to_pandas()
    assert len(out) == 40
    matched = out.set_index("k")["payload"]
    assert int(matched.loc[0]) == big  # exact, not float-rounded
    assert matched.loc[2:].isna().all()  # unmatched rows null-fill


def test_topk_exact_across_blocks(ray_session):
    import pandas as pd
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import topk

    # many blocks; global top-5 spans several of them; ties break by id
    df = pd.DataFrame({"id": list(range(200)), "v": [i % 50 for i in range(200)]})
    ds = rd.from_pandas(df).repartition(16)
    out = topk(ds, ["v", "id"], descending=[True, False], k=5).to_pandas()
    expect = df.sort_values(["v", "id"], ascending=[False, True]).head(5)
    assert out[["v", "id"]].values.tolist() == expect[["v", "id"]].values.tolist()


@pytest.mark.usefixtures("ray_session")
def test_asof_join_rejects_overlapping_payload_columns():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import asof_join

    left = rd.from_pandas(pd.DataFrame({"k": [1], "ts": [5], "price": [1.0]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1], "ts": [3], "price": [2.0]}))
    with pytest.raises(ValueError, match="price"):
        asof_join(left, right, by=["k"], on="ts")


@pytest.mark.usefixtures("ray_session")
def test_asof_join_preserves_int64_above_2_53():
    """Review regression: unmatched-row null-fill must not route integer
    right columns through float64 (silently rounding wide ids/hashes)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import asof_join

    big = (1 << 62) + 12345  # not representable in float64
    left = rd.from_pandas(
        pd.DataFrame({"k": [1, 1, 2], "ts": [10, 1, 10]})  # k=2 never matches
    )
    right = rd.from_pandas(pd.DataFrame({"k": [1], "ts": [5], "wide": [big]}))
    out = asof_join(left, right, by=["k"], on="ts").to_pandas()
    matched = out[(out["k"] == 1) & (out["ts"] == 10)]
    assert int(matched["wide"].iloc[0]) == big  # exact, not rounded
    assert out[(out["k"] == 2)]["wide"].isna().all()


@pytest.mark.usefixtures("ray_session")
def test_range_join_rejects_overlap_and_survives_empty_blocks():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import range_join

    iv = pd.DataFrame({"k": [1], "start": [0], "end": [10], "tag": ["a"]})
    ptsdup = pd.DataFrame({"k": [1], "at": [5], "tag": ["b"]})
    with pytest.raises(ValueError, match="tag"):
        range_join(rd.from_pandas(iv), rd.from_pandas(ptsdup),
                   by=["k"], start="start", end="end", at="at", granularity=5)

    # EMPTY BLOCKS (repartition pads with them) must not crash
    # tile_intervals' np.concatenate
    pts = pd.DataFrame({"k": [1], "at": [5], "val": [7]})
    iv2 = pd.DataFrame({"k": [1], "start": [0], "end": [10]})
    sparse_iv = rd.from_pandas(iv2).repartition(4)
    out = range_join(sparse_iv, rd.from_pandas(pts),
                     by=["k"], start="start", end="end", at="at",
                     granularity=5).to_pandas()
    assert len(out) == 1 and int(out["val"].iloc[0]) == 7


def _cogroup_merge(how: str):
    """cogroup apply: pandas merge of the two sides on k, tagged with the
    column names each side arrived with."""

    def apply(l, r):
        out = l.to_pandas().merge(r.to_pandas(), on="k", how=how)
        out["cols"] = ",".join(l.column_names) + "|" + ",".join(r.column_names)
        return out

    return apply


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_buckets", [1, 7])
def test_cogroup_sides_keep_their_own_columns(n_buckets):
    """Sides that share only the key arrive with only their own columns,
    and every key's rows of both sides meet in one bucket."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import cogroup

    rng = np.random.default_rng(13)
    left = pd.DataFrame({"k": rng.integers(0, 30, 200), "a": np.arange(200),
                         "s": [f"s{i}" for i in range(200)]})
    right = pd.DataFrame({"k": rng.integers(0, 30, 90), "b": np.arange(90) * 0.5})
    got = cogroup(rd.from_pandas(left).repartition(3), rd.from_pandas(right).repartition(2),
                  ["k"], _cogroup_merge("inner"), n_buckets).to_pandas()
    assert set(got["cols"]) == {"k,a,s|k,b"}
    want = left.merge(right, on="k").sort_values(["a", "b"]).reset_index(drop=True)
    got = got.sort_values(["a", "b"]).reset_index(drop=True)[want.columns]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_cogroup_empty_side_is_typed():
    """A side with 0 rows still reaches every bucket with its schema, so
    the output is typed whichever side is empty."""
    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import cogroup

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "a": [10, 20, 30]}))
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.float64())}))
    out = cogroup(left, empty, ["k"], _cogroup_merge("left"), n_buckets=4).to_pandas()
    assert sorted(out["a"]) == [10, 20, 30] and out["b"].isna().all()
    assert set(out["cols"]) == {"k,a|k,b"}
    none = cogroup(empty, left, ["k"], _cogroup_merge("inner"), n_buckets=4)
    assert none.count() == 0
    assert none.schema().names == ["k", "b", "a", "cols"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("padded", ["left", "right", "both"])
def test_cogroup_survives_column_less_empty_blocks(padded):
    """repartition pads a 1-row dataset with column-less empty blocks;
    those carry no rows and no schema, on either side."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import cogroup

    left = rd.from_pandas(pd.DataFrame({"k": [1], "a": [7]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1], "b": [9]}))
    if padded in ("left", "both"):
        left = left.repartition(4)
    if padded in ("right", "both"):
        right = right.repartition(4)
    out = cogroup(left, right, ["k"], _cogroup_merge("inner"), n_buckets=4).to_pandas()
    assert out[["k", "a", "b"]].values.tolist() == [[1, 7, 9]]
    assert set(out["cols"]) == {"k,a|k,b"}


@pytest.mark.usefixtures("ray_session")
def test_cogroup_unpacks_reordered_struct_fields_by_name():
    """Batches of one side whose struct column lists its fields in another
    order meet in one bucket; their rows unify by field name."""
    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import cogroup

    def side(ks, fields):
        cols = {"a": pa.array([k * 10 for k in ks]), "b": pa.array([f"b{k}" for k in ks])}
        return pa.table({"k": ks, "s": pa.StructArray.from_arrays(
            [cols[f] for f in fields], names=fields)})

    right = rd.from_arrow([side([1, 2], ["a", "b"]), side([3, 1], ["b", "a"])])
    left = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3]}))
    out = cogroup(left, right, ["k"], lambda l, r: r.flatten(), n_buckets=1).to_pandas()
    got = sorted(zip(out["k"], out["s.a"], out["s.b"]))
    assert got == [(1, 10, "b1"), (1, 10, "b1"), (2, 20, "b2"), (3, 30, "b3")]


def test_worker_cached_builds_once_and_evicts_oldest(monkeypatch):
    """No Ray session: build runs once per key, and past _WORKER_CACHE_MAX
    entries the oldest key is dropped (so it is built again on its next
    use)."""
    from hgcn_name_disambiguation_ray.stages import groupagg

    monkeypatch.setattr(groupagg, "_WORKER_CACHE", {})
    monkeypatch.setattr(groupagg, "_WORKER_CACHE_MAX", 2)
    builds: list[str] = []

    def get(key: str):
        return groupagg.worker_cached(key, lambda: builds.append(key) or f"v-{key}")

    assert [get("a"), get("a"), get("b"), get("a")] == ["v-a", "v-a", "v-b", "v-a"]
    assert builds == ["a", "b"]
    assert get("c") == "v-c"  # third key: "a", the oldest, goes
    assert list(groupagg._WORKER_CACHE) == ["b", "c"]
    get("b")
    assert builds == ["a", "b", "c"]
    get("a")
    assert builds == ["a", "b", "c", "a"]
    assert list(groupagg._WORKER_CACHE) == ["c", "a"]


def test_auto_join_broadcast_runs_as_tasks(ray_session, map_calls):
    """The broadcast merge is a plain fused task: no callable class,
    constructor arguments or pool size reach map_batches."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.groupagg import auto_join

    left = rd.from_pandas(pd.DataFrame({"k": list(range(40))}))
    right = rd.from_pandas(pd.DataFrame({"k": [0, 1], "v": [7, 5]}))
    assert auto_join(left, right, on=["k"], how="inner").count() == 2
    assert auto_join(left, right, on=["k"], how="left").count() == 40
    map_calls.assert_plain_tasks()


_CHAINED_JOINS = """
import json
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
import ray.data as rd
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from hgcn_name_disambiguation_ray.stages.groupagg import hash_join
a = rd.from_items([{"k": k, "a": 10 + k} for k in range(64)])
b = rd.from_items([{"k": k, "b": 20 + k} for k in range(64)])
c = rd.from_items([{"k": k % 64, "c": k} for k in range(192)])
ab = hash_join(a, b, on=["k"], num_partitions=8)
rows = hash_join(ab, c, on=["k"], num_partitions=8).take_all()
ray.shutdown()
print(json.dumps(sorted([r["k"], r["a"], r["b"], r["c"]] for r in rows)))
"""


def test_chained_hash_joins_finish_on_four_cpus():
    """Two chained 8-partition joins finish on 4 Ray CPUs. When the
    join's aggregator actors reserved CPUs, the tasks feeding the second
    join starved and it never finished. The run is a subprocess under a
    timeout, so a hang fails instead of stalling. 64 keys give every
    partition rows: an empty first block trips Ray's separate
    `ArrowInvalid: No match ... FieldRef.Name(k)` join failure."""
    import json
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-c", _CHAINED_JOINS],
        capture_output=True, text=True, timeout=180, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    want = sorted([k % 64, 10 + k % 64, 20 + k % 64, k] for k in range(192))
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == want
