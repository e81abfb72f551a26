"""Blocking stats: hot-key filtering must happen inside the Dataset."""

import pandas as pd
import pytest


@pytest.mark.usefixtures("ray_session")
def test_block_counts_min_count_returns_only_hot_keys():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.blocking import block_counts, make_salt_map

    rows = (
        [{"block_key": "hot name", "mention_id": f"h{i}"} for i in range(50)]
        + [{"block_key": f"cold {i}", "mention_id": f"c{i}"} for i in range(200)]
    )
    ds = rd.from_pandas(pd.DataFrame(rows))

    # at web scale the distinct-key set is unbounded: with min_count the
    # driver-side frame must hold ONLY the hot keys, not every key
    hot = block_counts(ds, min_count=10)
    assert hot["block_key"].tolist() == ["hot name"]
    assert hot["n"].tolist() == [50]

    salt_map = make_salt_map(hot, 10)
    assert salt_map == {"hot name": 5}

    # unfiltered path still returns everything (used by tests/diagnostics)
    full = block_counts(ds)
    assert len(full) == 201


@pytest.fixture(params=["driver", "bucketed"])
def merge_path(request, monkeypatch):
    """Run a test on both hot-merge paths: the driver pass below the
    signal-row gate, and the bucketed shuffles with the gate forced off
    (-1, so that even an empty signal table takes the bucketed path)."""
    from hgcn_name_disambiguation_ray.stages import blocking

    if request.param == "bucketed":
        monkeypatch.setattr(blocking, "HOT_MERGE_LOCAL_MAX_ROWS", -1)
    return request.param


def _hot_clusters_table(n_salts, clusters_per_salt, coents_fn, toks_fn, key="john smith"):
    rows = []
    for s in range(n_salts):
        for c in range(clusters_per_salt):
            rows.append(
                {
                    "block_key": key,
                    "salt": s,
                    "cluster_id": f"{key}|{s}|{c:04d}",
                    "cluster_coentities": coents_fn(s, c),
                    "cluster_tokens": toks_fn(s, c),
                }
            )
    return pd.DataFrame(rows)


@pytest.mark.usefixtures("ray_session", "merge_path")
def test_hot_cluster_roots_merges_on_shared_signals():
    """Clusters of one hot key sharing >= 2 coentity signals across salts
    merge to the min cluster id; a single shared signal does not merge."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.blocking import hot_cluster_roots

    def coents(s, c):
        if c == 0:  # cluster 0 of every salt shares two coentities
            return ["acme corp", "jane doe"]
        if c == 1:  # cluster 1 shares only ONE signal across salts
            return ["solo signal", f"uniq{s}"]
        return [f"noise{s}_{c}"]

    df = _hot_clusters_table(3, 3, coents, lambda s, c: [])
    out = hot_cluster_roots(rd.from_pandas(df), LinkageConfig()).to_pandas()
    merged = dict(zip(out["cluster_id"], out["root"]))
    root0 = "john smith|0|0000"
    assert merged.get("john smith|1|0000") == root0
    assert merged.get("john smith|2|0000") == root0
    # one shared signal is not enough; noise clusters untouched
    assert not any(cid.endswith("0001") or cid.endswith("0002") for cid in merged)


@pytest.mark.usefixtures("ray_session", "merge_path")
def test_hot_cluster_roots_webscale_promiscuous_signal_stress():
    """The 'john smith at web scale' case: one key, 64 salts, thousands
    of sub-clusters sharing POPULAR signals. A per-key map_groups +
    O(members^2)-per-signal expansion explodes here; the bucketed path
    (and the driver pass below the gate, 7,680 signal rows here) must
    finish fast, star-bound the promiscuous signals, and still merge the
    clusters that share them."""
    import time

    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.blocking import hot_cluster_roots

    n_salts, per_salt = 64, 40  # 2,560 sub-clusters

    def coents(s, c):
        # two promiscuous signals shared by EVERY cluster (popular
        # coentities of a hot name) + per-cluster noise
        return ["facebook.com", "linkedin.com", f"noise{s}_{c}"]

    df = _hot_clusters_table(n_salts, per_salt, coents, lambda s, c: [])
    cfg = LinkageConfig(hot_signal_max_members=128)
    t0 = time.time()
    out = hot_cluster_roots(rd.from_pandas(df), cfg).to_pandas()
    elapsed = time.time() - t0
    # naive expansion would be 2 signals x C(2560,2) ~ 6.5M python-tuple
    # pair ops inside ONE Ray group; the bucketed + star-bounded path
    # emits ~2*(2560-1) edges
    assert elapsed < 60, elapsed
    merged = dict(zip(out["cluster_id"], out["root"]))
    # both signals star to the same min-id center, so counts accumulate
    # and ALL clusters merge into one component rooted at the min id
    root = "john smith|0|0000"
    assert len(merged) == n_salts * per_salt - 1
    assert set(merged.values()) == {root}


@pytest.mark.usefixtures("ray_session", "merge_path")
def test_hot_cluster_roots_never_crosses_block_keys():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.blocking import hot_cluster_roots

    def coents(s, c):
        return ["shared a", "shared b"]  # same signals in BOTH keys

    df1 = _hot_clusters_table(2, 1, coents, lambda s, c: [], key="john smith")
    df2 = _hot_clusters_table(2, 1, coents, lambda s, c: [], key="mary major")
    out = hot_cluster_roots(
        rd.from_pandas(pd.concat([df1, df2], ignore_index=True)), LinkageConfig()
    ).to_pandas()
    for cid, root in zip(out["cluster_id"], out["root"]):
        assert cid.split("|")[0] == root.split("|")[0]


@pytest.mark.usefixtures("ray_session", "merge_path")
@pytest.mark.parametrize("case", ["no_hot_cluster", "no_qualifying_edge"])
def test_hot_cluster_roots_typed_when_nothing_merges(case):
    """A shard with no hot cluster, and a hot set whose clusters share
    fewer than min_signals signals, both give an empty (cluster_id:
    string, root: string) table, not a column-less one."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.blocking import ROOTS_SCHEMA, hot_cluster_roots

    df = _hot_clusters_table(3, 2, lambda s, c: [f"only{c}", f"uniq{s}_{c}"], lambda s, c: [])
    table = pa.Table.from_pandas(df, preserve_index=False)
    if case == "no_hot_cluster":
        table = table.slice(0, 0)
    out = hot_cluster_roots(rd.from_arrow(table), LinkageConfig())
    roots = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert roots.num_rows == 0
    assert roots.schema == ROOTS_SCHEMA
    assert out.schema().base_schema == ROOTS_SCHEMA
