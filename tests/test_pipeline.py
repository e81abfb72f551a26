"""End-to-end conformance: F1 >= 0.99, salting, determinism, checkpoint resume."""

import numpy as np
import pytest


def _run(spec_kwargs, cfg_kwargs, checkpoint_dir=None):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, generate_fixture
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        clusters_with_truth,
        run_linkage,
    )
    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    tabs = generate_fixture(FixtureSpec(**spec_kwargs))
    pages = rd.from_arrow(tabs["pages"])
    clusters = run_linkage(
        pages, LinkageConfig(**cfg_kwargs), checkpoint_dir=checkpoint_dir
    )
    labeled = clusters_with_truth(clusters, tabs["truth"])
    return clusters, pairwise_scores(labeled)


SPEC = dict(n_names=3, persons_per_name=3, docs_per_person=8, hot_name_factor=3)


@pytest.mark.usefixtures("ray_session")
def test_end_to_end_f1_conformance():
    _, scores = _run(SPEC, {})
    macro = scores[scores["block_key"] == "__macro__"].iloc[0]
    assert macro["f1"] >= 0.99, scores.to_string()


@pytest.mark.usefixtures("ray_session")
def test_end_to_end_salted_f1_conformance():
    # salt_cap below the hot block size forces salting + cross-salt closure
    _, scores = _run(SPEC, {"salt_cap": 40})
    macro = scores[scores["block_key"] == "__macro__"].iloc[0]
    assert macro["f1"] >= 0.99, scores.to_string()


@pytest.mark.usefixtures("ray_session")
def test_deterministic_across_runs_and_salting():
    c1, _ = _run(SPEC, {})
    c2, _ = _run(SPEC, {})
    df1 = c1.to_pandas().sort_values("mention_id").reset_index(drop=True)
    df2 = c2.to_pandas().sort_values("mention_id").reset_index(drop=True)
    assert (df1["cluster_id"] == df2["cluster_id"]).all()
    # salted run must produce the same PARTITION (ids may differ)
    c3, _ = _run(SPEC, {"salt_cap": 40})
    df3 = c3.to_pandas().sort_values("mention_id").reset_index(drop=True)
    for df in (df1, df3):
        df["norm"] = df.groupby("cluster_id")["mention_id"].transform("min")
    assert (df1["norm"] == df3["norm"]).all()


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume(tmp_path):
    import json

    ck = str(tmp_path / "ckpt")
    c1, _ = _run(SPEC, {}, checkpoint_dir=ck)
    n1 = c1.to_pandas()
    manifest = json.load(open(f"{ck}/mentions/_manifest.json"))
    assert manifest["rows"] == len(n1)
    stamp1 = manifest["written_at_epoch"]
    cl_manifest = json.load(open(f"{ck}/clusters/_manifest.json"))
    cl_stamp1 = cl_manifest["written_at_epoch"]
    # rerun: mentions AND clusters stages must be read back, not recomputed
    c2, _ = _run(SPEC, {}, checkpoint_dir=ck)
    manifest2 = json.load(open(f"{ck}/mentions/_manifest.json"))
    assert manifest2["written_at_epoch"] == stamp1  # untouched manifest = resumed
    cl_manifest2 = json.load(open(f"{ck}/clusters/_manifest.json"))
    assert cl_manifest2["written_at_epoch"] == cl_stamp1
    df1 = n1.sort_values("mention_id").reset_index(drop=True)
    df2 = c2.to_pandas().sort_values("mention_id").reset_index(drop=True)
    assert (df1["cluster_id"] == df2["cluster_id"]).all()


@pytest.mark.usefixtures("ray_session")
def test_empty_checkpoint_preserves_schema(tmp_path):
    """ADVICE r2: a legitimately-empty checkpoint must round-trip the stage
    SCHEMA (one empty parquet file), so downstream select_columns/groupby
    behave exactly as with an empty parquet-backed dataset."""
    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.sources.checkpoint import checkpoint_stage

    empty = pa.table(
        {"block_key": pa.array([], type=pa.string()), "n": pa.array([], type=pa.int64())}
    )
    sd = str(tmp_path / "stage")
    out = checkpoint_stage(lambda: rd.from_arrow(empty), sd, lineage="L1")
    assert out.count() == 0
    assert set(out.columns()) == {"block_key", "n"}
    # resume path reads the same schema back
    out2 = checkpoint_stage(lambda: (_ for _ in ()).throw(AssertionError("recomputed")), sd, lineage="L1")
    assert out2.count() == 0
    assert set(out2.columns()) == {"block_key", "n"}
    assert out2.select_columns(["block_key"]).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_write_clusters_partitioned(tmp_path):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.pipelines.linkage import write_clusters

    clusters, _ = _run(SPEC, {})
    out = str(tmp_path / "clusters")
    write_clusters(clusters, out)
    back = rd.read_parquet(out).to_pandas()
    assert len(back) == len(clusters.to_pandas())
    assert "block_prefix" in back.columns


def test_json_summary_and_metrics_csv(ray_session, small_fixture, tmp_path):
    import ray.data as rd
    import pyarrow.parquet as pq

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        clusters_json_summary,
        clusters_with_truth,
        run_linkage,
        write_metrics_csv,
    )
    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    pages = rd.from_arrow(small_fixture["pages"])
    clusters = run_linkage(pages, LinkageConfig())
    summary = clusters_json_summary(clusters)
    truth = small_fixture["truth"].to_pandas()
    assert set(summary) == set(truth["block_key"].unique())
    total = sum(len(ids) for blocks in summary.values() for ids in blocks.values())
    assert total == len(truth)
    # cluster indices dense from 0, ids sorted
    for blocks in summary.values():
        assert sorted(blocks) == list(range(len(blocks)))
        for ids in blocks.values():
            assert ids == sorted(ids)

    scores = pairwise_scores(
        clusters_with_truth(run_linkage(pages, LinkageConfig()), small_fixture["truth"])
    )
    out = tmp_path / "metrics.csv"
    write_metrics_csv(scores, str(out))
    import pandas as pd

    back = pd.read_csv(out)
    assert list(back.columns) == ["name", "Prec", "Rec", "F1"]
    assert "Avg" in set(back["name"])


@pytest.mark.usefixtures("ray_session")
def test_overlap_stress_conformance():
    """Two heavy-vocab-overlap persons sharing a collaborator (the
    reference's hard case, cf. Daniel Fowler F1 0.54): the engine must
    stay well above the reference's score on the analogous stress."""
    _, scores = _run(dict(SPEC, overlap_stress=True), {})
    macro = scores[scores["block_key"] == "__macro__"].iloc[0]
    assert macro["f1"] >= 0.9, scores.to_string()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("salt_cap", [512, 16])
def test_sharded_checkpoint_kill_resume(tmp_path, salt_cap):
    """Per-partition resume: a run killed after 2 of 4 shards must resume
    by recomputing ONLY the missing shards, and the final clusters must
    equal a clean unsharded run. salt_cap=16 salts the 24-mention hot
    name (the other names have 12), so the shared tail's cross-salt merge
    runs inside a shard."""
    import json
    import os

    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        run_linkage,
        run_linkage_sharded,
    )

    paths = write_fixture(
        FixtureSpec(n_names=6, persons_per_name=2, docs_per_person=6, hot_name_factor=2),
        str(tmp_path / "fx"),
    )
    pages = rd.read_parquet(paths["pages"])
    cfg = LinkageConfig(salt_cap=salt_cap)
    ckpt = str(tmp_path / "ckpt")

    # "crash" after 2 shards
    out = run_linkage_sharded(pages, cfg, ckpt, lineage_token="t", n_shards=4,
                              max_shards_this_run=2)
    assert out is None
    manifests = {
        s: json.load(open(os.path.join(ckpt, f"shard={s}", "_manifest.json")))
        for s in range(4)
        if os.path.exists(os.path.join(ckpt, f"shard={s}", "_manifest.json"))
    }
    assert len(manifests) == 2

    # resume: finishes the remaining shards, does NOT rewrite finished ones
    out = run_linkage_sharded(pages, cfg, ckpt, lineage_token="t", n_shards=4)
    assert out is not None
    for s, m in manifests.items():
        m2 = json.load(open(os.path.join(ckpt, f"shard={s}", "_manifest.json")))
        assert m2["written_at_epoch"] == m["written_at_epoch"], s

    import pandas as pd

    got = out.to_pandas().sort_values("mention_id").reset_index(drop=True)
    want = run_linkage(pages, cfg).to_pandas().sort_values("mention_id").reset_index(drop=True)
    assert (got["salt"].max() > 0) == (salt_cap < 24)
    # cluster ids are min-member-derived, deterministic across both paths
    pd.testing.assert_frame_equal(
        got[["mention_id", "block_key", "cluster_id"]],
        want[["mention_id", "block_key", "cluster_id"]],
    )


@pytest.mark.usefixtures("ray_session")
def test_sharded_artifact_regime_matches_unsharded(tmp_path):
    """cross_merge="title" through run_linkage_sharded: the 2-hop
    extension runs globally BEFORE sharding (the collaborator graph must
    not be cut at shard boundaries), and the sharded output equals the
    unsharded artifact run."""
    import dataclasses

    import pandas as pd
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        extract_mentions,
        run_linkage,
        run_linkage_sharded,
    )
    from hgcn_name_disambiguation_ray.state.wordvec import train_word_vectors

    paths = write_fixture(
        FixtureSpec(n_names=6, persons_per_name=2, docs_per_person=6, hot_name_factor=2),
        str(tmp_path / "fx"),
    )
    pages = rd.read_parquet(paths["pages"])
    model = str(tmp_path / "w2v.txt")
    train_word_vectors(extract_mentions(pages).materialize(), model, tokens_col="tokens", dim=16)
    cfg = dataclasses.replace(LinkageConfig(), cross_merge="title", word2vec_path=model)

    out = run_linkage_sharded(pages, cfg, str(tmp_path / "ckpt"),
                              lineage_token="t", n_shards=3)
    got = out.to_pandas().sort_values("mention_id").reset_index(drop=True)
    want = run_linkage(pages, cfg).to_pandas().sort_values("mention_id").reset_index(drop=True)
    # cluster ids are block-local and deterministic either way
    pd.testing.assert_frame_equal(got, want)


def test_empty_checkpoint_single_execution(ray_session, tmp_path):
    """A legitimately-empty stage with a statically-declared schema must
    execute its lineage ONCE (Ray drops empty blocks before any observer,
    so without the explicit schema an empty checkpoint costs a second
    full execution) and still round-trip its columns."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.sources.checkpoint import checkpoint_stage

    marker_dir = str(tmp_path / "marks")
    os.makedirs(marker_dir, exist_ok=True)

    def factory():
        ds = rd.from_pandas(pd.DataFrame({"x": list(range(100))}))

        def count_and_drop(t: pa.Table) -> pa.Table:
            # one marker file per executed batch-task invocation
            with open(os.path.join(marker_dir, f"m{os.getpid()}_{os.urandom(4).hex()}"), "w"):
                pass
            return t.filter(pa.array([False] * t.num_rows))

        return ds.map_batches(count_and_drop, batch_format="pyarrow")

    out = checkpoint_stage(
        factory, str(tmp_path / "ck"), lineage="L1",
        schema=pa.schema([("x", pa.int64())]),
    )
    assert out.count() == 0
    assert out.columns() == ["x"]  # schema survived (dataset-level)
    assert out.select_columns(["x"]).count() == 0
    n_first = len(os.listdir(marker_dir))
    assert n_first >= 1
    # the stage body ran exactly one pass (no post-write schema re-run);
    # a double execution would double the marker count
    out2 = checkpoint_stage(
        factory, str(tmp_path / "ck"), lineage="L1",
        schema=pa.schema([("x", pa.int64())]),
    )
    assert out2.count() == 0  # resume path: no new execution at all
    assert len(os.listdir(marker_dir)) == n_first


def test_stage_schema_constants_match_real_output(ray_session, tmp_path):
    """The static schemas passed to checkpoint_stage must track the real
    stage outputs — drift here would silently change what an empty
    checkpoint round-trips."""
    import dataclasses

    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        CLUSTERS_SCHEMA,
        MENTIONS_EXT_SCHEMA,
        MENTIONS_SCHEMA,
        SCORER_SCHEMA,
        extract_mentions,
        run_linkage,
    )
    from hgcn_name_disambiguation_ray.stages.coent import extend_coentities

    paths = write_fixture(
        FixtureSpec(n_names=2, persons_per_name=2, docs_per_person=3),
        str(tmp_path / "fx"),
    )
    pages = rd.read_parquet(paths["pages"])
    cfg = LinkageConfig()
    m = extract_mentions(pages, cfg).materialize()
    assert m.take_batch(1, batch_format="pyarrow").schema.equals(MENTIONS_SCHEMA)
    ext = extend_coentities(m, cfg).take_batch(1, batch_format="pyarrow")
    assert ext.schema.equals(MENTIONS_EXT_SCHEMA)
    cl = run_linkage(pages, cfg).take_batch(1, batch_format="pyarrow")
    assert cl.schema.equals(CLUSTERS_SCHEMA)
    # scorer schema = clusters + the two merge-signal list columns
    assert SCORER_SCHEMA.names == CLUSTERS_SCHEMA.names + [
        "cluster_coentities", "cluster_tokens"
    ]


def test_clusters_json_summary_row_gate(ray_session):
    """The JSON summary is a driver-side debug view; above max_rows it must
    refuse instead of materializing the full result on the driver."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from hgcn_name_disambiguation_ray.pipelines.linkage import clusters_json_summary

    df = pd.DataFrame(
        {
            "block_key": ["b"] * 10,
            "mention_id": [f"m{i}" for i in range(10)],
            "cluster_id": ["c0"] * 5 + ["c1"] * 5,
        }
    )
    ds = rd.from_pandas(df)
    with pytest.raises(ValueError, match="max_rows"):
        clusters_json_summary(ds, max_rows=5)
    out = clusters_json_summary(ds, max_rows=10)
    assert out["b"][0] == [f"m{i}" for i in range(5)]


def test_linkage_tail_refuses_one_cpu(ray_session, monkeypatch):
    """With one Ray CPU the BlockScorer pool would starve the upstream
    shuffle tasks and hang: the tail shared by run_linkage and
    run_linkage_sharded raises before planning anything."""
    import ray
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        MENTIONS_SCHEMA,
        _score_and_merge,
    )

    mentions = rd.from_arrow(MENTIONS_SCHEMA.empty_table())
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    with pytest.raises(RuntimeError, match="at least 2 Ray CPUs"):
        _score_and_merge(mentions, LinkageConfig(), {})
