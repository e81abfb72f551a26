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
    cl_manifest = json.load(open(f"{ck}/shard=0/_manifest.json"))
    cl_stamp1 = cl_manifest["written_at_epoch"]
    # rerun: mentions AND clusters stages must be read back, not recomputed
    c2, _ = _run(SPEC, {}, checkpoint_dir=ck)
    manifest2 = json.load(open(f"{ck}/mentions/_manifest.json"))
    assert manifest2["written_at_epoch"] == stamp1  # untouched manifest = resumed
    cl_manifest2 = json.load(open(f"{ck}/shard=0/_manifest.json"))
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
def test_checkpoint_ignores_key_value_path_segments(tmp_path):
    """A `k=v` directory in a checkpoint's path (a run id, a shard's
    `shard=N`) is not a column: the stage reads back with exactly the
    columns it wrote, on the first run and on resume."""
    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.sources.checkpoint import checkpoint_stage

    sd = str(tmp_path / "x=1" / "ckpt" / "mentions")
    t = pa.table({"a": [1, 2, 3]})
    out = checkpoint_stage(lambda: rd.from_arrow(t), sd, lineage="L1")
    assert out.columns() == ["a"]
    again = checkpoint_stage(lambda: (_ for _ in ()).throw(AssertionError("recomputed")),
                             sd, lineage="L1")
    assert again.columns() == ["a"]
    assert sorted(again.to_pandas()["a"]) == [1, 2, 3]


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


def _shard_fixture(tmp_path):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture

    paths = write_fixture(
        FixtureSpec(n_names=6, persons_per_name=2, docs_per_person=6, hot_name_factor=2),
        str(tmp_path / "fx"),
    )
    return rd.read_parquet(paths["pages"])


def _by_mention(ds):
    return ds.to_pandas().sort_values("mention_id").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("salt_cap", [512, 16])
def test_sharded_checkpoint_kill_resume(tmp_path, salt_cap, map_calls, monkeypatch):
    """Per-partition resume: a run whose third of 4 shards dies in the
    scorer keeps the two finished shards; the resume recomputes ONLY the
    missing shards, and the final clusters equal a clean in-memory run.
    A further call over the complete directory runs no scorer and reads
    no shard's mentions. salt_cap=16 salts the 24-mention hot name (the
    other names have 12), so the cross-salt merge runs inside a shard."""
    import json
    import os

    import pandas as pd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines import linkage

    pages = _shard_fixture(tmp_path)
    cfg = LinkageConfig(salt_cap=salt_cap)
    ckpt = str(tmp_path / "ckpt")

    def killed():
        raise RuntimeError("scorer killed")

    real = linkage.checkpoint_stage
    with monkeypatch.context() as mp:
        mp.setattr(linkage, "checkpoint_stage", lambda make, d, *a, **k: real(
            killed if d.endswith("shard=2") else make, d, *a, **k))
        with pytest.raises(RuntimeError, match="scorer killed"):
            linkage.run_linkage(pages, cfg, ckpt, lineage_token="t", n_shards=4)

    def manifests():
        return {
            s: json.load(open(os.path.join(ckpt, f"shard={s}", "_manifest.json")))
            for s in range(4)
            if os.path.exists(os.path.join(ckpt, f"shard={s}", "_manifest.json"))
        }

    done = manifests()
    assert sorted(done) == [0, 1]

    # resume: finishes the remaining shards, does NOT rewrite finished ones
    got = _by_mention(linkage.run_linkage(pages, cfg, ckpt, lineage_token="t", n_shards=4))
    after = manifests()
    assert sorted(after) == [0, 1, 2, 3]
    assert {s: after[s] for s in done} == done

    want = _by_mention(linkage.run_linkage(pages, cfg))
    assert (got["salt"].max() > 0) == (salt_cap < 24)
    # cluster ids are min-member-derived, deterministic across both paths
    pd.testing.assert_frame_equal(got, want)

    # complete directory: no scorer task, no per-shard mentions filter
    map_calls.clear()
    again = _by_mention(linkage.run_linkage(pages, cfg, ckpt, lineage_token="t", n_shards=4))
    pd.testing.assert_frame_equal(again, want)
    names = [getattr(fn, "__name__", "") for fn, _ in map_calls]
    assert "score_block" not in names and "keep" not in names, names
    assert manifests() == after


@pytest.mark.usefixtures("ray_session")
def test_one_shard_checkpoint_matches_in_memory(tmp_path):
    """n_shards=1 with a checkpoint_dir (what a checkpointed run_linkage
    does by default) gives the in-memory run's ids, salted or not."""
    import pandas as pd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    pages = _shard_fixture(tmp_path)
    for cap in (512, 16):
        cfg = LinkageConfig(salt_cap=cap)
        got = run_linkage(pages, cfg, str(tmp_path / f"ckpt{cap}"), lineage_token="t")
        pd.testing.assert_frame_equal(_by_mention(got), _by_mention(run_linkage(pages, cfg)))


def _score_blocks(map_calls) -> list:
    return [fn for fn, _ in map_calls if getattr(fn, "__name__", "") == "score_block"]


def _count_scorer_builds(monkeypatch):
    """Replay shipped score_block functions in this process: a fresh
    per-process cache, and a BlockScorer that records each build."""
    from hgcn_name_disambiguation_ray.pipelines import linkage
    from hgcn_name_disambiguation_ray.stages import groupagg

    builds: list = []
    real = linkage.BlockScorer
    monkeypatch.setattr(groupagg, "_WORKER_CACHE", {})
    monkeypatch.setattr(linkage, "BlockScorer", lambda *a: builds.append(a) or real(*a))
    return builds


@pytest.mark.usefixtures("ray_session")
def test_sharded_artifact_regime_matches_unsharded(tmp_path, map_calls, monkeypatch):
    """cross_merge="title" through run_linkage at 3 shards: the 2-hop
    extension runs globally BEFORE sharding (the collaborator graph must
    not be cut at shard boundaries), and the sharded output equals the
    unsharded artifact run. The model is put once per run, so every
    shard's scorer task carries the same cache key and a worker builds
    (and parses the model for) one BlockScorer across all shards."""
    import dataclasses
    import inspect

    import pyarrow as pa

    import pandas as pd
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        extract_mentions,
        run_linkage,
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

    out = run_linkage(pages, cfg, str(tmp_path / "ckpt"), lineage_token="t", n_shards=3)
    shard_fns = _score_blocks(map_calls)
    got = out.to_pandas().sort_values("mention_id").reset_index(drop=True)
    want = run_linkage(pages, cfg).to_pandas().sort_values("mention_id").reset_index(drop=True)
    # cluster ids are block-local and deterministic either way
    pd.testing.assert_frame_equal(got, want)

    assert len(shard_fns) == 3
    keys = {inspect.getclosurevars(fn).nonlocals["key"] for fn in shard_fns}
    assert len(keys) == 1 and next(iter(keys))[2] is not None, keys
    builds = _count_scorer_builds(monkeypatch)
    for fn in shard_fns:
        fn(pa.table({"block_key": pa.array([], pa.string())}))
    assert len(builds) == 1


@pytest.mark.usefixtures("ray_session")
def test_worker_read_model_reloads_when_rewritten(tmp_path, small_fixture, map_calls,
                                                  monkeypatch):
    """A model path with no driver-side ref (one only the workers can
    read) keys the cached scorer by the file's mtime and size: the scorer
    is reused while the file stands and rebuilt once it is rewritten."""
    import dataclasses

    import pyarrow as pa
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        _score_and_merge,
        extract_mentions,
    )

    model = tmp_path / "w2v.txt"
    model.write_text("2 4\nalpha 0.1 0.2 0.3 0.4\nbeta 0.4 0.3 0.2 0.1\n")
    cfg = dataclasses.replace(LinkageConfig(), word2vec_path=str(model))
    mentions = extract_mentions(rd.from_arrow(small_fixture["pages"]), cfg).materialize()
    assert _score_and_merge(lambda: mentions, cfg, {}, None).count() == mentions.count()
    (fn,) = _score_blocks(map_calls)

    builds = _count_scorer_builds(monkeypatch)
    empty = pa.table({"block_key": pa.array([], pa.string())})
    fn(empty)
    fn(empty)
    assert len(builds) == 1
    model.write_text("1 4\ngamma 0.5 0.5 0.5 0.5\n")
    fn(empty)
    assert len(builds) == 2


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


def test_linkage_runs_without_actor_pools(ray_session, small_fixture, map_calls):
    """The salted linkage (salt step, scorer, hot-cluster merge) plans no
    callable class, constructor arguments or pool size anywhere: the
    scorer is a plain task over a per-worker cached BlockScorer."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    pages = rd.from_arrow(small_fixture["pages"])
    out = run_linkage(pages, LinkageConfig(salt_cap=40)).to_pandas()
    assert out["salt"].max() > 0
    assert "score_block" in [getattr(fn, "__name__", "") for fn, _ in map_calls]
    map_calls.assert_plain_tasks()


def test_hot_merge_paths_give_identical_clusters(ray_session, small_fixture, monkeypatch):
    """The driver merge below the signal-row gate and the bucketed
    shuffles above it give the same cluster ids on the salted fixture."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage
    from hgcn_name_disambiguation_ray.stages import blocking

    pages = rd.from_arrow(small_fixture["pages"])
    runs = []
    for gate in (blocking.HOT_MERGE_LOCAL_MAX_ROWS, -1):
        monkeypatch.setattr(blocking, "HOT_MERGE_LOCAL_MAX_ROWS", gate)
        df = run_linkage(pages, LinkageConfig(salt_cap=40)).to_pandas()
        assert df["salt"].max() > 0
        runs.append(sorted(zip(df["mention_id"], df["cluster_id"])))
    assert runs[0] == runs[1]


def test_salted_linkage_plans_no_pandas_batches(ray_session, small_fixture, map_calls):
    """Below the hot-merge gate, the salted linkage (salt step, scorer,
    hot-cluster merge, relabel) runs every batch and group function on
    Arrow: no map_batches or map_groups call asks for pandas."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    pages = rd.from_arrow(small_fixture["pages"])
    out = run_linkage(pages, LinkageConfig(salt_cap=40)).to_pandas()
    assert out["salt"].max() > 0
    names = [getattr(fn, "__name__", "") for fn, _ in map_calls]
    assert {"rep_signals", "relabel"} <= set(names), names
    pandas_fns = [n for n, (_, kw) in zip(names, map_calls) if kw.get("batch_format") == "pandas"]
    assert not pandas_fns, pandas_fns


_ONE_CPU_RUN = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200 * 1024 * 1024)
import ray.data as rd
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from hgcn_name_disambiguation_ray.config import LinkageConfig
from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, generate_fixture
from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage
pages = rd.from_arrow(generate_fixture(FixtureSpec(**json.loads(sys.argv[1])))["pages"])
out = {}
for cap in (512, 40):
    df = run_linkage(pages, LinkageConfig(salt_cap=cap)).to_pandas()
    out[cap] = sorted(zip(df["mention_id"], df["cluster_id"]))
ray.shutdown()
print(json.dumps(out))
"""


def test_linkage_finishes_on_one_cpu(ray_session, small_fixture):
    """With no actor pool the linkage runs on a single Ray CPU (an actor
    pool there used to starve the upstream shuffle and hang) and gives
    the same cluster ids as the 4-CPU session, salted and not. The run is
    a subprocess under a timeout, so a hang fails instead of stalling."""
    import json
    import os
    import subprocess
    import sys

    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_RUN, json.dumps(SPEC)],
        capture_output=True, text=True, timeout=300, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    one_cpu = json.loads(proc.stdout.strip().splitlines()[-1])
    pages = rd.from_arrow(small_fixture["pages"])
    for cap in (512, 40):
        df = run_linkage(pages, LinkageConfig(salt_cap=cap)).to_pandas()
        want = sorted(zip(df["mention_id"], df["cluster_id"]))
        assert [tuple(r) for r in one_cpu[str(cap)]] == want, cap


def test_scorer_shuffle_carries_only_read_columns(ray_session, small_fixture, tmp_path,
                                                  monkeypatch):
    """BlockScorer receives only the columns it reads, plus the salt, in
    the plain run and in the cross_merge="title" run (which adds
    coentities_ext): url, name, title and year never enter the scorer's
    shuffle, and the shuffle's __bucket stops at score_block. Each group's
    column names are appended to a file, since the groups are scored in
    worker processes."""
    import dataclasses

    import ray.data as rd
    from ray.data import Dataset

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    seen = tmp_path / "columns"
    orig = Dataset.map_batches

    def spy(self, fn, *args, **kwargs):
        if getattr(fn, "__name__", "") == "score_block":
            inner, path = fn, str(seen)

            def fn(bucket):
                # record what reaches BlockScorer inside this worker
                from hgcn_name_disambiguation_ray.stages.scorer import BlockScorer

                call = BlockScorer.__call__

                def recording(self, group):
                    with open(path, "a") as f:
                        f.write(",".join(sorted(group.column_names)) + "\n")
                    return call(self, group)

                BlockScorer.__call__ = recording
                try:
                    return inner(bucket)
                finally:
                    BlockScorer.__call__ = call

        return orig(self, fn, *args, **kwargs)

    monkeypatch.setattr(Dataset, "map_batches", spy)
    pages = rd.from_arrow(small_fixture["pages"])
    read = ["block_key", "salt", "mention_id", "coentities", "host", "tokens",
            "tokens_stemmed"]
    title = dataclasses.replace(LinkageConfig(), cross_merge="title")
    for cfg, extra in ((LinkageConfig(), []), (title, ["coentities_ext"])):
        seen.unlink(missing_ok=True)
        assert len(run_linkage(pages, cfg).to_pandas()) > 0
        assert set(seen.read_text().splitlines()) == {",".join(sorted(read + extra))}


def test_linkage_queries_raise_below_f1_floor(ray_session, monkeypatch):
    """The three linkage queries score their clusters against the pages
    fixture's planted truth and raise below the F1 floor: with every
    block collapsed to one cluster, each one fails the driver run."""
    import pyarrow as pa

    import __ray_entry__ as entry
    from hgcn_name_disambiguation_ray.pipelines import linkage

    real = linkage.run_linkage

    def one_cluster_per_block(*args, **kwargs):
        def collapse(t: pa.Table) -> pa.Table:
            i = t.schema.get_field_index("cluster_id")
            return t.set_column(i, "cluster_id", t["block_key"])

        return real(*args, **kwargs).map_batches(collapse, batch_format="pyarrow")

    monkeypatch.setattr(linkage, "run_linkage", one_cluster_per_block)
    for name in ("linkage_clusters", "linkage_scores", "linkage_sharded"):
        with pytest.raises(ValueError, match="floor"):
            entry.queries()[name]("")
