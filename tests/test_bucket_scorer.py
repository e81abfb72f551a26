"""The scorer's bucketed dispatch: one `score_block` task per bucket of
whole (block_key, salt) groups, in place of one call per group.

Cluster ids are pinned by digest: the values were recorded with the
per-group `map_groups` scorer this dispatch replaced, so any change to
which rows a group sees, or in what order, shows up here."""

import hashlib
import json

import pyarrow as pa
import pytest

SPEC = dict(n_names=3, persons_per_name=3, docs_per_person=8, hot_name_factor=3)
SHARD_SPEC = dict(n_names=6, persons_per_name=2, docs_per_person=6, hot_name_factor=2)

# sha256 prefix of the (block_key, salt, mention_id, cluster_id) rows
# sorted by mention_id, and the row count
RECORDED = {
    "plain": ("3b504b75c48cb309", 120),
    "salted": ("4d27ba6e5297b721", 120),
    "shard4_512": ("da51c26eec8a0f54", 84),
    "shard4_16": ("027ed4cc981ae5a0", 84),
    "artifact": ("9101b68ad10c629a", 84),
}


def digest(ds) -> tuple[str, int]:
    df = ds.to_pandas().sort_values("mention_id").reset_index(drop=True)
    rows = "\n".join(
        f"{k}\t{s}\t{m}\t{c}"
        for k, s, m, c in zip(df["block_key"], df["salt"], df["mention_id"], df["cluster_id"])
    )
    return hashlib.sha256(rows.encode()).hexdigest()[:16], len(df)


def _pages(spec, tmp_path=None):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, generate_fixture, write_fixture

    if tmp_path is None:
        return rd.from_arrow(generate_fixture(FixtureSpec(**spec))["pages"])
    return rd.read_parquet(write_fixture(FixtureSpec(**spec), str(tmp_path / "fx"))["pages"])


@pytest.mark.usefixtures("ray_session")
def test_cluster_ids_equal_recorded(tmp_path):
    """Plain, salted (in memory, checkpointed, resumed), sharded (first
    run and resumed, caps 512 and 16) and artifact-regime cluster ids are
    byte-identical to the recorded ones."""
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        run_linkage,
        run_linkage_artifact,
    )

    pages = _pages(SPEC)
    assert digest(run_linkage(pages, LinkageConfig())) == RECORDED["plain"]
    salted = LinkageConfig(salt_cap=40)
    assert digest(run_linkage(pages, salted)) == RECORDED["salted"]
    for _ in range(2):  # first run, then resumed from the checkpoint
        got = run_linkage(pages, salted, str(tmp_path / "c40"), lineage_token="t")
        assert digest(got) == RECORDED["salted"]

    shard_pages = _pages(SHARD_SPEC, tmp_path)
    for cap in (512, 16):
        for _ in range(2):
            got = run_linkage(shard_pages, LinkageConfig(salt_cap=cap),
                              str(tmp_path / f"s{cap}"), lineage_token="t", n_shards=4)
            assert digest(got) == RECORDED[f"shard4_{cap}"], cap
    art = run_linkage_artifact(shard_pages, LinkageConfig(), model_path=str(tmp_path / "w2v.txt"))
    assert digest(art) == RECORDED["artifact"]


@pytest.mark.usefixtures("ray_session")
def test_fewer_groups_than_buckets_keeps_scorer_schema(tmp_path, map_calls, monkeypatch):
    """Two block keys over at least 8 buckets: most buckets are empty, and
    the scorer output is still SCORER_SCHEMA-typed with every mention
    scored; the shipped function returns that schema for an empty bucket."""
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines import linkage

    pages = _pages(dict(n_names=2, persons_per_name=1, docs_per_person=2, hot_name_factor=1))
    n = linkage.extract_mentions(pages).count()
    assert linkage._scorer_parts(n, LinkageConfig()) >= 8
    scored = {}

    def keep(make, *a, **k):
        # the scorer's own output, in place of its checkpoint
        scored["ds"] = make().materialize()
        return scored["ds"]

    monkeypatch.setattr(linkage, "checkpoint_stage", keep)
    assert linkage.run_linkage(pages, LinkageConfig(), str(tmp_path / "ck")).count() == n
    blocks = list(scored["ds"].iter_batches(batch_format="pyarrow", batch_size=None))
    assert blocks and all(b.schema.equals(linkage.SCORER_SCHEMA) for b in blocks)
    assert sum(b.num_rows for b in blocks) == n
    (fn,) = [fn for fn, _ in map_calls if getattr(fn, "__name__", "") == "score_block"]
    empty = fn(pa.table({"block_key": pa.array([], pa.string())}))
    assert empty.num_rows == 0 and empty.schema.equals(linkage.SCORER_SCHEMA)


@pytest.mark.usefixtures("ray_session")
def test_score_block_runs_once_per_bucket(tmp_path, monkeypatch):
    """At 2 shards with a salted hot key: every score_block call holds
    whole groups of one shard, a shard makes at most B calls (fewer than
    its groups), each call returns one chunk per column, and the scorer
    never goes through GroupedData.map_groups."""
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines import linkage

    log = tmp_path / "calls"
    orig = Dataset.map_batches

    def spy(self, fn, *args, **kwargs):
        if getattr(fn, "__name__", "") == "score_block":
            inner, path = fn, str(log)

            def fn(bucket):
                out = inner(bucket)
                keys = sorted(set(zip(out["block_key"].to_pylist(), out["salt"].to_pylist())))
                chunks = max(c.num_chunks for c in out.columns)
                with open(path, "a") as f:
                    f.write(json.dumps([chunks, keys]) + "\n")
                return out

        return orig(self, fn, *args, **kwargs)

    grouped, orig_groups = [], GroupedData.map_groups

    def groups_spy(self, fn, *args, **kwargs):
        grouped.append(getattr(fn, "__name__", ""))
        return orig_groups(self, fn, *args, **kwargs)

    monkeypatch.setattr(Dataset, "map_batches", spy)
    monkeypatch.setattr(GroupedData, "map_groups", groups_spy)
    pages = _pages(dict(n_names=24, persons_per_name=1, docs_per_person=3, hot_name_factor=8))
    cfg = LinkageConfig(salt_cap=8)
    out = linkage.run_linkage(pages, cfg, str(tmp_path / "ck"), lineage_token="t",
                              n_shards=2).to_pandas()
    assert out["salt"].max() > 0
    # the block-count pass may group by bucket; the scorer never does
    assert "score_block" not in grouped, grouped

    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert all(chunks == 1 for chunks, _ in calls), calls
    groups = [[tuple(g) for g in keys] for _, keys in calls]
    seen = [g for gs in groups for g in gs]
    assert len(seen) == len(set(seen)) == out.groupby(["block_key", "salt"]).ngroups
    per_shard: dict[int, list[int]] = {}
    for gs in groups:
        shards = set(linkage.block_key_bucket([k for k, _ in gs], 2).tolist())
        assert len(shards) == 1, gs
        per_shard.setdefault(shards.pop(), []).append(len(gs))
    assert sorted(per_shard) == [0, 1]
    for s, sizes in per_shard.items():
        n = int((linkage.block_key_bucket(out["block_key"], 2) == s).sum())
        assert len(sizes) <= linkage._scorer_parts(n, cfg) < sum(sizes), (s, sizes)


def test_large_groups_spread_over_buckets():
    """Groups over the row floor are placed largest first onto the
    least-loaded bucket; a salted key's salts are placed one by one."""
    from hgcn_name_disambiguation_ray.pipelines.linkage import _place_large_groups

    placed = _place_large_groups(
        {"a": 100, "b": 90, "c": 80, "hot": 300, "small": 5},
        {"hot": 3}, min_rows=10, n_buckets=4)
    assert set(placed) == {"a", "b", "c", "hot"}
    assert len(placed["hot"]) == 3 and len(set(placed["hot"])) == 3
    load = [0] * 4
    sizes = {"a": 100, "b": 90, "c": 80}
    for k, buckets in placed.items():
        for b in buckets:
            load[b] += sizes.get(k, 100)
    assert max(load) - min(load) <= 100, load
    assert _place_large_groups({"a": 3}, {}, min_rows=10, n_buckets=4) == {}
