"""The ray-job-submit entrypoint (hgcn_name_disambiguation_ray.run)."""

import json
import os

import pytest


@pytest.mark.usefixtures("ray_session")
def test_cli_main_runs_pipeline_and_respects_existing_session(tmp_path):
    import ray
    import ray.data as rd

    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.run import main

    paths = write_fixture(
        FixtureSpec(n_names=2, persons_per_name=2, docs_per_person=6),
        str(tmp_path / "fixture"),
    )
    out = str(tmp_path / "clusters")
    summary = str(tmp_path / "summary.json")
    rc = main(
        [
            "--input", paths["pages"],
            "--output", out,
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--lineage-token", "t1",
            "--summary-json", summary,
        ]
    )
    assert rc == 0
    # the CLI must NOT have shut down the session it didn't start
    assert ray.is_initialized()
    clusters = rd.read_parquet(out).to_pandas()
    n_pages = rd.read_parquet(paths["pages"]).count()
    assert len(clusters) == n_pages  # one cluster row per page
    assert {"block_key", "mention_id", "cluster_id"} <= set(clusters.columns)
    with open(summary) as f:
        js = json.load(f)
    assert js  # reference-shaped {name: {cluster: [ids...]}}
    # partitioned output (resumable sink)
    assert any(p.startswith("block_prefix=") for p in os.listdir(out))


@pytest.mark.usefixtures("ray_session")
def test_cli_sharded_requires_checkpoint_dir(tmp_path, capsys):
    """The CLI refuses --n-shards > 1 without --checkpoint-dir, and says
    why; the library refuses the same call (and a shard count below 1)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage
    from hgcn_name_disambiguation_ray.run import main

    with pytest.raises(SystemExit):
        main(["--input", str(tmp_path / "in"), "--output", str(tmp_path / "o"),
              "--n-shards", "4"])
    assert "--n-shards requires --checkpoint-dir" in capsys.readouterr().err
    for n in (0, 4):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_linkage(rd.from_items([]), n_shards=n)


@pytest.mark.usefixtures("ray_session")
def test_cli_lookup_reads_only_the_keys_partition(tmp_path, capsys):
    """S10 analogue: resolve one block key from a written clusters dir
    via its hash-prefix partition, without a Ray session."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        lookup_clusters,
        run_linkage,
        write_clusters,
    )
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.run import main

    paths = write_fixture(
        FixtureSpec(n_names=2, persons_per_name=2, docs_per_person=5),
        str(tmp_path / "fx"),
    )
    clusters = run_linkage(rd.read_parquet(paths["pages"]), LinkageConfig())
    out = str(tmp_path / "clusters")
    write_clusters(clusters, out)
    all_rows = rd.read_parquet(out).to_pandas()
    key = sorted(all_rows["block_key"].unique())[0]

    looked = lookup_clusters(out, key)
    expect = all_rows[all_rows["block_key"] == key]
    assert sorted(looked["mention_id"]) == sorted(expect["mention_id"])
    assert set(looked["cluster_id"]) == set(expect["cluster_id"])
    # unknown key -> empty frame, same columns
    assert lookup_clusters(out, "no such name").empty

    # CLI surface prints the reference-shaped JSON
    rc = main(["--lookup", key, "--clusters", out])
    assert rc == 0
    js = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(sum(js[key].values(), [])) == sorted(expect["mention_id"])


def test_cli_summary_gate_skips_not_crashes(tmp_path, capsys):
    """Above --summary-max-rows the CLI must finish (linkage output is
    already on disk), skip the driver-side JSON summary with a warning,
    and report the skip in its final JSON line — never die after the
    expensive work (review finding, round 5)."""
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.run import main

    paths = write_fixture(
        FixtureSpec(n_names=2, persons_per_name=2, docs_per_person=6),
        str(tmp_path / "fixture"),
    )
    out = str(tmp_path / "clusters")
    summary = str(tmp_path / "summary.json")
    rc = main(
        [
            "--input", paths["pages"],
            "--output", out,
            "--summary-json", summary,
            "--summary-max-rows", "5",  # far below the fixture's row count
        ]
    )
    assert rc == 0
    assert not os.path.exists(summary)
    captured = capsys.readouterr()
    last = json.loads(captured.out.strip().splitlines()[-1])
    assert "summary_json_skipped" in last and "max_rows" in last["summary_json_skipped"]
    assert os.path.isdir(out)  # the linkage output itself survived


def test_cli_warc_input(tmp_path, capsys):
    """--input-format warc ingests Common Crawl archives end-to-end."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.run import main
    from hgcn_name_disambiguation_ray.sources.warc import synth_warc

    paths = write_fixture(
        FixtureSpec(n_names=2, persons_per_name=2, docs_per_person=6),
        str(tmp_path / "fixture"),
    )
    pages = pq.read_table(paths["pages"])
    recs = [
        {"url": u, "date": "2020-09-13T12:26:40Z", "payload": h, "type": "response"}
        for u, h in zip(pages["url"].to_pylist(), pages["html"].to_pylist())
    ]
    mid = len(recs) // 2
    w1, w2 = tmp_path / "p1.warc.gz", tmp_path / "p2.warc.gz"
    w1.write_bytes(synth_warc(recs[:mid]))
    w2.write_bytes(synth_warc(recs[mid:]))
    out = str(tmp_path / "clusters")
    rc = main(
        [
            "--input", f"{w1},{w2}",
            "--input-format", "warc",
            "--output", out,
        ]
    )
    assert rc == 0
    clusters = rd.read_parquet(out).to_pandas()
    assert len(clusters) == pages.num_rows
