"""Stages that used to run as actor pools (language ID, the similarity
matmuls, the Bloom probe, the nation broadcast join) are plain fused
tasks: no callable class, constructor arguments or pool size reach Ray,
and each finishes on a single Ray CPU with the same output as on four."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pytest

ENTRY_POINTS = [
    "language_id",
    "kmeans_assign",
    "brute_force_topk",
    "ivf_build",
    "bloom_filter_seen",
    "incremental_dedup",
    "cust_nation_join",
]


def _vectors():
    import ray.data as rd

    rng = np.random.default_rng(5)
    emb = rng.normal(size=(200, 8))
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64), "embedding": list(emb)})
    return rd.from_pandas(df).repartition(3), emb


def _docs():
    import ray.data as rd

    texts = ["the cat and the dog", "der hund und die katze", "le chat et la maison",
             "el perro y el gato", "数据 处理 引擎", "", "a b c 1 2 3"]
    df = pd.DataFrame({"doc_id": np.arange(70, dtype=np.int64),
                       "text": [f"{texts[i % 7]} {i // 7}" for i in range(70)]})
    return rd.from_pandas(df).repartition(3), df


def _nation_tables(sf_dir: str) -> None:
    pd.DataFrame({"r_regionkey": [0, 1], "r_name": ["ASIA", "EUROPE"]}).to_parquet(
        os.path.join(sf_dir, "region.parquet"))
    pd.DataFrame({"n_nationkey": [0, 1, 2], "n_name": ["CHINA", "FRANCE", "GERMANY"],
                  "n_regionkey": [0, 1, 1]}).to_parquet(os.path.join(sf_dir, "nation.parquet"))
    pd.DataFrame({"c_custkey": np.arange(50, dtype=np.int64),
                  "c_nationkey": np.arange(50, dtype=np.int64) % 3}).to_parquet(
        os.path.join(sf_dir, "customer.parquet"))


def run_entry_point(name: str, work_dir: str) -> list:
    """One former pool's entry point on a small seeded input, in the
    current Ray session: its output rows, sorted, as JSON-able lists."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from hgcn_name_disambiguation_ray.pipelines.textprep import language_id
    from hgcn_name_disambiguation_ray.stages.similarity import (
        IvfIndex,
        brute_force_topk,
        kmeans_assign,
    )
    from hgcn_name_disambiguation_ray.stages.sketch import (
        bloom_build,
        bloom_filter_seen,
        incremental_dedup,
    )

    if name == "language_id":
        out = language_id(_docs()[0]).to_pandas()
    elif name == "kmeans_assign":
        ds, emb = _vectors()
        out = kmeans_assign(ds, emb[:4]).to_pandas()
    elif name == "brute_force_topk":
        ds, emb = _vectors()
        out = brute_force_topk(ds, emb[[3, 50, 120]] + 0.1, k=5).to_pandas()
        out["score"] = out["score"].round(9)
    elif name == "ivf_build":
        idx_dir = os.path.join(work_dir, "ivf")
        IvfIndex.build(_vectors()[0], idx_dir, n_centroids=4, sample_rows=100)
        t = pads.dataset(idx_dir, format="parquet", partitioning="hive").to_table(
            columns=["vec_id", "centroid"])
        out = t.to_pandas().astype({"centroid": np.int64})
    elif name == "bloom_filter_seen":
        ds, df = _docs()
        bits = bloom_build(rd.from_pandas(df[df["doc_id"] % 2 == 0]), "doc_id", m_bits=1 << 12)
        out = bloom_filter_seen(ds, bits, "doc_id").to_pandas()
    elif name == "incremental_dedup":
        ds, df = _docs()
        snapshot = rd.from_pandas(df[df["doc_id"] < 40])
        out = incremental_dedup(ds, snapshot, "text", m_bits=1 << 8, k=3).to_pandas()
    elif name == "cust_nation_join":
        import sys

        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        import __ray_entry__

        _nation_tables(work_dir)
        out = __ray_entry__.queries()["cust_nation_join"](work_dir).to_pandas()
    else:
        raise KeyError(name)
    out = out[sorted(out.columns)]
    return sorted(
        [v.item() if hasattr(v, "item") else v for v in row]
        for row in out.itertuples(index=False)
    )


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_former_pool_runs_as_plain_task(ray_session, map_calls, tmp_path, name):
    """Every map call the entry point plans is a plain task."""
    assert run_entry_point(name, str(tmp_path))
    map_calls.assert_plain_tasks()


_ONE_CPU_RUN = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200 * 1024 * 1024)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from tests.test_plain_tasks import ENTRY_POINTS, run_entry_point
out = {n: run_entry_point(n, sys.argv[1]) for n in ENTRY_POINTS}
ray.shutdown()
print(json.dumps(out))
"""


def test_former_pools_finish_on_one_cpu(ray_session, tmp_path):
    """Each entry point finishes on a single Ray CPU (a min-1-actor pool
    there starved the upstream read and hung) with the 4-CPU session's
    output. The run is a subprocess under a timeout, so a hang fails
    instead of stalling."""
    import json
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    one_dir = tmp_path / "one_cpu"
    one_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_RUN, str(one_dir)],
        capture_output=True, text=True, timeout=300, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    one_cpu = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ENTRY_POINTS:
        assert one_cpu[name] == run_entry_point(name, str(tmp_path)), name
