"""Keyed aggregates run as per-batch partials merged by
`groupagg.bucketed_sum`, never through Ray's sort-based
`GroupedData.aggregate`, which dispatches Python work per group."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture
def aggregate_calls(monkeypatch):
    """Spy: the aggregations of every GroupedData.aggregate call made
    while the test runs."""
    from ray.data.grouped_data import GroupedData

    calls = []
    orig = GroupedData.aggregate

    def spy(self, *aggs, **kwargs):
        calls.append(aggs)
        return orig(self, *aggs, **kwargs)

    monkeypatch.setattr(GroupedData, "aggregate", spy)
    return calls


def _texts() -> pd.DataFrame:
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    return pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [" ".join(["alpha"] * 3 + [words[(i + j) % 5] for j in range(i % 4 + 1)])
                 for i in range(40)],
        "source": [f"s{i % 3}" for i in range(40)],
        "n_chars": np.arange(40, dtype=np.int64) * 37 % 700,
    })


def _run(name: str):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.pipelines import textprep
    from hgcn_name_disambiguation_ray.stages import blocking, evaluate, groupagg, sketch

    docs = rd.from_pandas(_texts()).repartition(3)
    if name == "block_counts":
        keys = pd.DataFrame({"block_key": [f"k{i % 7}" for i in range(50)]})
        return blocking.block_counts(rd.from_pandas(keys).repartition(3))
    if name == "pairwise_scores":
        labeled = pd.DataFrame({"block_key": [f"b{i % 3}" for i in range(30)],
                                "person_id": [f"p{i % 5}" for i in range(30)],
                                "cluster_id": [f"c{i % 4}" for i in range(30)]})
        return evaluate.pairwise_scores(rd.from_pandas(labeled).repartition(3))
    if name == "hopping_window_count":
        events = pd.DataFrame({"user_id": np.arange(30, dtype=np.int64) % 4,
                               "ts": pd.date_range("2024-01-01", periods=30, freq="7h")})
        return groupagg.hopping_window_count(
            rd.from_pandas(events).repartition(3), "user_id", "ts",
            window_us=2 * 86_400_000_000, hop_us=86_400_000_000,
        ).to_pandas()
    if name == "source_stats":
        return textprep.source_stats(docs, blocklist={"s2"}).to_pandas()
    if name == "length_histogram":
        return textprep.length_histogram(docs).to_pandas()
    if name == "bigram_counts":
        return textprep.bigram_counts(docs, k=5).to_pandas()
    if name == "char_quantiles":
        return textprep.char_quantiles(docs).to_pandas()
    if name == "kll_quantiles":
        return sketch.kll_quantiles(docs, "n_chars").to_pandas()
    assert name == "heavy_hitters"
    return sketch.heavy_hitters(docs, k=5).to_pandas()


@pytest.mark.parametrize("name", [
    "block_counts", "pairwise_scores", "hopping_window_count", "source_stats",
    "length_histogram", "bigram_counts", "char_quantiles", "kll_quantiles",
    "heavy_hitters",
])
def test_keyed_aggregate_skips_ray_sort_aggregate(ray_session, aggregate_calls, name):
    out = _run(name)
    assert len(out)
    assert aggregate_calls == []
