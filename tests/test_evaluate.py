"""Pairwise-F1 count identity vs the reference's O(n²) formula."""

import numpy as np
import pandas as pd
import pytest


def _reference_pairwise(correct, pred):
    # literal transcription of the reference's loop semantics
    # (name_disambiguation.py:111-133) for oracle purposes
    TP = TP_FP = TP_FN = 0.0
    n = len(correct)
    for i in range(n):
        for j in range(i + 1, n):
            if correct[i] == correct[j]:
                TP_FN += 1
            if pred[i] == pred[j]:
                TP_FP += 1
            if correct[i] == correct[j] and pred[i] == pred[j]:
                TP += 1
    if TP == 0:
        return 0.0, 0.0, 0.0
    p, r = TP / TP_FP, TP / TP_FN
    return p, r, 2 * p * r / (p + r)


@pytest.mark.usefixtures("ray_session")
def test_count_identity_matches_reference_formula():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    rng = np.random.default_rng(7)
    frames = []
    expected = {}
    for b in range(3):
        n = int(rng.integers(5, 30))
        true_l = rng.integers(0, 4, n)
        pred_l = rng.integers(0, 4, n)
        frames.append(
            pd.DataFrame(
                {
                    "block_key": f"b{b}",
                    "person_id": [f"t{x}" for x in true_l],
                    "cluster_id": [f"c{x}" for x in pred_l],
                }
            )
        )
        expected[f"b{b}"] = _reference_pairwise(list(true_l), list(pred_l))
    labeled = rd.from_pandas(pd.concat(frames, ignore_index=True))
    scores = pairwise_scores(labeled)
    for b, (p, r, f) in expected.items():
        row = scores[scores["block_key"] == b].iloc[0]
        assert row["precision"] == pytest.approx(p)
        assert row["recall"] == pytest.approx(r)
        assert row["f1"] == pytest.approx(f)
    macro = scores[scores["block_key"] == "__macro__"].iloc[0]
    assert macro["f1"] == pytest.approx(np.mean([v[2] for v in expected.values()]))


@pytest.mark.usefixtures("ray_session")
def test_macro_skips_blocks_without_pairs():
    """A block of singletons only (no true and no predicted pair) keeps
    its F1-0 row but stays out of the macro; a block whose only pair is
    predicted wrongly counts."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    labeled = rd.from_pandas(pd.DataFrame({
        "block_key": ["ok", "ok", "ok", "single", "single", "wrong", "wrong"],
        "person_id": ["a", "a", "b", "x", "y", "p", "q"],
        "cluster_id": ["c1", "c1", "c2", "s1", "s2", "w", "w"],
    }))
    scores = pairwise_scores(labeled).set_index("block_key")
    assert scores.loc["ok", "f1"] == 1.0
    assert scores.loc["single", "f1"] == 0.0  # per-block row unchanged
    assert scores.loc["wrong", "f1"] == 0.0
    assert scores.loc["__macro__", "f1"] == pytest.approx(0.5)
    assert len(scores) == 4


def test_majority_assignment(ray_session):
    import ray.data as rd

    # block with 2 predicted clusters over 3 true persons:
    #   cluster A: p1 x3, p2 x1  -> claims p1
    #   cluster B: p1 x1, p2 x2  -> p1 taken, claims p2
    #   p3 never clustered       -> singleton fill
    df = pd.DataFrame(
        {
            "block_key": ["k"] * 7,
            "cluster_id": ["A", "A", "A", "A", "B", "B", "B"],
            "person_id": ["p1", "p1", "p1", "p2", "p1", "p2", "p2"],
        }
    )
    df = pd.concat(
        [df, pd.DataFrame({"block_key": ["k"], "cluster_id": ["C"], "person_id": ["p3"]})],
        ignore_index=True,
    )
    from hgcn_name_disambiguation_ray.stages.evaluate import majority_assignment

    out = majority_assignment(rd.from_pandas(df)).to_pandas().set_index("person_id")
    assert out.loc["p1", "assigned_cluster"] == "A"
    assert out.loc["p2", "assigned_cluster"] == "B"
    assert out.loc["p3", "assigned_cluster"] == "C"
    # each cluster claims exactly one person
    assert out["assigned_cluster"].is_unique


def test_eval_driver_pull_is_one_row_per_block(ray_session):
    """pairwise_scores must never pull per-cell counts to the driver: the
    per-block C(n,2) sums it materializes are exactly one row per block,
    regardless of how many (truth x cluster) cells the block contains."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.evaluate import _block_c2_sums

    rng = np.random.default_rng(11)
    n_blocks, rows_per_block = 5, 600
    frames = []
    for b in range(n_blocks):
        frames.append(
            pd.DataFrame(
                {
                    "block_key": f"b{b}",
                    "person_id": [f"t{x}" for x in rng.integers(0, 50, rows_per_block)],
                    "cluster_id": [f"c{x}" for x in rng.integers(0, 40, rows_per_block)],
                }
            )
        )
    labeled = rd.from_pandas(pd.concat(frames, ignore_index=True)).materialize()
    # thousands of distinct cells per block, but the driver-side result is
    # exactly n_blocks rows for each of the three count identities
    for keys, out in [
        (["block_key", "person_id", "cluster_id"], "tp"),
        (["block_key", "cluster_id"], "pp"),
        (["block_key", "person_id"], "ap"),
    ]:
        sums = _block_c2_sums(labeled, keys, out)
        assert sums.count() == n_blocks


def test_c2_is_integer_exact_above_2_53():
    """C(n, 2) of a cell count stays int64-exact where a float64 product
    would round: n = 2**27 + 3 puts n(n-1)/2 above 2^53. No rows built."""
    import pyarrow as pa

    from hgcn_name_disambiguation_ray.stages.evaluate import _c2

    n = 2**27 + 3
    counts = pa.table({"block_key": ["big", "pair", "one"], "n": pa.array([n, 2, 1], pa.int64())})
    got = _c2(counts, "tp")
    assert got.schema.field("tp").type == pa.int64()
    assert got["tp"].to_pylist() == [n * (n - 1) // 2, 1, 0]
    assert n * (n - 1) // 2 > 2**53
    assert int(float(n) * (n - 1) / 2) != n * (n - 1) // 2  # the float path rounds
