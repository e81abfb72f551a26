"""The benchmark's own correctness checks, on hand-made cases."""

from __future__ import annotations

import pandas as pd
import pytest

from linkbench.checks import check_dedup, check_linkage, jaccard, micro_pairwise_f1, shingles


def test_f1_perfect_clustering():
    assert micro_pairwise_f1(["a", "a", "b", "b"], [1, 1, 2, 2]) == (1.0, 1.0, 1.0)


def test_f1_singleton_blocks_read_one():
    # every block holds one mention: no true pair, no predicted pair
    p, r, f1 = micro_pairwise_f1(["x#p0", "y#p0", "z#p0"], ["x|0", "y|0", "z|0"])
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_f1_all_split_block():
    # one person of four mentions predicted as four singletons
    p, r, f1 = micro_pairwise_f1(["a"] * 4, [1, 2, 3, 4])
    assert p == 1.0 and r == 0.0 and f1 == 0.0


def test_f1_all_merged_block():
    # two persons of two mentions merged into one cluster: 2 of 6 pairs true
    p, r, f1 = micro_pairwise_f1(["a", "a", "b", "b"], [1, 1, 1, 1])
    assert p == pytest.approx(2 / 6) and r == 1.0
    assert f1 == pytest.approx(2 * (1 / 3) / (1 / 3 + 1))


def test_f1_is_micro_not_macro():
    # a perfect 3-mention block and a wrong 2-mention block: micro counts
    # pairs (3 true + 1 true), not blocks
    truth = ["a", "a", "a", "b", "b"]
    pred = [1, 1, 1, 2, 3]
    p, r, f1 = micro_pairwise_f1(truth, pred)
    assert p == 1.0 and r == pytest.approx(3 / 4)


def _linkage_frames():
    truth = pd.DataFrame({
        "mention_id": ["m1", "m2", "m3", "m4"],
        "block_key": ["ann lee", "ann lee", "bo li", "bo li"],
        "person_id": ["ann-lee#p0", "ann-lee#p0", "bo-li#p0", "bo-li#p1"],
    })
    clusters = pd.DataFrame({
        "block_key": ["ann lee", "ann lee", "bo li", "bo li"],
        "mention_id": ["m1", "m2", "m3", "m4"],
        "cluster_id": ["ann lee|0|0", "ann lee|0|0", "bo li|0|0", "bo li|0|1"],
    })
    return clusters, truth


def test_check_linkage_accepts_correct_output():
    clusters, truth = _linkage_frames()
    f1, problems = check_linkage(clusters, truth, f1_floor=0.9)
    assert f1 == 1.0 and problems == []


def test_check_linkage_flags_missing_duplicate_and_cross_key():
    clusters, truth = _linkage_frames()
    bad = pd.concat([clusters.iloc[:3], clusters.iloc[[0]]], ignore_index=True)
    bad.loc[2, "cluster_id"] = "ann lee|0|0"  # a cluster spanning two keys
    _, problems = check_linkage(bad, truth, f1_floor=0.0)
    text = " ".join(problems)
    assert "more than once" in text
    assert "missing" in text
    assert "span two or more block keys" in text


def test_check_linkage_flags_f1_below_floor():
    clusters, truth = _linkage_frames()
    clusters["cluster_id"] = clusters["block_key"]  # both bo li persons merged
    f1, problems = check_linkage(clusters, truth, f1_floor=0.9)
    assert f1 < 0.9 and any("below floor" in p for p in problems)


def test_shingles_and_jaccard():
    assert shingles("a b c d") == {("a", "b", "c"), ("b", "c", "d")}
    assert shingles("A b") == {("a", "b")}  # shorter than n: one whole-text shingle
    assert shingles("") == set()
    assert jaccard("", "") == 1.0
    assert jaccard("a b c d", "a b c d") == 1.0
    assert jaccard("a b c d", "e f g h") == 0.0
    # one edited token in the middle of 10 touches 3 of 8 shingles
    base = " ".join(f"w{i}" for i in range(10))
    edited = base.replace("w5", "zz")
    assert jaccard(base, edited) == pytest.approx(5 / 11)


def test_check_dedup():
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["a b c d e f", "a b c d e f", "a b c d e g", "p q r s t u"],
    })
    truth = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "source_id": [0, 0, 0, 3],
        "kind": ["source", "exact", "near", "source"],
    })
    good = pd.DataFrame({"doc_id": [0, 1, 2], "canonical_id": [0, 0, 0]})
    f1, problems = check_dedup(good, docs, truth, jaccard_floor=0.5)
    assert f1 == 1.0 and problems == []

    lost = pd.DataFrame({"doc_id": [0, 2], "canonical_id": [0, 0]})
    _, problems = check_dedup(lost, docs, truth, jaccard_floor=0.5)
    assert any("exact duplicates" in p for p in problems)

    false_pair = pd.DataFrame({"doc_id": [0, 1, 3], "canonical_id": [0, 0, 0]})
    _, problems = check_dedup(false_pair, docs, truth, jaccard_floor=0.5)
    assert any("below shingle Jaccard" in p for p in problems)
