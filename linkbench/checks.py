"""Correctness checks computed by the benchmark itself.

Nothing here calls the engine's own evaluation code
(`stages/evaluate.pairwise_scores`): that function scores a block with no
true pair as F1 0, so its macro average misreads inputs made mostly of
singleton blocks. The benchmark scores micro pairwise F1 over all
same-group pairs instead, from plain pandas on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _pairs(sizes: pd.Series | np.ndarray) -> int:
    n = np.asarray(sizes, dtype=np.int64)
    return int((n * (n - 1) // 2).sum())


def micro_pairwise_f1(truth: list | np.ndarray | pd.Series,
                      pred: list | np.ndarray | pd.Series) -> tuple[float, float, float]:
    """(precision, recall, f1) over all item pairs, aligned labels in.

    A pair is predicted when both items share a `pred` label and true when
    they share a `truth` label; labels must already be scoped to a block
    (an id that embeds the block key) for pairs not to cross blocks.
    With no predicted pair precision is 1; with no true pair recall is 1,
    so an all-singleton input scored as all singletons reads F1 1."""
    df = pd.DataFrame({"t": np.asarray(truth, dtype=object), "p": np.asarray(pred, dtype=object)})
    tp = _pairs(df.groupby(["t", "p"], sort=False).size())
    pp = _pairs(df.groupby("p", sort=False).size())
    ap = _pairs(df.groupby("t", sort=False).size())
    precision = tp / pp if pp else 1.0
    recall = tp / ap if ap else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def check_linkage(clusters: pd.DataFrame, truth: pd.DataFrame,
                  f1_floor: float) -> tuple[float, list[str]]:
    """clusters(block_key, mention_id, cluster_id) vs truth(mention_id,
    block_key, person_id) -> (micro F1, list of failed properties)."""
    problems = []
    dup = clusters["mention_id"].duplicated()
    if dup.any():
        problems.append(f"{int(dup.sum())} mentions appear more than once")
    missing = set(truth["mention_id"]) - set(clusters["mention_id"])
    if missing:
        problems.append(f"{len(missing)} input mentions missing from the output")
    extra = set(clusters["mention_id"]) - set(truth["mention_id"])
    if extra:
        problems.append(f"{len(extra)} output mentions not in the input")
    spans = clusters.groupby("cluster_id")["block_key"].nunique()
    if (spans > 1).any():
        problems.append(f"{int((spans > 1).sum())} clusters span two or more block keys")
    m = clusters.drop_duplicates("mention_id").merge(
        truth, on="mention_id", how="inner", suffixes=("", "_true"))
    wrong_key = m["block_key"] != m["block_key_true"]
    if wrong_key.any():
        problems.append(f"{int(wrong_key.sum())} mentions carry another block key than their name")
    _, _, f1 = micro_pairwise_f1(m["person_id"], m["cluster_id"])
    if f1 < f1_floor:
        problems.append(f"pairwise F1 {f1:.4f} below floor {f1_floor}")
    return f1, problems


def shingles(text: str, n: int = 3) -> set[tuple[str, ...]]:
    """Word n-gram set of lowercased whitespace tokens; a text shorter
    than n gives one whole-text shingle, an empty text none."""
    toks = text.lower().split()
    if 0 < len(toks) < n:
        return {tuple(toks)}
    return {tuple(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = shingles(a, n), shingles(b, n)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def check_dedup(out: pd.DataFrame, docs: pd.DataFrame, truth: pd.DataFrame,
                jaccard_floor: float) -> tuple[float, list[str]]:
    """out(doc_id, canonical_id) for docs in a duplicate group; docs(doc_id,
    text); truth(doc_id, source_id, kind) -> (micro F1, failed properties).

    A doc absent from `out` is its own group."""
    problems = []
    if out["doc_id"].duplicated().any():
        problems.append("a document maps to two canonical ids")
    canon = dict(zip(out["doc_id"], out["canonical_id"]))
    ids = truth["doc_id"].to_numpy()
    pred = np.array([canon.get(int(d), int(d)) for d in ids])
    pred_of = dict(zip(ids.tolist(), pred.tolist()))
    exact = truth[truth["kind"] == "exact"]
    lost = sum(pred_of[int(d)] != pred_of[int(s)] for d, s in zip(exact["doc_id"], exact["source_id"]))
    if lost:
        problems.append(f"{lost} exact duplicates not mapped to their source")
    text = dict(zip(docs["doc_id"], docs["text"]))
    pairs = out[out["doc_id"] != out["canonical_id"]]
    low = [
        (int(d), int(c)) for d, c in zip(pairs["doc_id"], pairs["canonical_id"])
        if jaccard(text[int(d)], text[int(c)]) < jaccard_floor
    ]
    if low:
        problems.append(f"{len(low)} output pairs below shingle Jaccard {jaccard_floor}, e.g. {low[0]}")
    _, _, f1 = micro_pairwise_f1(truth["source_id"].to_numpy(), pred)
    return f1, problems
