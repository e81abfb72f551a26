"""Extended-coentity (2-hop collaborator) dataflow vs a driver oracle."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


def _mentions_ds(rows):
    import pyarrow as pa
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "mention_id": pa.array([r[0] for r in rows], type=pa.string()),
                "coentities": pa.array([r[1] for r in rows], type=pa.list_(pa.string())),
                "block_key": pa.array(["k"] * len(rows), type=pa.string()),
            }
        )
    )


def _oracle_ext(rows, degree_cap=200):
    """Driver reimplementation: ext = ce ∪ (∪ collaborators of each ce)."""
    from collections import defaultdict

    nbrs = defaultdict(set)
    for _, ce in rows:
        s = set(ce)
        for x in s:
            nbrs[x] |= s - {x}
    nbrs = {x: (v if len(v) <= degree_cap else set()) for x, v in nbrs.items()}
    out = {}
    for mid, ce in rows:
        e = set(ce)
        for x in ce:
            e |= nbrs.get(x, set())
        out[mid] = sorted(e)
    return out


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_buckets", [1, 7])
def test_extend_coentities_matches_oracle(n_buckets):
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.coent import extend_coentities

    rng = np.random.default_rng(11)
    names = [f"p{i}" for i in range(40)]
    rows = []
    for m in range(120):
        k = int(rng.integers(1, 5))
        rows.append((f"m{m:03d}", sorted(rng.choice(names, size=k, replace=False))))
    got = (
        extend_coentities(_mentions_ds(rows), LinkageConfig(), n_buckets=n_buckets)
        .to_pandas()
        .set_index("mention_id")
    )
    want = _oracle_ext(rows)
    assert len(got) == len(rows)
    for mid, ce in rows:
        assert sorted(got.loc[mid, "coentities_ext"]) == want[mid], mid
        # original columns survive untouched
        assert list(got.loc[mid, "coentities"]) == list(ce)


@pytest.mark.usefixtures("ray_session")
def test_extend_coentities_hub_dropped():
    """A name over the degree cap contributes NO 2-hop fanout (its own
    mentions keep their direct coentities)."""
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.coent import extend_coentities

    # 'hub' collaborates with 30 distinct names; cap at 10 drops its edges
    rows = [(f"m{i}", ["hub", f"x{i}"]) for i in range(30)]
    rows.append(("mq", ["hub", "q"]))
    cfg = LinkageConfig(coent_degree_cap=10)
    got = (
        extend_coentities(_mentions_ds(rows), cfg)
        .to_pandas()
        .set_index("mention_id")
    )
    # 'q' must NOT acquire the 30 x-names through the hub; x0's partner
    # ("hub") is also over-cap, so only the direct set plus nothing
    assert sorted(got.loc["mq", "coentities_ext"]) == ["hub", "q"]
    # x0 itself is under cap: its collaborators are just 'hub'
    assert sorted(got.loc["m0", "coentities_ext"]) == ["hub", "x0"]



@pytest.mark.usefixtures("ray_session")
def test_extend_coentities_without_collaborator_pairs():
    """No mention has two coentities, so there is no collaborator pair and
    no 2-hop row: each mention's ext set is its sorted direct coentities.
    Joining against the empty pair set used to raise ArrowInvalid from
    Ray's hash join at 4 CPUs."""
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.coent import extend_coentities

    rows = [("m0", ["x"]), ("m1", ["y"]), ("m2", [])]
    got = (
        extend_coentities(_mentions_ds(rows), LinkageConfig())
        .to_pandas()
        .set_index("mention_id")
    )
    assert len(got) == 3
    for mid, ce in rows:
        assert list(got.loc[mid, "coentities_ext"]) == sorted(ce), mid


@pytest.mark.usefixtures("ray_session")
def test_extend_coentities_empty_coentities():
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.stages.coent import extend_coentities

    rows = [("m0", []), ("m1", ["a", "b"]), ("m2", ["b", "c"])]
    got = (
        extend_coentities(_mentions_ds(rows), LinkageConfig())
        .to_pandas()
        .set_index("mention_id")
    )
    assert list(got.loc["m0", "coentities_ext"]) == []
    assert sorted(got.loc["m1", "coentities_ext"]) == ["a", "b", "c"]


def test_hop2_matrix_packed_bitset_matches_naive():
    from hgcn_name_disambiguation_ray.stages.scorer import hop2_matrix

    rng = np.random.default_rng(3)
    names = [f"e{i}" for i in range(150)]
    n = 40
    ce = [list(rng.choice(names, size=int(rng.integers(0, 6)), replace=False)) for _ in range(n)]
    ext = [sorted(set(c) | set(rng.choice(names, size=int(rng.integers(0, 12)), replace=False)))
           for c in ce]
    got = hop2_matrix(ce, ext)
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if set(ext[i]) & set(ce[j]) or set(ce[i]) & set(ext[j]):
                want[i, j] = 1.0
    np.testing.assert_array_equal(got, want)
