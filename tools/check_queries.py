"""Local stand-in for the driver's correctness gate.

Runs every `queries()` entry at a given sf_dir, runs the matching
`oracle_sql()` in DuckDB over the same parquet views, and compares
row count + column names + an order-insensitive value hash (columns
sorted by name, rows sorted, stringified). Usage:

    python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        from ray.data import Dataset

        if isinstance(res, Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].map(
            # order-PRESERVING for every container type: sorting list
            # cells would mask genuine token-order regressions, and a
            # list-vs-ndarray container difference must not hash apart
            lambda v: str(list(v)) if (isinstance(v, (list, tuple)) or
            (hasattr(v, "__len__") and not isinstance(v, str))) else str(v)
        )
    rows = sorted(df.apply(lambda r: "\x00".join(r.values), axis=1).tolist())
    return hashlib.blake2b("\n".join(rows).encode(), digest_size=12).hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # the tree this script lives in, not whichever checkout is installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        # a typo'd gate invocation must not print 'FAILURES: none' after
        # running nothing
        print(f"unknown queries: {sorted(unknown)}")
        sys.exit(2)
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            failures.append(name)
            print(f"[FAIL] {name}: query raised {type(e).__name__}: {e}")
            continue
        elapsed = time.time() - t0
        if name not in oracles:
            print(f"[rows-only] {name}: {len(mine)} rows, cols={sorted(mine.columns)} ({elapsed:.1f}s)")
            continue
        theirs = con.execute(oracles[name]).fetchdf()
        ok_rows = len(mine) == len(theirs)
        ok_cols = sorted(mine.columns) == sorted(theirs.columns)
        ok_hash = ok_rows and ok_cols and value_hash(mine) == value_hash(theirs)
        status = "OK" if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(
            f"[{status}] {name}: rows {len(mine)}/{len(theirs)} cols_match={ok_cols} "
            f"hash_match={ok_hash} ({elapsed:.1f}s)"
        )
        if status == "FAIL" and ok_cols and len(mine) and len(theirs):
            m = mine[sorted(mine.columns)].head(3)
            o = theirs[sorted(theirs.columns)].head(3)
            print("  mine:", m.to_dict("records"))
            print("  oracle:", o.to_dict("records"))
    print("FAILURES:", failures or "none")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
