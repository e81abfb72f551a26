"""Per-stage Parquet checkpoints with lineage manifests (resumable runs).

The reference memoizes only its API fetches as JSON files
(`openAlex_to_HGCN.py:360-392`); here every expensive stage boundary can
be checkpointed: the stage writes partitioned Parquet plus a
`_manifest.json` recording a caller-supplied lineage fingerprint (input
path + stage version + config hash), row count, and timings. On rerun,
a stage whose manifest matches its fingerprint is *read back* instead of
recomputed — restart-from-checkpoint per the north rule. Writes go to a
temp dir and are renamed into place, so a killed run never leaves a
half-written checkpoint that matches its manifest.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time
from hashlib import blake2b

from ray.data import Dataset


def fingerprint(*parts: object) -> str:
    h = blake2b(digest_size=16)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def checkpoint_stage(
    ds_factory,
    stage_dir: str,
    lineage: str,
    schema=None,
) -> Dataset:
    """Run-or-resume one stage.

    ds_factory: () -> Dataset producing the stage output (lazy until here).
    stage_dir:  directory for this stage's parquet + manifest.
    lineage:    fingerprint string; mismatch invalidates the checkpoint.
    schema:     optional pyarrow.Schema of the stage output. Pass it when
                the schema is statically known: a stage that legitimately
                produces ZERO rows writes no parquet, Ray drops empty
                blocks before any downstream observer, and asking the
                consumed lazy plan for its schema re-executes the whole
                lineage (and still learns nothing) — the explicit schema
                is the only way an empty checkpoint both round-trips its
                columns and costs a single execution.
    """
    import ray.data as rd

    # no hive partitioning on read: a `k=v` segment in stage_dir (a shard's
    # `shard=3`) is a directory name, not a column
    read = functools.partial(rd.read_parquet, partitioning=None)
    manifest_path = os.path.join(stage_dir, "_manifest.json")
    data_dir = os.path.join(stage_dir, "data")
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path) as f:
                m = json.load(f)
            if m.get("lineage") == lineage:
                if any(f.endswith(".parquet") for f in os.listdir(data_dir)):
                    return read(data_dir)
                return rd.from_items([])
        except (json.JSONDecodeError, OSError):
            pass
        shutil.rmtree(stage_dir, ignore_errors=True)

    os.makedirs(stage_dir, exist_ok=True)
    tmp_dir = os.path.join(stage_dir, "_tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    # pre-create: a zero-row stage writes no files and must still land an
    # (empty) data dir — valid checkpoint, not a crash
    os.makedirs(tmp_dir, exist_ok=True)
    t0 = time.time()
    ds = ds_factory()
    ds.write_parquet(tmp_dir)
    elapsed = time.time() - t0
    if not any(f.endswith(".parquet") for f in os.listdir(tmp_dir)):
        # write_parquet of a zero-row dataset writes NOTHING; persist the
        # stage SCHEMA as one empty parquet file so resume returns an
        # empty dataset with the original columns (a schemaless
        # rd.from_items([]) breaks downstream select_columns/groupby —
        # e.g. an empty mentions checkpoint, or a shard with no blocks)
        import pyarrow as pa
        import pyarrow.parquet as pq

        arrow_schema = schema
        if arrow_schema is None:
            # last resort for callers without a static schema: this
            # RE-EXECUTES the consumed lazy plan (Ray caches nothing for
            # un-materialized lineage), and for a pipeline whose empty
            # blocks were all dropped it may still come back empty-handed
            s = ds.schema(fetch_if_missing=True)
            if s is not None and s.names:
                arrow_schema = getattr(s, "base_schema", None) or pa.schema(
                    list(zip(s.names, s.types))
                )
        if arrow_schema is not None:
            pq.write_table(
                arrow_schema.empty_table(), os.path.join(tmp_dir, "empty.parquet")
            )
    shutil.rmtree(data_dir, ignore_errors=True)
    os.rename(tmp_dir, data_dir)
    if any(f.endswith(".parquet") for f in os.listdir(data_dir)):
        out = read(data_dir)
    else:
        out = rd.from_items([])
    with open(manifest_path, "w") as f:
        json.dump(
            {
                "lineage": lineage,
                "rows": out.count(),
                "wall_seconds": round(elapsed, 3),
                "written_at_epoch": int(time.time()),
            },
            f,
        )
    return out
