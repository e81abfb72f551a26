"""Two-input co-partitions go through `groupagg.cogroup`: the `__side`
tag and the `groupby("__bucket")` shuffle are spelled only in
`stages/groupagg.py`, so a hand-rolled tag/pad/union/split cannot come
back elsewhere."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "hgcn_name_disambiguation_ray"
HOME = PACKAGE / "stages" / "groupagg.py"
PATTERNS = {
    "__side tag": re.compile(r"__side"),
    'groupby("__bucket")': re.compile(r"""groupby\(\s*["']__bucket["']\s*\)"""),
}


def _sources() -> list[Path]:
    return sorted(PACKAGE.rglob("*.py")) + [ROOT / "__ray_entry__.py"]


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_copartition_idiom_lives_only_in_groupagg(name):
    hits = [p.relative_to(ROOT).as_posix() for p in _sources()
            if PATTERNS[name].search(p.read_text())]
    assert hits == [HOME.relative_to(ROOT).as_posix()], hits


def test_two_input_operators_call_cogroup():
    from hgcn_name_disambiguation_ray.stages.coent import extend_coentities
    from hgcn_name_disambiguation_ray.stages.groupagg import asof_join, range_join

    for fn in (asof_join, range_join, extend_coentities):
        src = inspect.getsource(fn)
        assert "cogroup(" in src, fn.__name__
        assert ".union(" not in src and "pa.nulls(" not in src, fn.__name__
