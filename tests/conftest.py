"""Shared fixtures: ONE Ray session per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_fixture():
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, generate_fixture

    return generate_fixture(
        FixtureSpec(n_names=3, persons_per_name=3, docs_per_person=8, hot_name_factor=3)
    )


@pytest.fixture
def map_calls(monkeypatch):
    """Spy: (fn, kwargs) of every Dataset.map_batches and
    GroupedData.map_groups call made while the test runs."""
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    calls: list = []
    for owner, name in ((Dataset, "map_batches"), (GroupedData, "map_groups")):
        orig = getattr(owner, name)

        def spy(self, fn, *args, _orig=orig, **kwargs):
            calls.append((fn, kwargs))
            return _orig(self, fn, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls
