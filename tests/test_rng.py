"""Stream-key contracts."""

import numpy as np
import pytest

from filterlab import rng
from filterlab.filters import FilterConfig, run_filter
from filterlab.models import Battery, make_model
from filterlab.simulate import TimeGrid
from filterlab.verify import residual_run


def test_tags_are_distinct():
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert len(tags) > 1
    assert len(set(tags.values())) == len(tags), tags


@pytest.fixture
def philox_count(monkeypatch):
    """Counts the Philox generators that rng.substream builds."""
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


@pytest.mark.parametrize("n_runs", [1, 3])
def test_generators_per_run_do_not_grow_with_the_steps(philox_count, n_runs):
    # one generator per (run, role): data, initial cloud, propagation, resampling
    model = make_model("jump_ou")
    cfg = FilterConfig(n_particles=16, resample_threshold=1.0, seed=2)
    counts = []
    for horizon in (0.05, 0.2):
        philox_count.clear()
        residual_run(model, Battery.default(1), TimeGrid(horizon, 0.01), cfg, range(n_runs))
        counts.append(len(philox_count))
    assert counts[0] == counts[1] == 4 * n_runs


def test_run_filter_builds_one_generator_per_role(philox_count):
    model = make_model("correlated_linear")
    cfg = FilterConfig(n_particles=16, resample_threshold=1.0, seed=2)
    counts = []
    for horizon in (0.05, 0.2):
        grid = TimeGrid(horizon, 0.01)
        philox_count.clear()
        run_filter(model, np.zeros((grid.n_steps + 1, 1)), grid, cfg, battery=Battery.default(1))
        counts.append(len(philox_count))
    assert counts[0] == counts[1] == 3   # initial cloud, propagation, resampling
