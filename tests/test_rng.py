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


def test_stream_layout_is_pinned():
    # the first draws of one fixed substream, exact: a change of bit generator
    # or of the keying moves every output byte and must show up here
    draws = rng.substream(2014, rng.TAG_PATH, 3).standard_normal(4)
    assert draws.tolist() == [-0.6139798481518742, -0.6484022006720362, 1.2492061169837492, 0.7454140160700342]


@pytest.fixture
def generator_count(monkeypatch):
    """Counts the generators that rng.substream builds, whatever their bit generator."""
    built = []
    real = np.random.Generator

    def counting(bit_generator):
        built.append(bit_generator)
        return real(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counting)
    return built


@pytest.mark.parametrize("n_runs", [1, 3])
def test_generators_per_run_do_not_grow_with_the_steps(generator_count, n_runs):
    # one generator per (run, role): data, initial cloud, propagation, resampling
    model = make_model("jump_ou")
    cfg = FilterConfig(n_particles=16, resample_threshold=1.0, seed=2)
    counts = []
    for horizon in (0.05, 0.2):
        generator_count.clear()
        residual_run(model, Battery.default(1), TimeGrid(horizon, 0.01), cfg, range(n_runs))
        counts.append(len(generator_count))
    assert counts[0] == counts[1] == 4 * n_runs


def test_run_filter_builds_one_generator_per_role(generator_count):
    model = make_model("correlated_linear")
    cfg = FilterConfig(n_particles=16, resample_threshold=1.0, seed=2)
    counts = []
    for horizon in (0.05, 0.2):
        grid = TimeGrid(horizon, 0.01)
        generator_count.clear()
        run_filter(model, np.zeros((grid.n_steps + 1, 1)), grid, cfg, battery=Battery.default(1))
        counts.append(len(generator_count))
    assert counts[0] == counts[1] == 3   # initial cloud, propagation, resampling
