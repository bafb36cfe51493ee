"""map_ordered returns the serial results, in item order, for chunk sizes above one."""

import numpy as np
import pytest

from filterlab.cli import _agreement_task, _residual_task
from filterlab.filters import FilterConfig
from filterlab import parallel
from filterlab.parallel import map_ordered
from filterlab.simulate import TimeGrid
from filterlab.verify import change_detection_agreement_run, kalman_agreement_run

# with 2 workers, map_ordered hands out chunks of 2 items for 17 items and of 4 for 33
N_ITEMS = [17, 33]


@pytest.mark.parametrize("n_blocks", N_ITEMS)
def test_two_workers_equal_serial_residual_runs(n_blocks):
    # blocks of 1 to 3 runs, so both the items and the block sizes vary
    blocks = [tuple(range(3 * i, 3 * i + 1 + i % 3)) for i in range(n_blocks)]
    config = FilterConfig(n_particles=8, resample_threshold=0.5, seed=3)
    payloads = [("jump_ou", ("1", "x", "x^2", "tanh(x)"), TimeGrid(0.02, 0.01), config, b) for b in blocks]
    serial = [_residual_task(p) for p in payloads]
    parallel = map_ordered(_residual_task, payloads, 2)
    # each block returns its (runs, test functions, times) Zakai and KS arrays
    assert [len(zak) for zak, _ in parallel] == [len(b) for b in blocks]
    assert not np.array_equal(serial[0][0][0, 1], serial[1][0][0, 1])   # runs differ, so order matters
    for block_s, block_p in zip(serial, parallel):
        for s, p in zip(block_s, block_p):
            np.testing.assert_array_equal(s, p)


@pytest.mark.parametrize("n_runs", N_ITEMS)
def test_two_workers_equal_serial_kalman_runs(n_runs):
    config = FilterConfig(n_particles=16, resample_threshold=0.5, seed=4)
    payloads = [(kalman_agreement_run, "correlated_linear", TimeGrid(0.05, 0.01), config, i) for i in range(n_runs)]
    serial = [_agreement_task(p) for p in payloads]
    assert serial[0] != serial[1]   # runs differ, so order matters
    assert map_ordered(_agreement_task, payloads, 2) == serial


@pytest.mark.parametrize("n_runs", N_ITEMS)
def test_two_workers_equal_serial_change_detection_runs(n_runs):
    config = FilterConfig(n_particles=16, resample_threshold=0.5, seed=5)
    # changes fall in [0.25, 0.75]
    payloads = [(change_detection_agreement_run, "change_detection", TimeGrid(0.4, 0.02), config, i)
                for i in range(n_runs)]
    serial = [_agreement_task(p) for p in payloads]
    assert serial[0] != serial[1]
    assert map_ordered(_agreement_task, payloads, 2) == serial


@pytest.mark.parametrize("n_items, workers, started", [(2, 6, 2), (5, 3, 3), (1, 4, None)])
def test_at_most_one_process_per_item(monkeypatch, n_items, workers, started):
    # the fork start method forks all max_workers processes at the first submit
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    assert map_ordered(abs, range(-n_items, 0), workers) == list(range(n_items, 0, -1))
    assert pools == ([] if started is None else [started])
