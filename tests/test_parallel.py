"""map_ordered returns the serial results, in item order, for chunk sizes
above one; run_plans runs each distinct task once, in one pool, and hands
each plan its results in the order it asked for them."""

import concurrent.futures
import json
import subprocess
import sys

import numpy as np
import pytest

from filterlab import cli, verify
from filterlab.cli import EXIT_BLOWUP, EXIT_COLLAPSE, _residual_block
from filterlab.filters import FilterCollapse, FilterConfig
from filterlab.parallel import map_ordered, run_plans
from filterlab.simulate import SimulationBlowUp, TimeGrid
from filterlab.verify import change_detection_agreement_run, kalman_agreement_run
from test_cli import child_env

# with 2 workers, map_ordered hands out chunks of 2 items for 17 items and of 4 for 33
N_ITEMS = [17, 33]


def gather(tasks):
    """A plan that asks for tasks (fn, *args) and returns their results."""
    return (yield tasks)


def serial(tasks):
    return [fn(*args) for fn, *args in tasks]


@pytest.mark.parametrize("n_blocks", N_ITEMS)
def test_two_workers_equal_serial_residual_runs(n_blocks):
    # blocks of 1 to 3 runs, so both the items and the block sizes vary
    blocks = [tuple(range(3 * i, 3 * i + 1 + i % 3)) for i in range(n_blocks)]
    config = FilterConfig(n_particles=8, resample_threshold=0.5, seed=3)
    tasks = [(_residual_block, "jump_ou", ("1", "x", "x^2", "tanh(x)"), TimeGrid(0.02, 0.01), config, b) for b in blocks]
    one = serial(tasks)
    [two] = run_plans([gather(tasks)], 2)
    # each block returns its (runs, test functions, times) Zakai and KS arrays
    assert [len(zak) for zak, _ in two] == [len(b) for b in blocks]
    assert not np.array_equal(one[0][0][0, 1], one[1][0][0, 1])   # runs differ, so order matters
    for block_s, block_p in zip(one, two):
        for s, p in zip(block_s, block_p):
            np.testing.assert_array_equal(s, p)


@pytest.mark.parametrize("n_runs", N_ITEMS)
def test_two_workers_equal_serial_kalman_runs(n_runs):
    config = FilterConfig(n_particles=16, resample_threshold=0.5, seed=4)
    tasks = [(kalman_agreement_run, "correlated_linear", TimeGrid(0.05, 0.01), config, i) for i in range(n_runs)]
    one = serial(tasks)
    assert one[0] != one[1]   # runs differ, so order matters
    assert run_plans([gather(tasks)], 2) == [one]


@pytest.mark.parametrize("n_runs", N_ITEMS)
def test_two_workers_equal_serial_change_detection_runs(n_runs):
    config = FilterConfig(n_particles=16, resample_threshold=0.5, seed=5)
    # changes fall in [0.25, 0.75]
    tasks = [(change_detection_agreement_run, TimeGrid(0.4, 0.02), config, i) for i in range(n_runs)]
    one = serial(tasks)
    assert one[0] != one[1]
    assert run_plans([gather(tasks)], 2) == [one]


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records each pool's size and maps in-process."""

    def __init__(self, pools, max_workers):
        pools.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def record_pools(monkeypatch) -> list:
    pools = []
    # map_ordered imports the pool class from concurrent.futures when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(pools, max_workers))
    return pools


@pytest.mark.parametrize("n_items, workers, started", [(2, 6, 2), (5, 3, 3), (1, 4, None)])
def test_at_most_one_process_per_item(monkeypatch, n_items, workers, started):
    # the fork start method forks all max_workers processes at the first submit
    pools = record_pools(monkeypatch)
    assert map_ordered(abs, range(-n_items, 0), workers) == list(range(n_items, 0, -1))
    assert pools == ([] if started is None else [started])


def test_a_serial_map_never_imports_the_process_pool():
    # the pool's import loads multiprocessing, socket and subprocess, set-up time that --workers 1 never uses
    script = ("import sys; from filterlab import cli, parallel; parallel.map_ordered(abs, [-1, -2], 1); "
              "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), check=True)
    assert out.stdout.strip() == "[]"


def square(x):
    return x * x


def test_each_distinct_task_runs_once_and_plans_get_their_results_in_order():
    calls = []

    def counted(x):
        calls.append(x)
        return x * x

    plans = [gather([(counted, 1), (counted, 2)]), gather([(counted, 2), (counted, 3), (counted, 1)]), gather([])]
    assert run_plans(plans) == [[1, 4], [4, 9, 1], []]
    assert calls == [1, 2, 3]


def test_results_equal_at_one_and_two_workers():
    def plans():
        return [gather([(square, x) for x in range(i, i + 7)]) for i in range(0, 20, 3)]

    assert run_plans(plans(), 1) == run_plans(plans(), 2) == [[square(x) for x in range(i, i + 7)]
                                                              for i in range(0, 20, 3)]


def test_a_plan_that_yields_twice_raises():
    def greedy():
        first = yield [(square, 2)]
        yield [(square, first[0])]

    with pytest.raises(RuntimeError, match="one list of tasks"):
        run_plans([greedy()])


def test_verify_of_several_checks_opens_one_pool(monkeypatch, tmp_path):
    pools = record_pools(monkeypatch)
    small = {"n_paths": 200, "dt": 0.01}
    params = {"revuz_yor_energy": dict(small, t=0.5), "martingale_mean": dict(small, times=[0.5]),
              "dufresne": dict(small, n_paths=1500, horizon=10.0), "hitting": {"barriers": [1], "n_paths": 200,
                                                                             "dt": 1e-3},
              "kalman_agreement": {"n_seeds": 2, "n_particles": 50, "dt": 0.05, "horizon": 0.2}}
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"seed": 5, "diagnostics": {"checks": list(params), "params": params}}))
    code = cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out"), "--workers", "2"])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert pools == [2]


def collapse(*args):
    raise FilterCollapse(step=3, ess=0.0)


def blow_up(*args):
    raise SimulationBlowUp(step=7)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fail, code", [(collapse, EXIT_COLLAPSE), (blow_up, EXIT_BLOWUP)])
def test_a_failing_task_sets_the_exit_code(monkeypatch, tmp_path, capsys, workers, fail, code):
    # the agreement runs are tasks of the pool, so at 2 workers the error crosses a process boundary
    monkeypatch.setattr(verify, "kalman_agreement_run", fail)
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"seed": 5, "diagnostics": {"checks": ["kalman_agreement"], "params": {
        "kalman_agreement": {"n_seeds": 2, "n_particles": 50, "dt": 0.05, "horizon": 0.2}}}}))
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--workers", str(workers)]) == code
    assert ("step 3" if fail is collapse else "step 7") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
