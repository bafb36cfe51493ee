"""map_ordered returns the serial results, in item order, for chunk sizes above one."""

import numpy as np
import pytest

from filterlab.cli import _residual_task
from filterlab.parallel import map_ordered


@pytest.mark.parametrize("n_runs", [17, 33])   # with 2 workers, chunks of 2 and 4 items
def test_two_workers_equal_serial_residual_runs(n_runs):
    payloads = [("jump_ou", ("1", "x", "x^2", "tanh(x)"), 0.02, 0.01, 8, 0.5, False, 3, i) for i in range(n_runs)]
    serial = [_residual_task(p) for p in payloads]
    parallel = map_ordered(_residual_task, payloads, 2)
    assert len(parallel) == n_runs
    assert not np.array_equal(serial[0][0]["x"], serial[1][0]["x"])   # runs differ, so order matters
    for (zak_s, ks_s), (zak_p, ks_p) in zip(serial, parallel):
        for s, p in ((zak_s, zak_p), (ks_s, ks_p)):
            assert list(s) == list(p)
            for label in s:
                np.testing.assert_array_equal(s[label], p[label])
