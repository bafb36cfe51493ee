"""Keyed splittable random streams.

Every stochastic routine in the package draws from an SFC64 generator seeded
by the SeedSequence of (master seed, integer path...). A key's stream is
bit-identical however work is chunked across workers, which is what makes
every estimator reproducible under any parallel schedule.

A filter run has one generator per role, which the filter's one walk
(filters._walk) builds: it keys the initial cloud, propagation and
resampling streams of a run (seed, TAG_role, *key), where run_filter's one
run has the empty key and run i of a residual block (verify.residual_run)
the key (i,), next to its data path (seed, TAG_PATH, i). Each is built once
and drawn from in order, step after step, by that run alone, so a run's
bytes do not depend on the block it is stepped in or on the worker count.
Agreement run i (verify.kalman_agreement_run, change_detection_agreement_run)
draws its data path from (seed, TAG_PATH, i) and runs one filter whose master
seed is derive_seed(seed, TAG_KALMAN_FILTER or TAG_CHANGE_FILTER, i), so that
filter's streams are (derived seed, TAG_role).
"""

from __future__ import annotations

import numpy as np

# Fixed tags namespace the substreams and derived seeds of a single master
# seed so that e.g. path simulation and resampling never share a stream.
TAG_PATH = 1
TAG_PROPAGATE = 2
TAG_RESAMPLE = 3
TAG_INIT = 4
TAG_DUFRESNE = 21          # Dufresne exponential-functional paths, one substream per chunk of paths
TAG_HITTING = 22           # Brownian exit paths, one substream per chunk of paths
TAG_KALMAN_FILTER = 51     # derive_seed key of the filters in the Kalman agreement runs
TAG_CHANGE_FILTER = 52     # derive_seed key of the filters in the change-detection runs


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the SFC64 generator addressed by (seed, *key).

    The same (seed, key) always yields the same stream; distinct keys give
    statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.SFC64(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministically derive a child integer seed from (seed, *key)."""
    ss = np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
