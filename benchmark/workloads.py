"""The benchmark's three workloads: the filterlab commands of one round, made
from the workload seed, at full size or at the reduced size the benchmark's
own tests use.

Every config names its sizes explicitly, so a change of a default inside
filterlab cannot silently change what a workload measures.
"""

from __future__ import annotations

SIZES = ("full", "quick")

# Nominal length of one round on the reference box (2 cores, see README);
# a run makes round(seconds / nominal) rounds, at least one.
ROUND_SECONDS = {
    "large_cloud": 7.0,
    "small_cloud_residuals": 6.0,
    "martingale_mc": 13.0,
}

# correlated_linear: dX = a X dt + sigma_v dV + sigma_bar dW, dY = h X dt + dW,
# X_0 ~ N(m0, p0); the benchmark's own Kalman-Bucy recursion uses these.
CORRELATED_LINEAR = {"a": -1.0, "sigma_v": 1.0, "sigma_bar": 0.5, "h": 1.0, "m0": 0.0, "p0": 0.5}

PHIS = ["1", "x", "x^2", "tanh(x)"]

MARTINGALE_CHECKS = [
    "revuz_yor_energy", "zlogz_identity", "martingale_mean", "zstar_bound", "energy_identity",
    "independent_h", "local_boundedness", "gronwall", "dufresne", "hitting",
]
HITTING_BARRIERS = [1, 3, 9]
ALL_CHECKS = ["kalman_agreement", "change_detection", "zakai_residual", "ks_residual"] + MARTINGALE_CHECKS


def _large_cloud(seed: int, size: str) -> list[tuple[str, dict]]:
    n, dt = (10_000, 1e-3) if size == "full" else (2_000, 5e-3)
    base = {"model": {"name": "correlated_linear"}, "grid": {"horizon": 1.0, "dt": dt}, "seed": seed}
    # threshold 1.0 resamples at every step; at 0.5 these clouds never resample
    filt = dict(base, filter={"n_particles": n, "resample_threshold": 1.0, "resampler": "systematic"})
    oracle = {"n_seeds": 2, "n_particles": n, "dt": dt, "horizon": 1.0, "tolerance": 0.05}
    ver = {
        "seed": seed,
        "diagnostics": {
            "checks": ["kalman_agreement", "change_detection"],
            "params": {
                "kalman_agreement": dict(oracle, model="correlated_linear"),
                "change_detection": oracle,
            },
        },
    }
    return [("simulate", base), ("filter", filt), ("verify", ver)]


def _small_cloud_residuals(seed: int, size: str) -> list[tuple[str, dict]]:
    if size == "full":
        params = {"n_runs": 8, "n_particles": 400, "dt": 2.5e-3}
    else:
        params = {"n_runs": 6, "n_particles": 100, "dt": 1e-2}
    params.update(model="jump_ou", horizon=1.0, phis=PHIS, resample_threshold=0.5)
    ver = {
        "seed": seed,
        "diagnostics": {"checks": ["zakai_residual", "ks_residual"],
                        "params": {"zakai_residual": params, "ks_residual": params}},
    }
    return [("verify", ver)]


def _martingale_mc(seed: int, size: str) -> list[tuple[str, dict]]:
    if size == "full":
        paths, dt, dufresne_dt, hitting = 10_000, 1e-3, 1e-3, {"n_paths": 1000, "dt": 1e-4}
        envelope = {"n_paths": 4000, "dt": 2e-3}
    else:
        paths, dt, dufresne_dt, hitting = 2_000, 1e-2, 1e-2, {"n_paths": 200, "dt": 1e-3}
        envelope = {"n_paths": 500, "dt": 1e-2}
    # revuz_yor_energy/zlogz_identity and zstar_bound/energy_identity share
    # their sizes, so each pair works on the same paths; the output checks
    # rely on that to match one verdict's reference to the other's estimate
    ry = {"alpha": 1.0, "t": 1.0, "n_paths": paths, "dt": dt}
    ens = {"scenario": "revuz_yor", "t": 1.0, "n_paths": paths, "dt": dt}
    envelope.update(scenario="jump_ou", horizon=1.0)
    params = {
        "revuz_yor_energy": dict(ry, representation="transformed"),
        "zlogz_identity": ry,
        "martingale_mean": {"scenario": "revuz_yor", "times": [0.25, 0.5, 1.0], "n_paths": paths, "dt": dt},
        "zstar_bound": ens,
        "energy_identity": ens,
        "independent_h": {"t": 1.0, "n_paths": paths, "dt": dt},
        "local_boundedness": envelope,
        "gronwall": envelope,
        "dufresne": {"n_paths": paths, "horizon": 20.0, "dt": dufresne_dt},
        "hitting": dict(hitting, barriers=HITTING_BARRIERS),
    }
    ver = {"seed": seed, "diagnostics": {"checks": MARTINGALE_CHECKS, "params": params}}
    return [("verify", ver)]


WORKLOADS = {
    "large_cloud": _large_cloud,
    "small_cloud_residuals": _small_cloud_residuals,
    "martingale_mc": _martingale_mc,
}


def commands(workload: str, seed: int, size: str = "full") -> list[tuple[str, dict]]:
    """(filterlab subcommand, config) for each command of one round, in order;
    each command writes its outputs to a directory named after it."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return WORKLOADS[workload](seed, size)
