"""Golden output hashes: the sha256 of every file that a fixed list of CLI
runs writes, manifest.json included, recorded in golden_outputs.json next
to this file, one set per numpy dispatch level.

numpy picks some kernels (exp, log, tanh among them) at run time from the
CPU's features, and kernels of different levels round differently, so the
bytes depend on the level numpy runs at: X86_V4 (AVX-512), X86_V3 (AVX2) or
the baseline it was built for. tests/test_golden_outputs.py runs each case at
--workers 1 and 2 and compares its files with the hashes recorded for the
level it runs at; it never writes the file. A change that moves output bytes
on purpose (a stream-layout change) rewrites it with

    PYTHONPATH=src python tests/golden_outputs.py

which records each level this CPU can run in a subprocess whose
NPY_DISABLE_CPU_FEATURES turns off numpy's dispatch targets above that
level, and prints each new case and each case and file whose hash moved
against the file it replaces; CHANGES.md lists every case that moved, and
why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from filterlab.cli import RESIDUAL_BLOCK, main
from filterlab.rng import substream

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outputs.json"
WORKERS = (1, 2)


def benchmark_workloads():
    """The benchmark's workloads module, read from its file without importing the benchmark package."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", HERE.parent / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cases() -> dict[str, tuple[str, dict]]:
    """Case name -> (command, config)."""
    workloads = benchmark_workloads()
    cases = {f"{workload}_{i}_{command}": (command, cfg)
             for workload in workloads.WORKLOADS
             for i, (command, cfg) in enumerate(workloads.commands(workload, 1, "quick"))}
    # the residual workload at full size too: blocks of 8 runs of 400 particles, a size the quick one does not reach
    cases.update({f"small_cloud_residuals_full_{i}_{command}": (command, cfg)
                  for i, (command, cfg) in enumerate(workloads.commands("small_cloud_residuals", 1, "full"))})
    grid = {"horizon": 1.0, "dt": 0.01}
    residual = {"model": "correlated_linear", "n_runs": RESIDUAL_BLOCK + 4, "n_particles": 50, "dt": 0.02,
                "horizon": 1.0}
    cases.update({
        "filter_change_detection": ("filter", {"seed": 3, "model": {"name": "change_detection"}, "grid": grid,
                                               "filter": {"n_particles": 300}}),
        "filter_ignore_correlation": ("filter", {"seed": 4, "model": {"name": "correlated_linear"}, "grid": grid,
                                                 "filter": {"n_particles": 300, "ignore_correlation": True}}),
        # large_cloud's full particle count and step, resampling at every step, over 50 steps
        "filter_ten_thousand_particles": ("filter", {"seed": 11, "model": {"name": "correlated_linear"},
                                                     "grid": {"horizon": 0.05, "dt": 1e-3},
                                                     "filter": {"n_particles": 10_000, "resample_threshold": 1.0}}),
        "verify_residuals_two_blocks": ("verify", {"seed": 5, "diagnostics": {
            "checks": ["zakai_residual", "ks_residual"],
            "params": {"zakai_residual": residual, "ks_residual": residual}}}),
        "simulate_jump_ou": ("simulate", {"seed": 6, "model": {"name": "jump_ou"}, "grid": grid}),
        # several chunks of paths, and a last block shorter than the others
        "counterexample_dufresne": ("counterexample", {"seed": 7, "counterexample": {
            "kind": "dufresne", "n_paths": 2500, "horizon": 10.5, "dt": 1e-2}}),
        "counterexample_hitting": ("counterexample", {"seed": 8, "counterexample": {
            "kind": "hitting", "barriers": [1, 3], "n_paths": 1200, "dt": 1e-3}}),
        # the default barriers and dt, at which the walks leap wherever no level is in reach
        "counterexample_hitting_leaps": ("counterexample", {"seed": 17, "counterexample": {
            "kind": "hitting", "barriers": [1, 3, 9], "n_paths": 200, "dt": 1e-4}}),
        # the negative controls, at sizes too small to be sure of failing
        "verify_kalman_ablation": ("verify", {"seed": 9, "diagnostics": {"checks": ["kalman_ablation"], "params": {
            "kalman_ablation": {"n_seeds": 2, "n_particles": 200, "dt": 0.01, "horizon": 0.5}}}}),
        "verify_ks_residual_ablation": ("verify", {"seed": 10, "diagnostics": {
            "checks": ["ks_residual_ablation"], "params": {"ks_residual_ablation": {
                "n_runs": RESIDUAL_BLOCK + 4, "n_particles": 50, "dt": 0.02}}}}),
        # the Kalman oracle on a model whose observation noise does not enter the signal
        "verify_kalman_uncorrelated": ("verify", {"seed": 12, "diagnostics": {"checks": ["kalman_agreement"], "params": {
            "kalman_agreement": {"model": "linear_gaussian", "n_seeds": 2, "n_particles": 200, "dt": 0.01,
                                 "horizon": 0.5}}}}),
        "counterexample_revuz_yor": ("counterexample", {"seed": 13, "counterexample": {
            "kind": "revuz_yor", "n_paths": 500, "t": 0.5, "dt": 0.01}}),
        "verify_change_detection_envelopes": ("verify", {"seed": 14, "diagnostics": {
            "checks": ["gronwall", "local_boundedness"], "params": {
                "gronwall": {"scenario": "change_detection", "n_paths": 300, "dt": 0.01},
                "local_boundedness": {"scenario": "change_detection", "n_paths": 300, "dt": 0.01}}}}),
        # ensembles simulated from a signal model: an observation-feedback sensor and a jumping signal
        "verify_model_martingales": ("verify", {"seed": 15, "diagnostics": {
            "checks": ["martingale_mean", "zstar_bound", "energy_identity"], "params": {
                "martingale_mean": {"scenario": "change_detection", "times": [0.5, 1.0], "n_paths": 300, "dt": 0.01},
                "zstar_bound": {"scenario": "jump_ou", "n_paths": 300, "dt": 0.01},
                "energy_identity": {"scenario": "jump_ou", "n_paths": 300, "dt": 0.01}}}}),
        "verify_revuz_yor_energy_base": ("verify", {"seed": 16, "diagnostics": {
            "checks": ["revuz_yor_energy"], "params": {
                "revuz_yor_energy": {"representation": "base", "n_paths": 500, "dt": 0.01}}}}),
    })
    return cases


CASES = _cases()


# numpy's x86-64 dispatch levels, highest first, down to the baseline numpy was
# built for, named by its features (X86_V2 in numpy 2's x86-64 wheels)
LEVELS = ("X86_V4", "X86_V3", " ".join(__cpu_baseline__))


def dispatch_level() -> str:
    """The highest of LEVELS whose features numpy has enabled in this process."""
    return next((level for level in LEVELS[:-1] if __cpu_features__.get(level)), LEVELS[-1])


def disabled_above(level: str) -> str:
    """The NPY_DISABLE_CPU_FEATURES under which numpy runs at `level` at
    most: every dispatch target but the levels at or below it."""
    kept = LEVELS[LEVELS.index(level):]
    return " ".join(target for target in __cpu_dispatch__ if target not in kept)


def environment() -> dict[str, str]:
    """What the hashes depend on besides the code: numpy's version and dispatch level, and the bit generator."""
    return {"numpy": np.__version__, "dispatch_level": dispatch_level(),
            "bit_generator": type(substream(0).bit_generator).__name__}


def run_case(name: str, workers: int, scratch: Path) -> tuple[int, dict[str, str]]:
    """Run case `name` through cli.main in a fresh directory under scratch:
    its exit code and the sha256 of each file it wrote, by file name."""
    command, cfg = CASES[name]
    work = scratch / f"{name}_w{workers}"
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = work / "out"
    code = main([command, "--config", str(path), "--out", str(out), "--workers", str(workers)])
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def record(path: Path) -> None:
    """Run every case at each worker count in this process and write
    {"environment": environment(), "cases": ...} to path; the worker counts
    must agree, or nothing is written."""
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            runs = [run_case(name, workers, Path(tmp)) for workers in WORKERS]
            if any(run != runs[0] for run in runs):
                sys.exit(f"case {name!r}: the outputs differ across --workers {WORKERS}")
            code, hashes = runs[0]
            cases[name] = {"exit_code": code, "files": hashes}
    path.write_text(json.dumps({"environment": environment(), "cases": cases}), encoding="utf-8")


def write_golden() -> None:
    """Record every case at each level of LEVELS that this CPU runs, each in
    a subprocess under disabled_above(level), and write golden_outputs.json;
    the levels must agree on every exit code, or nothing is written."""
    levels = {}
    with tempfile.TemporaryDirectory() as tmp:
        for level in LEVELS:
            path = Path(tmp) / "record.json"
            env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled_above(level))
            subprocess.run([sys.executable, __file__, "--record", str(path)], env=env, stdout=subprocess.DEVNULL,
                           check=True)
            run = json.loads(path.read_text(encoding="utf-8"))
            running = run["environment"].pop("dispatch_level")
            if running != level:
                print(f"skipped {level}: this CPU runs numpy at {running} at most")
                continue
            levels[level] = run["cases"]
    for name in CASES:
        codes = {level: cases[name]["exit_code"] for level, cases in levels.items()}
        if len(set(codes.values())) > 1:
            sys.exit(f"case {name!r}: the exit codes differ across dispatch levels: {codes}")
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")).get("levels", {}) if GOLDEN.exists() else {}
    shared = {key: value for key, value in environment().items() if key != "dispatch_level"}
    GOLDEN.write_text(json.dumps(dict(shared, levels=levels), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases at {len(levels)} dispatch levels ({', '.join(levels)}) to {GOLDEN}")
    for level, cases in levels.items():
        for line in moves(recorded.get(level, {}), cases):
            print(f"{level}: {line}")


def moves(recorded: dict, cases: dict) -> list[str]:
    """One line per case of `cases` that `recorded` lacks (new) and per exit
    code and file of a recorded case whose value moved (moved)."""
    lines = []
    for name, case in sorted(cases.items()):
        if name not in recorded:
            lines.append(f"new: {name}")
            continue
        old = recorded[name]
        if case["exit_code"] != old["exit_code"]:
            lines.append(f"moved: {name} exit code {old['exit_code']} -> {case['exit_code']}")
        files = sorted(set(case["files"]) | set(old["files"]))
        lines += [f"moved: {name} {f}" for f in files if case["files"].get(f) != old["files"].get(f)]
    return lines


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        record(Path(sys.argv[2]))
    else:
        write_golden()
