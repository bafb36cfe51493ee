"""Golden output hashes: the sha256 of every file that a fixed list of CLI
runs writes, manifest.json included, recorded in golden_outputs.json next
to this file.

tests/test_golden_outputs.py runs each case at --workers 1 and 2 and
compares its files with the recorded hashes; it never writes the file. A
change that moves output bytes on purpose (a stream-layout change) rewrites
it with

    PYTHONPATH=src python tests/golden_outputs.py

which prints each new case and each case and file whose hash moved against
the file it replaces; CHANGES.md lists every case that moved, and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

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
        # the negative controls, at sizes too small to be sure of failing
        "verify_kalman_ablation": ("verify", {"seed": 9, "diagnostics": {"checks": ["kalman_ablation"], "params": {
            "kalman_ablation": {"n_seeds": 2, "n_particles": 200, "dt": 0.01, "horizon": 0.5}}}}),
        "verify_ks_residual_ablation": ("verify", {"seed": 10, "diagnostics": {
            "checks": ["ks_residual_ablation"], "params": {"ks_residual_ablation": {
                "n_runs": RESIDUAL_BLOCK + 4, "n_particles": 50, "dt": 0.02}}}}),
    })
    return cases


CASES = _cases()


def environment() -> dict[str, str]:
    """What the hashes depend on besides the code: numpy's version and the bit generator."""
    return {"numpy": np.__version__, "bit_generator": type(substream(0).bit_generator).__name__}


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


def write_golden() -> None:
    """Run every case at each worker count and write golden_outputs.json; the
    worker counts must agree, or nothing is written."""
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            runs = [run_case(name, workers, Path(tmp)) for workers in WORKERS]
            if any(run != runs[0] for run in runs):
                sys.exit(f"case {name!r}: the outputs differ across --workers {WORKERS}")
            code, hashes = runs[0]
            cases[name] = {"exit_code": code, "files": hashes}
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"] if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(dict(environment(), cases=cases), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
    for line in moves(recorded, cases):
        print(line)


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
    write_golden()
