"""filterlab benchmark: one workload for about --seconds seconds.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a filterlab checkout; the package is imported from its
`src/`. Every round runs the workload's commands in a fresh process
(child.py), single-threaded, and then checks their outputs here. A run makes
round(S / nominal round length) rounds and, before each, starts a few
processes that only set up. The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end medians over the rounds
(setup_s also over the set-up processes). With --trace 1 the run alternates
untraced and traced rounds and reports the per-layer figures of the traced
ones plus the tracing overhead. Operations are the commands and the output
checks; `correct` is true when every output check passed. Results and the
last round's outputs and spans stay under benchmark/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
SETUP_PROBES = 8      # set-up processes per run, spread over its rounds
DEADLINE_S = 170.0    # at --seconds 30 a run ends within 180 s; longer runs get 3x their plan
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(workload: str, seed: int, rundir: Path, size: str = "full", traced: bool = False,
              setup_only: bool = False, timeout: float = DEADLINE_S) -> dict:
    """Start one fresh process for a round (or a set-up probe) and return its
    result.json; {} if it did not finish."""
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
            "--dir", str(rundir), "--size", size]
    argv += ["--trace"] * traced + ["--setup-only"] * setup_only
    with open(rundir / "stderr.txt", "w", encoding="utf-8") as err:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv + ["--t0", repr(t0)], env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {}
    result_path = rundir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        return {}
    return json.loads(result_path.read_text(encoding="utf-8"))


def score_round(workload: str, result: dict, rundir: Path, configs) -> tuple[int, int, bool, list]:
    """(attempted, failed, every check passed, failing operations) of one round."""
    exits = result.get("exits", [])
    ops = []
    for i, (cmd, _cfg) in enumerate(configs):
        code = exits[i] if i < len(exits) else None
        # verify exits 5 when any verdict misses its band; the verdicts are
        # judged one by one by the output checks
        ops.append((f"command:{cmd}", code == 0 or (cmd == "verify" and code == 5), f"exit {code}"))
    outcome = checks.CHECKS[workload](rundir, configs)
    ops += outcome
    bad = [op for op in ops if not op[1]]
    return len(ops), len(bad), all(ok for _name, ok, _detail in outcome), bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "filterlab" / "cli.py").is_file():
        print(f"no filterlab source under {ROOT / 'src'}: run from the root of a filterlab checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be a non-negative integer", file=sys.stderr)
        return 2

    rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    plan = [False] * rounds if not args.trace else [False, True] * max(1, rounds // 2)
    deadline = max(DEADLINE_S, 3.0 * len(plan) * workloads.ROUND_SECONDS[args.workload])
    start = time.monotonic()

    def remaining() -> float:
        return deadline - (time.monotonic() - start)

    work = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    configs = workloads.commands(args.workload, args.seed)

    setups, env = [], {}
    attempted = failed = 0
    correct = True
    results: dict[bool, list[dict]] = {False: [], True: []}
    for i, traced in enumerate(plan):
        # set-up probes before every round, so that they sample the box over
        # the whole run as the rounds do
        for _ in range(-(-SETUP_PROBES // len(plan))):
            probe = run_child(args.workload, args.seed, work / "setup", setup_only=True, timeout=remaining())
            if probe:
                if not env:
                    env = probe["environment"]
                    print("environment:", json.dumps(env, sort_keys=True))
                setups.append(probe["setup_s"])
        rundir = work / "round"
        result = run_child(args.workload, args.seed, rundir, traced=traced, timeout=remaining())
        n_ops, n_bad, ok, bad = score_round(args.workload, result, rundir, configs)
        attempted += n_ops
        failed += n_bad
        correct &= ok
        if result:
            results[traced].append(result)
            setups.append(result["setup_s"])
        print(f"round {i} traced={int(traced)}: " + (
            f"wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, peak rss {result['peak_rss_mib']:.1f} MiB, "
            f"setup {result['setup_s']:.3f} s" if result else "did not finish"))
        for name, _ok, detail in bad:
            print(f"  FAILED {name}: {detail}")

    def median(rows, key):
        return statistics.median(r[key] for r in rows) if rows else float("nan")

    metrics = {}
    if not args.trace:
        plain = results[False]
        values = {"setup_s": statistics.median(setups) if setups else float("nan"),
                  **{key: median(plain, key) for key in ("wall_s", "cpu_s", "peak_rss_mib")}}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    else:
        traced_rows = results[True]
        for name, unit in tracer.layer_metric_names(workloads.ALL_CHECKS):
            if unit == "s":
                value = statistics.median(r["layers"][name] for r in traced_rows) if traced_rows else float("nan")
            else:
                value = traced_rows[0]["layers"][name] if traced_rows else 0
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": median(traced_rows, "wall_s") - median(results[False], "wall_s"),
                                       "unit": "s"}
    summary = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    work.mkdir(parents=True, exist_ok=True)
    (work / "summary.json").write_text(json.dumps({**summary, "environment": env, "setups_s": setups,
                                                   "rounds": results[False] + results[True]}, indent=1),
                                       encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
