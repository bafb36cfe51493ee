"""One round of a workload in a fresh process.

    python3 benchmark/child.py --workload NAME --seed N --dir DIR --t0 T [--trace] [--setup-only]

The parent passes its CLOCK_MONOTONIC reading from just before it started
this process as --t0, so set-up time covers interpreter start, the import of
`filterlab.cli` (and with it numpy) and writing the round's configs. The
commands then run in this process through `filterlab.cli.main`, one worker,
and their wall time, CPU time and the process's peak resident set go to
DIR/result.json. With --trace the commands run under the span tracer and the
per-layer figures go to result.json too, the raw spans to DIR/trace.npz.
"""

from __future__ import annotations

import time  # first, so that nothing precedes the set-up clock but the interpreter

import argparse
import contextlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def output_bytes(directory: Path, names) -> int:
    return sum(f.stat().st_size for name in names for f in (directory / name).rglob("*") if f.is_file())


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    from filterlab import cli

    import workloads

    rundir = Path(args.dir)
    rundir.mkdir(parents=True, exist_ok=True)
    commands = workloads.commands(args.workload, args.seed, args.size)
    for i, (command, cfg) in enumerate(commands):
        (rundir / f"{i}_{command}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    result = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        result["environment"] = environment()
        (rundir / "result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    exits = []
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    with open(rundir / "stdout.txt", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        for i, (command, _cfg) in enumerate(commands):
            argv = [command, "--config", str(rundir / f"{i}_{command}.json"),
                    "--out", str(rundir / command), "--workers", "1"]
            try:
                exits.append(cli.main(argv))
            except Exception:
                traceback.print_exc()
                exits.append(-1)
    w1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        exits=exits,
        wall_s=w1 - w0,
        cpu_s=(r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        peak_rss_mib=r1.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
    )
    if tracer is not None:
        import numpy as np

        names = [cmd for cmd, _cfg in commands]
        result["layers"] = tracing.layer_metrics(tracer, workloads.ALL_CHECKS, output_bytes(rundir, names))
        # one row per span: function index into `names`, parent span (-1 at the root), start, end
        np.savez_compressed(rundir / "trace.npz", names=np.array(tracer.names),
                            name=np.frombuffer(tracer.span_name, dtype=np.int32),
                            parent=np.frombuffer(tracer.span_parent, dtype=np.int64),
                            start=np.frombuffer(tracer.span_start), end=np.frombuffer(tracer.span_end))
    (rundir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
