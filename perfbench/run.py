"""Benchmark of the amptrack tracking loop.

    python3 perfbench/run.py --workload ring6 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each round of the workload runs in a fresh
Python process (perfbench/workloads.py) that imports amptrack from
``src/``, so every round pays for imports, operator caches and ground
states as a user's first run does.  Rounds repeat until ``--seconds``
have passed; at least one runs.  The metrics are the medians over the
rounds.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of traced
rounds with ``--trace 1``.  Names and units come from BENCHMARK.json at
the repository root.

The workloads are the fixed default experiments and have no random
input, so ``--seed`` changes nothing; it is echoed on standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUND = Path(__file__).resolve().with_name("workloads.py")
WORKLOADS = ("atom", "ring10", "ring6")
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "AMPTRACK_MAX_THREADS")


def _run_round(root: Path, workload: str, trace: int, out: Path,
               timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROUND), "--workload", workload,
             "--trace", str(trace), "--out", str(out)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="amptrack tracking-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    needed = [spec_path, root / "src" / "amptrack" / "__init__.py",
              root / "configs" / "atom_default.cfg",
              root / "configs" / "hubbard_default.cfg"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"not an amptrack checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed} (unused), nproc "
          f"{os.cpu_count()}, threads "
          + ", ".join(f"{v}={os.environ.get(v, 'default')}" for v in THREAD_VARS),
          file=sys.stderr)
    start = time.perf_counter()
    rounds = []
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed >= args.seconds:
            break
        out = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}-{len(rounds)}"
        try:
            rounds.append(_run_round(root, args.workload, args.trace, out,
                                     DEADLINE_S - elapsed))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1

    values = [r["layers"] if args.trace else r for r in rounds]
    metrics = {
        m["name"]: {"value": statistics.median(v[m["name"]] for v in values),
                    "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    if args.trace:
        traced = statistics.median(r["experiment_s"] for r in rounds)
        print(f"{args.workload} traced experiment_s = {traced:.6g} s", file=sys.stderr)
    print(f"{len(rounds)} round(s) in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
