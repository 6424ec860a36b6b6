"""memstp benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh worker process, one at a time. With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it prints the per-layer metrics of a separate traced run. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics. Results, per-pass times and spans go to ``.perfbench_out/``; pass
outputs live under ``.perfbench_tmp/`` while the run lasts. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect_mc", "device_protocols", "fit_suite")
SETUP_RUNS = 3  # fresh interpreters timed per run; the median is setup_s
WORKER_TIMEOUT_S = 170.0
SETUP_PROBE = ("import memstp, memstp.cli, time; memstp.cli.build_parser(); "
               "print(time.monotonic())")


def child_env() -> dict[str, str]:
    """Environment of the benchmark's child processes only."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1")


def setup_seconds(env: dict[str, str]) -> float:
    """Time from starting a fresh interpreter until ``import memstp`` has
    finished and the CLI parser is built.

    CLOCK_MONOTONIC is system-wide, so the child's reading and the parent's
    start time compare directly.
    """
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 out_dir: Path, tmp_root: Path) -> dict:
    env = child_env()
    setup = []
    if not trace:
        setup = [setup_seconds(env) for _ in range(SETUP_RUNS)]
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    result_path = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", str(tmp), "--result", str(result_path),
           "--spans", str(out_dir / f"{workload}-spans.npz")]
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                   timeout=WORKER_TIMEOUT_S, check=True)
    result = json.loads(result_path.read_text())
    shutil.rmtree(tmp)
    if setup:
        result["setup_runs_s"] = setup
        result["setup_s"] = statistics.median(setup)
    attempted = result["ops_attempted"]
    result["ops_failed_frac"] = result["ops_failed"] / attempted
    result["stamp"] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **result.pop("versions"), "nproc": os.cpu_count(),
        "machine": platform.machine(), "git_commit": git_commit()}
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="memstp benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds "
                    "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "memstp" / "cli.py").is_file():
        print(f"perfbench: no memstp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        results = [run_workload(w, args.seed, seconds, args.trace, out_dir, tmp_root)
                   for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    correct, attempted, failed, metrics = True, 0, 0, {}
    for r in results:
        workload = r["stamp"]["workload"]
        values = r["per_layer"] if args.trace else r
        s = r["stamp"]
        print(f"# {workload} seed={args.seed} trace={args.trace} "
              f"samples={r['samples']} python={s['python']} numpy={s['numpy']} "
              f"scipy={s['scipy']} nproc={s['nproc']} commit={s['git_commit']}")
        for m in wanted:
            print(f"{workload:17s} {m['name']:44s} {values[m['name']]:.6g} {m['unit']}")
        print(f"{workload:17s} {'ops_failed_frac':44s} {r['ops_failed_frac']:.6g} "
              f"({r['ops_failed']}/{r['ops_attempted']} ops)")
        for failure in r["failures"]:
            print(f"{workload:17s} FAILED {failure}")
        repeat_ok = r["repeat_identical"] and r.get("counts_repeat", True)
        if not repeat_ok:
            print(f"{workload:17s} FAILED outputs or counts differ between "
                  "passes on the same seed")
        correct = correct and repeat_ok and r["ops_failed"] == 0
        attempted += r["ops_attempted"]
        failed += r["ops_failed"]
        prefix = "" if len(results) == 1 else workload + "."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                           "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
