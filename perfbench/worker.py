"""One workload in one fresh process: warm-up, timed passes, optional trace.

Started by ``run.py``; writes its result as JSON to ``--result``. Every op
calls ``memstp.cli.main`` in-process, looked up on the module at call time,
so that the tracer's wrappers are seen when installed and absent otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib.metadata
import io
import json
import pstats
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import memstp.cli

from tracer import QUALNAMES, Tracer
from workloads import WORKLOADS, CheckError, Op, csv_digest, pass_seed

ROOT = Path(__file__).resolve().parent.parent


def invoke(argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI invocation; returns (exit code or None if it raised, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = memstp.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the benchmark records the failure and goes on
            code = None
            traceback.print_exc()
    return code, err.getvalue()


def run_pass(ops: list[Op], pass_dir: Path,
             around=contextlib.nullcontext) -> dict:
    """Run and check one pass's ops; only the CLI calls are timed.

    ``around`` is a context manager entered around each CLI call (tracing,
    profiling); it stays outside the timed region.
    """
    elapsed = 0.0
    failures: list[str] = []
    items = 0
    for op in ops:
        with around():
            t0 = perf_counter()
            code, err = invoke(op.argv)
            elapsed += perf_counter() - t0
        try:
            if code != 0:
                raise CheckError(f"exit code {code}: {err.strip()[-300:]}")
            op.check(op.out)
        except CheckError as exc:
            failures.append(f"{op.name}: {exc}")
        except Exception as exc:  # malformed output the check did not foresee
            failures.append(f"{op.name}: check raised {exc!r}")
        else:
            items += op.items
    digest = csv_digest(pass_dir)
    shutil.rmtree(pass_dir)
    return {"time_s": elapsed, "ops": len(ops), "failures": failures,
            "items": items, "csv_sha256": digest}


class Runner:
    """Makes fresh pass directories and runs passes of one workload."""

    def __init__(self, workload: str, run_seed: int, tmp: Path) -> None:
        self.make_ops = WORKLOADS[workload]
        self.run_seed = run_seed
        self.tmp = tmp
        self.count = 0
        self.passes: list[dict] = []

    def run(self, index: int, around=contextlib.nullcontext) -> dict:
        self.count += 1
        pass_dir = self.tmp / f"pass{self.count}"
        pass_dir.mkdir()
        seed = pass_seed(self.run_seed, index)
        result = run_pass(self.make_ops(seed, pass_dir), pass_dir, around)
        result.update(seed_index=index, seed=seed)
        self.passes.append(result)
        return result


def timed_loop(seconds: float, step) -> None:
    """Call ``step()`` until ``seconds`` of wall time are used up.

    A step is not started when the median step so far says it would end past
    the budget; at least one step always runs.
    """
    t_start = perf_counter()
    durations: list[float] = []
    while True:
        t0 = perf_counter()
        step()
        durations.append(perf_counter() - t0)
        if perf_counter() - t_start + statistics.median(durations) > seconds:
            return


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced passes with a new pass seed each; pass 1 repeats the warm-up."""
    warm = runner.run(1)
    timed: list[dict] = []
    timed_loop(seconds, lambda: timed.append(runner.run(len(timed) + 1)))
    times = [p["time_s"] for p in timed]
    return {
        "pass_times_s": times,
        "samples": len(times),
        "pass_p50_s": statistics.median(times),
        "items_per_s": sum(p["items"] for p in timed) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "repeat_identical": warm["csv_sha256"] == timed[0]["csv_sha256"],
    }


def profile_top(profiler: cProfile.Profile, n: int = 10) -> list[dict]:
    stats = pstats.Stats(profiler)
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    top = []
    for (filename, line, func), (_, ncalls, tottime, cumtime, _) in rows[:n]:
        path = Path(filename)
        if path.is_relative_to(ROOT):
            filename = path.relative_to(ROOT).as_posix()
        elif path.is_absolute():
            filename = path.name  # standard library or site-packages
        top.append({"function": f"{filename}:{line}({func})", "ncalls": ncalls,
                    "tottime_s": tottime, "cumtime_s": cumtime})
    return top


def layer_metrics(tracer: Tracer, pass_ids: list[int]) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes, and whether counts repeated.

    Counts come from the first traced pass (every traced pass runs the same
    inputs, so they must repeat exactly); self times are medians.
    """
    summaries = tracer.pass_summaries(pass_ids)
    out = dict(summaries[0])
    repeat = all(s.keys() == out.keys() and all(
        s[k] == v for k, v in out.items() if not k.endswith(".self_s"))
        for s in summaries)
    for q in QUALNAMES:
        out[q + ".self_s"] = statistics.median(s[q + ".self_s"] for s in summaries)
    calls = out["fitting.minimize_simplex.calls"]
    converged = out.pop("fitting.minimize_simplex.converged")
    out["fitting.minimize_simplex.converged_frac"] = converged / calls if calls else 0.0
    return out, repeat


def trace(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Pairs of untraced and traced passes on one input, then one profile.

    All passes run pass seed 1, so call counts repeat and the traced/untraced
    ratio compares like with like.
    """
    runner.run(1)  # warm-up
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []

    def pair() -> None:
        plain.append(runner.run(1)["time_s"])
        tracer.begin_pass(len(traced) + 1)
        traced.append(runner.run(1, tracer.installed)["time_s"])

    timed_loop(seconds, pair)
    layers, counts_repeat = layer_metrics(tracer, list(range(1, len(traced) + 1)))
    layers["tracing_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    tracer.write_spans(spans_path)

    profiler = cProfile.Profile()
    runner.run(1, lambda: profiler)  # enabled around each CLI call
    digests = {p["csv_sha256"] for p in runner.passes}
    return {"per_layer": layers, "untraced_pass_times_s": plain,
            "traced_pass_times_s": traced, "samples": len(traced),
            "counts_repeat": counts_repeat, "repeat_identical": len(digests) == 1,
            "profile_top10": profile_top(profiler)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if not Path(memstp.cli.__file__).resolve().is_relative_to(src):
        print(f"worker: memstp imported from {memstp.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.tmp)
    if args.trace:
        result = trace(runner, args.seconds, args.spans)
    else:
        result = measure(runner, args.seconds)
    failures = [f for p in runner.passes for f in p["failures"]]
    result.update(
        ops_attempted=sum(p["ops"] for p in runner.passes),
        ops_failed=len(failures),
        failures=failures[:20],
        passes=[{k: p[k] for k in ("seed_index", "seed", "time_s", "items",
                                   "csv_sha256")} for p in runner.passes],
        versions={"python": sys.version.split()[0],
                  "numpy": importlib.metadata.version("numpy"),
                  "scipy": importlib.metadata.version("scipy")})
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
