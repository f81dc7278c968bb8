"""Benchmark entry point for agroups.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` one fresh
process repeats set-up and the timed phase for about S seconds (at least
three repetitions), timing every piece of work in each; a time metric is
the sum over the pieces of each piece's fastest repetition.  With
``--trace 1`` the workload runs once untraced and once traced at one job,
and the per-layer metrics are printed.  Every repetition passes the output
gate or the run counts as failed.

The last line of standard output is the result object; the line before it
records the environment and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import PINNED, PINNED_SEED, WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
DEADLINE_S = 170


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():   # an exported source tree has none
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or None
        except OSError:
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "python": platform.python_version(),
            "numpy": numpy_version}


def declaration_problems() -> list[str]:
    """Names and units here must match the metric lists in BENCHMARK.json."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                    [(m["name"], m["unit"]) for m in bench["per_layer"]])
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read BENCHMARK.json: {exc}"]
    if declared != (list(END_TO_END), [(n, u) for n, u, _ in PER_LAYER]):
        return ["metric names or units differ from BENCHMARK.json"]
    return []


def run_child(args: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run one rep.py process in its own session; kill the session on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "repetition timed out"
    if proc.returncode != 0:
        return None, f"repetition exited with code {proc.returncode}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "repetition printed no result"


def gate(name: str, seed: int, facts: list[dict]) -> list[str]:
    """Zero FAIL, a note on every SKIP, identical output bytes on every
    repetition, and the pinned totals (and, for the pinned seed, digest)."""
    problems = []
    pinned = PINNED[name]
    for f in facts:
        if f["fails"]:
            problems.append(f"{f['fails']} FAIL reports")
        if f["unnoted_skips"]:
            problems.append(f"{f['unnoted_skips']} SKIP reports without a note")
        if f["bad_exits"]:
            problems.append(f"{f['bad_exits']} verify commands exited nonzero")
        for key in ("groups", "reports", "checked"):
            if f[key] != pinned[key]:
                problems.append(f"{key} = {f[key]}, pinned {pinned[key]}")
        if f["setup_tables"] != pinned["groups"]:
            problems.append(f"set-up built {f['setup_tables']} tables, pinned {pinned['groups']}")
    digests = {f["sha256"] for f in facts}
    if len(digests) > 1:
        problems.append(f"output differs between repetitions: {sorted(digests)}")
    if seed == PINNED_SEED and digests != {pinned["sha256_seed7"]}:
        problems.append(f"output digest {sorted(digests)} differs from the pinned one")
    return problems


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def piecewise_total(pieces: dict[str, list[float]]) -> tuple[float, dict]:
    """Sum over the pieces of each piece's median repetition, and for the
    record the per-repetition totals."""
    reps = {len(times) for times in pieces.values()}
    if len(reps) != 1:
        raise ValueError(f"pieces were timed {sorted(reps)} times")
    totals = [sum(rep) for rep in zip(*pieces.values())]
    return sum(statistics.median(times) for times in pieces.values()), summary(totals)


def measure(name: str, seed: int, seconds: float, workdir: Path, start: float):
    budget = max(1.0, seconds - (time.monotonic() - start))
    got, error = run_child([name, str(seed), "measure", str(workdir), str(budget)],
                           start + DEADLINE_S)
    if got is None:
        return {}, {}, [], [error]
    facts = got["facts"]
    problems = gate(name, seed, facts)
    values, detail = {"peak_rss_mb": got["peak_rss_mb"]}, {"pinned": got["pinned"]}
    for metric, key in (("setup_s", "setup"), ("wall_s", "wall"), ("cpu_s", "cpu")):
        try:
            values[metric], detail[f"{metric}_per_repetition"] = piecewise_total(got[key])
            detail[f"{metric}_raw"], detail[f"{metric}_raw_per_repetition"] = \
                piecewise_total(got[f"raw_{key}"])
        except ValueError as exc:
            problems.append(f"{metric}: {exc}")
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in END_TO_END if key in values}
    return metrics, detail, facts, problems


def trace(name: str, seed: int, workdir: Path, start: float):
    """Untraced runs (as configured, and at one job for the overhead base),
    then the traced run at one job with the tracer self-test after it."""
    jobs = WORKLOADS[name]["jobs"]
    runs = [[name, str(seed), "once", str(workdir)]]
    if jobs > 1:
        runs.append([name, str(seed), "once", str(workdir), "1"])
    runs.append([name, str(seed), "trace", str(workdir)])
    results = []
    for args in runs:
        got, error = run_child(args, start + DEADLINE_S)
        if got is None:
            return {}, {}, [], [error]
        results.append(got)
    untraced, base, traced = results[0], results[-2], results[-1]
    facts = [r["facts"] for r in results]
    problems = gate(name, seed, facts) + traced["problems"]
    metrics = dict(traced["metrics"])
    metrics["verifier.scan.worker_idle_share"] = untraced["sample"]["worker_idle_share"]
    metrics["trace.overhead_ratio"] = traced["traced_wall_s"] / base["sample"]["wall_s"] - 1
    units = {n: u for n, u, _ in PER_LAYER}
    if set(metrics) != set(units):
        problems.append(f"per-layer names differ: {sorted(set(metrics) ^ set(units))}")
    out = {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics}
    detail = {"spans": traced["spans"], "traced_wall_s": traced["traced_wall_s"],
              "untraced": untraced["sample"], "overhead_base": base["sample"]}
    return out, detail, facts, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "agroups" / "__init__.py").is_file():
        print(f"error: no agroups sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    env = environment(args.seed)
    declared = declaration_problems()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.trace:
            metrics, detail, facts, problems = trace(args.workload, args.seed, workdir, start)
        else:
            metrics, detail, facts, problems = measure(args.workload, args.seed,
                                                       args.seconds, workdir, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = declared + problems
    attempted = sum(f["reports"] for f in facts) or 1
    failed = sum(f["fails"] for f in facts)
    if problems and not failed:
        failed = 1   # a run that fails the gate never counts as a clean one
    print(json.dumps({"env": env, "workload": args.workload, "trace": args.trace,
                      "problems": problems, "facts": facts, "detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
