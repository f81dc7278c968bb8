"""Repetitions of a workload in a fresh process, started by run.py.

    python3 perfbench/rep.py WORKLOAD SEED MODE WORKDIR [JOBS | SECONDS]

MODE ``measure`` repeats set-up and the timed phase, untraced, for SECONDS,
and prints the wall and CPU time of every piece of work in every
repetition: each table or recipe built in set-up, and each checked group
(or recipe, or whole two-worker scan) and the report write in the timed
phase.  MODE ``once`` builds the inputs and runs the timed phase once as a
single call, with CPU taken from this process's and its children's
resource usage; JOBS overrides the workload's scan worker count.  MODE
``trace`` runs the timed phase traced at one job, then the tracer
self-test, and prints the per-layer metrics.  Every mode prints the output
facts the gate checks, and writes outputs only under WORKDIR.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from agroups import cli, constructions, fileio, verifier  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    SELF_TEST_RECIPES,
    SELF_TEST_SCAN_ORDER,
    WORKLOADS,
)

MIN_REPS = 3

_STATUS_LINE = re.compile(r"^(PASS|FAIL|SKIP) ")
_CHECKED = re.compile(r" checked=(\d+) ")


def setup(spec: dict) -> int:
    """Build the workload's input tables through the public constructors."""
    if spec["kind"] == "scan":
        return len(list(constructions.corpus(spec["max_order"])))
    return len([fileio.build_recipe(r) for r in spec["recipes"]])


def execute(spec: dict, seed: int, jobs: int, out: Path) -> tuple[bytes, int]:
    """The timed phase: what a user waits for.  Returns the output bytes and
    the number of groups checked."""
    if spec["kind"] == "scan":
        result = verifier.scan(spec["max_order"], None, spec["lemmas"],
                               seed=seed, jobs=jobs)
        fileio.write_report_file(result.reports, out)
        return out.read_bytes(), result.group_count
    chunks = [verify_output(recipe, seed) for recipe in spec["recipes"]]
    return "".join(chunks).encode(), len(chunks)


def verify_output(recipe: str, seed: int) -> str:
    """`agroups verify --lemma all` on one recipe, in process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--lemma", "all", "--seed", str(seed), recipe])
    return f"# {recipe} exit={rc}\n{buf.getvalue()}"


def output_facts(spec: dict, data: bytes, groups: int) -> dict:
    """Totals, failures and un-noted skips, read back from the output bytes."""
    facts = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
             "groups": groups, "reports": 0, "checked": 0, "fails": 0,
             "unnoted_skips": 0, "bad_exits": 0}
    text = data.decode()
    if spec["kind"] == "scan":
        for line in text.splitlines():
            rec = json.loads(line)
            facts["reports"] += 1
            facts["checked"] += rec["checked"]
            facts["fails"] += rec["status"] == "FAIL"
            facts["unnoted_skips"] += rec["status"] == "SKIP" and not rec["note"]
        return facts
    for line in text.splitlines():
        if line.startswith("# "):
            facts["bad_exits"] += not line.endswith(" exit=0")
            continue
        status = _STATUS_LINE.match(line)
        if status is None:
            continue
        facts["reports"] += 1
        facts["fails"] += status.group(1) == "FAIL"
        facts["unnoted_skips"] += status.group(1) == "SKIP" and "  [" not in line
        checked = _CHECKED.search(line)
        if checked:
            facts["checked"] += int(checked.group(1))
    return facts


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed(spec: dict, seed: int, jobs: int, out: Path) -> tuple[dict, tuple[bytes, int]]:
    gc.collect()
    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    output = execute(spec, seed, jobs, out)
    wall = time.perf_counter() - t0
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0
    kids_cpu = _cpu(resource.RUSAGE_CHILDREN) - kids0
    # scan workers run the checks when jobs > 1; otherwise this process does
    worker_cpu = kids_cpu if jobs > 1 else self_cpu
    return {"wall_s": wall, "cpu_s": self_cpu + kids_cpu,
            "worker_idle_share": 1 - worker_cpu / (jobs * wall)}, output


def mode_once(spec: dict, seed: int, jobs: int, workdir: Path) -> dict:
    tables = setup(spec)
    sample, output = timed(spec, seed, jobs, workdir / "output")
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    sample.update(peak_rss_mb=peak_kb / 1024)
    return {"sample": sample, "facts": {**output_facts(spec, *output), "setup_tables": tables}}


class Pieces:
    """Wall and CPU seconds of named pieces of work, one entry per repetition,
    raw and scaled to the reference speed (see speed.py).  The kernel is read
    in this process right before and after each piece (back-to-back pieces
    share the reading between them), or, when SAMPLER is set because the
    piece runs in scan workers, from the sampler's readings during it."""

    def __init__(self, sampler: speed.Sampler | None = None):
        self.raw: dict[str, dict[str, list[float]]] = {"wall": {}, "cpu": {}}
        self.scaled: dict[str, dict[str, list[float]]] = {"wall": {}, "cpu": {}}
        self.sampler = sampler
        self._last: float | None = None

    def restart(self) -> None:
        """Forget the last kernel reading (time passes between phases)."""
        self._last = None

    @contextlib.contextmanager
    def time(self, key: str):
        if self.sampler is None and self._last is None:
            self._last = speed.probe()
        before, start = self._last, time.monotonic()
        # process_time is exact; reaped scan workers come from getrusage
        c0 = time.process_time() + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        cpu = time.process_time() + _cpu(resource.RUSAGE_CHILDREN) - c0
        if self.sampler is None:
            self._last = speed.probe()
            readings = [before, self._last]
        else:
            # a piece shorter than the sampler's interval reads the kernel here
            readings = self.sampler.readings(start, time.monotonic()) or [speed.probe()]
        scale = speed.REFERENCE_S / statistics.mean(readings)
        for kind, value in (("wall", wall), ("cpu", cpu)):
            self.raw[kind].setdefault(key, []).append(value)
            self.scaled[kind].setdefault(key, []).append(value * scale)


def setup_pieces(spec: dict, pieces: Pieces) -> list:
    """`setup`, with each table the corpus yields (or each recipe) timed."""
    if spec["kind"] == "verify":
        tables = []
        for recipe in spec["recipes"]:
            with pieces.time(recipe):
                tables.append(fileio.build_recipe(recipe))
        return tables
    tables, stream = [], iter(constructions.corpus(spec["max_order"]))
    while True:
        with pieces.time(f"table{len(tables)}"):
            G = next(stream, None)
        if G is None:
            return tables
        tables.append(G)


def timed_pieces(spec: dict, seed: int, jobs: int, tables: list, out: Path,
                 pieces: Pieces) -> tuple[bytes, int]:
    """`execute`, cut into timed pieces.  At one job a scan is what
    `verifier.scan` does: `verify_group` on each corpus table in turn, the
    reports sorted as scan sorts them, then the report write; the tables
    come from set-up.  A scan with workers is timed as one `verifier.scan`
    call, and `verify` as one CLI call per recipe."""
    if spec["kind"] == "verify":
        chunks = []
        for recipe in spec["recipes"]:
            with pieces.time(recipe):
                chunks.append(verify_output(recipe, seed))
        return "".join(chunks).encode(), len(chunks)
    if jobs > 1:
        with pieces.time("scan"):
            result = verifier.scan(spec["max_order"], None, spec["lemmas"],
                                   seed=seed, jobs=jobs)
            fileio.write_report_file(result.reports, out)
        return out.read_bytes(), result.group_count
    reports = []
    for i, G in enumerate(tables):
        with pieces.time(f"group{i}"):
            reports.extend(verifier.verify_group(G, spec["lemmas"], seed=seed))
    with pieces.time("report"):
        reports.sort(key=lambda r: (r.group_order, r.group_label, r.lemma_id))
        fileio.write_report_file(reports, out)
    return out.read_bytes(), len(tables)


def mode_measure(spec: dict, seed: int, jobs: int, workdir: Path, budget: float) -> dict:
    """Set up and run the workload again and again until the next repetition
    would overrun BUDGET seconds (at least MIN_REPS times).  A single-process
    workload is pinned to each allowed CPU in turn, one repetition each; a
    two-worker scan runs unpinned beside a speed.Sampler."""
    cpus = sorted(os.sched_getaffinity(0))
    pin = jobs == 1 and len(cpus) > 1
    facts, longest, start = [], 0.0, time.monotonic()
    with contextlib.ExitStack() as stack:
        sampler = None
        if jobs > 1:
            sampler = stack.enter_context(speed.Sampler(cpus, workdir / "speed.txt"))
        set_up, run = Pieces(), Pieces(sampler)
        if pin:
            stack.callback(os.sched_setaffinity, 0, cpus)
        while len(facts) < MIN_REPS or time.monotonic() - start + longest < budget:
            t0 = time.monotonic()
            if pin:
                os.sched_setaffinity(0, {cpus[len(facts) % len(cpus)]})
            gc.collect()
            # scan workers build their own corpus, so a two-worker scan needs
            # set-up only to time it, which MIN_REPS set-ups do
            if jobs == 1 or len(facts) < MIN_REPS:
                set_up.restart()
                tables = setup_pieces(spec, set_up)
                gc.collect()
            run.restart()
            output = timed_pieces(spec, seed, jobs, tables, workdir / "output", run)
            facts.append({**output_facts(spec, *output), "setup_tables": len(tables)})
            longest = max(longest, time.monotonic() - t0)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"setup": set_up.scaled["wall"], "wall": run.scaled["wall"],
            "cpu": run.scaled["cpu"], "raw_setup": set_up.raw["wall"],
            "raw_wall": run.raw["wall"], "raw_cpu": run.raw["cpu"],
            "peak_rss_mb": peak_kb / 1024, "pinned": pin, "facts": facts}


def self_test(seed: int, workdir: Path) -> list[str]:
    """Traced outputs equal untraced ones, every wrapped name is called, and
    every original binding is back in place afterwards."""
    problems = []
    tiny = {"kind": "scan", "max_order": SELF_TEST_SCAN_ORDER, "lemmas": ("all",)}
    tiny_verify = {"kind": "verify", "recipes": SELF_TEST_RECIPES}
    plain = [execute(tiny, seed, 1, workdir / "selftest"),
             execute(tiny_verify, seed, 1, workdir / "selftest")]
    before = tracer.snapshot()
    with tracer.Tracer() as tr:
        traced = [execute(tiny, seed, 1, workdir / "selftest"),
                  execute(tiny_verify, seed, 1, workdir / "selftest")]
    if plain != traced:
        problems.append("self-test: traced output differs from untraced output")
    missing = [name for name, n in tracer.call_counts(tr.spans).items() if n == 0]
    if missing:
        problems.append(f"self-test: wrapped names never called: {missing}")
    stale = tracer.changed_bindings(before)
    if stale:
        problems.append(f"self-test: bindings not restored: {stale}")
    return problems


def mode_trace(spec: dict, seed: int, jobs: int, workdir: Path) -> dict:
    """The traced run (always one job), then the tracer self-test."""
    tables = setup(spec)
    gc.collect()
    before = tracer.snapshot()
    with tracer.Tracer() as tr:
        t0 = time.perf_counter()
        output = execute(spec, seed, 1, workdir / "traced")
        traced_wall = time.perf_counter() - t0
    stale = tracer.changed_bindings(before)
    problems = [f"bindings not restored after the traced run: {stale}"] if stale else []
    return {"metrics": tracer.layer_metrics(tr.spans), "traced_wall_s": traced_wall,
            "spans": len(tr.spans),
            "facts": {**output_facts(spec, *output), "setup_tables": tables},
            "problems": problems + self_test(seed, workdir)}


def main(argv: list[str]) -> int:
    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    spec = WORKLOADS[name]
    if mode == "measure":
        result = mode_measure(spec, seed, spec["jobs"], workdir, float(argv[4]))
    else:
        jobs = int(argv[4]) if len(argv) > 4 else spec["jobs"]
        result = (mode_once if mode == "once" else mode_trace)(spec, seed, jobs, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
