"""End-to-end benchmark of the idealgraph CLI, with an outside-in traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {boolean,tables} --seed N \
        --seconds S --trace {0,1}

Load model: one closed-loop client with one job in flight. Every job is a
fresh ``python3 -m idealgraph.cli`` process on the checkout's ``src``; the
next job starts when the previous one has exited, and a pass is one run of
the workload's jobs in order. After one full pass, a job starts only if it
would end within ``--seconds``, so the last pass may stop part way. After
every job, outside its timing, the fixed reference job (``reference.py``)
runs, ``idealgraph --help`` is timed for the set-up metric, and the job's
output is checked (see ``check.py``). Job times are reported in units of the
reference runs around them, which cancels the drift of a shared machine's
speed; each workload's metric sums the jobs' medians over the run. The
absolute times are printed too, unbounded.

``--trace 0`` reports the end-to-end metrics over the passes.
``--trace 1`` alternates untraced passes with passes whose jobs run under
``tracer.py`` and reports the per-layer metrics; ``predictions.json`` defines
each of them and names the end-to-end metric and workload it should move.

The last line of stdout is the result as one JSON object. The lines before
it print every metric by name with its unit and sample count, the failure
rate, and the machine and run information.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import check
import corpus
import reference

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 60
# Jobs still running this long after the run started are killed and count as
# timed out, so a hung or much slower program cannot keep a run past 180 s.
RUN_LIMIT_S = 150

SOLVERS = {"connectivity": "connectivity", "girth": "girth",
           "clique": "clique_number", "chromatic": "chromatic_number",
           "independence": "independence_number", "matching": "maximum_matching",
           "domination": "domination_number", "flags": "structural_flags",
           "planarity": "planarity", "perfectness": "perfectness"}
COMMANDS = ("verify", "invariants", "aut", "graph", "validate", "ideals")


@dataclass
class Job:
    job_id: str
    args: list[str]
    check: Callable[[str], str | None]  # stdout text -> error, or None
    script: Path | None = None  # run this script instead of the CLI

    @property
    def command(self) -> str:
        return self.args[0]


def workload_jobs(name: str, work: Path, seed: int) -> list[Job]:
    if name == "boolean":
        selected = ("clique_number", "chromatic_number", "independence_number")
        return [
            Job("invariants-n11-all", ["invariants", "--n", "11", "--all"],
                check.boolean_invariants(11)),
            Job("invariants-n12-chains",
                ["invariants", "--n", "12", "--clique", "--chromatic", "--independence"],
                check.boolean_invariants(12, selected)),
            Job("aut-n7", ["aut", "--n", "7"], check.boolean_aut(7)),
            Job("graph-n11-json", ["graph", "--n", "11", "--format", "json"],
                check.boolean_graph(11)),
        ]
    if name == "tables":
        # The default verify (the paper's headline suite over thousands of tiny
        # graphs) is this workload's first job rather than a workload of its
        # own: two workloads fit 60 s runs into the benchmark's time budget,
        # and on a shared 2-vCPU VM those spread half as much as 40 s runs.
        directory = work / "corpus"
        manifest = corpus.write_corpus(directory, seed)["tables"]
        band, big = "band_3x10.txt", "band_40x5.txt"
        big_text = (directory / big).read_text(encoding="utf-8")
        return [
            Job("verify", ["verify"], check.verify_table),
            Job("verify-corpus", ["verify", "--corpus", str(directory)], check.verify_table),
            Job("invariants-band3x10-all", ["invariants", str(directory / band), "--all"],
                check.table_invariants(manifest[band])),
            Job("ideals-band3x10", ["ideals", str(directory / band)],
                check.table_ideals(manifest[band])),
            Job("validate-band40x5", ["validate", str(directory / big)],
                check.table_validate(manifest[big], big_text)),
        ]
    raise ValueError(name)


@dataclass
class JobResult:
    job: Job
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout_path: Path
    stderr_path: Path
    spans_path: Path | None


class Runner:
    """Starts one job at a time and reaps it with ``wait4`` for its rusage."""

    def __init__(self, root: Path, work: Path, workload: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.repeats = check.Repeats()
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        checksum = str(reference.reference_work(workload))
        self.reference_job = Job(
            "reference", [workload],
            lambda out: None if out.strip() == checksum else "wrong checksum",
            script=HERE / "reference.py")
        self.refs: list[tuple[float, float]] = []  # (wall, cpu) of each reference run

    def reference(self) -> None:
        """Run the reference job; its failure is an error of the benchmark, not
        of the program, so it stops the run."""
        r = self.run(self.reference_job, traced=False)
        err = check.check_job(self.reference_job.check, self.repeats, "reference",
                              r.returncode, r.timed_out, r.stdout_path.read_bytes())
        if err is not None:
            raise RuntimeError(f"the reference job failed: {err}")
        self.refs.append((r.wall, r.cpu))

    def argv(self, job: Job, spans: Path | None) -> list[str]:
        if job.script is not None:
            return [sys.executable, str(job.script), *job.args]
        if spans is None:
            return [sys.executable, "-m", "idealgraph.cli", *job.args]
        return [sys.executable, str(HERE / "tracer.py"), "--out", str(spans),
                "--job", job.job_id, "--", *job.args]

    def run(self, job: Job, traced: bool) -> JobResult:
        tag = f"{job.job_id}{'.traced' if traced else ''}"
        out_path = self.work / f"{tag}.out"
        err_path = self.work / f"{tag}.err"
        spans = self.work / f"{tag}.spans.json" if traced else None
        if spans is not None:
            spans.unlink(missing_ok=True)  # not left over from an earlier pass
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv(job, spans), stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=self.root)
            done = threading.Event()
            killed = threading.Event()

            def kill():
                if not done.is_set():
                    killed.set()
                    os.kill(proc.pid, signal.SIGKILL)

            timeout = max(0.0, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))
            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                done.set()
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return JobResult(job, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024, proc.returncode, killed.is_set(),
                         out_path, err_path, spans)

    def verdict(self, r: JobResult) -> bool:
        """Check one finished job; record and return whether it failed."""
        self.attempted += 1
        stdout = r.stdout_path.read_bytes()
        err = check.check_job(r.job.check, self.repeats, r.job.job_id,
                              r.returncode, r.timed_out, stdout)
        if err is not None:
            tail = r.stderr_path.read_text(encoding="utf-8", errors="replace")[-300:]
            self.failures.append(f"{r.job.job_id}: {err} {tail.strip()!r}")
        return err is not None


@dataclass
class Sample:
    """One run of a job, with its times relative to the reference runs around it."""
    result: JobResult
    wall_rel: float
    cpu_rel: float


HELP = Job("help", ["--help"], check.usage)


def run_job(runner: Runner, job: Job, traced: bool, probes: list[float] | None) -> Sample:
    """Run one job, then the reference job; the job's relative times are over
    the mean of the reference runs just before and just after it. With
    ``probes``, then time an ``idealgraph --help``. The job's output is checked
    last, outside every timed region."""
    before = runner.refs[-1]
    r = runner.run(job, traced)
    runner.reference()
    after = runner.refs[-1]
    if probes is not None:
        probe = runner.run(HELP, traced=False)
        runner.verdict(probe)
        probes.append(probe.wall)
    runner.verdict(r)
    return Sample(r, r.wall / ((before[0] + after[0]) / 2), r.cpu / ((before[1] + after[1]) / 2))


def job_total(passes: list[list[Sample]], value: Callable[[Sample], float],
              commands: tuple[str, ...] = COMMANDS) -> float:
    """The time of one pass: the sum over the jobs (of the given commands) of
    each job's median over its runs. Medians per job resist the machine's
    short stalls and let a run's last pass stop part way."""
    runs: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for sample in p:
            if sample.result.job.command in commands:
                runs[sample.result.job.job_id].append(value(sample))
    return sum((statistics.median(v) for v in runs.values()), 0.0)


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer's spans


def _job_spans(path: Path):
    """(self ns by layer, outermost inclusive ns by span name, self ns by
    span name, calls by span name, counters) for one traced job."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    table = doc["name_table"]
    names = [table[i] for i in doc["names"]]
    starts, ends, parents = doc["starts"], doc["ends"], doc["parents"]
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    layer_self: dict[str, int] = defaultdict(int)
    fn_self: dict[str, int] = defaultdict(int)
    inclusive: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for i, name in enumerate(names):
        own = dur[i] - child[i]
        layer_self[name.split(".", 1)[0]] += own
        fn_self[name] += own
        calls[name] += 1
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:  # not nested in a call of itself
            inclusive[name] += dur[i]
    return layer_self, inclusive, fn_self, calls, doc["counters"]


def layer_metrics(paths: list[Path]) -> dict[str, float]:
    layer_self: dict[str, int] = defaultdict(int)
    inclusive: dict[str, int] = defaultdict(int)
    fn_self: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, int] = defaultdict(int)
    for path in paths:
        for total, part in zip((layer_self, inclusive, fn_self, calls, counters),
                               _job_spans(path)):
            for k, v in part.items():
                total[k] += v

    def s(ns: int) -> float:
        return ns / 1e9

    m: dict[str, float] = {}
    m["cli.self_s"] = s(layer_self["cli"])
    m["theorems.self_s"] = s(layer_self["theorems"])
    m["theorems.checks"] = counters["theorems.checks"]
    m["catalog.enumerate_s"] = s(inclusive["catalog.small_semigroup_corpus"])
    m["catalog.tables"] = counters["catalog.tables"]
    m["semigroup.parse_s"] = s(inclusive["semigroup.parse_cayley_table"])
    m["semigroup.enumerate_s"] = s(inclusive["semigroup.enumerate_left_ideals"])
    m["semigroup.ideals"] = counters["semigroup.ideals"]
    m["semigroup.maximality_s"] = s(inclusive["semigroup.is_maximal_left_ideal"])
    m["semigroup.l_classes_calls"] = calls["semigroup.l_classes"]
    m["semigroup.completely_simple_s"] = s(inclusive["semigroup.is_completely_simple"])
    dense_calls = calls["graph.InclusionGraph.dense"]
    m["graph.dense_s"] = s(inclusive["graph.InclusionGraph.dense"])
    m["graph.dense_calls"] = dense_calls
    m["graph.dense_reuse_ratio"] = (counters["graph.dense_reused"] / dense_calls
                                    if dense_calls else 0.0)
    m["graph.vertices"] = counters["graph.vertices"]
    m["graph.edges"] = counters["graph.edges"]
    m["graph.dense_bytes"] = counters["graph.dense_bytes"]
    m["graph.export_s"] = s(fn_self["graph.export_graph"])
    m["graph.export_bytes"] = counters["graph.export_bytes"]
    for short, fn in SOLVERS.items():
        m[f"invariants.{short}_s"] = s(inclusive[f"invariants.{fn}"])
        m[f"invariants.{short}_calls"] = calls[f"invariants.{fn}"]
    m["invariants.repeat_calls"] = counters["invariants.repeat_calls"]
    m["invariants.self_s"] = s(layer_self["invariants"])
    m["matching.blossom_s"] = s(inclusive["matching.maximum_matching_adj"])
    m["bipartite.hopcroft_karp_s"] = s(inclusive["bipartite.hopcroft_karp"])
    m["bipartite.koenig_s"] = s(inclusive["bipartite.koenig_cover"])
    m["constructions.self_s"] = s(layer_self["constructions"])
    m["symmetry.aut_s"] = s(inclusive["symmetry.automorphism_group"])
    m["symmetry.aut_calls"] = calls["symmetry.automorphism_group"]
    m["symmetry.transitivity_s"] = s(inclusive["symmetry.transitivity"])
    return m


# ---------------------------------------------------------------------------
# running a workload


def run_passes(runner: Runner, jobs: list[Job], seconds: float,
               kinds: tuple[bool, ...], probes: list[float] | None
               ) -> dict[bool, list[list[Sample]]]:
    """Cycle through pass kinds (False untraced, True traced); a pass runs the
    jobs in order. Each kind first completes one pass. After that a job starts
    only if, at the pace of its last run, it ends within ``seconds``; the run
    ends at the first job that does not, so its last pass may be partial."""
    passes: dict[bool, list[list[Sample]]] = {k: [] for k in kinds}
    last: dict[tuple[str, bool], float] = {}  # a job's last run with its reference run
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        first = not passes[kind]
        current: list[Sample] = []
        passes[kind].append(current)
        for job in jobs:
            t0 = time.perf_counter()
            if not first and t0 - start + last[job.job_id, kind] > seconds:
                if not current:
                    passes[kind].pop()
                return passes
            current.append(run_job(runner, job, kind, probes))
            last[job.job_id, kind] = time.perf_counter() - t0
        i += 1


def source_info(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_info(root: Path, args, jobs: list[Job], runner: Runner) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 job in flight, fresh process per job",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": importlib.metadata.version("networkx"),
        "platform": platform.platform(),
        **source_info(root),
        "jobs": {j.job_id: runner.argv(j, None)[1:] for j in jobs},
        "reference": runner.argv(runner.reference_job, None)[1:],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="idealgraph CLI benchmark")
    ap.add_argument("--workload", required=True, choices=("boolean", "tables"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "idealgraph" / "cli.py").is_file():
        print(f"error: no idealgraph sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(root, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass


def measure(root: Path, work: Path, args) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runner = Runner(root, work, args.workload)
    jobs = workload_jobs(args.workload, work, args.seed)
    warmup = runner.run(HELP, traced=False)  # also writes the bytecode caches
    runner.reference()
    if runner.verdict(warmup):
        print("error: the CLI does not start:", *runner.failures, sep="\n  ", file=sys.stderr)
        return 2
    kinds = (False, True) if args.trace else (False,)
    setup: list[float] | None = None if args.trace else []
    passes = run_passes(runner, jobs, args.seconds, kinds, setup)
    plain = passes[False]

    def med(values):
        return statistics.median(values)

    # (value, unit, how it was taken)
    metrics: dict[str, tuple[float, str, str]] = {}
    runs = sum(len(p) for p in plain)
    how = f"sum over the jobs of each one's median of {runs} job runs"
    if args.trace:
        traced = passes[True]
        for cmd in COMMANDS:
            metrics[f"cli.{cmd}_s"] = (job_total(plain, lambda s: s.result.wall, (cmd,)),
                                       "s", how)
        # A partial pass would give partial sums; a killed job writes no spans
        # and is already counted as failed.
        layers = [layer_metrics([s.result.spans_path for s in p if s.result.spans_path.exists()])
                  for p in traced if len(p) == len(jobs)]
        for name in layers[0]:
            metrics[name] = (med([m[name] for m in layers]), units[name],
                             f"median of {len(layers)} traced passes")
        metrics["trace.overhead_ratio"] = (
            job_total(traced, lambda s: s.wall_rel) / job_total(plain, lambda s: s.wall_rel) - 1,
            "ratio", f"per-job medians of wall_rel, traced over untraced, {runs} untraced "
            f"job runs")
    else:
        metrics["wall_rel"] = (job_total(plain, lambda s: s.wall_rel), units["wall_rel"],
                               f"{how}, {len(runner.refs)} reference runs")
        metrics["cpu_rel"] = (job_total(plain, lambda s: s.cpu_rel), units["cpu_rel"], how)
        rss = defaultdict(list)
        for p in plain:
            for sample in p:
                rss[sample.result.job.job_id].append(sample.result.rss_mb)
        metrics["peak_rss_mb"] = (max(med(v) for v in rss.values()), units["peak_rss_mb"],
                                  "largest per-job median")
        metrics["setup_s"] = (med(setup), units["setup_s"], f"median of {len(setup)}")
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")

    for f in runner.failures:
        print(f"FAIL {f}")
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload}.{name} = {value!r} {unit} ({note})")
    if not args.trace:
        # The absolute times, which drift with the machine's speed.
        print(f"{args.workload}.wall_s = {job_total(plain, lambda s: s.result.wall)!r} s "
              f"({how}; not bounded)")
        print(f"{args.workload}.cpu_s = {job_total(plain, lambda s: s.result.cpu)!r} s "
              f"({how}; not bounded)")
    fail_rate = len(runner.failures) / runner.attempted
    print(f"{args.workload}.fail_rate = {fail_rate!r} ({len(runner.failures)} of "
          f"{runner.attempted} jobs)")
    print(json.dumps({"info": run_info(root, args, jobs, runner)}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
