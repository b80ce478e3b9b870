"""End-to-end and per-layer benchmark of the ``coword-map`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-map-fr --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke                 # all workloads, tiny sizes

Each invocation

1. runs the bundled micro corpus through the CLI with ``micro.cfg`` and
   compares the result byte for byte with ``tests/golden/micro``; on a
   mismatch it exits with status 3 and times nothing;
2. sets up five times and reports the median as ``setup_s``: generate the
   workload's Zipf corpus from ``--seed`` (``corpusgen.py``), write it,
   check its sha256, and run one untimed warm-up CLI child on the micro
   corpus;
3. for ``--seconds`` seconds repeats a pair of CLI children, one at a time:
   a fresh ``run`` into an empty directory, then a rerun into the same
   directory with only ``--seed`` changed (the cache path: only ``map.net``
   and ``map.svg`` are regenerated). Wall time, CPU and peak RSS of each
   child come from ``os.wait4``. Children run with single-threaded OpenBLAS
   (see ``BLAS_THREADS``);
4. checks every child's outputs (exit status, ``report.json`` counts against
   the generator, stage cache lines on the rerun, the non-map artifacts
   unchanged by the rerun, all artifacts identical across repetitions); a
   failed check counts the child as failed and does not stop the run.

With ``--trace 1`` the window alternates untraced pairs with pairs run
under ``traced.py``, one fresh process per phase, and reports per-layer
metrics under the prefixes ``run.`` and ``rerun.``; ``trace_overhead_s`` is
the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table. The exit status is 0 when every check passed, 1 when
an output check failed, 2 when the repository sources are missing and 3 when
the golden gate failed. Sizes: MB means 2**20 bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpusgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MICRO_CORPUS = SRC / "cowordmap" / "data" / "micro_corpus"
MICRO_CFG = SRC / "cowordmap" / "data" / "micro.cfg"
GOLDEN = ROOT / "tests" / "golden" / "micro"
WORK = ROOT / ".perfbench-work"

ARTIFACTS = (
    "matrix.csv", "expected.csv", "terms.csv", "coocc.dat", "loadings.csv",
    "factors.net", "map.net", "map.svg", "report.json",
)
MAP_ARTIFACTS = ("map.net", "map.svg")
STAGES = ("ingest", "terms", "cooc", "factors", "map", "render")
RERUN_CACHED = ("ingest", "terms", "cooc", "factors")
SEED, RERUN_SEED = 42, 43
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
HARD_LIMIT_S = 170.0  # the whole invocation ends well within 180 s
# Stage spans must cover the traced child's wall time after start-up, apart
# from interpreter shutdown and the span dump: at most this much is uncovered.
MAX_UNCOVERED = (0.10, 0.25)  # share of that time, or seconds, whichever is larger
# Children use single-threaded OpenBLAS. With its default of one thread per
# core, a 160x160 eigh on a 2-vCPU machine took 3 ms or 280 ms from one
# process to the next, depending on load from outside: that noise swamped
# every timing. The traced run reads the thread count back from the library.
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    docs: int
    vocab: int
    top: int
    layout: str


# Why each workload exists is recorded in BENCHMARK.json. Sizes are scaled so
# that a fresh run plus its rerun takes a few seconds on a 2-core machine: one
# measurement window then holds several pairs, and reports their medians.
# wide-corpus (ingest- and CSV-bound) runs on request but is not listed in
# BENCHMARK.json: its run time is mostly interpreted CSV formatting, the part
# most exposed to CPU-speed drift on a shared 2-vCPU machine, and its spread
# over ten seeds reached 24% where the other two stayed near 15%.
WORKLOADS = {
    "wide-corpus": Workload(docs=500, vocab=2000, top=75, layout="fr"),
    "dense-map-fr": Workload(docs=200, vocab=1000, top=160, layout="fr"),
    "dense-map-kk": Workload(docs=200, vocab=1000, top=120, layout="kk"),
}
SMOKE = {
    "wide-corpus": Workload(docs=60, vocab=240, top=20, layout="fr"),
    "dense-map-fr": Workload(docs=40, vocab=200, top=30, layout="fr"),
    "dense-map-kk": Workload(docs=40, vocab=200, top=25, layout="kk"),
}

# Units and bounds of these, and the per-layer names, are in BENCHMARK.json.
END_TO_END = (
    "setup_s", "run_s", "rerun_s", "run_cpu_s",
    "peak_rss_mb", "rerun_peak_rss_mb", "tokens_per_s",
)


class GateFailed(Exception):
    pass


@dataclass
class Child:
    """One finished CLI child process."""

    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    launched: float  # time.time() at launch
    stderr: str


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(argv: list[str], log: Path, timeout: float) -> Child:
    """Run ``argv`` from the repository root; reap it with ``os.wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    with open(log, "wb") as err:
        launched = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Child(
        status=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        launched=launched,
        stderr=log.read_text(encoding="utf-8", errors="replace"),
    )


def stage_statuses(stderr: str) -> dict[str, str]:
    """``{stage: computed|cached}`` from the CLI's ``stage x: status (t)`` lines."""
    statuses = {}
    for line in stderr.splitlines():
        if line.startswith("stage ") and ":" in line:
            name, _, rest = line[len("stage "):].partition(":")
            statuses[name] = rest.split()[0] if rest.split() else ""
    return statuses


def without_seed(report: dict) -> dict:
    """``report.json`` echoes the config, so the seed is the one change a rerun may make."""
    return {**report, "config": {**report.get("config", {}), "seed": None}}


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, deadline: float) -> None:
        self.name = name
        self.workload = workload
        self.seed = seed
        self.deadline = deadline  # perf_counter value by which every child has ended
        self.work = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.trace_file = WORK / f"trace-{name}-seed{seed}.jsonl"  # kept after the run
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}
        self.corpus: corpusgen.GeneratedCorpus | None = None
        self.samples: dict[str, list[float]] = {}
        self.layers: dict[str, list[float]] = {}
        self.traced_wall: dict[str, list[float]] = {"run": [], "rerun": []}
        self.coverage: dict[str, list[float]] = {"run": [], "rerun": []}
        self.blas_threads: list[int] = []
        self.counter = 0

    # -- children ------------------------------------------------------------

    def child(self, argv: list[str], tag: str) -> Child:
        self.counter += 1
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            raise TimeoutError("benchmark time limit reached before a child could start")
        return run_child(argv, self.work / f"{self.counter:03d}-{tag}.stderr", timeout)

    def cli_args(self, out: Path, seed: int) -> list[str]:
        w = self.workload
        return [
            "run", "--config", str(self.work / "workload.cfg"),
            "--input", str(self.work / "corpus.txt"), "--out", str(out),
            "--criterion", "obsexp", "--factors", "5",
            "--top", str(w.top), "--layout", w.layout, "--seed", str(seed),
        ]

    def micro_run(self, out: Path, tag: str) -> tuple[Child, list[str]]:
        """Run the micro corpus with micro.cfg; return the child and golden mismatches."""
        shutil.rmtree(out, ignore_errors=True)
        child = self.child([
            sys.executable, "-m", "cowordmap", "run", "--config", str(MICRO_CFG),
            "--input", str(MICRO_CORPUS), "--out", str(out),
        ], tag)
        problems = [] if child.status == 0 else [f"exit status {child.status}"]
        for golden in sorted(GOLDEN.iterdir()):
            produced = out / golden.name
            if not produced.exists() or produced.read_bytes() != golden.read_bytes():
                problems.append(f"{golden.name} differs from {golden.relative_to(ROOT)}")
        return child, problems

    # -- phases --------------------------------------------------------------

    def gate(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        _, problems = self.micro_run(self.work / "gate", "gate")
        if problems:
            raise GateFailed("; ".join(problems))

    def setup(self) -> None:
        """Generate and write the corpus, then warm up; repeated, median kept."""
        w = self.workload
        digests = set()
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            corpus = corpusgen.generate(w.docs, w.vocab, self.seed)
            path = self.work / "corpus.txt"
            path.write_text(corpus.text, encoding="utf-8")
            (self.work / "workload.cfg").write_text("input_format = lines\n", encoding="utf-8")
            if sha256(path) != corpus.sha256:
                raise OSError(f"{path} does not hold the generated corpus")
            digests.add(corpus.sha256)
            _, problems = self.micro_run(self.work / "warmup", f"warmup{repeat}")
            self.attempted += 1
            if problems:
                self.fail(f"warm-up {repeat}", problems)
            self.sample("setup_s", time.perf_counter() - started)
        if len(digests) != 1:
            raise RuntimeError("corpus generator is not deterministic for one seed")
        self.corpus = corpus

    def pair(self, traced: bool) -> float:
        """One fresh run and its seed-only rerun; returns the pair's wall time."""
        started = time.perf_counter()
        out = self.work / "out"  # report.json echoes the path: one for all pairs
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        fresh = self.op("run", out, SEED, traced)
        before = {name: sha256(out / name) for name in ARTIFACTS if (out / name).exists()}
        report_before = self.load_report(out)
        rerun = self.op("rerun", out, RERUN_SEED, traced, before, report_before)
        if not traced and fresh and rerun:
            self.sample("run_s", fresh.wall_s)
            self.sample("rerun_s", rerun.wall_s)
            self.sample("run_cpu_s", fresh.cpu_s)
            self.sample("peak_rss_mb", fresh.rss_mb)
            self.sample("rerun_peak_rss_mb", rerun.rss_mb)
            self.sample("tokens_per_s", self.corpus.tokens / fresh.wall_s)
        return time.perf_counter() - started

    def op(self, phase: str, out: Path, seed: int, traced: bool,
           before: dict[str, str] | None = None, report_before: dict | None = None):
        """Run one CLI child, check its outputs; return it, or None if it failed."""
        tag = f"{'traced-' if traced else ''}{phase}"
        if traced:
            spans, summary = self.work / f"{tag}.spans.jsonl", self.work / f"{tag}.summary.json"
            argv = [sys.executable, str(HERE / "traced.py"), str(spans), str(summary)]
        else:
            argv = [sys.executable, "-m", "cowordmap"]
        self.attempted += 1
        try:
            child = self.child(argv + self.cli_args(out, seed), tag)
        except TimeoutError as exc:
            self.fail(tag, [str(exc)])
            return None
        problems = self.check(child, phase, out, seed, before, report_before)
        if traced and not problems:
            problems = self.absorb_trace(child, phase, spans, summary)
        if problems:
            self.fail(tag, problems)
            return None
        return child

    # -- checks --------------------------------------------------------------

    def load_report(self, out: Path) -> dict:
        try:
            return json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}

    def check(self, child: Child, phase: str, out: Path, seed: int,
              before: dict[str, str] | None, report_before: dict | None) -> list[str]:
        if child.status != 0:
            return [f"exit status {child.status}: {child.stderr.strip()[-400:]}"]
        problems = []
        missing = [name for name in ARTIFACTS if not (out / name).exists()]
        if missing:
            return [f"missing artifacts {missing}"]
        report = self.load_report(out)
        c, w = self.corpus, self.workload
        expected = {
            ("corpus", "documents"): c.documents,
            ("corpus", "documents_after_pruning"): c.documents,
            ("corpus", "vocabulary"): c.vocabulary,
            ("corpus", "tokens"): c.tokens,
            ("selection", "selected"): w.top,
            ("config", "seed"): seed,
        }
        for (section, key), value in expected.items():
            got = report.get(section, {}).get(key)
            if got != value:
                problems.append(f"report.json {section}.{key} is {got!r}, expected {value!r}")
        statuses = stage_statuses(child.stderr)
        want = {s: "computed" for s in STAGES}
        if phase == "rerun":
            want.update({s: "cached" for s in RERUN_CACHED})
        if statuses != want:
            problems.append(f"stage statuses {statuses}, expected {want}")
        digests = {name: sha256(out / name) for name in ARTIFACTS}
        if phase == "rerun":
            for name in ARTIFACTS:
                if name in MAP_ARTIFACTS or name == "report.json":
                    continue
                if digests[name] != before.get(name):
                    problems.append(f"{name} changed on the seed-only rerun")
            if without_seed(report) != without_seed(report_before or {}):
                problems.append("report.json changed beyond config.seed on the rerun")
        reference = self.reference.setdefault(phase, digests)
        differing = sorted(n for n in ARTIFACTS if digests[n] != reference[n])
        if differing:
            problems.append(f"{differing} differ from the first repetition's bytes")
        return problems

    def absorb_trace(self, child: Child, phase: str, spans: Path, summary_path: Path) -> list[str]:
        try:
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"trace summary unreadable: {exc}"]
        window = child.wall_s - (summary["run_stage_entry"] - child.launched)
        coverage = summary["stage_s"] / window
        if window - summary["stage_s"] > max(MAX_UNCOVERED[0] * window, MAX_UNCOVERED[1]):
            return [f"stage spans cover only {coverage:.1%} of the traced wall time after start-up"]
        for name, value in summary["metrics"].items():
            self.layers.setdefault(f"{phase}.{name}", []).append(value)
        self.traced_wall[phase].append(child.wall_s)
        self.coverage[phase].append(coverage)
        self.blas_threads.append(summary["blas_threads"])
        with open(self.trace_file, "a", encoding="utf-8") as fh:
            for line in spans.read_text(encoding="utf-8").splitlines():
                fh.write(json.dumps({"phase": phase, **json.loads(line)}) + "\n")
        return []

    def fail(self, tag: str, problems: list[str]) -> None:
        self.failures.append(tag)
        for problem in problems:
            print(f"[perfbench] {self.name} {tag}: FAILED {problem}", file=sys.stderr)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- results -------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat rounds until the next one would overrun ``seconds``."""
        self.trace_file.unlink(missing_ok=True)
        started = time.perf_counter()
        longest = 0.0
        while True:
            round_s = self.pair(traced=False)
            if trace:
                round_s += self.pair(traced=True)
            longest = max(longest, round_s)
            now = time.perf_counter()
            if now - started + longest > seconds or now + longest > self.deadline:
                break

    def end_to_end(self) -> dict[str, float]:
        return {name: statistics.median(self.samples[name])
                for name in END_TO_END if name in self.samples}

    def per_layer(self) -> dict[str, float]:
        metrics = {name: statistics.median(values) for name, values in self.layers.items()}
        for phase, traced in self.traced_wall.items():
            plain = self.samples.get(f"{phase}_s")
            if traced and plain:
                metrics[f"{phase}.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return metrics


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return "no percentile above the median has 10 samples beyond it"
    p = int(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g}"


def report(bench: Bench, trace: bool, unit_of: dict[str, str]) -> int:
    values = bench.per_layer() if trace else bench.end_to_end()
    failed = len(bench.failures)
    print(f"# workload {bench.name}, seed {bench.seed}, corpus sha256 {bench.corpus.sha256}, "
          f"{bench.attempted} ops, {failed} failed, "
          f"failure_rate {failed / max(bench.attempted, 1):.4f} ratio")
    if not trace:
        for name, value in values.items():
            samples = bench.samples[name]
            print(f"{name:<20} median {value:<12.6g} {unit_of[name]:<9} "
                  f"n={len(samples):<3} min {min(samples):<10.6g} max {max(samples):<10.6g} "
                  f"{tail(samples)}")
    else:
        for name, value in values.items():
            print(f"{name:<44} {value:<12.6g} {unit_of[name]}")
        for phase, coverage in bench.coverage.items():
            if coverage:
                print(f"# {phase}: stage spans cover {min(coverage):.1%} (worst) "
                      "of the traced wall time after start-up")
        print(f"# OpenBLAS threads per child: {sorted(set(bench.blas_threads))}")
    metrics = {name: {"value": value, "unit": unit_of[name]} for name, value in values.items()}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def bench_one(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
              unit_of: dict[str, str]) -> int:
    bench = Bench(name, workload, seed, time.perf_counter() + HARD_LIMIT_S)
    try:
        bench.gate()
        bench.setup()
        bench.measure(seconds, trace)
        return report(bench, trace, unit_of)
    except GateFailed as exc:
        print(f"[perfbench] micro golden gate failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default with --smoke: all)")
    parser.add_argument("--seed", type=int, default=1, help="corpus generator seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds of BENCHMARK.json; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pair per workload")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    needed = (SRC / "cowordmap" / "__init__.py", GOLDEN, ROOT / "BENCHMARK.json")
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        print(f"[perfbench] not a cowordmap checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = SMOKE if args.smoke else WORKLOADS
    seconds = args.seconds if args.seconds is not None else (0 if args.smoke else spec["run_seconds"])
    names = [args.workload] if args.workload else list(table)
    status = 0
    for name in names:
        status = max(status, bench_one(name, table[name], args.seed, seconds, bool(args.trace), unit_of))
    return status


if __name__ == "__main__":
    sys.exit(main())
