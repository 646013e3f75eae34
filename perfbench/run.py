"""Benchmark of the `ctwalk` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload family_study --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports `ctwalk` from `src/`.
One round is a workload's fixed, seeded list of CLI jobs, each a call of
`ctwalk.cli.main(argv)` in this process writing into its own output
directory under `perfbench/_runs/`.  Rounds repeat until `--seconds` is spent
(always whole rounds).  After the timed section every output is checked
against computations made apart from the program (see checks.py).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; one operation is one job plus the checks of its
output.

Job times are measured against a reference kernel timed around and during
each job (`SpeedProbe`), so that a change in the machine's speed during or
between runs does not read as a change in the program.  Interpreter
start-up (`setup_s`) is timed raw.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced rounds with rounds traced by tracing.py and reports the per-layer
metrics, each per round, plus the tracing overhead.
"""

import os

# One BLAS thread, set before numpy loads, so that a run measures the same
# single-threaded work whatever the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
TRACES = HERE / "_out"

SETUP_LAUNCHES = 7
PROBE_INTERVAL_S = 0.1
# The reference kernel's time in the fast spells of the 2-vCPU 2.0 GHz Xeon
# VM the README figures come from; times are reported in seconds at that
# speed.
REF_NOMINAL_S = 0.65e-3
_REF_X = np.linspace(0.0, 3.0, 384)


def reference_kernel():
    """A fixed mix of the work ctwalk does: `%.15g` formatting, a Python
    loop over a small array and a vectorised complex exp.  It does not call
    ctwalk, so its time moves only with the speed of the machine."""
    xs = _REF_X[:64].tolist()
    acc = 0.0
    for _ in range(20):
        for x in xs:
            acc += x * x
    text = ",".join(f"{v:.15g}" for v in _REF_X)
    z = np.exp(-1j * np.multiply.outer(_REF_X[:32], _REF_X))
    return acc + len(text) + float(np.abs(z.sum()))


class SpeedProbe:
    """Tracks the machine's speed by timing the reference kernel.

    On a shared 2-vCPU VM (2.0 GHz Xeon) the same code ran at speeds that
    differed by up to 2x, in spells of seconds to minutes.  The probe
    times the kernel before and after every measured interval and, while
    armed, every PROBE_INTERVAL_S from a timer signal.  Each timing follows
    an untimed warm-up run, so it does not depend on what the interrupted
    code left in the caches.  `measure` returns the interval's time with the
    probe's own time taken out, and the mean kernel time over the interval;
    their ratio is the interval's cost in kernel runs, which moves far less
    than either time when the machine slows down.
    """

    def __init__(self, interrupts: bool):
        self.interrupts = interrupts
        self.samples = []  # seconds of each timed kernel run
        self.spent = 0.0   # seconds spent in the probe, warm-ups included

    def sample(self):
        start = perf_counter()
        reference_kernel()
        mid = perf_counter()
        reference_kernel()
        end = perf_counter()
        self.samples.append(end - mid)
        self.spent += end - start

    def _on_alarm(self, signum, frame):
        self.sample()

    def measure(self, fn, *args):
        """(result, busy seconds, mean kernel seconds) of fn(*args)."""
        if not self.samples:
            self.sample()
        first, spent = len(self.samples) - 1, self.spent
        if self.interrupts:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            if self.interrupts:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
        busy = end - start - (self.spent - spent)
        self.sample()
        return result, busy, statistics.mean(self.samples[first:])


class SetupTimer:
    """Times fresh interpreters importing ctwalk.cli, spread over the run so
    that their median does not rest on one spell of the machine's speed."""

    def __init__(self, seconds: float):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launch = functools.partial(
            subprocess.run, [sys.executable, "-c", "import ctwalk.cli"],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.launch()  # may compile bytecode; not timed
        self.interval = seconds / SETUP_LAUNCHES
        self.due = perf_counter()
        self.samples = []

    def time_launch(self):
        start = perf_counter()
        self.launch()
        self.samples.append(perf_counter() - start)
        self.due = perf_counter() + self.interval

    def maybe_launch(self):
        if perf_counter() >= self.due:
            self.time_launch()

    def median(self):
        while len(self.samples) < SETUP_LAUNCHES:
            self.time_launch()
        return statistics.median(self.samples)


def run_job(cli, argv):
    """One CLI call in this process: exit code (None if it raised), its
    standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def digest_dir(path: Path, stdout: str, rc) -> str:
    h = hashlib.sha1(f"{rc}\n{stdout}".encode())
    for f in sorted(path.rglob("*")) if path.exists() else ():
        h.update(b"\0" + f.relative_to(path).as_posix().encode() + b"\0")
        if f.is_file():
            h.update(f.read_bytes())
    return h.hexdigest()


class Bench:
    """The rounds of one run, the operations they attempted and one kept
    copy of each distinct output of each job."""

    def __init__(self, workload, run_dir: Path, cli, probe, tracer=None):
        self.workload, self.dir, self.cli = workload, run_dir, cli
        self.probe, self.tracer = probe, tracer
        self.inputs = run_dir / "inputs"
        self.rounds = []      # per round: busy_s and kernel_s per job, traced, layers
        self.ops = []         # per operation: job id, digest, traced
        self.kept = {job.id: {} for job in workload.jobs}  # digest -> (dir, stdout, rc)
        self.errors = {}      # job stderr of failed calls, for diagnostics
        self.setup = None     # SetupTimer of an untraced run

    def write_inputs(self):
        self.inputs.mkdir(parents=True)
        for name, text in self.workload.inputs.items():
            (self.inputs / name).write_text(text)

    def warm_up(self):
        """Touch each subcommand once so lazy imports happen before timing."""
        out = str(self.dir / "warmup")
        for argv in (("gen", "--graph", "family:a"),
                     ("evolve", "--graph", "family:a", "--times", "0:1:0.1"),
                     ("lta", "--graph", "family:a", "--format", "json"),
                     ("report", "--graph", "family:a", "--times", "0:10:0.1")):
            run_job(self.cli, list(argv) + ["--out", out])
        shutil.rmtree(out)

    def run_round(self, traced: bool):
        round_dir = self.dir / f"r{len(self.rounds)}"
        fields = {"inputs": self.inputs.as_posix(), "round": round_dir.as_posix()}
        busy_s, kernel_s, results = [], [], []
        self.probe.sample()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            for job in self.workload.jobs:
                out = round_dir / job.id
                argv = [a.format(**fields) for a in job.argv] + ["--out", out.as_posix()]
                (rc, stdout, stderr), busy, kernel = self.probe.measure(run_job, self.cli, argv)
                busy_s.append(busy)
                kernel_s.append(kernel)
                results.append((job, out, stdout.replace(out.as_posix(), "<out>"), rc))
                if rc != 0:
                    self.errors.setdefault(job.id, stderr)
                if self.setup is not None:
                    self.setup.maybe_launch()
        finally:
            if traced:
                self.tracer.uninstall()
        layers = self._layer_metrics(results, statistics.mean(kernel_s)) if traced else None
        self.rounds.append({"busy_s": busy_s, "kernel_s": kernel_s, "traced": traced,
                            "layers": layers})

        # Untimed: keep one copy of each distinct output; identical copies
        # are dropped, as the kept one stands for them in the checks.
        for job, out, stdout, rc in results:
            digest = digest_dir(out, stdout, rc)
            self.ops.append((job.id, digest, traced))
            if digest in self.kept[job.id]:
                shutil.rmtree(out, ignore_errors=True)
            else:
                self.kept[job.id][digest] = (out, stdout, rc)

    def _layer_metrics(self, results, kernel_s):
        self_s, calls = self.tracer.layer_totals()
        counts = self.tracer.counts
        files = [f for _, out, _, _ in results for f in out.rglob("*") if f.is_file()]
        m = {}
        for layer in tracing.LAYERS:
            m[f"{layer}.self_s"] = self_s[layer] * REF_NOMINAL_S / kernel_s
            if layer != "cli":
                m[f"{layer}.calls"] = calls[layer]
        m["spectral.n3"] = counts["spectral.n3"]
        m["transport.phase_evals"] = counts["transport.phase_evals"]
        m["serialize.numbers"] = counts["serialize.numbers"]
        m["serialize.bytes"] = counts["serialize.bytes"]
        m["cli.files"] = len(files)
        m["cli.bytes_written"] = sum(f.stat().st_size for f in files)
        return m

    def run(self, seconds: float, trace: bool):
        if not trace:
            self.setup = SetupTimer(seconds)
        start = perf_counter()
        while True:
            self.run_round(traced=trace and len(self.rounds) % 2 == 1)
            elapsed = perf_counter() - start
            if trace and len(self.rounds) < 2:
                continue
            if elapsed * (len(self.rounds) + 1) / len(self.rounds) > seconds:
                break

    def check(self):
        """Check each distinct output once; an operation fails if its call
        failed, its output failed a check, or a traced round's output differs
        from the first untraced round's."""
        from checks import Checker

        checker = Checker(self.workload.sample_seed)
        bad = set()
        reports = []
        for job in self.workload.jobs:
            for digest, (out, stdout, rc) in self.kept[job.id].items():
                if rc != 0:
                    bad.add((job.id, digest))
                    reports.append(f"{job.id}: exit code {rc}: {self.errors.get(job.id, '')}")
                    continue
                errors = checker.check(job, out, stdout)
                if errors:
                    bad.add((job.id, digest))
                    reports += [f"{job.id} ({out}): {e}" for e in errors]
        baseline = {}
        for job_id, digest, traced in self.ops:
            baseline.setdefault(job_id, digest)
        failed = 0
        wrong = bool(reports)
        for job_id, digest, traced in self.ops:
            differs = traced and digest != baseline[job_id]
            if differs:
                reports.append(f"{job_id}: traced output differs from the untraced output")
                wrong = True
            failed += (job_id, digest) in bad or differs
        return failed, not wrong, reports


def _cost(rnd):
    """A round's cost in reference-kernel runs: each job's busy time over
    the kernel time measured around it."""
    return [b / k for b, k in zip(rnd["busy_s"], rnd["kernel_s"])]


def end_to_end(bench, setup_s, peak_rss_mb):
    costs = [_cost(r) for r in bench.rounds]
    wall_ref = statistics.median(sum(c) for c in costs)
    # The median job of the list, each job taken at its median over rounds.
    job_ref = statistics.median(statistics.median(job) for job in zip(*costs))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_ref * REF_NOMINAL_S, "s"),
        "wall_ref": (wall_ref, "ref"),
        "job_s_p50": (job_ref * REF_NOMINAL_S, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


LAYER_UNITS = {"self_s": "s", "calls": "count", "n3": "count", "phase_evals": "count",
               "numbers": "count", "bytes": "B", "files": "count", "bytes_written": "B"}


def per_layer(bench):
    traced = [r for r in bench.rounds if r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value, LAYER_UNITS[name.split(".", 1)[1]])
    wall = {flag: statistics.median(sum(_cost(r)) for r in bench.rounds if r["traced"] == flag)
            for flag in (False, True)}
    metrics["trace.overhead_s"] = ((wall[True] - wall[False]) * REF_NOMINAL_S, "s")
    return metrics


def raw_summary(bench):
    """Plain elapsed figures, for the log only: on a machine whose speed
    drifts they spread too widely to compare runs by."""
    wall = statistics.median(sum(r["busy_s"]) for r in bench.rounds)
    kernel = statistics.median(k for r in bench.rounds for k in r["kernel_s"])
    return f"raw wall_s {wall:.4f}, reference kernel {kernel * 1e3:.3f} ms"


def write_trace(bench, args):
    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"trace_{args.workload}_seed{args.seed}.json"
    spans = [{"layer": l, "function": f, "parent": p, "start": s, "end": e}
             for l, f, p, s, e in bench.tracer.spans]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "round_spans": spans}) + "\n")
    return path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare(workload_name, seed, trace):
    """Build the workload and a Bench around a fresh run directory."""
    if not (SRC / "ctwalk" / "cli.py").is_file():
        sys.exit(f"no ctwalk sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ctwalk.cli")
    tracer = tracing.Tracer() if trace else None
    workload = workloads.build(workload_name, seed)
    run_dir = RUNS / f"{workload_name}_seed{seed}_{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Bench(workload, run_dir, cli, SpeedProbe(interrupts=not trace), tracer)
    bench.write_inputs()
    return bench


def main(argv=None):
    args = parse_args(argv)
    bench = prepare(args.workload, args.seed, args.trace)
    bench.warm_up()
    bench.run(args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, correct, reports = bench.check()
    if args.trace:
        metrics = per_layer(bench)
        print(f"spans of the last traced round: {write_trace(bench, args)}", file=sys.stderr)
    else:
        metrics = end_to_end(bench, bench.setup.median(), peak_rss_mb)
    for line in reports[:50]:
        print(line, file=sys.stderr)
    if reports:
        print(f"outputs kept for inspection in {bench.dir}", file=sys.stderr)
    else:
        shutil.rmtree(bench.dir)
    print(f"{args.workload}: {len(bench.rounds)} rounds of {len(bench.workload.jobs)} jobs; "
          + raw_summary(bench), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
