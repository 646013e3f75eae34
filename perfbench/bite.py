"""Shows that the output checks catch a wrong number.

    python3 perfbench/bite.py

For each workload this runs two rounds, changes one value by 1e-6 in one
file that one job wrote in the second round, and runs the checks.  The
benchmark must count exactly that operation as failed and report the run as
not correct; the same job's unchanged output from the first round must pass.
Exits 0 when every workload's checks bite, 1 otherwise.
"""

import shutil
import sys
from pathlib import Path

import run
import workloads

# workload -> (job picked for the change, name of the file it wrote)
TARGETS = {
    "family_study": (lambda job: job.id.endswith(".evolve_csv"), lambda job: "alpha_bar_sq.csv"),
    "pair_sweep": (lambda job: job.check == "pairs",
                   lambda job: f"quantum_pair_k2_j{job.params['j']}.csv"),
    "spectrum_scale": (lambda job: job.check == "lta", lambda job: "lta.csv"),
}


def perturb(path: Path):
    """Add 1e-6 to one number in the middle row of a CSV file: the value
    column of a series, the first entry of a matrix row."""
    lines = path.read_text().split("\n")
    row = len(lines) // 2
    fields = lines[row].split(",")
    col = 1 if lines[0].startswith("t,") else 0
    fields[col] = f"{float(fields[col]) + 1e-6:.15g}"
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines))


class PerturbingCli:
    """Calls the real CLI, then changes one file of one chosen output
    directory, as a faulty program would have written it."""

    def __init__(self, cli, out_dir: Path, file_name):
        self.cli, self.out_dir, self.file_name = cli, out_dir, file_name

    def main(self, argv):
        rc = self.cli.main(argv)
        if Path(argv[argv.index("--out") + 1]) == self.out_dir:
            perturb(self.out_dir / self.file_name)
        return rc


def bites(name, seed=1):
    bench = run.prepare(name, seed, trace=False)
    pick, file_name = TARGETS[name]
    job = next(j for j in bench.workload.jobs if pick(j))
    bench.cli = PerturbingCli(bench.cli, bench.dir / "r1" / job.id, file_name(job))
    bench.run_round(traced=False)
    bench.run_round(traced=False)
    failed, correct, reports = bench.check()
    shutil.rmtree(bench.dir)
    ok = failed == 1 and not correct and all(line.startswith(job.id) for line in reports)
    print(f"{name}: changed one value written by {job.id}; "
          f"{failed} of {len(bench.ops)} operations failed; "
          f"{'bites' if ok else 'DOES NOT BITE'}")
    for line in reports[:3]:
        print(f"    {line}")
    return ok


if __name__ == "__main__":
    results = [bites(name) for name in workloads.WORKLOADS]
    sys.exit(0 if all(results) else 1)
