"""The golden corpus: ctwalk's outputs on a fixed command list, kept as
structure plus values, and a tool that compares a fresh run with it.

Each output (a written file, or a command's standard output with its exit
code) is split into a skeleton, its text with every number replaced by
'#', and the numbers it held, as floats.  ``tests/golden/corpus.json``
holds the command list, the distinct skeletons and, per output, its name,
the SHA-256 of its bytes, its skeleton and how many numbers it holds;
``tests/golden/values.npy.xz`` holds every output's numbers in one float64
array, in the order of the outputs, as an .npy file compressed with lzma,
whose window spans the repeats between outputs (the CSV and JSON of one
series, the time column of every series).  Bytes alone cannot be the test, because the
wheel's OpenBLAS picks kernels per CPU; skeletons must match exactly and
numbers within TOLERANCE.

    python tests/golden_corpus.py          # list outputs whose bytes changed
    python tests/golden_corpus.py --write  # regenerate tests/golden/

The listing gives, per changed output, the largest |Δ| of its numbers, or
why they cannot be compared; it exits 1 when a skeleton differs or a number
moves by more than TOLERANCE.  Regenerating is an explicit step: record it,
with the listing against the old corpus, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import lzma
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden")
VALUES = "values.npy.xz"
GRAPHS = tuple(f"family:{c}" for c in "abcde") + ("path:12", "star:10", "cycle:12", "broom:5:5")
TIMES = "0:10:0.1"
ALL_QUANTITIES = ("classical_pair,quantum_pair,classical_avg_return,quantum_avg_return,"
                  "alpha_bar_sq,approx_alpha_bar_sq")
# A number may move by this much, relative to its magnitude where that is
# above 1: |new - old| <= TOLERANCE * max(1, |old|).
TOLERANCE = 1e-12

# A number is a %.15g text, a JSON token or an integer, not part of a name
# such as quantum_pair_k10_j1.
_NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+)?(?:e[+-]\d+)?(?![\w.])")
_HOLE = b"#"
_OUT = "{out}"


def commands() -> list[list[str]]:
    """The command list, without --out."""
    argvs = []
    for graph in GRAPHS:
        argvs.append(["gen", "--graph", graph])
        for fmt in ("csv", "json"):
            argvs.append(["evolve", "--graph", graph, "--times", TIMES,
                          "--quantities", ALL_QUANTITIES, "--format", fmt])
        for fmt in ("csv", "json"):
            argvs.append(["lta", "--graph", graph, "--format", fmt])
        argvs.append(["report", "--graph", graph])
    return argvs


def _directory(index: int, argv: list[str]) -> str:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else ""
    graph = argv[2].replace(":", "_")
    return "_".join(part for part in (f"{index:02d}", argv[0], graph, fmt) if part)


def run(root: Path) -> dict[str, bytes]:
    """Every output of the command list, run in this process with each
    command's --out a directory under root: each written file as
    '<directory>/<file>', and each command's exit code and standard output
    as '<directory>/stdout', with its --out written as {out}."""
    from ctwalk.cli import main

    outputs = {}
    for index, argv in enumerate(commands()):
        name = _directory(index, argv)
        out = root / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + ["--out", str(out)])
        text = f"exit {code}\n" + stdout.getvalue().replace(str(out), _OUT)
        outputs[f"{name}/stdout"] = text.encode()
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            outputs[f"{name}/{path.name}"] = path.read_bytes()
    return outputs


def split(content: bytes) -> tuple[str, np.ndarray]:
    """The skeleton of an output and the numbers it holds."""
    if _HOLE in content:
        raise ValueError("an output holds the skeleton's placeholder")
    numbers = [float(token) for token in _NUMBER.findall(content)]
    return _NUMBER.sub(_HOLE, content).decode(), np.array(numbers, dtype=float)


class Corpus:
    """The stored corpus: per output name, its SHA-256, skeleton and numbers."""

    def __init__(self, root: Path = GOLDEN):
        meta = json.loads((root / "corpus.json").read_text())
        with lzma.open(root / VALUES) as fh:
            values = np.load(fh)
        self.commands = meta["commands"]
        self.sha256, self.skeleton, self.values = {}, {}, {}
        at = 0
        for name, sha, skeleton, count in meta["outputs"]:
            self.sha256[name] = sha
            self.skeleton[name] = meta["skeletons"][skeleton]
            self.values[name] = values[at : at + count]
            at += count
        if at != values.size:
            raise ValueError(f"corpus.json and {VALUES} disagree on the number count")


def write(outputs: dict[str, bytes], root: Path = GOLDEN) -> None:
    """Store outputs as the corpus."""
    root.mkdir(exist_ok=True)
    skeletons, rows, values = {}, [], []
    for name, content in outputs.items():
        skeleton, numbers = split(content)
        index = skeletons.setdefault(skeleton, len(skeletons))
        rows.append([name, hashlib.sha256(content).hexdigest(), index, numbers.size])
        values.append(numbers)
    lines = ['{"commands": ' + json.dumps(commands()) + ",",
             ' "skeletons": ' + json.dumps(list(skeletons)) + ",",
             ' "outputs": [',
             ",\n".join("  " + json.dumps(row) for row in rows),
             " ]}"]
    (root / "corpus.json").write_text("\n".join(lines) + "\n")
    with lzma.open(root / VALUES, "wb", preset=9) as fh:
        np.save(fh, np.concatenate(values))


def compare(outputs: dict[str, bytes], corpus: Corpus) -> list[tuple[str, str, float]]:
    """One row per output whose bytes differ from the corpus, or that only
    one side has: (name, what differs, largest |Δ| or NaN)."""
    rows = []
    for name in sorted(set(outputs) | set(corpus.sha256)):
        if name not in outputs or name not in corpus.sha256:
            rows.append((name, "only in the corpus" if name in corpus.sha256 else "not in the corpus",
                         float("nan")))
            continue
        content = outputs[name]
        if hashlib.sha256(content).hexdigest() == corpus.sha256[name]:
            continue
        skeleton, numbers = split(content)
        if skeleton != corpus.skeleton[name]:
            rows.append((name, "structure differs", float("nan")))
            continue
        old = corpus.values[name]
        delta = np.abs(numbers - old)
        beyond = (delta > TOLERANCE * np.maximum(1.0, np.abs(old))).any()
        rows.append((name, "beyond tolerance" if beyond else "bytes", float(delta.max(initial=0.0))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate tests/golden/ from this run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run(Path(tmp))
    if args.write:
        write(outputs)
        print(f"wrote {len(outputs)} outputs of {len(commands())} commands to {GOLDEN}")
        return 0
    rows = compare(outputs, Corpus())
    for name, what, delta in rows:
        print(f"{name}  {what}  max|Δ| {delta:.3g}")
    print(f"{len(rows)} of {len(outputs)} outputs differ in bytes")
    return int(any(what != "bytes" for _, what, _ in rows))


if __name__ == "__main__":
    sys.exit(main())
