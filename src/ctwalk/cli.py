"""Command-line surface: gen, evolve, lta, report.

Graphs come either from a generator spec (family:a, path:10, star:10,
broom:5:5, cycle:12) or from an edge-list file path.  The generator kinds
are the keys of one table, _GENERATORS; a count in a spec is plain ASCII
decimal digits.  All numeric output is deterministic byte-for-byte for a
fixed configuration.

Exit codes: 0 success, 2 usage error, 3 numerical failure (the eigensolver
failed its residual check), 4 I/O failure.

``evolve`` writes its files on one writer thread per call, the one worker
of a ThreadPoolExecutor, while the main thread renders the next block of
them.  One block is in flight at most: a block is handed over once the
block before it is written.  An error raised while writing is re-raised in
the calling thread, at the next hand-off or when the writer is joined,
which every call does before it returns, so the exit codes, the files on
disk and the printed paths are those of writing each block in turn.
``gen``, ``lta`` and ``report`` write one file each, in the calling thread.

``main(argv)`` may be called any number of times in one process.  The calls
share one parser, built on the first call: parsing keeps no state between
calls, and building the parser costs more than most small jobs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import analysis, graphs, serialize, transport
from .spectral import DEFAULT_DEG_TOL, ConvergenceError, eigendecompose, symmetry_degree
from .transport import DEFAULT_GRID, PAIR_QUANTITIES, QUANTITIES, TimeGrid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_QUANTITIES = ("classical_avg_return", "quantum_avg_return", "alpha_bar_sq")


def _count(text: str) -> int:
    """A count in a spec: ASCII decimal digits only (int() also takes " 1_0", "+1")."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a count of decimal digits, got {text!r}")
    return int(text)


# Each spec prefix and the builder it calls with the text after it.  The builders
# read graphs' functions at call time, as the benchmark's tracer replaces them there.
_GENERATORS = {
    "family:": lambda rest: graphs.gen_family(rest),
    "path:": lambda rest: graphs.gen_path(_count(rest)),
    "star:": lambda rest: graphs.gen_star(_count(rest)),
    "cycle:": lambda rest: graphs.gen_cycle(_count(rest)),
    "broom:": lambda rest: graphs.gen_broom(*map(_count, rest.partition(":")[::2])),
}


def resolve_graph(source: str) -> graphs.Graph:
    """Generator spec or edge-list file path."""
    kind, colon, rest = source.partition(":")
    build = _GENERATORS.get(kind + colon)
    if build is None:
        return graphs.read_edge_list(source)
    try:
        return build(rest)
    except ValueError as exc:
        raise ValueError(f"bad graph spec {source!r}: {exc}") from exc


def parse_times(text: str) -> TimeGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad time grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad time grid {text!r}: {exc}") from exc
    return TimeGrid(start, stop, step)


def parse_quantities(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise ValueError("empty quantity list")
    for name in names:
        if name not in QUANTITIES:
            raise ValueError(f"unknown quantity {name!r}; expected one of {', '.join(QUANTITIES)}")
    return names


def _write(path: Path, content: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(content)


def _write_block(files: list) -> None:
    for path, content in files:
        _write(path, content)


def cmd_gen(args: argparse.Namespace) -> int:
    """Materialize a generator spec as an edge-list file; report n, q, D_l."""
    if not args.graph.startswith(tuple(_GENERATORS)):
        raise ValueError(f"gen needs a generator spec, got {args.graph!r}")
    g = resolve_graph(args.graph)
    d_l = symmetry_degree(eigendecompose(graphs.laplacian(g), deg_tol=args.deg_tol))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / (args.graph.replace(":", "_") + ".edges")
    graphs.write_edge_list(g, path)
    print(f"n={g.n} q={g.q} D_l={d_l}")
    print(path)
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    """Emit the selected transport series over the --times grid.

    Pair quantities produce one file per target node k (start node fixed by
    --start-node), all from one pair table; when both alpha_bar_sq and its
    approximation are selected they share one file with an extra column, the
    class for the approximation being the one nearest eigenvalue 1.  Each
    phase kind is evaluated once and read by every quantity of that kind, and
    the time column is formatted once, in the run's format, and shared by
    every file.  A pair table is rendered in blocks of TimeColumn.block_rows
    rows (about 16 K numbers, a constant of serialize), one render_series
    call per block, which returns each file's bytes, and each block goes to
    the writer of the module docstring, the one worker of an executor made
    once per call.  A pair table is freed before the next one is built, and
    a kind's phase table at its last read.  A run whose largest table would
    exceed transport.MAX_TABLE_ENTRIES, or whose phase angle E t would
    overflow, writes nothing.
    """
    grid, quantities = parse_times(args.times), parse_quantities(args.quantities)
    g = resolve_graph(args.graph)
    if not (1 <= args.start_node <= g.n):
        raise ValueError(f"start node must be in 1..{g.n}, got {args.start_node}")
    s = eigendecompose(graphs.laplacian(g), deg_tol=args.deg_tol)
    transport.check_table_size(s, quantities, grid)
    args.out.mkdir(parents=True, exist_ok=True)

    ts = grid.times()
    times = serialize.TimeColumn(ts)
    co_emit = "alpha_bar_sq" in quantities and "approx_alpha_bar_sq" in quantities
    selected = [q for q in QUANTITIES if q in quantities
                and not (q == "approx_alpha_bar_sq" and co_emit)]
    last_read = {transport.PHASE_KINDS[q]: q for q in selected}
    j, step = args.start_node, times.block_rows
    phases = {}  # the class phase table of each kind, evaluated on first use
    written = []
    in_flight = None  # the future of the block last handed over

    # Imported here: concurrent.futures costs about 5 ms, and only evolve uses it.
    from concurrent.futures import ThreadPoolExecutor

    # Leaving the with block joins the writer, before the paths are printed.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ctwalk-writer") as writer:
        try:
            for quantity in selected:
                kind = transport.PHASE_KINDS[quantity]
                if kind not in phases:
                    phases[kind] = transport.class_phases(s, ts, kind)
                approx = None
                if quantity == "alpha_bar_sq" and co_emit:
                    approx = transport.from_phases(s, "approx_alpha_bar_sq", phases[kind], j)[0]
                # The last read of a kind hands its table over, so that it is
                # freed before the files are written.
                table = transport.from_phases(
                    s, quantity, phases.pop(kind) if last_read[kind] == quantity else phases[kind], j)
                names = [quantity]
                if quantity in PAIR_QUANTITIES:
                    names = [f"{quantity}_k{k}_j{j}" for k in range(1, s.n + 1)]
                for start in range(0, len(names), step):
                    paths = [args.out / f"{name}.{args.format}" for name in names[start : start + step]]
                    files = list(zip(paths, serialize.render_series(
                        args.format, quantity, times, table[start : start + step], approx)))
                    if in_flight is not None:
                        in_flight.result()  # re-raises the write error of the block before
                    in_flight = writer.submit(_write_block, files)
                    written.extend(paths)
                del table  # freed before the next one is built
        finally:
            if in_flight is not None:
                in_flight.result()  # a write error wins over a render error
    for path in written:
        print(path)
    return EXIT_OK


def cmd_lta(args: argparse.Namespace) -> int:
    """Emit the long-time-average probability matrix."""
    g = resolve_graph(args.graph)
    s = eigendecompose(graphs.laplacian(g), deg_tol=args.deg_tol)
    matrix = transport.lta_matrix(s)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"lta.{args.format}"
    _write(path, serialize.matrix_to_csv(matrix) if args.format == "csv" else serialize.matrix_to_json(matrix))
    print(path)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    """Emit the efficiency report as JSON and print the text table."""
    grid = parse_times(args.times)
    g = resolve_graph(args.graph)
    report = analysis.efficiency_report(g, grid, args.deg_tol, label=args.graph)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "report.json"
    _write(path, serialize.report_to_json(report))
    print(serialize.report_to_text(report), end="")
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctwalk",
        description="Spectral simulator of continuous-time classical and quantum walks on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--graph", required=True, help="generator spec (family:a, path:10, star:10, broom:5:5, cycle:12) or edge-list file")
        p.add_argument("--deg-tol", type=float, default=DEFAULT_DEG_TOL, help="eigenvalue degeneracy tolerance")
        p.add_argument("--out", type=Path, default=".", help="output directory")
        return p

    grid = f"{DEFAULT_GRID.start:g}:{DEFAULT_GRID.stop:g}:{DEFAULT_GRID.step:g}"
    times_help = "time grid start:stop:step (default %(default)s)"
    formats = dict(choices=("csv", "json"), default="csv", help="output format")
    subcommand("gen", "write a generated graph as an edge-list file")
    p_evolve = subcommand("evolve", "emit transport series over a time grid")
    p_evolve.add_argument("--times", default=grid, help=times_help)
    p_evolve.add_argument("--start-node", type=int, default=1, help="start node j for pairwise series")
    p_evolve.add_argument("--format", **formats)
    p_evolve.add_argument("--quantities", default=",".join(DEFAULT_QUANTITIES), help=f"comma list from: {', '.join(QUANTITIES)}")
    subcommand("lta", "emit the long-time-average probability matrix").add_argument("--format", **formats)
    p_report = subcommand("report", "emit the efficiency report")
    p_report.add_argument("--times", default=grid, help=f"{times_help}; it must cover the slope window "
                          f"{'%g..%g' % analysis.SLOPE_WINDOW} with at least {analysis.MIN_SLOPE_SAMPLES} samples in it")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call in the process shares."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # Looked up at call time, so that a wrapper put on a cmd_* name is called.
        return globals()[f"cmd_{args.command}"](args)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
