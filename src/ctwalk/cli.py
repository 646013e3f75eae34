"""Command-line surface: gen, evolve, lta, report.

Graphs come either from a generator spec (family:a, path:10, star:10,
broom:5:5, cycle:12) or from an edge-list file path.  All numeric output is
deterministic byte-for-byte for a fixed configuration.

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
from dataclasses import dataclass
from pathlib import Path

from . import analysis, graphs, serialize, transport
from .spectral import DEFAULT_DEG_TOL, ConvergenceError, eigendecompose, symmetry_degree
from .transport import DEFAULT_GRID, PAIR_QUANTITIES, QUANTITIES, TimeGrid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_QUANTITIES = ("classical_avg_return", "quantum_avg_return", "alpha_bar_sq")

_GENERATOR_PREFIXES = ("family:", "path:", "star:", "cycle:", "broom:")


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation."""

    graph_source: str
    grid: TimeGrid = DEFAULT_GRID
    start_node: int = 1
    deg_tol: float = DEFAULT_DEG_TOL
    fmt: str = "csv"
    out_dir: Path = Path(".")
    quantities: tuple[str, ...] = DEFAULT_QUANTITIES


def parse_generator_spec(spec: str) -> graphs.Graph:
    """Build a graph from a generator spec string."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "family":
            return graphs.gen_family(rest)
        if kind == "path":
            return graphs.gen_path(int(rest))
        if kind == "star":
            return graphs.gen_star(int(rest))
        if kind == "cycle":
            return graphs.gen_cycle(int(rest))
        if kind == "broom":
            p, _, k = rest.partition(":")
            return graphs.gen_broom(int(p), int(k))
    except ValueError as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad graph spec {spec!r}: unknown generator {kind!r}")


def resolve_graph(source: str) -> graphs.Graph:
    """Generator spec or edge-list file path."""
    if source.startswith(_GENERATOR_PREFIXES):
        return parse_generator_spec(source)
    return graphs.read_edge_list(source)


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


def _spec_filename(spec: str) -> str:
    return spec.replace(":", "_") + ".edges"


def _write(path: Path, content: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(content)


def _write_block(files: list) -> None:
    for path, content in files:
        _write(path, content)


def _prepare_out_dir(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)


def cmd_gen(spec: str, out_dir: Path, deg_tol: float = DEFAULT_DEG_TOL) -> int:
    """Materialize a generator spec as an edge-list file; report n, q, D_l."""
    if not spec.startswith(_GENERATOR_PREFIXES):
        raise ValueError(f"gen needs a generator spec, got {spec!r}")
    g = parse_generator_spec(spec)
    d_l = symmetry_degree(eigendecompose(graphs.laplacian(g), deg_tol=deg_tol))
    _prepare_out_dir(out_dir)
    path = out_dir / _spec_filename(spec)
    graphs.write_edge_list(g, path)
    print(f"n={g.n} q={g.q} D_l={d_l}")
    print(path)
    return EXIT_OK


def cmd_evolve(config: RunConfig) -> int:
    """Emit the selected transport series over the configured grid.

    Pair quantities produce one file per target node k (start node fixed by
    the config), all from one pair table; when both alpha_bar_sq and its
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
    g = resolve_graph(config.graph_source)
    if not (1 <= config.start_node <= g.n):
        raise ValueError(f"start node must be in 1..{g.n}, got {config.start_node}")
    s = eigendecompose(graphs.laplacian(g), deg_tol=config.deg_tol)
    transport.check_table_size(s, config.quantities, config.grid)
    _prepare_out_dir(config.out_dir)

    ts = config.grid.times()
    times = serialize.TimeColumn(ts)
    co_emit = "alpha_bar_sq" in config.quantities and "approx_alpha_bar_sq" in config.quantities
    selected = [q for q in QUANTITIES if q in config.quantities
                and not (q == "approx_alpha_bar_sq" and co_emit)]
    last_read = {transport.PHASE_KINDS[q]: q for q in selected}
    j, step = config.start_node, times.block_rows
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
                    paths = [config.out_dir / f"{name}.{config.fmt}" for name in names[start : start + step]]
                    files = list(zip(paths, serialize.render_series(
                        config.fmt, quantity, times, table[start : start + step], approx)))
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


def cmd_lta(config: RunConfig) -> int:
    """Emit the long-time-average probability matrix."""
    g = resolve_graph(config.graph_source)
    s = eigendecompose(graphs.laplacian(g), deg_tol=config.deg_tol)
    matrix = transport.lta_matrix(s)
    _prepare_out_dir(config.out_dir)
    path = config.out_dir / f"lta.{config.fmt}"
    _write(path, serialize.matrix_to_csv(matrix) if config.fmt == "csv" else serialize.matrix_to_json(matrix))
    print(path)
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    """Emit the efficiency report as JSON and print the text table."""
    g = resolve_graph(config.graph_source)
    report = analysis.efficiency_report(g, config.grid, config.deg_tol, label=config.graph_source)
    _prepare_out_dir(config.out_dir)
    path = config.out_dir / "report.json"
    _write(path, serialize.report_to_json(report))
    print(serialize.report_to_text(report), end="")
    print(path)
    return EXIT_OK


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        graph_source=args.graph,
        grid=parse_times(args.times) if getattr(args, "times", None) is not None else DEFAULT_GRID,
        start_node=getattr(args, "start_node", 1),
        deg_tol=args.deg_tol,
        fmt=getattr(args, "format", "csv"),
        out_dir=Path(args.out),
        quantities=parse_quantities(args.quantities)
        if getattr(args, "quantities", None) is not None
        else DEFAULT_QUANTITIES,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctwalk",
        description="Spectral simulator of continuous-time classical and quantum walks on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, times_help=None, start_node=False, fmt=False, quantities=False):
        p.add_argument("--graph", required=True, help="generator spec (family:a, path:10, star:10, broom:5:5, cycle:12) or edge-list file")
        p.add_argument("--deg-tol", type=float, default=DEFAULT_DEG_TOL, help="eigenvalue degeneracy tolerance")
        p.add_argument("--out", default=".", help="output directory")
        if times_help is not None:
            p.add_argument("--times", default=None, help=f"time grid start:stop:step (default 0:50:0.01){times_help}")
        if start_node:
            p.add_argument("--start-node", dest="start_node", type=int, default=1, help="start node j for pairwise series")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        if quantities:
            p.add_argument("--quantities", default=None, help=f"comma list from: {', '.join(QUANTITIES)}")

    p_gen = sub.add_parser("gen", help="write a generated graph as an edge-list file")
    common(p_gen)
    p_gen.set_defaults(func=lambda a: cmd_gen(a.graph, Path(a.out), a.deg_tol))

    p_evolve = sub.add_parser("evolve", help="emit transport series over a time grid")
    common(p_evolve, times_help="", start_node=True, fmt=True, quantities=True)
    p_evolve.set_defaults(func=lambda a: cmd_evolve(_config_from_args(a)))

    p_lta = sub.add_parser("lta", help="emit the long-time-average probability matrix")
    common(p_lta, fmt=True)
    p_lta.set_defaults(func=lambda a: cmd_lta(_config_from_args(a)))

    p_report = sub.add_parser("report", help="emit the efficiency report")
    window = "%g..%g" % analysis.SLOPE_WINDOW
    common(p_report, times_help=f"; it must cover the slope window {window} with at least {analysis.MIN_SLOPE_SAMPLES} samples in it")
    p_report.set_defaults(func=lambda a: cmd_report(_config_from_args(a)))

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
        return args.func(args)
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
