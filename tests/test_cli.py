import json
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from ctwalk import cli, transport
from ctwalk.cli import DEFAULT_QUANTITIES, build_parser, main, parse_times
from ctwalk.graphs import (
    MAX_NODES,
    format_edge_list,
    gen_broom,
    gen_cycle,
    gen_family,
    gen_path,
    gen_star,
    laplacian,
    read_edge_list,
)
from ctwalk.spectral import eigendecompose
from ctwalk.transport import PAIR_QUANTITIES, PHASE_KINDS, QUANTITIES

from oracles import transition_matrix


# One spec of each generator kind, and the graph it names.
GENERATOR_SPECS = {
    "family:c": lambda: gen_family("c"),
    "path:5": lambda: gen_path(5),
    "star:5": lambda: gen_star(5),
    "cycle:5": lambda: gen_cycle(5),
    "broom:3:2": lambda: gen_broom(3, 2),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_family_e(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--graph", "family:e", "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines()[0] == "n=10 q=9 D_l=8"
        assert read_edge_list(tmp_path / "family_e.edges") == gen_family("e")

    def test_path2_file_content(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--graph", "path:2", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "path_2.edges").read_text() == "n 2\n1 2\n"

    # The first six counts are ones int() takes: a count in a spec is ASCII
    # decimal digits only.  The rest are malformed or out of range.
    @pytest.mark.parametrize("spec, reason", [
        ("path: 10", "digits"), ("path:10 ", "digits"), ("star:١٠", "digits"),
        ("path:1_0", "digits"), ("path:+10", "digits"), ("broom: 5:5", "digits"),
        ("cycle:-3", "digits"), ("path:", "digits"), ("path:x", "digits"),
        ("broom:5", "digits"), ("broom:5:5:5", "digits"),
        ("broom:0:5", "broom needs path_len >= 1"), ("star:1", "star needs n >= 2"),
    ])
    def test_bad_spec_is_usage_error(self, tmp_path, capsys, spec, reason):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "gen", "--graph", spec, "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: bad graph spec {spec!r}: ")
        assert reason in err
        assert stdout == ""
        assert not out.exists()

    def test_generator_specs_cover_the_table(self):
        assert {spec.partition(":")[0] + ":" for spec in GENERATOR_SPECS} == set(cli._GENERATORS)

    @pytest.mark.parametrize("spec", GENERATOR_SPECS)
    def test_gen_file_is_the_spec(self, tmp_path, capsys, spec):
        code, out, _ = run(capsys, "gen", "--graph", spec, "--out", str(tmp_path / "g"))
        edges = tmp_path / "g" / (spec.replace(":", "_") + ".edges")
        assert code == 0
        assert out.splitlines()[1] == str(edges)
        assert read_edge_list(edges) == GENERATOR_SPECS[spec]()
        from_spec, from_file = tmp_path / "spec", tmp_path / "file"
        assert run(capsys, "lta", "--graph", spec, "--out", str(from_spec))[0] == 0
        assert run(capsys, "lta", "--graph", str(edges), "--out", str(from_file))[0] == 0
        assert (from_file / "lta.csv").read_bytes() == (from_spec / "lta.csv").read_bytes()

    def test_rejects_file_source(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--graph", "whatever.edges", "--out", str(tmp_path))
        assert code == 2
        assert "generator spec" in err


class TestEvolve:
    def test_default_quantities_and_t0_rows(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "evolve", "--graph", "family:a", "--times", "0:5:0.5", "--out", str(tmp_path),
        )
        assert code == 0
        for name in ("classical_avg_return", "quantum_avg_return", "alpha_bar_sq"):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert lines[0] == "t,value"
            assert lines[1] == "0,1"
            assert len(lines) == 12

    def test_co_emitted_approximation(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "family:e", "--times", "0:1:0.5", "--out", str(tmp_path),
            "--quantities", "alpha_bar_sq,approx_alpha_bar_sq",
        )
        assert code == 0
        lines = (tmp_path / "alpha_bar_sq.csv").read_text().splitlines()
        assert lines[0] == "t,value,approx"
        assert lines[1] == "0,1,0.96"
        assert not (tmp_path / "approx_alpha_bar_sq.csv").exists()
        # Alone, the approximation is read from a quantum table of its own,
        # with the same bytes as the co-emitted column.
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "family:e", "--times", "0:1:0.5", "--out", str(tmp_path / "alone"),
            "--quantities", "approx_alpha_bar_sq",
        )
        assert code == 0
        alone = (tmp_path / "alone" / "approx_alpha_bar_sq.csv").read_text().splitlines()
        assert alone[0] == "t,value"
        assert [line.split(",")[1] for line in alone[1:]] == [line.split(",")[2] for line in lines[1:]]

    def test_pairwise_emits_one_file_per_target(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "path:3", "--times", "0:1:0.5", "--out", str(tmp_path),
            "--quantities", "quantum_pair", "--start-node", "2",
        )
        assert code == 0
        for k in (1, 2, 3):
            assert (tmp_path / f"quantum_pair_k{k}_j2.csv").exists()

    def test_json_format(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "family:b", "--times", "0:1:0.5", "--out", str(tmp_path),
            "--quantities", "classical_avg_return", "--format", "json",
        )
        assert code == 0
        obj = json.loads((tmp_path / "classical_avg_return.json").read_text())
        assert obj["quantity"] == "classical_avg_return"
        assert obj["values"][0] == 1.0

    def test_classical_equipartition_at_long_times(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "family:b", "--times", "0:1000:0.01", "--out", str(tmp_path),
            "--quantities", "classical_avg_return",
        )
        assert code == 0
        final = (tmp_path / "classical_avg_return.csv").read_text().splitlines()[-1]
        assert abs(float(final.split(",")[1]) - 0.1) <= 1e-4

    def test_lower_bound_running_average_hits_asymptote(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "family:e", "--times", "0:1000:0.01", "--out", str(tmp_path),
            "--quantities", "alpha_bar_sq",
        )
        assert code == 0
        rows = (tmp_path / "alpha_bar_sq.csv").read_text().splitlines()[1:]
        data = np.array([[float(x) for x in row.split(",")] for row in rows])
        t, v = data[:, 0], data[:, 1]
        integral = float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(t)))
        assert abs(integral / t[-1] - 0.66) <= 5e-3

    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ("evolve", "--graph", "family:c", "--times", "0:10:0.1",
                "--quantities", "alpha_bar_sq,quantum_avg_return")
        run(capsys, *args, "--out", str(tmp_path / "one"))
        run(capsys, *args, "--out", str(tmp_path / "two"))
        for name in ("alpha_bar_sq.csv", "quantum_avg_return.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_grid_includes_stop_point(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "path:4", "--times", "0:0.7:0.1", "--out", str(tmp_path),
            "--quantities", "alpha_bar_sq",
        )
        assert code == 0
        lines = (tmp_path / "alpha_bar_sq.csv").read_text().splitlines()
        assert len(lines) == 9
        assert lines[-1].split(",")[0] == "0.7"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pair_files_agree_with_per_pair_functions(self, tmp_path, capsys, fmt):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "cycle:7", "--times", "0:6:0.25", "--out", str(tmp_path),
            "--quantities", "classical_pair,quantum_pair", "--start-node", "3",
            "--format", fmt,
        )
        assert code == 0
        s = eigendecompose(laplacian(gen_cycle(7)))
        ts = parse_times("0:6:0.25").times()
        for quantity in ("classical_pair", "quantum_pair"):
            kind = PHASE_KINDS[quantity]
            # Row i holds column j=3 of the transition matrix at ts[i]; pair k reads entry k-1.
            expected = np.array([transition_matrix(s, t, kind)[:, 2] for t in ts])
            for k in range(1, 8):
                path = tmp_path / f"{quantity}_k{k}_j3.{fmt}"
                if fmt == "csv":
                    lines = path.read_text().splitlines()
                    assert lines[0] == "t,value"
                    t, v = np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T
                else:
                    obj = json.loads(path.read_text())
                    assert obj["quantity"] == quantity
                    t, v = np.array(obj["times"]), np.array(obj["values"])
                assert np.array_equal(t, ts) and t[-1] == 6.0
                assert np.max(np.abs(v - expected[:, k - 1])) <= 1e-13

    def test_pair_files_deterministic_bytes(self, tmp_path, capsys):
        args = ("evolve", "--graph", "family:c", "--times", "0:10:0.1",
                "--quantities", "classical_pair,quantum_pair", "--start-node", "4")
        run(capsys, *args, "--out", str(tmp_path / "one"))
        run(capsys, *args, "--out", str(tmp_path / "two"))
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert len(names) == 20
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    @pytest.mark.parametrize("quantities, kinds", [
        ("quantum_pair,quantum_avg_return,alpha_bar_sq", ["quantum"]),
        ("classical_pair,approx_alpha_bar_sq", ["classical", "quantum"]),
        (",".join(QUANTITIES), ["classical", "quantum"]),
    ])
    def test_one_phase_table_per_kind(self, tmp_path, capsys, monkeypatch, quantities, kinds):
        evaluated = []
        phases = transport.class_phases

        def spy(s, t, kind):
            evaluated.append(kind)
            return phases(s, t, kind)

        monkeypatch.setattr(transport, "class_phases", spy)
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "path:24", "--quantities", quantities, "--out", str(tmp_path),
        )
        assert code == 0
        assert evaluated == kinds

    def test_table_lifetimes(self, tmp_path, capsys, monkeypatch):
        # Each table from from_phases is freed before the next one is built,
        # and a kind's phase table once its last quantity has read it.
        class_phases, from_phases = transport.class_phases, transport.from_phases
        render = cli.serialize.render_series
        quantities = ("classical_pair", "quantum_pair", "classical_avg_return", "alpha_bar_sq")
        phase_refs, table_refs, built, rendered = {}, [], [], []

        def spy_phases(s, t, kind):
            table = class_phases(s, t, kind)
            phase_refs[kind] = weakref.ref(table)
            return table

        def spy_from_phases(s, quantity, phases, j):
            built.append((quantity, sum(ref() is not None for ref in table_refs)))
            table = from_phases(s, quantity, phases, j)
            table_refs.append(weakref.ref(table))
            return table

        def spy_render(fmt, quantity, times, table, approx=None):
            rendered.append((quantity, {kind: ref() is not None for kind, ref in phase_refs.items()}))
            return render(fmt, quantity, times, table, approx)

        monkeypatch.setattr(transport, "class_phases", spy_phases)
        monkeypatch.setattr(transport, "from_phases", spy_from_phases)
        monkeypatch.setattr(cli.serialize, "render_series", spy_render)
        code, _, _ = run(capsys, "evolve", "--graph", "path:6", "--times", "0:1:0.1",
                         "--quantities", ",".join(quantities), "--out", str(tmp_path))
        assert code == 0
        # No earlier table is alive when the next one is built.
        assert built == [(quantity, 0) for quantity in quantities]
        # Which phase tables are alive as each quantity renders: the
        # classical one dies at classical_avg_return, the quantum one at
        # alpha_bar_sq.
        assert rendered == [
            ("classical_pair", {"classical": True}),
            ("quantum_pair", {"classical": True, "quantum": True}),
            ("classical_avg_return", {"classical": False, "quantum": True}),
            ("alpha_bar_sq", {"classical": False, "quantum": False}),
        ]

    # render_series gets a pair table in blocks of times.block_rows rows:
    # star:40 on 5001 points is 3 rows a block with a last block of 1,
    # path:300 on 1001 points 16 a block with a last block of 12, and a
    # path:8 row of 20001 points is longer than a block, so 1 row a block.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("graph, times", [
        ("path:300", "0:50:0.05"), ("star:40", "0:50:0.01"), ("path:8", "0:200:0.01"),
    ])
    def test_pair_files_match_fstring(self, tmp_path, capsys, graph, times, fmt):
        code, _, _ = run(
            capsys,
            "evolve", "--graph", graph, "--times", times, "--start-node", "2", "--format", fmt,
            "--quantities", "classical_pair,quantum_pair", "--out", str(tmp_path),
        )
        assert code == 0
        kind, _, rest = graph.partition(":")
        s = eigendecompose(laplacian({"path": gen_path, "star": gen_star}[kind](int(rest))))
        ts = parse_times(times).times()
        rounded_ts = [float(f"{t:.15g}") for t in ts]
        for quantity in ("classical_pair", "quantum_pair"):
            phases = transport.class_phases(s, ts, PHASE_KINDS[quantity])
            table = np.clip(transport.from_phases(s, quantity, phases, 2), 0.0, 1.0)
            for k, values in enumerate(table, start=1):
                if fmt == "csv":
                    expected = "t,value\n" + "".join(f"{t:.15g},{x:.15g}\n" for t, x in zip(ts, values))
                else:
                    expected = json.dumps({
                        "quantity": quantity, "times": rounded_ts,
                        "values": [float(f"{x:.15g}") for x in values],
                    }, indent=2) + "\n"
                assert (tmp_path / f"{quantity}_k{k}_j2.{fmt}").read_text() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exponent_times_match_reference(self, tmp_path, capsys, fmt):
        # Times in exponent notation: each CSV line leads with "\n1e+15,"
        # and the like, and JSON writes 1e+15 as 1000000000000000.0.
        times = "1e15:2e15:1e14"
        code, _, _ = run(capsys, "evolve", "--graph", "path:3", "--times", times, "--format", fmt,
                         "--quantities", ",".join(QUANTITIES), "--out", str(tmp_path))
        assert code == 0
        s = eigendecompose(laplacian(gen_path(3)))
        ts = parse_times(times).times()
        # The approximation as evolve reads it, from the quantum table: at
        # t = 1e15 rounding decides the angles, so the difference form
        # cos((E_c - E_l) t) would disagree with it at O(1).
        approx = transport.from_phases(
            s, "approx_alpha_bar_sq", transport.class_phases(s, ts, "quantum"), 1)[0]
        expected = {}
        # Beside alpha_bar_sq the approximation is that file's third column.
        for quantity in (q for q in PHASE_KINDS if q != "approx_alpha_bar_sq"):
            table = transport.from_phases(s, quantity, transport.class_phases(s, ts, PHASE_KINDS[quantity]), 1)
            names = [f"{quantity}_k{k}_j1" for k in (1, 2, 3)] if quantity in PAIR_QUANTITIES else [quantity]
            for name, values in zip(names, np.clip(table, 0.0, 1.0)):
                columns = {"times": ts, "values": values}
                if quantity == "alpha_bar_sq":
                    columns["approx"] = approx
                expected[f"{name}.{fmt}"] = (quantity, columns)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)
        for name, (quantity, columns) in expected.items():
            if fmt == "csv":
                header = "t,value,approx\n" if len(columns) == 3 else "t,value\n"
                text = header + "".join(",".join(f"{x:.15g}" for x in row) + "\n"
                                        for row in zip(*columns.values()))
            else:
                obj = {"quantity": quantity}
                obj.update({key: [float(f"{x:.15g}") for x in column] for key, column in columns.items()})
                text = json.dumps(obj, indent=2) + "\n"
            assert (tmp_path / name).read_bytes() == text.encode(), name

    @pytest.mark.parametrize("graph, times, quantities, blocks", [
        ("star:40", "0:50:0.01", "quantum_pair", [3] * 13 + [1]),
        ("path:300", "0:50:0.05", "quantum_pair", [16] * 18 + [12]),
        ("path:8", "0:200:0.01", "quantum_pair", [1] * 8),
        ("family:a", "0:50:0.01", "quantum_avg_return,alpha_bar_sq,approx_alpha_bar_sq", [1, 1]),
    ])
    def test_render_series_once_per_block(self, tmp_path, capsys, monkeypatch, graph, times, quantities, blocks):
        rows = []
        render = cli.serialize.render_series

        def spy(fmt, quantity, times, table, approx=None):
            rows.append(len(table))
            return render(fmt, quantity, times, table, approx)

        monkeypatch.setattr(cli.serialize, "render_series", spy)
        code, _, _ = run(capsys, "evolve", "--graph", graph, "--times", times,
                         "--quantities", quantities, "--out", str(tmp_path))
        assert code == 0
        assert rows == blocks
        assert len(list(tmp_path.iterdir())) == sum(blocks)

    # The last three count more points than an int can be rounded to, or
    # than a message should print.
    @pytest.mark.parametrize("times", ["0:1e15:0.01", "0:1e308:0.5", "1e308:1.7e308:1e-5", "0:1e300:1e-8"])
    def test_oversized_grid_is_usage_error(self, tmp_path, capsys, times):
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "evolve", "--graph", "path:3", "--times", times, "--out", str(out)
        )
        assert code == 2 and err == f"error: grid has more points than the limit of {transport.MAX_GRID_POINTS}\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_phase_angle_is_usage_error(self, tmp_path, capsys):
        # The angle E t of path:3's largest eigenvalue, 3, overflows at the
        # last time 1.7e308.  The run is rejected before the out dir is made,
        # with no numpy warning (which pytest makes an error here).
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "evolve", "--graph", "path:3", "--times", "1e308:1.7e308:1e307",
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == ("error: the phase angle E*t overflows at time 1.7e+308 and eigenvalue 3; "
                       "use an earlier time grid\n")
        assert not out.exists()

    def test_oversized_table_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # star:24 has 3 degeneracy classes: on 101 points a pair table has
        # 24 x 101 = 2424 entries, a class table 303, and quantum_avg_return
        # reads class tables only.
        monkeypatch.setattr(transport, "MAX_TABLE_ENTRIES", 1000)
        args = ("evolve", "--graph", "star:24", "--times", "0:1:0.01")
        out = tmp_path / "out"
        for quantities in ("quantum_pair", "classical_pair,alpha_bar_sq", "quantum_avg_return,quantum_pair"):
            code, stdout, err = run(capsys, *args, "--quantities", quantities, "--out", str(out))
            assert code == 2 and "24 x 101 table has 2424 entries" in err and "limit of 1000" in err
            assert stdout == ""
            assert not out.exists()
        code, _, _ = run(capsys, *args, "--quantities", ",".join(
            q for q in QUANTITIES if q not in PAIR_QUANTITIES), "--out", str(out))
        assert code == 0

    def test_bad_quantity(self, tmp_path, capsys):
        out = tmp_path / "out"
        for quantities, reason in (("entropy", "unknown quantity"), ("", "empty quantity list"),
                                   (",", "empty quantity list")):
            code, stdout, err = run(
                capsys,
                "evolve", "--graph", "family:a", "--out", str(out), "--quantities", quantities,
            )
            assert code == 2 and reason in err
            assert stdout == ""
            assert not out.exists()

    def test_bad_times(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("evolve", "report"):
            for times in ("0:5", ""):
                code, stdout, err = run(
                    capsys, command, "--graph", "family:a", "--times", times, "--out", str(out)
                )
                assert code == 2 and "time grid" in err
                assert stdout == ""
                assert not out.exists()

    def test_bad_start_node(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "evolve", "--graph", "path:3", "--times", "0:1:0.5", "--out", str(tmp_path),
            "--start-node", "9",
        )
        assert code == 2 and "start node" in err


class TestLta:
    def test_k2_matrix_from_edge_file(self, tmp_path, capsys):
        edge_file = tmp_path / "k2.edges"
        edge_file.write_text("n 2\n1 2\n")
        code, _, _ = run(capsys, "lta", "--graph", str(edge_file), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "lta.csv").read_text() == "0.5,0.5\n0.5,0.5\n"

    def test_star_matrix_transpose_stable(self, tmp_path, capsys):
        code, _, _ = run(capsys, "lta", "--graph", "family:e", "--out", str(tmp_path))
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "lta.csv").read_text().splitlines()]
        transposed = [",".join(col) for col in zip(*rows)]
        assert "\n".join(transposed) + "\n" == (tmp_path / "lta.csv").read_text()

    def test_json_variant(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "lta", "--graph", "family:d", "--format", "json", "--out", str(tmp_path)
        )
        assert code == 0
        obj = json.loads((tmp_path / "lta.json").read_text())
        assert obj["quantity"] == "lta"
        assert obj["labels"] == list(range(1, 11))
        entries = np.array(obj["entries"])
        assert np.max(np.abs(entries.sum(axis=1) - 1.0)) <= 1e-9


def _csv_numbers(path):
    """The columns of a CSV output file as the floats its text parses to."""
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[lines[0].startswith("t,"):]]
    return [list(column) for column in zip(*rows)]


class TestJsonOutput:
    @pytest.mark.parametrize("graph", [f"family:{label}" for label in "abcde"] + ["star:40"])
    def test_json_is_json_dumps_of_the_csv_numbers(self, tmp_path, capsys, graph):
        # Each JSON file holds the bytes json.dumps(indent=2) writes for the
        # numbers that the CSV file of the same run holds as %.15g text.
        evolve = ("evolve", "--graph", graph, "--times", "0:50:0.05", "--start-node", "2",
                  "--quantities", ",".join(QUANTITIES))
        for fmt in ("csv", "json"):
            assert run(capsys, *evolve, "--format", fmt, "--out", str(tmp_path / fmt))[0] == 0
            assert run(capsys, "lta", "--graph", graph, "--format", fmt,
                       "--out", str(tmp_path / f"lta_{fmt}"))[0] == 0
        entries = [list(row) for row in zip(*_csv_numbers(tmp_path / "lta_csv" / "lta.csv"))]
        n = len(entries)
        obj = {"quantity": "lta", "n": n, "labels": list(range(1, n + 1)), "time": None,
               "entries": entries}
        assert (tmp_path / "lta_json" / "lta.json").read_text() == json.dumps(obj, indent=2) + "\n"
        csv_files = sorted((tmp_path / "csv").iterdir())
        assert len(csv_files) == 2 * n + 3
        for path in csv_files:
            quantity = path.stem.split("_k")[0]
            columns = _csv_numbers(path)
            obj = {"quantity": quantity, "times": columns[0], "values": columns[1]}
            if len(columns) == 3:
                obj["approx"] = columns[2]
            text = (tmp_path / "json" / f"{path.stem}.json").read_text()
            assert text == json.dumps(obj, indent=2) + "\n", path.name


class TestReport:
    def test_family_a(self, tmp_path, capsys):
        code, out, _ = run(capsys, "report", "--graph", "family:a", "--out", str(tmp_path))
        assert code == 0
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["verdict"] == "quantum_more_efficient"
        assert obj["chi_bar_lb"] == 0.1
        assert "verdict" in out

    def test_family_d(self, tmp_path, capsys):
        code, _, _ = run(capsys, "report", "--graph", "family:d", "--out", str(tmp_path))
        assert code == 0
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["symmetry_degree"] == 6
        assert obj["chi_bar_lb"] == 0.4
        assert obj["verdict"] == "classical_more_efficient"

    def test_disconnected_graph_fails(self, tmp_path, capsys):
        edge_file = tmp_path / "two.edges"
        edge_file.write_text("n 4\n1 2\n3 4\n")
        code, _, err = run(capsys, "report", "--graph", str(edge_file), "--out", str(tmp_path))
        assert code == 2 and "connected" in err

    def test_one_node_edge_list(self, tmp_path, capsys):
        # the classical asymptote 1/n is 1, which the walker holds from t = 0
        edge_file = tmp_path / "one.edges"
        edge_file.write_text("n 1\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--graph", str(edge_file), "--out", str(out))
        assert code == 0, err
        obj = json.loads((out / "report.json").read_text())
        assert obj["classical_asymptote"] == 1.0
        assert obj["equipartition_time"] == 0.0

    def test_replication_bundle(self, tmp_path, capsys):
        # one report per family label rebuilds the benchmark table exactly
        table = {}
        for label in "abcde":
            out_dir = tmp_path / label
            code, _, _ = run(capsys, "report", "--graph", f"family:{label}", "--out", str(out_dir))
            assert code == 0
            obj = json.loads((out_dir / "report.json").read_text())
            table[label] = (obj["symmetry_degree"], f"{obj['chi_bar_lb']:.2f}")
        assert table == {
            "a": (0, "0.10"),
            "b": (2, "0.12"),
            "c": (4, "0.22"),
            "d": (6, "0.40"),
            "e": (8, "0.66"),
        }


class TestExitCodes:
    def test_missing_edge_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "lta", "--graph", str(tmp_path / "missing.edges"), "--out", str(tmp_path)
        )
        assert code == 4 and "i/o" in err

    @pytest.mark.parametrize("command", [
        ["gen", "--graph", "path:4"],
        ["lta", "--graph", "path:4"],
        ["report", "--graph", "family:a"],
        ["evolve", "--graph", "path:4", "--times", "0:1:0.1", "--quantities", "quantum_pair"],
    ], ids=lambda command: command[0])
    def test_out_dir_collision_is_io_error(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        threads = threading.active_count()
        code, out, err = run(capsys, *command, "--out", str(blocker))
        assert code == 4 and "i/o failure" in err and "Traceback" not in err
        assert out == "" and blocker.read_text() == "in the way"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("broken", ["corrupted", "nan"])
    def test_failed_residual_check_is_numerical_error(self, tmp_path, capsys, monkeypatch, broken):
        lapack = np.linalg.eigh

        def eigh(a):
            w, v = lapack(a)
            if broken == "nan":
                return np.full_like(w, np.nan), np.full_like(v, np.nan)
            return w, v + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        code, _, err = run(
            capsys,
            "evolve", "--graph", "path:5", "--times", "0:1:0.5", "--out", str(tmp_path),
        )
        assert code == 3 and "residual" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["gen", "evolve", "lta", "report"])
    def test_oversized_spec_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--graph", f"star:{MAX_NODES + 1}", "--out", str(out))
        assert code == 2 and "exceeds the limit" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "report"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_deg_tol_is_usage_error(self, tmp_path, capsys, command, tol):
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, command, "--graph", "family:e", "--deg-tol", tol, "--out", str(out)
        )
        assert code == 2 and "deg_tol" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "evolve", "lta", "report"])
    def test_deg_tol_below_residual_floor_is_usage_error(self, tmp_path, capsys, command):
        # Eigenvalue noise on family:e is about 2e-15; a deg_tol of 1e-20
        # would split its 8-fold class at 1 and report D_l = 0.
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, command, "--graph", "family:e", "--deg-tol", "1e-20", "--out", str(out)
        )
        assert code == 2 and "below the floor" in err and "eigen-residual" in err
        assert stdout == ""
        assert not out.exists()

    def test_degeneracy_chain_is_usage_error(self, tmp_path, capsys):
        # The four lowest path:100 eigenvalues are each within 5e-3 of the
        # next but span 8.9e-3.
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "lta", "--graph", "path:100", "--deg-tol", "5e-3", "--out", str(out)
        )
        assert code == 2 and "spreads 8.876e-03" in err and "lower --deg-tol" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "evolve", "lta", "report"])
    def test_deg_tol_merging_distinct_eigenvalues_is_usage_error(self, tmp_path, capsys, command):
        # At deg_tol 100 family:e's spectrum {0, 1 x 8, 10} is one class, and
        # report would give symmetry_degree 10 and chi_bar_lb 1.
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, command, "--graph", "family:e", "--deg-tol", "100", "--out", str(out)
        )
        assert code == 2 and "spreads 1.000e+01" in err and "merges distinct eigenvalues" in err
        assert stdout == ""
        assert not out.exists()

    def test_report_grid_ending_on_stop(self, tmp_path, capsys):
        # 0.02 + 0.03 * 166 is one ulp short of 5, the end of the slope window.
        code, _, _ = run(
            capsys, "report", "--graph", "family:a", "--times", "0.02:5:0.03", "--out", str(tmp_path)
        )
        assert code == 0

    @pytest.mark.parametrize("times, reason", [("0:3:0.01", "time range 0..3"), ("0:50:1", "got 5")])
    def test_report_grid_missing_slope_window(self, tmp_path, capsys, times, reason):
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "report", "--graph", "family:a", "--times", times, "--out", str(out)
        )
        assert code == 2 and "window 0.5..5" in err and reason in err
        assert stdout == ""
        assert not out.exists()

    def test_report_oversized_table_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # star:24 has 3 degeneracy classes; 0:5:0.01 has 501 points.
        monkeypatch.setattr(transport, "MAX_TABLE_ENTRIES", 1000)
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "report", "--graph", "star:24", "--times", "0:5:0.01", "--out", str(out)
        )
        assert code == 2 and "3 x 501 table has 1503 entries" in err
        assert stdout == ""
        assert not out.exists()

    def test_oversized_edge_list_header_is_usage_error(self, tmp_path, capsys):
        edge_file = tmp_path / "big.edges"
        edge_file.write_text("n 100000\n1 2\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "evolve", "--graph", str(edge_file), "--out", str(out))
        assert code == 2 and "exceeds the limit" in err
        assert not out.exists()

    @pytest.mark.parametrize("text,line", [("n x\n1 2\n", "line 1"), ("n 3\n1 2\n2 x\n", "line 3")])
    def test_non_integer_edge_list_is_usage_error(self, tmp_path, capsys, text, line):
        edge_file = tmp_path / "bad.edges"
        edge_file.write_text(text)
        out = tmp_path / "out"
        code, _, err = run(capsys, "lta", "--graph", str(edge_file), "--out", str(out))
        assert code == 2 and err.startswith(f"error: {line}: expected ")
        assert not out.exists()

    def test_usage_error_without_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["gen", "--graph", "path:3", "--frobnicate"]) == 2


class TestSharedParser:
    """Every main() call in a process parses with one shared parser."""

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        first, second, third = (tmp_path / name for name in ("first", "second", "third"))
        code, _, _ = run(
            capsys,
            "evolve", "--graph", "path:3", "--times", "0:1:0.1", "--format", "json",
            "--quantities", "quantum_pair", "--start-node", "2", "--out", str(first),
        )
        assert code == 0
        assert sorted(p.name for p in first.iterdir()) == [f"quantum_pair_k{k}_j2.json" for k in (1, 2, 3)]
        code, _, _ = run(capsys, "evolve", "--graph", "path:3", "--out", str(second))
        assert code == 0
        assert sorted(p.name for p in second.iterdir()) == sorted(f"{q}.csv" for q in DEFAULT_QUANTITIES)
        rows = (second / "alpha_bar_sq.csv").read_text().splitlines()
        assert len(rows) == 1 + 5001 and rows[-1].startswith("50,")
        # Only the quantity is set again: the start node and format are the defaults.
        code, _, _ = run(
            capsys, "evolve", "--graph", "path:3", "--quantities", "quantum_pair", "--out", str(third)
        )
        assert code == 0
        assert sorted(p.name for p in third.iterdir()) == [f"quantum_pair_k{k}_j1.csv" for k in (1, 2, 3)]
        # Another subcommand reads --format too.
        code, _, _ = run(capsys, "lta", "--graph", "path:3", "--out", str(third))
        assert code == 0 and (third / "lta.csv").exists()

    @pytest.mark.parametrize("bad", [["--times", "0:1"], ["--format", "xml"], ["--frobnicate"]])
    def test_good_call_after_usage_error(self, tmp_path, capsys, bad):
        code, _, _ = run(capsys, "evolve", "--graph", "path:3", *bad, "--out", str(tmp_path / "bad"))
        assert code == 2
        assert not (tmp_path / "bad").exists()
        code, out, _ = run(capsys, "lta", "--graph", "path:3", "--out", str(tmp_path / "good"))
        assert code == 0
        assert out == f"{tmp_path / 'good' / 'lta.csv'}\n"

    @pytest.mark.parametrize("argv", [[], ["gen"], ["evolve"], ["lta"], ["report"]])
    def test_help_text_is_that_of_a_fresh_parser(self, capsys, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--help"])
        fresh = capsys.readouterr().out
        assert "usage: ctwalk" in fresh
        for _ in range(2):
            assert run(capsys, *argv, "--help") == (0, fresh, "")

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for _ in range(10):
                assert run(capsys, "gen", "--graph", "path:3", "--out", str(tmp_path))[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1


def _pair_names(n, fmt="csv"):
    return [f"quantum_pair_k{k}_j1.{fmt}" for k in range(1, n + 1)]


class TestWriterThread:
    """evolve writes each block of files on one writer thread while the next
    block renders (star:40 on the default grid: 13 blocks of 3 files, then 1)."""

    def test_write_error_is_io_error(self, tmp_path, capsys):
        names = _pair_names(40)
        (tmp_path / names[9]).mkdir()  # k10, the first file of the fourth block
        threads = threading.active_count()
        code, out, err = run(capsys, "evolve", "--graph", "star:40", "--quantities", "quantum_pair",
                             "--out", str(tmp_path))
        assert code == 4 and "i/o failure" in err and "Traceback" not in err
        assert out == ""
        # The files written before the failing one, as when writing each block in turn.
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == sorted(names[:9])
        assert threading.active_count() == threads

    def test_render_error_leaves_written_blocks(self, tmp_path, capsys, monkeypatch):
        render = cli.serialize.render_series
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("third block")
            return render(*args, **kwargs)

        monkeypatch.setattr(cli.serialize, "render_series", third_fails)
        threads = threading.active_count()
        code, out, err = run(capsys, "evolve", "--graph", "star:40", "--quantities", "quantum_pair",
                             "--out", str(tmp_path))
        assert code == 2 and "third block" in err and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_pair_names(40)[:6])
        assert threading.active_count() == threads

    def test_write_error_wins_over_render_error(self, tmp_path, capsys, monkeypatch):
        """Block 2's write fails while block 3 fails to render: the write
        error is the one reported, as when writing each block in turn."""
        render = cli.serialize.render_series
        calls = []

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("third block")
            return render(*args, **kwargs)

        monkeypatch.setattr(cli.serialize, "render_series", third_fails)
        names = _pair_names(40)
        (tmp_path / names[3]).mkdir()  # k4, the first file of the second block
        threads = threading.active_count()
        code, out, err = run(capsys, "evolve", "--graph", "star:40", "--quantities", "quantum_pair",
                             "--out", str(tmp_path))
        assert code == 4 and "i/o failure" in err and "Traceback" not in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == sorted(names[:3])
        assert threading.active_count() == threads

    def test_import_leaves_executor_unloaded(self):
        """The executor is imported by evolve, not with the module, so that
        every command starts without its import time."""
        code = "import sys, ctwalk.cli; sys.exit('concurrent.futures' in sys.modules)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_one_block_in_flight(self, tmp_path, capsys, monkeypatch):
        """When block k starts rendering, every file of block k-2 is written,
        even with a writer slower than the renderer."""
        render, write = cli.serialize.render_series, cli._write
        written, seen = [], []

        def spy_render(*args, **kwargs):
            seen.append(list(written))
            return render(*args, **kwargs)

        def slow_write(path, content):
            time.sleep(0.002)
            write(path, content)
            written.append(path.name)

        monkeypatch.setattr(cli.serialize, "render_series", spy_render)
        monkeypatch.setattr(cli, "_write", slow_write)
        code, out, _ = run(capsys, "evolve", "--graph", "star:40", "--quantities", "quantum_pair",
                           "--out", str(tmp_path))
        assert code == 0
        names = _pair_names(40)
        assert len(seen) == 14
        for k, before in enumerate(seen):
            assert before[: 3 * max(k - 1, 0)] == names[: 3 * max(k - 1, 0)], k
        # Written and printed in the order of the targets.
        assert written == names
        assert out.split() == [str(tmp_path / name) for name in names]

    def test_concurrent_calls_with_short_switch_interval(self, tmp_path, capsys):
        """More writer threads than cores, switching threads every few
        microseconds: every call writes the bytes of a call made alone."""
        argv = ["evolve", "--graph", "star:12", "--times", "0:50:0.01", "--quantities", "quantum_pair"]
        assert main(argv + ["--out", str(tmp_path / "alone")]) == 0
        expected = {p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}
        threads = threading.active_count()
        codes = []
        callers = [threading.Thread(target=lambda i=i: codes.append(main(argv + ["--out", str(tmp_path / str(i))])),
                                    daemon=True) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert codes == [0, 0, 0]
        for i in range(3):
            assert {p.name: p.read_bytes() for p in (tmp_path / str(i)).iterdir()} == expected
        assert threading.active_count() == threads
