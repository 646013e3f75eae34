import json

import numpy as np
import pytest

from ctwalk.cli import main
from ctwalk.graphs import (
    MAX_NODES,
    format_edge_list,
    gen_cycle,
    gen_family,
    laplacian,
    read_edge_list,
)
from ctwalk.spectral import eigendecompose
from ctwalk.transport import classical_prob, quantum_prob


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

    def test_bad_broom_spec(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--graph", "broom:0:5", "--out", str(tmp_path))
        assert code == 2
        assert "broom" in err

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
        for quantity, per_pair in (("classical_pair", classical_prob),
                                   ("quantum_pair", quantum_prob)):
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
                assert t.size == 25 and t[-1] == 6.0
                assert np.max(np.abs(v - per_pair(s, k, 3, t))) <= 1e-13

    def test_pair_files_deterministic_bytes(self, tmp_path, capsys):
        args = ("evolve", "--graph", "family:c", "--times", "0:10:0.1",
                "--quantities", "classical_pair,quantum_pair", "--start-node", "4")
        run(capsys, *args, "--out", str(tmp_path / "one"))
        run(capsys, *args, "--out", str(tmp_path / "two"))
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert len(names) == 20
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_oversized_grid_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "evolve", "--graph", "path:3", "--times", "0:1e15:0.01", "--out", str(out)
        )
        assert code == 2 and "limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_quantity(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "evolve", "--graph", "family:a", "--out", str(tmp_path),
            "--quantities", "entropy",
        )
        assert code == 2 and "unknown quantity" in err

    def test_bad_times(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "evolve", "--graph", "family:a", "--times", "0:5", "--out", str(tmp_path)
        )
        assert code == 2 and "time grid" in err

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

    def test_out_dir_collision_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        code, _, err = run(capsys, "gen", "--graph", "path:4", "--out", str(blocker))
        assert code == 4 and "i/o" in err

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

    @pytest.mark.parametrize("times, reason", [("0:3:0.01", "time range 0..3"), ("0:50:1", "got 5")])
    def test_report_grid_missing_slope_window(self, tmp_path, capsys, times, reason):
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "report", "--graph", "family:a", "--times", times, "--out", str(out)
        )
        assert code == 2 and "window 0.5..5" in err and reason in err
        assert stdout == ""
        assert not out.exists()

    def test_oversized_edge_list_header_is_usage_error(self, tmp_path, capsys):
        edge_file = tmp_path / "big.edges"
        edge_file.write_text("n 100000\n1 2\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "evolve", "--graph", str(edge_file), "--out", str(out))
        assert code == 2 and "exceeds the limit" in err
        assert not out.exists()

    def test_usage_error_without_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["gen", "--graph", "path:3", "--frobnicate"]) == 2
