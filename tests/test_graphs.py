import numpy as np
import pytest

from ctwalk import graphs
from ctwalk.graphs import (
    FAMILY_LABELS,
    MAX_NODES,
    adjacency,
    format_edge_list,
    from_edge_list,
    gen_broom,
    gen_cycle,
    gen_family,
    gen_path,
    gen_star,
    is_connected,
    laplacian,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)


class TestFromEdgeList:
    def test_single_edge(self):
        g = from_edge_list(2, [(1, 2)])
        assert g.n == 2
        assert g.edges == frozenset({(1, 2)})

    def test_duplicate_orientations_merge(self):
        g = from_edge_list(3, [(1, 2), (2, 1)])
        assert g.edges == frozenset({(1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(2, [(1, 3)])

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(0, [])

    def test_node_limit(self):
        assert from_edge_list(MAX_NODES, [(1, MAX_NODES)]).n == MAX_NODES
        with pytest.raises(ValueError, match="exceeds the limit"):
            from_edge_list(MAX_NODES + 1, [(1, 2)])


class TestNodeLimit:
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: gen_path(n),
            lambda n: gen_star(n),
            lambda n: gen_cycle(n),
            lambda n: gen_broom(n - 3, 3),
        ],
    )
    def test_generators_check_before_building_pairs(self, call, monkeypatch):
        def built(*args):
            raise AssertionError("the pair list was built before the node count was checked")

        monkeypatch.setattr(graphs, "from_edge_list", built)
        with pytest.raises(ValueError, match="exceeds the limit"):
            call(MAX_NODES + 1)

    def test_header_is_checked_before_pair_lines(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_edge_list(f"n {MAX_NODES + 1}\nnot a pair line\n")


class TestGenerators:
    def test_two_node_coincidence(self):
        assert gen_path(2).edges == gen_star(2).edges == gen_broom(1, 1).edges

    def test_star_all_edges_on_hub(self):
        g = gen_star(10)
        assert g.n == 10 and g.q == 9
        assert all(u == 1 for u, _ in g.sorted_edges())

    def test_cycle_closes_path(self):
        g = gen_cycle(5)
        assert (1, 5) in g.edges
        assert g.q == 5

    def test_broom_leaves_on_handle_end(self):
        g = gen_broom(7, 3)
        assert g.n == 10
        assert {(7, 8), (7, 9), (7, 10)} <= g.edges

    @pytest.mark.parametrize("p,k", [(1, 0), (1, 9), (3, 4), (5, 5), (8, 1)])
    def test_broom_edge_count(self, p, k):
        assert gen_broom(p, k).q == p + k - 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gen_path(1),
            lambda: gen_star(1),
            lambda: gen_cycle(1),
            lambda: gen_broom(0, 5),
            lambda: gen_broom(2, -1),
        ],
    )
    def test_parameter_minimums(self, call):
        with pytest.raises(ValueError):
            call()

    def test_family_sizes(self, family_graphs):
        for g in family_graphs.values():
            assert g.n == 10
            assert g.q == 9

    def test_family_bad_label(self):
        with pytest.raises(ValueError, match="family label"):
            gen_family("z")


class TestMatrices:
    def test_laplacian_path3(self):
        m = laplacian(gen_path(3))
        assert np.array_equal(m, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_laplacian_k2(self):
        m = laplacian(from_edge_list(2, [(1, 2)]))
        assert np.array_equal(m, [[1, -1], [-1, 1]])

    def test_laplacian_star(self):
        m = laplacian(gen_star(10))
        assert np.array_equal(np.diag(m), [9] + [1] * 9)
        assert np.all(m[0, 1:] == -1)

    def test_row_sums_exactly_zero(self, family_graphs):
        for g in family_graphs.values():
            m = laplacian(g)
            assert np.issubdtype(m.dtype, np.integer)
            assert not m.flags.writeable
            assert np.array_equal(m.sum(axis=0), np.zeros(g.n, dtype=np.int64))
            assert np.array_equal(m, m.T)

    def test_adjacency_matches_edges(self):
        g = gen_cycle(4)
        a = adjacency(g)
        assert not a.flags.writeable
        assert a.sum() == 2 * g.q
        assert np.all(np.diag(a) == 0)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(gen_path(10))

    def test_isolated_node(self):
        assert not is_connected(from_edge_list(3, [(1, 2)]))

    def test_two_nodes(self):
        assert is_connected(gen_star(2))


class TestEdgeListFormat:
    def test_roundtrip_family(self, family_graphs):
        for g in family_graphs.values():
            assert parse_edge_list(format_edge_list(g)) == g

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            pairs = [
                (int(u) + 1, int(v) + 1)
                for u, v in rng.integers(0, n, size=(n, 2))
                if u != v
            ]
            g = from_edge_list(n, pairs)
            assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nn 3\n# another\n1 2\n\n2 3\n"
        g = parse_edge_list(text)
        assert g == from_edge_list(3, [(1, 2), (2, 3)])

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_edge_list("1 2\n")

    def test_bad_pair_line(self):
        with pytest.raises(ValueError, match="expected 'u v'"):
            parse_edge_list("n 3\n1 2 3\n")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            parse_edge_list("# nothing here\n")

    def test_file_roundtrip(self, tmp_path):
        g = gen_family("c")
        path = tmp_path / "c.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g
