"""The command list of the golden corpus gives the corpus's outputs: the same
names and exit codes, the same text around every number (headers, row
counts, JSON keys and layout), and every number within golden_corpus's
TOLERANCE of the stored one."""

import numpy as np
import pytest

import golden_corpus


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus.Corpus()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_corpus.run(tmp_path_factory.mktemp("golden"))


def test_outputs_match_corpus(corpus, outputs):
    assert corpus.commands == golden_corpus.commands()
    assert sorted(outputs) == sorted(corpus.sha256)
    for name, content in outputs.items():
        skeleton, numbers = golden_corpus.split(content)
        assert skeleton == corpus.skeleton[name], name
        old = corpus.values[name]
        bound = golden_corpus.TOLERANCE * np.maximum(1.0, np.abs(old))
        assert (np.abs(numbers - old) <= bound).all(), name


def _rows_except(rows, name):
    """compare's rows of every output but name, with |Δ| as text, so that
    two NaNs compare equal."""
    return [(row_name, what, repr(delta)) for row_name, what, delta in rows if row_name != name]


def test_diff_lists_moved_bytes(corpus, outputs):
    """The diff tool names each output whose bytes changed, with its largest
    |Δ|, and tells a moved number from a changed structure.  Other outputs
    may differ from the corpus within TOLERANCE, as on a CPU whose OpenBLAS
    kernels differ, so a change injected into one output is judged against
    the rows of the unchanged run."""
    name = "03_lta_family_a_csv/lta.csv"
    baseline = golden_corpus.compare(outputs, corpus)
    moved = dict(outputs)
    moved[name] = golden_corpus._NUMBER.sub(
        lambda m: repr(float(m.group()) + 1e-13).encode(), outputs[name], count=1)
    rows = golden_corpus.compare(moved, corpus)
    assert _rows_except(rows, name) == _rows_except(baseline, name)
    injected = [row for row in rows if row[0] == name]
    assert [row[:2] for row in injected] == [(name, "bytes")]
    assert injected[0][2] == pytest.approx(1e-13, rel=0.01)
    moved[name] = outputs[name].replace(b"\n", b",0\n", 1)
    rows = golden_corpus.compare(moved, corpus)
    assert _rows_except(rows, name) == _rows_except(baseline, name)
    assert [row[:2] for row in rows if row[0] == name] == [(name, "structure differs")]
