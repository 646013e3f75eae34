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


def test_diff_lists_moved_bytes(corpus, outputs):
    """The diff tool names each output whose bytes changed, with its largest
    |Δ|, and tells a moved number from a changed structure."""
    name = "03_lta_family_a_csv/lta.csv"
    moved = dict(outputs)
    moved[name] = golden_corpus._NUMBER.sub(
        lambda m: repr(float(m.group()) + 1e-13).encode(), outputs[name], count=1)
    rows = golden_corpus.compare(moved, corpus)
    assert [row[:2] for row in rows] == [(name, "bytes")]
    assert rows[0][2] == pytest.approx(1e-13, rel=0.01)
    moved[name] = outputs[name].replace(b"\n", b",0\n", 1)
    rows = golden_corpus.compare(moved, corpus)
    assert [row[:2] for row in rows] == [(name, "structure differs")]
