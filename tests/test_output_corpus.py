"""The output corpus of ``tests/output_corpus.py`` is a deterministic fingerprint."""

from pathlib import Path

import output_corpus


def _slice(argv):
    """Every command but the products and the searches, about 450 of them."""
    return argv[0] not in ("product", "search")


def test_a_slice_of_the_corpus_prints_the_same_lines_twice():
    first = output_corpus.corpus_lines(_slice)
    assert len(first) > 400
    assert any("{work}/late-header.statespace" in line for line in first)
    assert first == output_corpus.corpus_lines(_slice)


def test_the_slice_prints_the_committed_lines():
    committed = (Path(__file__).parent / "output_corpus.txt").read_text().splitlines()
    assert output_corpus.corpus_lines(_slice) == \
        [line for line in committed if _slice(line.split(" "))]
