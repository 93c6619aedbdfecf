"""`pvi` reproduces the recorded output of tests/golden/cli_corpus.json.

Exit codes and every field that is not a number must match exactly; each
number must match within 1e-10 * max(1, |recorded value|).
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "cli_corpus", Path(__file__).with_name("golden") / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)

ENTRIES = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _split(text):
    """The text with each number replaced by '#', and the numbers."""
    return NUMBER.sub("#", text), [float(m) for m in NUMBER.findall(text)]


def _assert_same(got, want):
    got_text, got_numbers = _split(got)
    want_text, want_numbers = _split(want)
    assert got_text == want_text
    assert len(got_numbers) == len(want_numbers)
    for g, w in zip(got_numbers, want_numbers):
        assert abs(g - w) <= 1e-10 * max(1.0, abs(w)), (g, w)


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{i}-{e['argv'][0]}" for i, e in enumerate(ENTRIES)])
def test_output_matches_the_recorded_corpus(entry):
    code, out, err = cli_corpus.run(entry["argv"])
    assert code == entry["exit"]
    _assert_same(out, entry["stdout"])
    _assert_same(err, entry["stderr"])
