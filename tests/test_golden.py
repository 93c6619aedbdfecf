"""`pvi` reproduces the recorded output of tests/golden/cli_corpus.json.

Exit codes must match exactly, and stdout and stderr by cli_corpus.same:
every field that is not a number exactly, each number within
1e-10 * max(1, |recorded value|).
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "cli_corpus", Path(__file__).with_name("golden") / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)

ENTRIES = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{i}-{e['argv'][0]}" for i, e in enumerate(ENTRIES)])
def test_output_matches_the_recorded_corpus(entry):
    code, out, err = cli_corpus.run(entry["argv"])
    assert code == entry["exit"]
    assert cli_corpus.same(out, entry["stdout"]), (out, entry["stdout"])
    assert cli_corpus.same(err, entry["stderr"]), (err, entry["stderr"])


def _perturbed(text, rel):
    return cli_corpus.NUMBER.sub(lambda m: repr(float(m.group()) * (1 + rel)), text)


@pytest.mark.parametrize("rel, kept", [(1e-13, True), (1e-8, False)])
def test_recorder_keeps_an_entry_that_still_replays(rel, kept, tmp_path, monkeypatch):
    """A committed entry off by rounding is kept byte for byte; one off by more is rewritten."""
    argv = ["classify", "--input", json.dumps({"theta": [8, 8, 8, 28]})]
    code, out, err = cli_corpus.run(argv)
    committed = {"argv": argv, "exit": code, "stdout": _perturbed(out, rel), "stderr": err}
    assert committed["stdout"] != out
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([committed], indent=1) + "\n", encoding="utf-8")
    monkeypatch.setattr(cli_corpus, "command_lines", lambda: [argv])
    assert cli_corpus.record(path) == 1
    (entry,) = json.loads(path.read_text(encoding="utf-8"))
    assert entry["stdout"] == (committed["stdout"] if kept else out)
