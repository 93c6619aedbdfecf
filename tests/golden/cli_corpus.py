"""A fixed set of `pvi` command lines and the recorder of their output.

`cli_corpus.json` holds, for each command line below, the exit code and
the stdout and stderr text of one in-process `pvi.cli.main` call.
`tests/test_golden.py` replays the command lines and compares them by
`same`.  Record the corpus again, from the root of a source checkout, when
an output is meant to change:

    PYTHONPATH=src python tests/golden/cli_corpus.py

The recorder keeps every committed entry that still replays, so only the
entries whose output really changed are written anew.
"""

import contextlib
import io
import json
import re
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")

# kappa = (k0, ..., k4) of one representative per stratum.
STRATA = (
    (5 / 32, 1 / 4, 1 / 4, 1 / 8, 1 / 16),
    (0, 7 / 20, 1 / 10, 3 / 20, 2 / 5),
    (5 / 32, 0, 1 / 4, 1 / 8, 5 / 16),
    (5 / 16, 0, 0, 1 / 8, 1 / 4),
    (7 / 16, 0, 0, 0, 1 / 8),
    (1 / 2, 0, 0, 0, 0),
    (0, 0, 1 / 4, 1 / 4, 1 / 2),
    (0, 0, 0, 1 / 2, 1 / 2),
    (0, 0, 0, 0, 1),
)
# Every D4 root value of this kappa is at least 0.05 from an integer.
OFF_WALL_KAPPA_FREE = [
    -0.8824417998909664, 0.773860317905306, 0.10510376233591223, -0.886912248587404,
]
POINT = {"q": [0.4, 0.3], "p": [0.2, -0.5], "t": [0, 1, 2],
         "kappa_free": [0.21, 0.33, 0.17, 0.11]}


def command_lines():
    from pvi import params

    lines = []
    for kappa in STRATA:
        theta = params.rh_param(params.Exponents(*kappa))
        lines.append(["classify", "--input", json.dumps({"kappa": list(kappa)})])
        lines.append(["classify", "--input",
                      json.dumps({"theta": [[z.real, z.imag] for z in theta]})])
    lines += [
        ["classify", "--input", json.dumps({"theta": [8, 8, 8, 28]})],
        ["classify", "--input", json.dumps({"kappa_free": OFF_WALL_KAPPA_FREE})],
        ["classify", "--input", "{}"],
        ["rh", "--input", json.dumps(POINT)],
        ["rh", "--input", json.dumps({"q": [0.4, 0.3], "p": [0.2, -0.1], "t": [0, 1, 2],
                                      "kappa_free": [0.3, -0.2, 0.45, 0.15]})],
        ["monodromy", "--input", json.dumps({"point": POINT, "braid": "1 1"})],
        ["backlund", "--input", json.dumps({"point": POINT, "word": "0102"})],
        ["orbit", "--input", json.dumps({
            "point": {"x": [[0.1, 0.2], [0.3, -0.1], [0.2, 0.05]],
                      "theta": [[0.5, 0], [0.25, 0], [0.75, 0], [0.1, 0]]},
            "word": "1 1 -2 -2", "n": 6})],
        ["flow", "--input", json.dumps({
            "point": {"q": [0.4, 0.3], "p": [0, 0], "t": [0, 1, 2],
                      "kappa_free": [0.23, 0.31, 0.17, 0.29]},
            "path": [[0, 1, 2], [0, 1, [2.5, 0.3]]]})],
        ["selftest"],
        # A generic point in the (0, 1, x) chart, off the Riccati locus.
        ["flow", "--input", json.dumps({
            "point": {"q": [-0.6804, 0.5986], "p": [-0.0403, 0.191], "t": [0, 1, 2],
                      "kappa_free": [0.6498, 0.3158, -0.2571, -0.773]},
            "path": [[0, 1, 2], [0, 1, 1.6], [0, 1, [1.6, 0.3]]]})],
    ]
    return lines


def run(argv):
    """(exit code, stdout, stderr) of one in-process `pvi` call."""
    from pvi import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _split(text):
    """The text with each number replaced by '#', and the numbers."""
    return NUMBER.sub("#", text), [float(m) for m in NUMBER.findall(text)]


def same(got, want):
    """The replay rule: the same text outside numbers, and each number w
    matched within 1e-10 * max(1, |w|)."""
    got_text, got_numbers = _split(got)
    want_text, want_numbers = _split(want)
    return (got_text == want_text and len(got_numbers) == len(want_numbers)
            and all(abs(g - w) <= 1e-10 * max(1.0, abs(w))
                    for g, w in zip(got_numbers, want_numbers)))


def record(path=CORPUS):
    """Write the corpus at path, keeping each entry there that still replays.

    An entry is kept when its argv and exit code are the ones of a new run
    and `same` holds for its stdout and stderr, so host noise in the last
    digits never enters a new recording.
    """
    committed = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    by_argv = {json.dumps(e["argv"]): e for e in committed}
    entries = []
    for argv in command_lines():
        code, out, err = run(argv)
        old = by_argv.get(json.dumps(argv))
        if old and old["exit"] == code and same(out, old["stdout"]) and same(err, old["stderr"]):
            entries.append(old)
        else:
            entries.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return len(entries)


if __name__ == "__main__":
    print(f"recorded {record()} command lines in {CORPUS}")
