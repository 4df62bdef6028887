"""Golden outputs: the exact JSON stdout of the CLI on fixed inputs.

The inputs in tests/data/golden are the seed-42 net, cubic and (2,2) form of
the benchmark's set-up (`perfbench/child.py setup --seed 42`); each
`*.stdout` file is the document the CLI printed for them before the fiber
counts were routed through one iterator.  A change that keeps the results
must keep these bytes.

Two more nets pin the paths where `count` flags or skips a prime, in text
and JSON, as printed before the regularity and line checks became zero
scans on a subspace: `net_zero_fiber.json` is the seed-42 net with M_2
replaced by the zero matrix, skipped at every prime, and
`net_plane_pair.json` is a net whose forms all vanish on the line
<e0, e1>, with point e0: skipped at p = 3 and flagged with a line through
the point at 5..13.

`disc.stdout` (`disc --range 1..5000`, JSON) and `disc.text.stdout`
(`disc --range 1..300`, text) are the verdicts printed while each sign of
a^2 - d*b^2 = +-8 still had its own continued-fraction walk.

`cubic.text.stdout` and `verra.text.stdout` are the text output of the
`cubic` and `verra` cases below, as printed while each command built its
own report lines and `ok` rule.
"""

from pathlib import Path

import pytest

from quadring.cli import main as cli_main

GOLDEN = Path(__file__).parent / "data" / "golden"
NET = str(GOLDEN / "net.json")

CASES = [
    ("count", ["count", "--net", NET, "--primes", "3,5,7,11,13"]),
    ("count", ["count", "--net", NET, "--primes", "3,5,7,11,13", "--jobs", "2"]),
    ("cubic", ["cubic", "--form", str(GOLDEN / "cubic_form.json"), "--primes", "5,7,11"]),
    ("verra", ["verra", "--form", str(GOLDEN / "verra_form.json"), "--primes", "3,5,7,11"]),
    ("reduce", ["reduce", "--net", NET, "--primes", "5,7"]),
    ("groth", ["groth", "--derive", "all"]),
    ("disc", ["disc", "--range", "1..5000"]),
]


@pytest.mark.parametrize(
    "name,argv", CASES, ids=[" ".join(argv[:1] + argv[3:]) for _, argv in CASES]
)
def test_json_output_is_unchanged(capsys, name, argv):
    code = cli_main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("net", ["zero_fiber", "plane_pair"])
def test_skipped_and_flagged_count_output_is_unchanged(capsys, net, fmt):
    argv = ["count", "--net", str(GOLDEN / f"net_{net}.json"), "--primes", "3,5,7,11,13", "--format", fmt]
    assert cli_main(argv) == 1
    assert capsys.readouterr().out == (GOLDEN / f"count_{net}.{fmt}.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["cubic", "verra"])
def test_recipe_text_output_is_unchanged(capsys, name):
    assert cli_main(dict(CASES)[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.text.stdout").read_text(encoding="utf-8")


def test_disc_text_output_is_unchanged(capsys):
    assert cli_main(["disc", "--range", "1..300"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "disc.text.stdout").read_text(encoding="utf-8")


def test_counts_of_two_nets_in_one_process_keep_their_golden_output(capsys):
    # the fiber tables are cached per family and prime: counting one net must
    # not leave its tables to another net counted at the same primes
    cases = (("net.json", 0, "count.stdout"), ("net_plane_pair.json", 1, "count_plane_pair.json.stdout"))
    for net, code, golden in cases + cases[:1]:
        argv = ["count", "--net", str(GOLDEN / net), "--primes", "3,5,7,11,13", "--format", "json"]
        assert cli_main(argv) == code
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
