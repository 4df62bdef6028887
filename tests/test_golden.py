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
