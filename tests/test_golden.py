"""Golden outputs: the exact JSON stdout of the CLI on fixed inputs.

The inputs in tests/data/golden are the seed-42 net, cubic and (2,2) form of
the benchmark's set-up (`perfbench/child.py setup --seed 42`); each
`*.stdout` file is the document the CLI printed for them before the fiber
counts were routed through one iterator.  A change that keeps the results
must keep these bytes.
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
