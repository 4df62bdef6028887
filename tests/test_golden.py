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

`net_moved.json` is the seed-42 net under the unimodular change
x -> S^-1 x, S^-1 = [[0, 1], [1, -3]] + I_4, so that its point is
(3, 1, 0, 0, 0, 0), whose pivot entry 3 vanishes mod 3.  It counts and
reduces as the seed-42 net does at every prime.

`disc.stdout` (`disc --range 1..5000`, JSON) and `disc.text.stdout`
(`disc --range 1..300`, text) are the verdicts printed while each sign of
a^2 - d*b^2 = +-8 still had its own continued-fraction walk.

`cubic.text.stdout` and `verra.text.stdout` are the text output of the
`cubic` and `verra` cases below, as printed while each command built its
own report lines and `ok` rule.
"""

import json
from pathlib import Path

import pytest

from quadring.cli import main as cli_main
from quadring.netfib import load_net

from _util import moved_net

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


def test_the_moved_net_is_the_golden_net_under_s_inverse():
    net, point = load_net(NET)
    t = [[int(i == j) for j in range(6)] for i in range(6)]
    t[0][:2], t[1][:2] = [0, 1], [1, -3]
    assert load_net(str(GOLDEN / "net_moved.json")) == (moved_net(net, t), (3, 1, 0, 0, 0, 0))


def test_the_moved_net_counts_as_the_golden_net(capsys):
    # a split of V at P's pivot over Z left <P> inside the complement mod 3:
    # Qbar read 196, not 190, and R2 = R3 = 6
    runs = []
    for name in ("net.json", "net_moved.json"):
        code = cli_main(["count", "--net", str(GOLDEN / name), "--primes", "3,5,7,11,13"])
        runs.append((code, capsys.readouterr().out.splitlines()))
    (golden_code, golden), (moved_code, moved) = runs
    assert golden_code == moved_code == 0
    assert moved[0] == "net: n=4 m=2 point=(3, 1, 0, 0, 0, 0)"
    assert moved[1:] == golden[1:]


def test_the_moved_net_reduces_as_the_golden_net(capsys):
    argv = ["reduce", "--net", str(GOLDEN / "net_moved.json"), "--primes", "3,5", "--format", "json"]
    assert cli_main(argv) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert [c["reduced_count"] for c in counts] == [190, 956]
    assert all(c["double_cover_reduced"] == c["double_cover_net"] for c in counts)
