import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quadring.cli import _find_integral_point, main
from quadring.netfib import QuadricNet, load_net
from quadring.quadform import GramMatrix

from _util import diagonal_gram, moved_net, plane_cubic


GOLDEN = Path(__file__).parent / "data" / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pencil_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nets") / "pencil.json"
    code = main(
        [
            "random",
            "--n",
            "2",
            "--m",
            "1",
            "--primes",
            "3,5,7,11,13",
            "--seed",
            "1",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


def test_count_pencil_exit_zero(capsys, pencil_file):
    code, out, _ = run_cli(
        capsys, "count", "--net", str(pencil_file), "--primes", "7,11"
    )
    assert code == 0
    assert "R1=0" in out and "R4=0" in out
    assert "all residuals zero" in out


def test_count_json_schema(capsys, pencil_file):
    code, out, _ = run_cli(
        capsys, "count", "--net", str(pencil_file), "--primes", "5,7", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["ok"] is True
    assert [r["p"] for r in doc["reports"]] == [5, 7]
    for rep in doc["reports"]:
        assert set(rep["residuals"]) == {"R1", "R2", "R3", "R4"}
        assert all(v == 0 for v in rep["residuals"].values())


def test_count_jobs_do_not_change_bytes(capsys, pencil_file):
    _, out1, _ = run_cli(
        capsys,
        "count", "--net", str(pencil_file), "--primes", "5,7",
        "--format", "json", "--jobs", "1",
    )
    _, out4, _ = run_cli(
        capsys,
        "count", "--net", str(pencil_file), "--primes", "5,7",
        "--format", "json", "--jobs", "4",
    )
    assert out1 == out4


def test_count_pointless_net_runs_point_free_subset(capsys, tmp_path):
    # the canonical pencil has no small integral point on X; the count
    # command falls back to the point-free residuals and skips the p = 3
    # reduction, which has a corank-2 fiber
    net = QuadricNet(
        n=2,
        m=1,
        matrices=(diagonal_gram([1, 1, 1, 1]), diagonal_gram([0, 1, 2, 3])),
    )
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(net.to_document()))
    code, out, _ = run_cli(capsys, "count", "--net", str(path), "--primes", "3,5,7")
    assert code == 0
    assert "p=3 SKIPPED" in out
    assert "R1=0 R3=0 R4=0" in out


def test_count_checks_the_shape_before_searching_for_a_point(capsys, monkeypatch, tmp_path):
    # the point search walks 3^(n+2) vectors, so an unsupported shape is
    # rejected before it starts
    from quadring import cli

    def no_search(net):
        raise AssertionError("searched for a point on a net of unsupported shape")

    monkeypatch.setattr(cli, "_find_integral_point", no_search)
    net = QuadricNet(
        n=3,
        m=1,
        matrices=(diagonal_gram([1] * 5), diagonal_gram([0, 1, 2, 3, 4])),
    )
    path = tmp_path / "unsupported.json"
    path.write_text(json.dumps(net.to_document()))
    code, out, err = run_cli(capsys, "count", "--net", str(path), "--primes", "3")
    assert code == 2
    assert out == ""
    assert "relation checks support shapes" in err


def test_count_rejects_asymmetric_net(capsys, tmp_path):
    flat = [0] * 16
    flat[1] = 2  # entry (0,1) != entry (1,0)
    doc = {"format_version": 1, "n": 2, "m": 1, "matrices": [flat, [0] * 16]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "count", "--net", str(path))
    assert code == 2
    assert "symmetric" in err


def test_count_explicit_point_flag(capsys, pencil_file):
    doc = json.loads(pencil_file.read_text())
    point = ",".join(str(x) for x in doc["point"])
    code, out, _ = run_cli(
        capsys,
        "count", "--net", str(pencil_file), "--primes", "5", "--point", point,
    )
    assert code == 0
    assert "R2=0" in out


def test_count_divides_the_point_by_its_content(capsys):
    # -6 e0 is the point e0: no prime divides its primitive representative,
    # so p = 3 is counted as for e0, not skipped
    argv = ["count", "--net", str(GOLDEN / "net.json"), "--primes", "3,5,7", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--point=-6,0,0,0,0,0")
    reports = json.loads(out)["reports"]
    assert code == 0 and not reports[0]["skipped"]
    assert reports == json.loads(run_cli(capsys, *argv, "--point", "1,0,0,0,0,0")[1])["reports"]


def test_count_point_off_x_rejected(capsys, pencil_file):
    code, _, err = run_cli(
        capsys,
        "count", "--net", str(pencil_file), "--primes", "5",
        "--point", "1,1,1,1",
    )
    assert code == 2


@pytest.mark.parametrize(
    "point,message",
    [
        # on every quadric over Z but no point; it used to be skipped at every
        # prime and exit 1
        ("0,0,0,0,0,0", "zero vector"),
        # wrong lengths used to end in a traceback
        ("1,0", "length"),
        ("1,0,0,0,0,0,0", "length"),
    ],
)
def test_count_rejects_malformed_point(capsys, point, message):
    code, _, err = run_cli(
        capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "3,5",
        "--point", point,
    )
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["count", "--net", str(GOLDEN / "net.json"), "--primes", "3,5"], "--point", "-1,0,0,0,0,0"),
        (["disc"], "--ns", "-5,2"),
    ],
    ids=["count-point", "disc-ns"],
)
def test_a_negative_first_entry_is_the_option_value(capsys, argv, option, value):
    joined = run_cli(capsys, *argv, f"{option}={value}")
    assert joined[0] == 0
    assert run_cli(capsys, *argv, option, value) == joined


def test_an_option_is_not_taken_for_a_point(capsys):
    code, out, err = run_cli(capsys, "count", "--net", str(GOLDEN / "net.json"), "--point", "--primes", "3")
    assert code == 2 and out == ""
    assert "argument --point: expected one argument" in err


def test_find_integral_point_walks_the_first_coordinate_fastest():
    # the points of {-1, 0, 1}^6 with first nonzero entry 1, in the order of
    # the walk that varies x0 fastest: when every form is x0^2 the first hit
    # is e1, not e5; on the golden net moved so that its point is
    # (0, 1, 1, 0, -1, 0), e0 is off X
    square = diagonal_gram([1, 0, 0, 0, 0, 0])
    assert _find_integral_point(QuadricNet(n=4, m=2, matrices=(square,) * 3)) == (0, 1, 0, 0, 0, 0)
    net, point = load_net(str(GOLDEN / "net.json"))
    assert _find_integral_point(net) == point == (1, 0, 0, 0, 0, 0)
    t = [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, -1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    assert _find_integral_point(moved_net(net, t)) == (0, 1, 1, 0, -1, 0)


def _input_file(kind, value):
    """A net, cubic or tensor file with `value` in place of one integer."""
    if kind == "net":
        doc = json.loads((GOLDEN / "net.json").read_text())
        doc["matrices"][0][0] = value
        return "count", "--net", doc
    if kind == "cubic":
        doc = json.loads((GOLDEN / "cubic_form.json").read_text())
        doc["terms"][0][1] = value
        return "cubic", "--form", doc
    doc = json.loads((GOLDEN / "verra_form.json").read_text())
    doc["tensor"][0] = value
    return "verra", "--form", doc


@pytest.mark.parametrize("kind", ["net", "cubic", "tensor"])
@pytest.mark.parametrize("value", [True, 1.5])
def test_loaders_reject_bool_and_fractional_numbers(capsys, tmp_path, kind, value):
    command, flag, doc = _input_file(kind, value)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, command, flag, str(path), "--primes", "5")
    assert code == 2
    assert "must be an integer" in err


def test_cubic_repeated_monomials_add_up(capsys, tmp_path):
    # [e, 1] and [e, -1] sum to the zero form, which is malformed input
    exps = [1, 1, 0, 1, 0, 0]
    doc = {"num_vars": 6, "degree": 3, "terms": [[exps, 1], [exps, -1]]}
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "cubic", "--form", str(path), "--primes", "5")
    assert code == 2
    assert "zero cubic" in err


def test_count_rejects_garbage_file(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "count", "--net", str(path))
    assert code == 2


def test_count_rejects_nonnumeric_entries(capsys, tmp_path):
    doc = {"format_version": 1, "n": 2, "m": 1,
           "matrices": [["x"] * 16, [0] * 16]}
    path = tmp_path / "badentries.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "count", "--net", str(path))
    assert code == 2


def test_count_exit_one_on_flagged_line(capsys, tmp_path):
    # a net with a rational line through its marked point: residuals all
    # vanish (the count shadow cancels) but the flag forces a failure exit
    import random as pyrandom

    from quadring.netfib import regularity_check
    from quadring.gfp import PrimeField

    rng = pyrandom.Random(0)
    while True:
        mats = []
        for _ in range(3):
            rows = [[0] * 6 for _ in range(6)]
            for i in range(6):
                for j in range(i, 6):
                    rows[i][j] = rows[j][i] = rng.randint(-9, 9)
            for i in (0, 1):
                for j in (0, 1):
                    rows[i][j] = 0
            mats.append(GramMatrix.from_rows(rows))
        net = QuadricNet(n=4, m=2, matrices=tuple(mats))
        rep = regularity_check(net, PrimeField(5))
        if rep.regular and rep.flat and not rep.corank2_found:
            break
    path = tmp_path / "lined.json"
    path.write_text(json.dumps(net.to_document(point=(1, 0, 0, 0, 0, 0))))
    code, out, _ = run_cli(capsys, "count", "--net", str(path), "--primes", "5")
    assert code == 1
    assert "line-through-point" in out


def test_count_budget_exceeded(capsys, pencil_file):
    code, _, err = run_cli(
        capsys, "count", "--net", str(pencil_file), "--primes", "13", "--budget", "10"
    )
    assert code == 3
    assert "budget" in err.lower()


def test_count_checks_the_budget_before_any_fiber(capsys, monkeypatch):
    # P^3(F_1000003), the space the X scan walks when it projects from the
    # net's point, is far over the default budget; the regularity walk over
    # its 10^12 base points must never start
    from quadring.netfib import relations

    def no_walk(net, field):
        raise AssertionError("regularity_check ran before the budget check")

    monkeypatch.setattr(relations, "regularity_check", no_walk)
    code, out, err = run_cli(
        capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "3,1000003"
    )
    assert code == 3 and out == ""
    size = (1000003**4 - 1) // 1000002
    assert f"P^3(F_1000003), which has {size} points, over the budget of 2000000" in err


def test_count_default_budget_reaches_113(capsys):
    # with the net's point the X scan projects from it and walks P^3:
    # #P^3(F_113) = 1,455,780 fits the default budget of 2,000,000, and
    # #P^3(F_127) = 2,064,640 does not
    code, out, _ = run_cli(capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "113", "--format", "json")
    (report,) = json.loads(out)["reports"]
    assert code == 0 and not report["skipped"]
    assert set(report["residuals"].values()) == {0}
    code, out, err = run_cli(capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "127")
    assert code == 3 and out == ""
    assert "P^3(F_127), which has 2064640 points, over the budget of 2000000" in err


@pytest.mark.parametrize("prime", ["23", "53"])
def test_count_golden_net_jobs_do_not_change_bytes(capsys, prime):
    # the X count by projection splits its walk of P^3 across the jobs
    args = ("count", "--net", str(GOLDEN / "net.json"), "--primes", prime, "--jobs")
    code, one, _ = run_cli(capsys, *args, "1")
    assert code == 0 and "R4=0" in one
    assert run_cli(capsys, *args, "2") == (0, one, "")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_count_rejects_nonpositive_jobs(capsys, jobs):
    code, out, err = run_cli(
        capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "3", "--jobs", jobs
    )
    assert code == 2 and out == ""
    assert "--jobs must be at least 1" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_count_rejects_nonpositive_budget(capsys, budget):
    code, out, err = run_cli(
        capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "3", "--budget", budget
    )
    assert code == 2 and out == ""
    assert "--budget must be at least 1" in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cubic_rejects_nonpositive_budget(capsys, budget):
    code, out, err = run_cli(
        capsys, "cubic", "--form", str(GOLDEN / "cubic_form.json"), "--primes", "5", "--budget", budget
    )
    assert code == 2 and out == ""
    assert "--budget must be at least 1" in err


@pytest.mark.parametrize("command, source", [("reduce", "net.json"), ("verra", "verra_form.json")])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_reduce_and_verra_reject_nonpositive_budget(capsys, command, source, budget):
    option = "--net" if command == "reduce" else "--form"
    code, out, err = run_cli(capsys, command, option, str(GOLDEN / source), "--primes", "5", "--budget", budget)
    assert code == 2 and out == ""
    assert "--budget must be at least 1" in err


@pytest.mark.parametrize(
    "argv, counter, walked",
    [
        # the reduction's fiber walks cover P^2(F_p)
        (["reduce", "--net", str(GOLDEN / "net.json"), "--primes", "3,1000003"], "quadring.netfib.count_reduced_family",
         f"P^2(F_1000003), which has {1000003**2 + 1000003 + 1} points"),
        # the (2,2) form's X count walks P^2(F_p) x P^2(F_p): the default
        # budget admits #P^2(F_37)^2 = 1,979,649 pairs, and p = 41 exits 3
        (["verra", "--form", str(GOLDEN / "verra_form.json"), "--primes", "3,41"], "quadring.netfib.recipes._verra_x_count",
         "P^2(F_41) x P^2(F_41), which has 2968729 points"),
        (["verra", "--form", str(GOLDEN / "verra_form.json"), "--primes", "1009"], "quadring.netfib.recipes._verra_x_count",
         f"P^2(F_1009) x P^2(F_1009), which has {(1009**2 + 1009 + 1) ** 2} points"),
    ],
)
def test_reduce_and_verra_check_the_budget_before_any_fiber(capsys, monkeypatch, argv, counter, walked):
    def no_count(*args):
        raise AssertionError("a prime was counted before the budget check")

    monkeypatch.setattr(counter, no_count)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert f"{walked}, over the budget of 2000000" in err


def test_cubic_checks_every_prime_budget_before_any_prime(capsys, monkeypatch):
    # the X count at 101 walks P^4(F_101), over the default budget, so not
    # even 5 and 7 have their fibrations classified
    from quadring.netfib import recipes

    calls = []
    monkeypatch.setattr(recipes, "_double_cover_count", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "cubic", "--form", str(GOLDEN / "cubic_form.json"), "--primes", "5,7,101")
    assert code == 3 and out == "" and calls == []
    assert f"P^4(F_101), which has {(101**5 - 1) // 100} points, over the budget of 2000000" in err


@pytest.mark.parametrize(
    "argv, walked",
    [
        (["reduce", "--net", str(GOLDEN / "net.json")], 13),  # #P^2(F_3)
        (["verra", "--form", str(GOLDEN / "verra_form.json")], 13**2),
    ],
)
def test_reduce_and_verra_budget_is_the_space_walked(capsys, argv, walked):
    code, out, _ = run_cli(capsys, *argv, "--primes", "3", "--budget", str(walked))
    assert code == 0 and "p=3" in out
    code, out, err = run_cli(capsys, *argv, "--primes", "3", "--budget", str(walked - 1))
    assert code == 3 and out == ""
    assert f"which has {walked} points, over the budget of {walked - 1}" in err


def test_count_huge_entries_print_the_golden_reports(capsys, tmp_path):
    # 3*5*7*11*13 * 2^64 added to entry (1, 1) of M_0: the same net mod 3, 5
    # and 7 (the point e_0 stays on X over Z), with an entry beyond int64
    doc = json.loads((GOLDEN / "net.json").read_text())
    doc["matrices"][0][1 * 6 + 1] += 3 * 5 * 7 * 11 * 13 * 2**64
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for net in (GOLDEN / "net.json", path):
        for fmt in ("text", "json"):
            code, out, _ = run_cli(
                capsys, "count", "--net", str(net), "--primes", "3,5,7", "--format", fmt
            )
            assert code == 0
            outputs.append(out)
    assert outputs[:2] == outputs[2:]


def test_count_bad_primes(capsys, pencil_file):
    for bad in ("4,5", "5,3", "5,5", "0"):
        code, _, _ = run_cli(
            capsys, "count", "--net", str(pencil_file), "--primes", bad
        )
        assert code == 2


def test_groth_all(capsys):
    code, out, _ = run_cli(capsys, "groth", "--derive", "all")
    assert code == 0
    assert "residual = ([X] - [Y])*L" in out
    assert "([Y1] - [Y2])*L" in out
    assert out.count("after asserting route A = route B: 0") == 6


def test_groth_single_json(capsys):
    code, out, _ = run_cli(
        capsys, "groth", "--derive", "theorem-main", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    d = doc["derivations"][0]
    assert d["residual"] == "([X] - [Y])*L"
    assert d["after_hypothesis"] == "0"
    assert d["consistent"] is True


def test_groth_unknown_name_usage_error(capsys):
    code, _, _ = run_cli(capsys, "groth", "--derive", "nonsense")
    assert code == 2


def test_disc_range(capsys):
    code, out, _ = run_cli(capsys, "disc", "--range", "1..100")
    assert code == 0
    for d in (25, 49, 81):
        assert f"d={d} nontrivially-L-equivalent" in out
    assert "d=17 isomorphic" in out


def test_disc_ns(capsys):
    code, out, _ = run_cli(capsys, "disc", "--ns", "3,-2")
    assert code == 0
    assert "d=25 nontrivially-L-equivalent" in out


def test_disc_rejects_bad_range(capsys):
    assert run_cli(capsys, "disc", "--range", "0..0")[0] == 2
    assert run_cli(capsys, "disc", "--range", "5..1")[0] == 2
    assert run_cli(capsys, "disc")[0] == 2


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_disc_rejects_nonpositive_budget(capsys, budget):
    code, out, err = run_cli(capsys, "disc", "--range", "1..5", "--budget", budget)
    assert code == 2 and out == ""
    assert "--budget must be at least 1" in err


@pytest.mark.parametrize("d, period", [(61, 11), (94, 16)])  # the fundamental-unit scan; the one-period walk
def test_disc_budget_is_the_period_walked(capsys, d, period):
    code, out, _ = run_cli(capsys, "disc", "--range", f"{d}..{d}", "--budget", str(period))
    assert code == 0 and out.startswith(f"d={d} ")
    # d - 1 fits the budget, yet nothing is printed when d does not
    code, out, err = run_cli(capsys, "disc", "--range", f"{d - 1}..{d}", "--budget", str(period - 1))
    assert code == 3 and out == ""
    assert f"sqrt({d}) runs past the budget of {period - 1} PQa steps" in err


def _run_with_peak_rss(argv: list[str]) -> tuple[subprocess.CompletedProcess, int]:
    """`main(argv)` in a child with 1 GB of address space: the process and
    the child's peak RSS in kB, which it prints after `main` returns.  The
    peak is read as VmHWM: RUSAGE_SELF keeps the high-water mark of the
    pytest process it was forked from across the exec."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from quadring.cli import main\n"
        f"code = main({argv!r})\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
    return proc, int(proc.stdout.splitlines()[-1])


def test_disc_default_budget_stops_a_huge_discriminant():
    # d = 1000000007^2 - 24, about 10^18: a period of up to about
    # sqrt(d) log d steps, which the default budget of 2,000,000 cuts short
    # in time (the walk fills 1 GB in seconds without a bound).  The walk
    # keeps nothing per step, so the peak RSS stays flat
    proc, peak = _run_with_peak_rss(["disc", "--ns", "1000000007,3"])
    assert proc.returncode == 3
    assert "sqrt(1000000014000000025) runs past the budget of 2000000 PQa steps" in proc.stderr
    assert peak < 40 * 1024  # kB


def test_count_stops_the_regularity_scan_at_its_first_violation(tmp_path):
    # the golden net times 7 vanishes mod 7: every fiber over P^2(F_7) is
    # the zero quadric, and every point of X = P^5(F_7) lies in every
    # radical, 57 x 19,608 pairs.  `count` reads only whether there is one,
    # so the peak RSS stays flat (the whole list peaked above 400 MB)
    doc = json.loads((GOLDEN / "net.json").read_text())
    doc["matrices"] = [[7 * x for x in mat] for mat in doc["matrices"]]
    path = tmp_path / "net7.json"
    path.write_text(json.dumps(doc))
    proc, peak = _run_with_peak_rss(["count", "--net", str(path), "--primes", "7"])
    assert proc.returncode == 1
    assert "p=7 SKIPPED (zero fiber (not flat); fiber of corank >= 2; rational regularity violation)" in proc.stdout
    assert peak < 100 * 1024  # kB


@pytest.mark.parametrize(
    "argv, message",
    [
        (["disc", "--ns", "1,x"], "bad --ns '1,x'"),
        (["count", "--net", str(GOLDEN / "net.json"), "--point", "1,x,0,0,0,0"], "bad --point '1,x,0,0,0,0'"),
        # the message of `count`, not "basis vectors are linearly dependent"
        (["reduce", "--net", str(GOLDEN / "net.json"), "--point", "0,0,0,0,0,0"], "error: the zero vector is not a point"),
    ],
    ids=["disc-ns", "count-point", "reduce-zero-point"],
)
def test_malformed_points_name_the_input(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_random_then_count_pipeline(capsys, tmp_path):
    path = tmp_path / "net.json"
    code, out, _ = run_cli(
        capsys,
        "random", "--n", "4", "--m", "2", "--primes", "3,5", "--seed", "42",
        "--out", str(path),
    )
    assert code == 0
    net, point = QuadricNet.from_document(json.loads(path.read_text()))
    assert point is not None
    code, out, _ = run_cli(
        capsys, "count", "--net", str(path), "--primes", "3,5"
    )
    assert code == 0
    assert "all residuals zero" in out


def test_random_budget_exhaustion(capsys):
    # seed 1 needs 29 attempts on the acceptance primes, so one attempt fails
    code, _, err = run_cli(
        capsys,
        "random", "--n", "4", "--m", "2", "--seed", "1", "--attempts", "1",
    )
    assert code == 3


@pytest.mark.parametrize("attempts", ["0", "-2"])
def test_random_rejects_nonpositive_attempts(capsys, attempts):
    code, out, err = run_cli(
        capsys, "random", "--n", "4", "--m", "2", "--seed", "1", "--attempts", attempts
    )
    assert code == 2 and out == ""
    assert "attempts must be at least 1" in err


def test_random_deterministic_output(capsys):
    _, out1, _ = run_cli(
        capsys,
        "random", "--n", "2", "--m", "1", "--primes", "5,7", "--seed", "9",
        "--format", "json",
    )
    _, out2, _ = run_cli(
        capsys,
        "random", "--n", "2", "--m", "1", "--primes", "5,7", "--seed", "9",
        "--format", "json",
    )
    assert out1 == out2


def test_reduce_pipeline(capsys, pencil_file, tmp_path):
    out_path = tmp_path / "reduced.json"
    code, out, _ = run_cli(
        capsys,
        "reduce", "--net", str(pencil_file), "--primes", "5,7",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["format_version"] == 1
    assert doc["k"] == 0 and doc["m"] == 1
    # the reduced count and both double-cover counts agree on every line
    for line in out.splitlines():
        if line.startswith("p="):
            values = dict(kv.split("=") for kv in line.split())
            assert (
                values["reduced_count"]
                == values["double_cover_net"]
                == values["double_cover_reduced"]
            )


def test_reduce_requires_point(capsys, tmp_path):
    net = QuadricNet(
        n=2,
        m=1,
        matrices=(diagonal_gram([1, 1, 1, 1]), diagonal_gram([0, 1, 2, 3])),
    )
    path = tmp_path / "nopoint.json"
    path.write_text(json.dumps(net.to_document()))
    code, _, err = run_cli(capsys, "reduce", "--net", str(path))
    assert code == 2
    assert "point" in err


def test_reduce_degenerate_section_exits_two(capsys, tmp_path):
    # the pencil of test_degenerate_section_raises: e0 lies in the radical of
    # the fiber over (1:0), so the section through it degenerates there
    rows1 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rows2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    net = QuadricNet(n=2, m=1, matrices=(GramMatrix.from_rows(rows1), GramMatrix.from_rows(rows2)))
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(net.to_document()))
    code, out, err = run_cli(capsys, "reduce", "--net", str(path), "--point", "1,0,0,0", "--primes", "5")
    assert code == 2
    assert out == ""
    assert err == "error: section degenerates over base point (1, 0) at p=5\n"


@pytest.mark.parametrize("command", ["count", "reduce"])
@pytest.mark.parametrize("version", [99, True, "1"])
def test_net_with_unknown_format_version_exits_two(capsys, tmp_path, command, version):
    doc = json.loads((GOLDEN / "net.json").read_text())
    doc["format_version"] = version
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--net", str(path), "--primes", "3")
    assert code == 2 and out == ""
    assert "format_version" in err


def test_net_without_format_version_is_accepted(capsys, tmp_path):
    doc = json.loads((GOLDEN / "net.json").read_text())
    del doc["format_version"]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "count", "--net", str(path), "--primes", "3,5,7,11,13", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "count.stdout").read_text(encoding="utf-8")


# JSON values of every kind a net document must reject where it wants an
# integer, a list of integers or a list of matrices
_JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.floats(),
        st.text(max_size=2),
        st.integers(-3, 40),
        st.integers(-(2**80), 2**80),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _malformed_net_documents(draw) -> dict:
    """A valid net of shape (2, 1) or (4, 2) through e0, with entries in
    [-3, 3], then up to three edits: a key dropped or replaced by junk, one
    matrix entry, one matrix or the point replaced by junk, or a list cut
    short.  Every list stays short, so a document that still parses is a
    net with m <= 3 and n <= 4 and its counts at p = 3 are instant."""
    n, m = draw(st.sampled_from([(2, 1), (4, 2)]))
    size = n + 2
    mats = []
    for _ in range(m + 1):
        upper = draw(st.lists(st.integers(-3, 3), min_size=size * size, max_size=size * size))
        mats.append([0 if i == j == 0 else upper[min(i, j) * size + max(i, j)] for i in range(size) for j in range(size)])
    doc = {"format_version": 1, "n": n, "m": m, "matrices": mats, "point": [1] + [0] * (size - 1)}
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "key", "entry", "matrix", "point", "cut"]))
        key = draw(st.sampled_from(sorted(doc)))
        if edit == "drop":
            del doc[key]
        elif edit == "key":
            doc[key] = draw(_JUNK)
        elif edit == "entry" and isinstance(doc.get("matrices"), list) and doc["matrices"]:
            mat = draw(st.sampled_from(doc["matrices"]))
            if isinstance(mat, list) and mat:
                mat[draw(st.integers(0, len(mat) - 1))] = draw(_JUNK)
        elif edit == "matrix" and isinstance(doc.get("matrices"), list) and doc["matrices"]:
            doc["matrices"][draw(st.integers(0, len(doc["matrices"]) - 1))] = draw(_JUNK)
        elif edit == "point":
            doc["point"] = draw(_JUNK)
        elif edit == "cut" and isinstance(doc[key], list) and doc[key]:
            doc[key] = doc[key][: draw(st.integers(0, len(doc[key]) - 1))]
    return doc


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "net.json"


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(doc=_malformed_net_documents())
def test_malformed_net_documents_exit_with_a_code(fuzz_path, doc):
    # bounded by the documents' size and p = 3, not by a clock
    fuzz_path.write_text(json.dumps(doc))
    for command in ("count", "reduce"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--net", str(fuzz_path), "--primes", "3"])
        assert code in (0, 1, 2, 3)
        assert code in (0, 1) or out.getvalue() == ""


def _golden_form(command: str) -> dict:
    return json.loads((GOLDEN / f"{command}_form.json").read_text())


def _cubic_with_term(exps: object, coefficient: object = 1) -> dict:
    doc = _golden_form("cubic")
    doc["terms"][0] = [exps, coefficient]
    return doc


# the edits inside a document first: hypothesis draws early entries more
# often, and a (2,2) form has one key, so its entries are edited as often
# as the rest
_FORM_EDITS = {
    "cubic": ["item", "exponents", "exponent", "coefficient", "drop", "key", "cut"],
    "verra": ["item", "item", "item", "drop", "key", "cut"],
}


@st.composite
def _malformed_form_documents(draw) -> tuple[str, object]:
    """Junk in place of a document one time in ten; else the golden cubic or
    (2,2) form, then one to three edits: a key dropped or replaced by junk,
    one term, exponent list, exponent, coefficient or tensor entry replaced
    by junk, or a list cut short.  A document that still parses is a form
    on six variables, so its counts at p = 3 are instant."""
    command = draw(st.sampled_from(["cubic", "verra"]))
    if draw(st.integers(0, 9)) == 9:
        return command, draw(_JUNK)
    doc = _golden_form(command)
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        edit = draw(st.sampled_from(_FORM_EDITS[command]))
        key = draw(st.sampled_from(sorted(doc)))
        items = doc.get("terms", doc.get("tensor"))
        term = draw(st.sampled_from(items)) if isinstance(items, list) and items else None
        if edit == "drop":
            del doc[key]
        elif edit == "key":
            doc[key] = draw(_JUNK)
        elif edit == "item" and term is not None:
            items[draw(st.integers(0, len(items) - 1))] = draw(_JUNK)
        elif edit == "exponents" and isinstance(term, list) and term:
            term[0] = draw(_JUNK)
        elif edit == "exponent" and isinstance(term, list) and term and isinstance(term[0], list) and term[0]:
            term[0][draw(st.integers(0, len(term[0]) - 1))] = draw(_JUNK)
        elif edit == "coefficient" and isinstance(term, list) and len(term) > 1:
            term[1] = draw(_JUNK)
        elif edit == "cut" and isinstance(doc[key], list) and doc[key]:
            doc[key] = doc[key][: draw(st.integers(0, len(doc[key]) - 1))]
    return command, doc


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(case=_malformed_form_documents())
@example(case=("cubic", _cubic_with_term("2")))
@example(case=("cubic", _cubic_with_term([[1, 1], 1, 0, 0, 0, 0])))
@example(case=("cubic", _cubic_with_term(None)))
@example(case=("cubic", _cubic_with_term([4, -1, 0, 0, 0, 0])))
@example(case=("cubic", _cubic_with_term([1, 1, 1, 0, 0, 0], 2**200)))
@example(case=("cubic", {**_golden_form("cubic"), "num_vars": 5}))
@example(case=("cubic", {**_golden_form("cubic"), "degree": 4}))
@example(case=("cubic", {**_golden_form("cubic"), "terms": None}))
@example(case=("cubic", [1, 2, 3]))
@example(case=("verra", {"tensor": _golden_form("verra")["tensor"][:80]}))
@example(case=("verra", {"tensor": ["1"] * 81}))
@example(case=("verra", {"tensor": [2**200] * 81}))
@example(case=("verra", {"tensor": [[0]] * 81}))
@example(case=("verra", "tensor"))
def test_malformed_form_documents_exit_with_a_code(fuzz_path, case):
    # bounded by the forms' six variables and p = 3, not by a clock
    command, doc = case
    fuzz_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--form", str(fuzz_path), "--primes", "3"])
    assert code in (0, 1, 2, 3)
    assert code in (0, 1) or out.getvalue() == ""


def test_cubic_command(capsys, tmp_path):
    from quadring.netfib import random_cubic_with_plane

    cubic = random_cubic_with_plane([5, 7], seed=1)
    doc = {
        "format_version": 1,
        "num_vars": 6,
        "degree": 3,
        "terms": [[list(e), c] for e, c in sorted(cubic.terms.items())],
    }
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "cubic", "--form", str(path), "--primes", "5,7"
    )
    assert code == 0
    assert "residual=0" in out


def test_cubic_leaves_primes_singular_along_the_plane_out_of_ok(capsys, tmp_path):
    # the x0^2 coefficients 5 make the cubic singular at (1:0:0) mod 5 only:
    # p = 5 is flagged (residual -25) and left out, p = 7 checks clean
    cubic = plane_cubic(seed=4, x0_squared=5)
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(
        {"num_vars": 6, "degree": 3, "terms": [[list(e), c] for e, c in cubic.terms.items()]}
    ))
    code, out, _ = run_cli(capsys, "cubic", "--form", str(path), "--primes", "5,7")
    assert code == 0
    assert "p=5 X=" in out and "residual=-25 singular-on-plane\n" in out
    assert "residual=0\n" in out
    code, out, _ = run_cli(capsys, "cubic", "--form", str(path), "--primes", "5")
    assert code == 1
    assert "FAILED" in out


def test_verra_command(capsys, tmp_path):
    from quadring.netfib import random_verra_form

    form = random_verra_form([3, 5], seed=1)
    tensor = [0] * 81
    for exps, c in form.terms.items():
        s_idx = [i for i in range(3) for _ in range(exps[i])]
        t_idx = [k for k in range(3) for _ in range(exps[3 + k])]
        i, j = s_idx
        k, l = t_idx
        tensor[((i * 3 + j) * 3 + k) * 3 + l] += c
    path = tmp_path / "verra.json"
    path.write_text(json.dumps({"format_version": 1, "tensor": tensor}))
    code, out, _ = run_cli(
        capsys, "verra", "--form", str(path), "--primes", "3,5"
    )
    assert code == 0
    assert "dY=0" in out


def test_verra_leaves_primes_with_a_corank_2_fiber_out_of_ok(capsys, tmp_path):
    # s0^2 t0^2 + s1^2 t1^2: both fibrations have a fiber of corank 2 at
    # p = 3 and 5, so both primes are skipped and nothing is left to pass
    tensor = [0] * 81
    tensor[0] = tensor[40] = 1
    path = tmp_path / "verra.json"
    path.write_text(json.dumps({"tensor": tensor}))
    code, out, _ = run_cli(capsys, "verra", "--form", str(path), "--primes", "3,5")
    assert code == 1
    assert out.splitlines()[0] == "p=3 X=223 Y1=13 Y2=13 r1=54 r2=54 dY=0 flags=corank2-first,corank2-second"
    assert out.endswith("RESULT: FAILED\n")
    code, out, _ = run_cli(capsys, "verra", "--form", str(path), "--primes", "3,5", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert [r["residuals"]["first"] for r in doc["reports"]] == [54, 250]


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--net", str(GOLDEN / "net.json")],
        ["random", "--n", "2", "--m", "1", "--seed", "1", "--primes", "3,5"],
    ],
    ids=["reduce", "random"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_out_path_that_cannot_be_written_exits_two(capsys, tmp_path, argv, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize(
    "argv,stdout_start",
    [
        (["groth", "--derive", "all"], "identity: theorem-main\n"),
        (["disc", "--ns", "3,-2"], "d=25 nontrivially-L-equivalent brauer_vanishes=true\n"),
    ],
    ids=["groth", "disc"],
)
def test_entry_point_runs_groth_and_disc_without_numpy(argv, stdout_start):
    # `python -m quadring` as a user runs it; -X importtime lists on stderr
    # every module the process imports, so numpy must never appear there.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "quadring", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(stdout_start)
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "quadring.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def _numpy_blas_name() -> str:
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # a numpy without the build-config dict
        return ""


@pytest.mark.skipif(
    not Path("/proc/self/status").exists()
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="reads the thread count from /proc, and needs a second usable CPU for BLAS to claim",
)
@pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")], ids=["unset", "user-set"])
def test_count_starts_no_blas_thread_unless_the_user_asks(preset, threads):
    # numpy's OpenBLAS starts a worker thread per core when numpy loads;
    # main() caps it at one before any handler imports numpy, and a value
    # the user set wins.  The child gets the variable removed or set
    # explicitly, since the in-process main() calls of this suite leave it
    # set here.
    if "openblas" not in _numpy_blas_name().lower():
        pytest.skip("counts the threads OpenBLAS starts when numpy loads; this numpy has another BLAS")
    child = (
        "import contextlib, io, os, sys\n"
        "from quadring.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['count', '--net', sys.argv[1], '--primes', '3'])\n"
        "threads = next(line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:'))\n"
        "print(code, threads, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", child, str(GOLDEN / "net.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", threads, preset or "1"]
