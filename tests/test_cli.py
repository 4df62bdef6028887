import json
from pathlib import Path

import pytest

from quadring.cli import main
from quadring.netfib import QuadricNet
from quadring.quadform import GramMatrix

from _util import plane_cubic


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
        matrices=(GramMatrix.diagonal([1, 1, 1, 1]), GramMatrix.diagonal([0, 1, 2, 3])),
    )
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(net.to_document()))
    code, out, _ = run_cli(capsys, "count", "--net", str(path), "--primes", "3,5,7")
    assert code == 0
    assert "p=3 SKIPPED" in out
    assert "R1=0 R3=0 R4=0" in out


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
    # P^4(F_1000003), the space the X scan walks, is far over the default
    # budget; the regularity walk over its 10^12 base points must never start
    from quadring.netfib import relations

    def no_walk(net, field):
        raise AssertionError("regularity_check ran before the budget check")

    monkeypatch.setattr(relations, "regularity_check", no_walk)
    code, out, err = run_cli(
        capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "3,1000003"
    )
    assert code == 3 and out == ""
    size = (1000003**5 - 1) // 1000002
    assert f"P^4(F_1000003), which has {size} points, over the budget of 2000000" in err


def test_count_default_budget_reaches_37(capsys):
    # the X scan walks P^4: #P^4(F_37) = 1,926,221 fits the default budget
    # of 2,000,000, and #P^4(F_41) = 2,896,405 does not
    code, out, _ = run_cli(capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "37", "--format", "json")
    (report,) = json.loads(out)["reports"]
    assert code == 0 and not report["skipped"]
    assert set(report["residuals"].values()) == {0}
    code, out, err = run_cli(capsys, "count", "--net", str(GOLDEN / "net.json"), "--primes", "41")
    assert code == 3 and out == ""
    assert "P^4(F_41), which has 2896405 points, over the budget of 2000000" in err


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
        matrices=(GramMatrix.diagonal([1, 1, 1, 1]), GramMatrix.diagonal([0, 1, 2, 3])),
    )
    path = tmp_path / "nopoint.json"
    path.write_text(json.dumps(net.to_document()))
    code, _, err = run_cli(capsys, "reduce", "--net", str(path))
    assert code == 2
    assert "point" in err


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
