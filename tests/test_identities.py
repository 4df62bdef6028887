"""The residuals that `count`, `cubic` and `verra` report are the grothring
identities read at L = p: they equal the hand-written formulas on arbitrary
counts, and a mutated grothring rule makes both `groth` and `count` fail."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadring import grothring
from quadring.cli import load_cubic_form, load_verra_form, main
from quadring.gfp import PrimeField
from quadring.netfib import QuadricNet, RegularityReport, SUPPORTED_SHAPES, cubic_with_plane_counts, verra_counts
from quadring.netfib import recipes, relations

from _util import diagonal_gram, hand_count_residuals, hand_cubic_residual, hand_verra_residuals

GOLDEN = Path(__file__).parent / "data" / "golden"
COUNTS = st.integers(0, 10**12)
RULE_BLOWUP = grothring.rule_blowup


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(SUPPORTED_SHAPES),
    p=st.sampled_from([3, 5, 7, 23, 101, 211, 1009]),
    x=COUNTS,
    q=COUNTS,
    y=COUNTS,
    qbar=st.none() | COUNTS,
)
def test_count_residuals_are_the_hand_formulas_on_any_counts(shape, p, x, q, y, qbar):
    # every count of one report is replaced, so the residuals see arbitrary
    # values; no point means no reduced family and no Qbar
    n, m = shape
    net = QuadricNet(n=n, m=m, matrices=(diagonal_gram([1] * (n + 2)),) * (m + 1))
    regular = RegularityReport(p=p, regular=True, corank2_found=False, flat=True, corank_histogram={0: 1})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "regularity_check", lambda *a, **k: regular)
        mp.setattr(relations, "lines_through_point", lambda *a, **k: [])
        mp.setattr(relations, "points_on_X", lambda *a, **k: range(x))
        mp.setattr(relations, "count_total_space", lambda *a: q)
        mp.setattr(relations, "count_double_cover", lambda *a: y)
        mp.setattr(relations, "count_reduced_family", lambda *a: qbar)
        point = None if qbar is None else (1,) + (0,) * (n + 1)
        rep = relations._report_for_prime(net, point, None, PrimeField(p), 1, 1)
    assert (rep.x_count, rep.q_count, rep.qbar_count, rep.y_count) == (x, q, qbar, y)
    assert rep.residuals == hand_count_residuals(n, m, p, x, q, qbar, y)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(p=st.sampled_from([3, 5, 7, 11]), x=COUNTS, y=COUNTS)
def test_cubic_residual_is_the_hand_formula_on_any_counts(p, x, y):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recipes, "_cubic_x_count", lambda *a: x)
        mp.setattr(recipes, "_double_cover_count", lambda *a: (y, False))
        (rep,) = cubic_with_plane_counts(load_cubic_form(str(GOLDEN / "cubic_form.json")), [p])
    assert rep.residual == hand_cubic_residual(p, x, y)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(p=st.sampled_from([3, 5, 7, 11]), x=COUNTS, y1=COUNTS, y2=COUNTS)
def test_verra_residuals_are_the_hand_formulas_on_any_counts(p, x, y1, y2):
    covers = iter([(y1, False), (y2, False)])  # the first factor is counted first
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recipes, "_verra_x_count", lambda *a: x)
        mp.setattr(recipes, "_double_cover_count", lambda *a: next(covers))
        (rep,) = verra_counts(load_verra_form(str(GOLDEN / "verra_form.json")), [p])
    assert (rep.residual_first, rep.residual_second, rep.y_difference) == hand_verra_residuals(p, x, y1, y2)


def _blowup_with_correction_times_l(ambient, center, codim):
    """rule_blowup with its correction multiplied by L: L^2 instead of L for
    the codimension-2 centers of every derivation."""
    return ambient + (RULE_BLOWUP(ambient, center, codim) - ambient) * grothring.L


def test_a_mutated_blowup_rule_fails_both_groth_and_count(capsys, monkeypatch):
    monkeypatch.setattr(grothring, "rule_blowup", _blowup_with_correction_times_l)
    assert main(["groth", "--derive", "theorem-main"]) == 1
    capsys.readouterr()
    argv = ["count", "--net", str(GOLDEN / "net.json"), "--primes", "3,5,7", "--format", "json"]
    assert main(argv) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["p"] for r in reports if not r["skipped"]] == [3, 5, 7]
    for r in reports:
        p, x = r["p"], r["counts"]["X"]
        # route A gains [X](L^2 - L) + L^4 - L^2 under the mutation
        r2 = -(x * (p**2 - p) + p**4 - p**2)
        assert r["residuals"] == {"R1": 0, "R2": r2, "R3": 0, "R4": 0}
