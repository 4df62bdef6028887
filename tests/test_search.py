import pytest

from quadring.errors import BudgetExceededError, InputError
from quadring.gfp import PrimeField
from quadring.netfib import search
from quadring.netfib import (
    lines_through_point,
    random_net_search,
    regularity_check,
)


def test_search_is_deterministic():
    a = random_net_search(2, 1, (5, 7), seed=123)
    b = random_net_search(2, 1, (5, 7), seed=123)
    assert a.net == b.net and a.point == b.point and a.attempts == b.attempts


def test_accepted_net_passes_gates(accepted_net):
    net, point = accepted_net.net, accepted_net.point
    assert all(mat.q(point) == 0 for mat in net.matrices)  # on X over Z
    for p in (3, 5, 7, 11, 13):
        field = PrimeField(p)
        report = regularity_check(net, field)
        assert report.regular and report.flat and not report.corank2_found
        assert lines_through_point(net, point, field) == []


def test_accepted_pencil_passes_gates(accepted_pencil):
    net, point = accepted_pencil.net, accepted_pencil.point
    for p in (3, 5, 7, 11, 13):
        field = PrimeField(p)
        report = regularity_check(net, field)
        assert report.regular and report.flat and not report.corank2_found


def test_impossible_constraints_exhaust_budget(monkeypatch):
    monkeypatch.setattr(search, "_net_acceptable", lambda net, point, primes: False)
    with pytest.raises(BudgetExceededError):
        random_net_search(4, 2, (5,), seed=0, max_attempts=25)


def test_search_rejects_bad_shape():
    with pytest.raises(InputError):
        random_net_search(3, 2, (5,), seed=0)
    with pytest.raises(InputError):
        random_net_search(4, 2, (5,), seed=0, entry_bound=0)
