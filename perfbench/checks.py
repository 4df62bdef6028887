"""Output checks of every workload.

Each check can fail.  Identities that hold for any seed are always checked;
for the seed recorded in reference.json the counts are also compared with
the values frozen from the seed commit.  Each prime report, each
fiber-sweep prime, each recipe prime, each discriminant verdict and each
derivation is one check; document-level conditions (exit code, `ok`) and
byte-identity of repeated outputs are one check each.
"""

from __future__ import annotations

import json

CLASS_CODES = {"isomorphic": "I", "nontrivially-L-equivalent": "N", "brauer-obstructed": "O"}


def pi(d: int, p: int) -> int:
    """#P^d(F_p)."""
    return (p ** (d + 1) - 1) // (p - 1)


class Tally:
    """Attempted and failed checks, with the first failure messages."""

    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(message)
        return ok

    def fail_all(self, count: int, message: str) -> None:
        for _ in range(count):
            self.check(False, message)


def _parse(tally: Tally, what: str, stdout: bytes, checks: int) -> dict | None:
    """The JSON document a command printed, or None after failing the
    document check and all `checks` per-item checks."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        tally.fail_all(checks + 1, f"{what}: output is not a JSON document")
        return None
    return doc


def count_residuals(p: int, x: int, q: int, qbar: int, y: int) -> dict[str, int]:
    """R1..R4 of a (4,2) net, recomputed from the counts."""
    return {
        "R1": q - (pi(5, p) * pi(1, p) + x * p**2),
        "R2": qbar - (pi(4, p) + p**2 + x * p),
        "R3": qbar - (pi(2, p) * (1 + p**2) + y * p),
        "R4": x - y,
    }


def check_count(tally: Tally, stdout: bytes, code: int, primes: list[int], ref: dict | None) -> None:
    doc = _parse(tally, "count", stdout, len(primes))
    if doc is None:
        return
    reports = doc.get("reports", [])
    tally.check(
        code == 0 and doc.get("ok") is True and doc.get("primes") == primes and len(reports) == len(primes),
        f"count: exit code {code}, ok={doc.get('ok')}, primes={doc.get('primes')}, {len(reports)} reports",
    )
    by_prime = {r.get("p"): r for r in reports}
    for p in primes:
        r = by_prime.get(p)
        if r is None or r.get("skipped"):
            tally.check(False, f"count p={p}: missing or skipped")
            continue
        c = r["counts"]
        ok = all(isinstance(c.get(k), int) for k in ("X", "Q", "Qbar", "Y"))
        if ok:
            expected = count_residuals(p, c["X"], c["Q"], c["Qbar"], c["Y"])
            ok = r["residuals"] == expected and all(v == 0 for v in expected.values())
            flags = r["flags"]
            ok = ok and flags["flat"] and not (
                flags["corank2_found"] or flags["regularity_violation"] or flags["line_through_point_found"]
            )
        if ok and ref is not None:
            frozen = ref["count"][str(p)]
            ok = c == frozen["counts"] and r["residuals"] == frozen["residuals"]
        tally.check(ok, f"count p={p}: counts {c} residuals {r.get('residuals')}")


def check_sweep(tally: Tally, reports: list[dict], primes: list[int], ref: dict | None) -> None:
    """Set-up picked primes where the regularity scan passes, so a skipped
    prime fails like a wrong count."""
    by_prime = {r["p"]: r for r in reports}
    for p in primes:
        r = by_prime.get(p)
        if r is None or r["skipped"]:
            tally.check(False, f"sweep p={p}: missing or skipped")
            continue
        q, qbar, y = r["Q"], r["Qbar"], r["Y"]
        ok = (
            q == pi(5, p) * pi(1, p) + y * p**2
            and qbar == pi(2, p) * (1 + p**2) + y * p
            and y == r["Y_reduced"]
        )
        if ref is not None:
            ok = ok and r == ref["sweep"].get(str(p))
        tally.check(ok, f"sweep p={p}: {r}")


def check_cubic(tally: Tally, stdout: bytes, code: int, primes: list[int], ref: dict | None) -> None:
    doc = _parse(tally, "cubic", stdout, len(primes))
    if doc is None:
        return
    reports = doc.get("reports", [])
    tally.check(
        code == 0 and doc.get("ok") is True and len(reports) == len(primes),
        f"cubic: exit code {code}, ok={doc.get('ok')}, {len(reports)} reports",
    )
    for p, r in zip(primes, reports):
        x, y = r["counts"]["X"], r["counts"]["Y"]
        ok = (
            r["p"] == p
            and r["residual"] == x - (1 + p**2 + p**4 + p * y) == 0
            and not r["flags"]["corank2_found"]
        )
        if ref is not None:
            ok = ok and r["counts"] == ref["cubic"][str(p)]
        tally.check(ok, f"cubic p={p}: counts {r['counts']} residual {r['residual']} flags {r['flags']}")


def check_verra(tally: Tally, stdout: bytes, code: int, primes: list[int], ref: dict | None) -> None:
    doc = _parse(tally, "verra", stdout, len(primes))
    if doc is None:
        return
    reports = doc.get("reports", [])
    tally.check(
        code == 0 and doc.get("ok") is True and len(reports) == len(primes),
        f"verra: exit code {code}, ok={doc.get('ok')}, {len(reports)} reports",
    )
    for p, r in zip(primes, reports):
        c, res = r["counts"], r["residuals"]
        base = (p**2 + 1) * pi(2, p)
        ok = (
            r["p"] == p
            and res["first"] == c["X"] - (base + p * c["Y1"]) == 0
            and res["second"] == c["X"] - (base + p * c["Y2"]) == 0
            and res["y_difference"] == c["Y1"] - c["Y2"] == 0
            and not (r["flags"]["corank2_first"] or r["flags"]["corank2_second"])
        )
        if ref is not None:
            ok = ok and c == ref["verra"][str(p)]
        tally.check(ok, f"verra p={p}: {r}")


def check_disc(tally: Tally, stdout: bytes, code: int, lo: int, hi: int, ref: dict) -> None:
    """Every witness must satisfy a^2 - d*b^2 = rhs with rhs = +-8, and every
    verdict must match the frozen classification of its d (these do not
    depend on the seed)."""
    doc = _parse(tally, "disc", stdout, hi - lo + 1)
    if doc is None:
        return
    verdicts = doc.get("verdicts", [])
    tally.check(code == 0 and len(verdicts) == hi - lo + 1, f"disc: exit code {code}, {len(verdicts)} verdicts")
    frozen = ref["disc"]["classes"]
    for d, v in zip(range(lo, hi + 1), verdicts):
        sol = v["solution"]
        ok = v["d"] == d and v["brauer_vanishes"] == (d % 8 == 1)
        if sol is not None:
            a, b, rhs = sol
            ok = ok and rhs in (8, -8) and a * a - d * b * b == rhs
            ok = ok and v["classification"] == "isomorphic"
        else:
            ok = ok and v["classification"] == (
                "nontrivially-L-equivalent" if d % 8 == 1 else "brauer-obstructed"
            )
        ok = ok and CLASS_CODES.get(v["classification"]) == frozen[d - 1]
        tally.check(ok, f"disc d={d}: {v}")


def check_groth(tally: Tally, stdout: bytes, code: int, ref: dict) -> None:
    names = ref["groth"]
    doc = _parse(tally, "groth", stdout, len(names))
    if doc is None:
        return
    derivations = doc.get("derivations", [])
    tally.check(
        code == 0 and [d.get("name") for d in derivations] == names,
        f"groth: exit code {code}, derivations {[d.get('name') for d in derivations]}",
    )
    for d in derivations:
        tally.check(
            d.get("consistent") is True and d.get("residual") == d.get("statement"),
            f"groth {d.get('name')}: residual {d.get('residual')} statement {d.get('statement')}",
        )
