"""Self-test of the benchmark's checks: correct outputs pass, and each
tampered output is caught.

    python3 perfbench/selftest.py

It needs no quadring run: the correct outputs are rebuilt from the frozen
seed-42 values in reference.json.  It also checks that BENCHMARK.json names
the workloads and metrics run.py reports, and the self-time arithmetic.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checks
import child
import run
import tracing

FLAGS_OK = {"corank2_found": False, "regularity_violation": False, "line_through_point_found": False, "flat": True}


def count_doc(ref: dict) -> dict:
    reports = [
        {"p": p, "skipped": False, "flags": dict(FLAGS_OK), **copy.deepcopy(ref["count"][str(p)])}
        for p in run.NET_PRIMES
    ]
    return {"ok": True, "primes": list(run.NET_PRIMES), "reports": reports}


def cubic_doc(ref: dict) -> dict:
    reports = []
    for p in run.CUBIC_PRIMES:
        c = ref["cubic"][str(p)]
        residual = c["X"] - (1 + p**2 + p**4 + p * c["Y"])
        reports.append({"p": p, "counts": dict(c), "residual": residual, "flags": {"corank2_found": False}})
    return {"ok": True, "reports": reports}


def verra_doc(ref: dict) -> dict:
    reports = []
    for p in run.VERRA_PRIMES:
        c = ref["verra"][str(p)]
        base = (p**2 + 1) * checks.pi(2, p)
        reports.append({
            "p": p,
            "counts": dict(c),
            "residuals": {
                "first": c["X"] - (base + p * c["Y1"]),
                "second": c["X"] - (base + p * c["Y2"]),
                "y_difference": c["Y1"] - c["Y2"],
            },
            "flags": {"corank2_first": False, "corank2_second": False},
        })
    return {"ok": True, "reports": reports}


# d = 1, 2, 3 with their witnesses a^2 - d*b^2 = rhs.
DISC_DOC = {"verdicts": [
    {"d": 1, "brauer_vanishes": True, "solution": [3, 1, 8], "classification": "isomorphic"},
    {"d": 2, "brauer_vanishes": False, "solution": [4, 2, 8], "classification": "isomorphic"},
    {"d": 3, "brauer_vanishes": False, "solution": [2, 2, -8], "classification": "isomorphic"},
]}


def groth_doc(ref: dict) -> dict:
    return {"derivations": [
        {"name": name, "consistent": True, "residual": "([X] - [Y])*L", "statement": "([X] - [Y])*L"}
        for name in ref["groth"]
    ]}


def failures(fn, doc, *args) -> int:
    tally = checks.Tally()
    fn(tally, json.dumps(doc).encode(), 0, *args)
    return tally.failed


def main() -> int:
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    primes = list(run.NET_PRIMES)
    cases: list[tuple[str, bool]] = []

    def expect(name: str, ok: bool) -> None:
        cases.append((name, ok))

    # count: the untampered document passes; one count off by one fails.
    doc = count_doc(ref)
    expect("count passes", failures(checks.check_count, doc, primes, ref) == 0)
    bad = count_doc(ref)
    bad["reports"][-1]["counts"]["X"] += 1
    expect("count X+1 caught", failures(checks.check_count, bad, primes, ref) == 1)
    # X and Y moved together with Q and Qbar keep every residual at zero:
    # only the frozen reference catches that.
    bad = count_doc(ref)
    r = bad["reports"][0]
    p = r["p"]
    r["counts"]["X"] += 1
    r["counts"]["Y"] += 1
    r["counts"]["Q"] += p**2
    r["counts"]["Qbar"] += p
    expect("residual-preserving tamper passes identities", failures(checks.check_count, bad, primes, None) == 0)
    expect("residual-preserving tamper caught by reference", failures(checks.check_count, bad, primes, ref) == 1)
    tally = checks.Tally()
    checks.check_count(tally, json.dumps(doc).encode(), 1, primes, ref)
    expect("count exit code 1 caught", tally.failed == 1)
    tally = checks.Tally()
    checks.check_count(tally, b"Traceback", 1, primes, ref)
    expect("count without JSON caught", tally.failed == len(primes) + 1)

    # fiber-sweep
    sweep_primes = list(child.SWEEP_TARGETS)
    reports = [dict(ref["sweep"][str(p)]) for p in sweep_primes]
    tally = checks.Tally()
    checks.check_sweep(tally, reports, sweep_primes, ref)
    expect("sweep passes", tally.failed == 0 and tally.attempted == len(sweep_primes))
    reports[1]["Y_reduced"] += 1
    tally = checks.Tally()
    checks.check_sweep(tally, reports, sweep_primes, None)
    expect("sweep Y(reduced)+1 caught", tally.failed == 1)
    tally = checks.Tally()
    checks.check_sweep(tally, [reports[0], {"p": sweep_primes[1], "skipped": True}], sweep_primes, None)
    expect("sweep skipped prime caught", tally.failed == 1)

    # recipes
    cubic_primes, verra_primes = list(run.CUBIC_PRIMES), list(run.VERRA_PRIMES)
    expect("cubic passes", failures(checks.check_cubic, cubic_doc(ref), cubic_primes, ref) == 0)
    bad = cubic_doc(ref)
    bad["reports"][0]["counts"]["Y"] += 1
    expect("cubic Y+1 caught", failures(checks.check_cubic, bad, cubic_primes, ref) == 1)
    expect("verra passes", failures(checks.check_verra, verra_doc(ref), verra_primes, ref) == 0)
    bad = verra_doc(ref)
    bad["reports"][2]["counts"]["Y2"] += 1
    expect("verra Y2+1 caught", failures(checks.check_verra, bad, verra_primes, None) == 1)

    # set-up's cubic gate: x3*y0^2 + x4*y1^2 + x5*y2^2 is smooth along the
    # plane; x3*y0*y1 + x4*y0*y2 + x5*y1*y2 is singular at its three
    # coordinate points, and these are all the points the gate finds.
    class Form:
        def __init__(self, terms: dict) -> None:
            self.terms = terms

    smooth = Form({(2, 0, 0, 1, 0, 0): 1, (0, 2, 0, 0, 1, 0): 1, (0, 0, 2, 0, 0, 1): 1})
    singular = Form({(1, 1, 0, 1, 0, 0): 1, (1, 0, 1, 0, 1, 0): 1, (0, 1, 1, 0, 0, 1): 1})
    expect("smooth cubic passes the plane gate", all(child.singular_on_plane(smooth, p) == 0 for p in cubic_primes))
    expect("singular cubic caught by the plane gate", all(child.singular_on_plane(singular, p) == 3 for p in cubic_primes))

    # disc and groth
    disc_ref = {"disc": {"classes": ref["disc"]["classes"][:3]}}
    expect("disc passes", failures(checks.check_disc, DISC_DOC, 1, 3, disc_ref) == 0)
    bad = copy.deepcopy(DISC_DOC)
    bad["verdicts"][1]["solution"][0] += 1
    expect("disc witness tamper caught", failures(checks.check_disc, bad, 1, 3, disc_ref) == 1)
    expect("groth passes", failures(checks.check_groth, groth_doc(ref), ref) == 0)
    bad = groth_doc(ref)
    bad["derivations"][0]["residual"] = "0"
    expect("groth residual tamper caught", failures(checks.check_groth, bad, ref) == 1)

    # byte-identity between executions: same values, other bytes
    executions = []
    for indent in (None, 1):
        ex = run.Execution()
        text = json.dumps(count_doc(ref), indent=indent).encode()
        ex.procs.append(run.Proc(0, text, b"", 1.0, 1.0, 1.0))
        executions.append(ex)
    tally = checks.Tally()
    run.check_all(tally, "count-scan", executions, ref, ref)
    expect("differing output bytes caught", tally.failed == 1)

    # self times: a parent of 10 with children of 3 and 4 keeps 3 for itself
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 9.0, 0], ["d", 5.0, 6.0, 2]]
    selfs = tracing.self_times(spans)
    expect("self times", selfs == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0})

    # traced runs: a span longer than its parent, or an expected span that
    # never fired, fails the run
    def traced_sweep(spans, wall=10.0):
        return run.Execution(wall=wall, traces=[{"spans": spans, "counters": {}}])

    layers = [["family.regularity_check", 0.0, 4.0, 0], ["reduction.count_double_cover", 4.0, 9.8, 0],
              ["family.count_total_space", 9.8, 9.9, 0], ["reduction.count_reduced_family", 9.9, 9.95, 0],
              ["reduction.hyperbolic_reduce_family", 9.95, 9.96, 0]]
    tally = checks.Tally()
    run.check_trace(tally, "fiber-sweep", traced_sweep([["sweep", 0.0, 10.0, -1]] + layers))
    expect("trace passes", tally.failed == 0)
    tally = checks.Tally()
    run.check_trace(tally, "fiber-sweep", traced_sweep([["sweep", 0.0, 5.0, -1]] + layers))
    expect("negative self time caught", tally.failed == 1)
    tally = checks.Tally()
    run.check_trace(tally, "fiber-sweep", traced_sweep([["sweep", 0.0, 10.0, -1]] + layers[:-1]))
    expect("missing span caught", tally.failed == 1)
    tally = checks.Tally()
    run.check_trace(tally, "fiber-sweep", traced_sweep([["sweep", 0.0, 12.0, -1]] + layers, wall=12.0))
    expect("time no layer explains caught", tally.failed == 1)

    # BENCHMARK.json names what run.py reports
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect("workloads match", [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS))
    expect("end-to-end metrics match", {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END)
    expect("per-layer metrics match", {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER)

    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failed = [name for name, ok in cases if not ok]
    print(f"selftest: {len(cases) - len(failed)} of {len(cases)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
