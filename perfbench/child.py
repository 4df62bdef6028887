"""Code that runs inside one fresh workload process.

    python3 perfbench/child.py setup --seed N --out DIR [--sweep] [--trace FILE]
    python3 perfbench/child.py sweep --net FILE --primes P,.. [--trace FILE]
    python3 perfbench/child.py cli --trace FILE -- ARGS..

`setup` generates every input file from the seed with the package's own
seeded searches and prints {"setup_s": ...}; with --sweep it also picks the
fiber-sweep primes.  `sweep` runs the fiber-layer library calls at primes
far beyond any scan budget and prints the counts with the wall time of the
calls.  `cli` runs one quadring command under the tracer; an untraced
command runs as ``python3 -m quadring`` instead, exactly as a user runs it.
With --trace the process writes its spans and counters to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import tracing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Inputs: one (4,2) net, one cubic containing a plane, one (2,2) form.  The net
# search runs at the count primes, so no count prime is ever skipped.
NET_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
CUBIC_PRIMES = (5, 7, 11, 13)
VERRA_PRIMES = (3, 5, 7, 11, 13)
# The fiber sweep runs at the first prime >= each target where the seeded
# net passes the regularity scan, so every seed sweeps two primes of about
# the same size and none is skipped.
SWEEP_TARGETS = (41, 53)
# The cubic recipe's identity needs the cubic smooth along the plane, which
# random_cubic_with_plane does not test: set-up draws again, from the seeds
# seed + k * CUBIC_DRAW_STEP, until the cubic is smooth at every F_p-point of
# the plane at every cubic prime.
CUBIC_DRAW_STEP = 7_919
MAX_CUBIC_DRAWS = 30


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _verra_tensor(form) -> list[int]:
    """81-entry tensor of a (2,2) form: each monomial's coefficient sits at
    its sorted index (i <= j, k <= l), every other entry is 0."""
    tensor = [0] * 81
    for exps, coeff in form.terms.items():
        s = [i for i in range(3) for _ in range(exps[i])]
        t = [k for k in range(3) for _ in range(exps[3 + k])]
        tensor[((s[0] * 3 + s[1]) * 3 + t[0]) * 3 + t[1]] = coeff
    return tensor


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _net_passes(net, p: int) -> bool:
    from quadring.gfp import PrimeField
    from quadring.netfib import regularity_check

    reg = regularity_check(net, PrimeField(p))
    return reg.regular and reg.flat and not reg.corank2_found


def sweep_primes(net) -> list[int]:
    """The first prime >= each of SWEEP_TARGETS (and above the previous
    pick) at which the net passes the regularity scan."""
    picked: list[int] = []
    for target in SWEEP_TARGETS:
        p = max(target, picked[-1] + 1 if picked else target)
        while not (_is_prime(p) and _net_passes(net, p)):
            p += 1
        picked.append(p)
    return picked


def _plane_points(p: int):
    """Normalized representatives of P^2(F_p)."""
    for a in range(p):
        for b in range(p):
            yield (1, a, b)
    for b in range(p):
        yield (0, 1, b)
    yield (0, 0, 1)


def singular_on_plane(cubic, p: int) -> int:
    """How many F_p-points of the plane x3 = x4 = x5 = 0 the cubic is
    singular at.  On the plane every partial derivative but d/dx3, d/dx4 and
    d/dx5 vanishes, and d/dx_k is the conic of the monomials x_k * y0^a
    y1^b y2^c, so a singular point is a common zero of those three conics.
    Each such point adds p^2 points to the blow-up and so moves the recipe's
    residual by -p^2."""
    conics = [
        [(e[:3], c) for e, c in cubic.terms.items() if e[k] == 1 and e[3] + e[4] + e[5] == 1]
        for k in (3, 4, 5)
    ]
    return sum(
        all(sum(c * y[0] ** e[0] * y[1] ** e[1] * y[2] ** e[2] for e, c in conic) % p == 0 for conic in conics)
        for y in _plane_points(p)
    )


def smooth_cubic(seed: int) -> tuple[object, int]:
    """The first cubic of random_cubic_with_plane, over the seeds
    seed + k * CUBIC_DRAW_STEP, that is smooth along the plane at every
    cubic prime, and how many draws that took."""
    from quadring.netfib import random_cubic_with_plane

    for draw in range(MAX_CUBIC_DRAWS):
        cubic = random_cubic_with_plane(CUBIC_PRIMES, seed=seed + draw * CUBIC_DRAW_STEP)
        if not any(singular_on_plane(cubic, p) for p in CUBIC_PRIMES):
            return cubic, draw + 1
    raise RuntimeError(f"no cubic smooth along the plane in {MAX_CUBIC_DRAWS} draws (seed {seed})")


def cmd_setup(args: argparse.Namespace) -> dict:
    from quadring.netfib import random_net_search, random_verra_form

    start = time.perf_counter()
    found = random_net_search(4, 2, NET_PRIMES, seed=args.seed)
    _write_json(os.path.join(args.out, "net.json"), found.net.to_document(point=found.point))
    cubic, cubic_draws = smooth_cubic(args.seed)
    terms = sorted([list(e), c] for e, c in cubic.terms.items())
    _write_json(
        os.path.join(args.out, "cubic.json"),
        {"num_vars": cubic.num_vars, "degree": cubic.degree, "terms": terms},
    )
    verra = random_verra_form(VERRA_PRIMES, seed=args.seed)
    _write_json(os.path.join(args.out, "verra.json"), {"tensor": _verra_tensor(verra)})
    if args.sweep:
        _write_json(os.path.join(args.out, "sweep.json"), {"primes": sweep_primes(found.net)})
    return {"setup_s": time.perf_counter() - start, "cubic_draws": cubic_draws}


def sweep(net, point, primes) -> list[dict]:
    """Fiber layers of `count` at each prime, without the X scan; a prime
    where the regularity scan fails is skipped, as `count` skips it (set-up
    picks primes where it passes, so a skip is a failed check)."""
    from quadring.gfp import PrimeField
    from quadring.netfib import (
        count_double_cover,
        count_reduced_family,
        count_total_space,
        hyperbolic_reduce_family,
    )

    out = []
    for p in primes:
        field = PrimeField(p)
        if not _net_passes(net, p):
            out.append({"p": p, "skipped": True})
            continue
        q = count_total_space(net, field)
        y = count_double_cover(net, field)
        reduced = hyperbolic_reduce_family(net, [list(point)])
        qbar = count_reduced_family(reduced, field)
        y_reduced = count_double_cover(reduced, field)
        out.append({"p": p, "skipped": False, "Q": q, "Qbar": qbar, "Y": y, "Y_reduced": y_reduced})
    return out


def cmd_sweep(args: argparse.Namespace, tracer) -> dict:
    from quadring.netfib import load_net

    net, point = load_net(args.net)
    primes = [int(x) for x in args.primes.split(",")]
    start = time.perf_counter()
    if tracer is None:
        reports = sweep(net, point, primes)
    else:
        with tracer.span("sweep"):
            reports = sweep(net, point, primes)
    return {"wall_s": time.perf_counter() - start, "reports": reports}


def cmd_cli(args: argparse.Namespace) -> int:
    from quadring import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    with tracer.span("cli"):
        code = cli.main(args.cli_args)
    sys.stdout.flush()
    tracer.dump(args.trace)
    return code


def main() -> int:
    sys.path.insert(0, SRC)
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--out", required=True)
    p_setup.add_argument("--sweep", action="store_true")
    p_setup.add_argument("--trace")
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--net", required=True)
    p_sweep.add_argument("--primes", required=True)
    p_sweep.add_argument("--trace")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--trace", required=True)
    p_cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    if args.command == "cli":
        if args.cli_args[:1] == ["--"]:
            args.cli_args = args.cli_args[1:]
        return cmd_cli(args)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    doc = cmd_setup(args) if args.command == "setup" else cmd_sweep(args, tracer)
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
