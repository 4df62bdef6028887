"""Command-line surface: net/form ingestion, per-prime reports, derivation
rendering, and discriminant tables.

Exit codes partition the outcomes: 0 success, 1 a mathematical residual
failed, 2 malformed input, 3 an enumeration or search budget ran out.
Machine-readable output is a single JSON document with sorted keys and a
format_version field; identical inputs (and seed) produce byte-identical
documents whatever the --jobs setting, since worker counts only partition
index ranges whose integer merges are order-free.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import grothring, nslattice
from .errors import BudgetExceededError, InputError, json_int
from .gfp import PrimeField
from .mpoly import HomPoly
from .netfib import (
    CountReport,
    QuadricNet,
    count_double_cover,
    count_reduced_family,
    cubic_with_plane_counts,
    hyperbolic_reduce_family,
    load_net,
    random_net_search,
    verify_relations,
    verra_counts,
)

FORMAT_VERSION = 1

DEFAULT_PRIMES = "3,5,7,11,13"


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad prime list {text!r}: {exc}") from exc
    if not primes:
        raise InputError("empty prime list")
    if primes != sorted(set(primes)):
        raise InputError(f"primes must be distinct and ascending: {text!r}")
    for p in primes:
        try:
            PrimeField(p)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return primes


def _at_least_one(value: int, option: str) -> int:
    if value < 1:
        raise InputError(f"{option} must be at least 1, got {value}")
    return value


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad point {text!r}: {exc}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}, expected A..B: {exc}") from exc
    if lo < 1 or hi < lo:
        raise InputError(f"range must satisfy 1 <= A <= B, got {text!r}")
    return lo, hi


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return doc


def load_cubic_form(path: str) -> HomPoly:
    """Cubic form file: {"num_vars": 6, "degree": 3, "terms": [[[e...], c]]};
    the coefficients of repeated monomials add up."""
    doc = _load_json(path)
    try:
        nv = json_int(doc["num_vars"], "num_vars")
        deg = json_int(doc["degree"], "degree")
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in doc["terms"]:
            key = tuple(json_int(e, "exponent") for e in exps)
            terms[key] = terms.get(key, 0) + json_int(c, "coefficient")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed form file {path}: {exc}") from exc
    return HomPoly(nv, deg, terms)


def load_verra_form(path: str) -> HomPoly:
    """(2,2) form file: an 81-entry tensor T flattened by ((i*3+j)*3+k)*3+l,
    the coefficient multiplying s_i s_j t_k t_l."""
    doc = _load_json(path)
    tensor = doc.get("tensor")
    if not isinstance(tensor, list) or len(tensor) != 81:
        raise InputError(f"form file {path} needs an 81-entry 'tensor' array")
    tensor = [json_int(x, "tensor entry") for x in tensor]
    terms: dict[tuple[int, ...], int] = {}
    idx = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    c = tensor[idx]
                    idx += 1
                    if c == 0:
                        continue
                    exps = [0] * 6
                    exps[i] += 1
                    exps[j] += 1
                    exps[3 + k] += 1
                    exps[3 + l] += 1
                    key = tuple(exps)
                    terms[key] = terms.get(key, 0) + c
    return HomPoly(6, 4, {e: c for e, c in terms.items() if c})


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_json_file(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(doc))


def _emit(doc: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_dumps(doc))
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _find_integral_point(net: QuadricNet) -> tuple[int, ...] | None:
    """Deterministic small-height scan for a Z-point of X (coords in
    {-1, 0, 1}, first nonzero equal to 1)."""
    size = net.fiber_size
    digits = (0, 1, -1)
    total = len(digits) ** size
    for code in range(1, total):
        v = []
        rem = code
        for _ in range(size):
            v.append(digits[rem % 3])
            rem //= 3
        first = next((x for x in v if x != 0), 0)
        if first != 1:
            continue
        if all(mat.q(v) == 0 for mat in net.matrices):
            return tuple(v)
    return None


def _report_line(rep: CountReport) -> str:
    if rep.skipped:
        return f"p={rep.p} SKIPPED ({rep.skip_reason})"
    counts = f"X={rep.x_count} Q={rep.q_count} Qbar={rep.qbar_count} Y={rep.y_count}"
    residuals = " ".join(f"{k}={v}" for k, v in sorted(rep.residuals.items()))
    flags = []
    if rep.line_through_point_found:
        flags.append("line-through-point")
    flag_text = f" flags={','.join(flags)}" if flags else ""
    return f"p={rep.p} {counts} {residuals}{flag_text}"


def cmd_count(args: argparse.Namespace) -> int:
    net, file_point = load_net(args.net)
    point = _parse_point(args.point) if args.point else file_point
    if point is None:
        point = _find_integral_point(net)
    primes = _parse_primes(args.primes)
    budget, jobs = _at_least_one(args.budget, "--budget"), _at_least_one(args.jobs, "--jobs")
    reports = verify_relations(net, point, primes, budget=budget, jobs=jobs)
    checked = [r for r in reports if not r.skipped]
    ok = bool(checked) and all(
        r.all_zero() and not r.line_through_point_found for r in checked
    )
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "count",
        "n": net.n,
        "m": net.m,
        "point": list(point) if point else None,
        "primes": primes,
        "reports": [r.to_document() for r in reports],
        "ok": ok,
    }
    lines = [f"net: n={net.n} m={net.m} point={point}"]
    lines += [_report_line(r) for r in reports]
    lines.append("RESULT: " + ("all residuals zero" if ok else "FAILED"))
    _emit(doc, lines, args.format)
    return 0 if ok else 1


def cmd_groth(args: argparse.Namespace) -> int:
    names = (
        list(grothring.DERIVATION_NAMES)
        if args.derive == "all"
        else [args.derive]
    )
    derivations = [grothring.derive(name) for name in names]
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "groth",
        "derivations": [
            {
                "name": d.name,
                "pivot": d.pivot,
                "route_a": d.route_a.render(),
                "route_b": d.route_b.render(),
                "residual": d.residual.render(),
                "statement": d.statement.render(),
                "after_hypothesis": d.after_hypothesis.render(),
                "consistent": d.consistent(),
            }
            for d in derivations
        ],
    }
    lines: list[str] = []
    for d in derivations:
        lines.extend(d.render_lines())
        lines.append("")
    ok = all(d.consistent() for d in derivations)
    _emit(doc, lines, args.format)
    return 0 if ok else 1


def cmd_disc(args: argparse.Namespace) -> int:
    if (args.range is None) == (args.ns is None):
        raise InputError("give exactly one of --range or --ns")
    verdicts = []
    if args.ns:
        parts = _parse_point(args.ns)
        if len(parts) != 2:
            raise InputError("--ns expects CH,C2")
        ch, c2 = parts
        verdicts.append((nslattice.discriminant(ch, c2), nslattice.classify_ns(ch, c2)))
    else:
        lo, hi = _parse_range(args.range)
        for d in range(lo, hi + 1):
            verdicts.append((d, nslattice.classify_discriminant(d)))
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "disc",
        "verdicts": [v.to_document() for _, v in verdicts],
    }
    lines = []
    for d, v in verdicts:
        witness = (
            f" witness a={v.solution[0]} b={v.solution[1]} rhs={v.solution[2]}"
            if v.solution
            else ""
        )
        lines.append(
            f"d={d} {v.classification} brauer_vanishes={str(v.brauer_vanishes).lower()}{witness}"
        )
    _emit(doc, lines, args.format)
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    primes = _parse_primes(args.primes)
    result = random_net_search(
        args.n,
        args.m,
        primes,
        seed=args.seed,
        entry_bound=args.entry_bound,
        max_attempts=args.attempts,
    )
    net_doc = result.net.to_document(point=result.point)
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "random",
        "seed": args.seed,
        "attempts": result.attempts,
        "primes": primes,
        "net": net_doc,
    }
    lines = [
        f"accepted ({args.n},{args.m}) net after {result.attempts} attempts (seed {args.seed})",
        f"point: {','.join(str(x) for x in result.point)}",
    ]
    if args.out:
        _write_json_file(args.out, net_doc)
        lines.append(f"net written to {args.out}")
    _emit(doc, lines, args.format)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    net, file_point = load_net(args.net)
    point = _parse_point(args.point) if args.point else file_point
    if point is None:
        raise InputError("reduction needs a point: give --point or a net file with one")
    reduced = hyperbolic_reduce_family(net, [list(point)])
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "reduce",
        "point": list(point),
        "reduced": reduced.to_document(),
    }
    lines = [
        f"reduced family: base P^{reduced.m}, fibers of dimension {reduced.reduced_dim}",
        f"pivots deleted: {list(reduced.pivots)}",
    ]
    if args.primes:
        primes = _parse_primes(args.primes)
        counts = []
        for p in primes:
            field = PrimeField(p)
            entry = {"p": p, "reduced_count": count_reduced_family(reduced, field)}
            if net.fiber_size % 2 == 0:
                entry["double_cover_net"] = count_double_cover(net, field)
                entry["double_cover_reduced"] = count_double_cover(reduced, field)
            counts.append(entry)
            lines.append(
                " ".join(f"{k}={v}" for k, v in entry.items())
            )
        doc["counts"] = counts
    if args.out:
        _write_json_file(args.out, doc["reduced"])
        lines.append(f"reduced family written to {args.out}")
    _emit(doc, lines, args.format)
    return 0


def cmd_cubic(args: argparse.Namespace) -> int:
    form = load_cubic_form(args.form)
    primes = _parse_primes(args.primes)
    reports = cubic_with_plane_counts(form, primes, budget=_at_least_one(args.budget, "--budget"))
    clean = [r for r in reports if not (r.corank2_found or r.singular_on_plane)]
    ok = bool(clean) and all(r.residual == 0 for r in clean)
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "cubic",
        "primes": primes,
        "reports": [r.to_document() for r in reports],
        "ok": ok,
    }
    lines = []
    for r in reports:
        flags = (" corank2" if r.corank2_found else "") + (
            " singular-on-plane" if r.singular_on_plane else ""
        )
        lines.append(f"p={r.p} X={r.x_count} Y={r.y_count} residual={r.residual}{flags}")
    lines.append("RESULT: " + ("all residuals zero" if ok else "FAILED"))
    _emit(doc, lines, args.format)
    return 0 if ok else 1


def cmd_verra(args: argparse.Namespace) -> int:
    form = load_verra_form(args.form)
    primes = _parse_primes(args.primes)
    reports = verra_counts(form, primes)
    clean = [r for r in reports if not (r.corank2_first or r.corank2_second)]
    ok = bool(clean) and all(
        r.residual_first == 0 and r.residual_second == 0 and r.y_difference == 0
        for r in clean
    )
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "verra",
        "primes": primes,
        "reports": [r.to_document() for r in reports],
        "ok": ok,
    }
    lines = []
    for r in reports:
        flags = []
        if r.corank2_first:
            flags.append("corank2-first")
        if r.corank2_second:
            flags.append("corank2-second")
        flag = f" flags={','.join(flags)}" if flags else ""
        lines.append(
            f"p={r.p} X={r.x_count} Y1={r.y1_count} Y2={r.y2_count} "
            f"r1={r.residual_first} r2={r.residual_second} dY={r.y_difference}{flag}"
        )
    lines.append("RESULT: " + ("all residuals zero" if ok else "FAILED"))
    _emit(doc, lines, args.format)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadring",
        description="Exact quadric-fibration point counts, class-identity "
        "derivations, and discriminant arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_count = sub.add_parser("count", help="verify the count identities for a net")
    p_count.add_argument("--net", required=True)
    p_count.add_argument("--primes", default=DEFAULT_PRIMES)
    p_count.add_argument("--point")
    p_count.add_argument("--budget", type=int, default=2_000_000)
    p_count.add_argument("--jobs", type=int, default=1)
    add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_groth = sub.add_parser("groth", help="render a formal derivation by name")
    p_groth.add_argument(
        "--derive",
        required=True,
        choices=list(grothring.DERIVATION_NAMES) + ["all"],
    )
    add_common(p_groth)
    p_groth.set_defaults(func=cmd_groth)

    p_disc = sub.add_parser("disc", help="discriminant verdicts")
    p_disc.add_argument("--range")
    p_disc.add_argument("--ns")
    add_common(p_disc)
    p_disc.set_defaults(func=cmd_disc)

    p_random = sub.add_parser("random", help="search for an acceptable integer net")
    p_random.add_argument("--n", type=int, required=True)
    p_random.add_argument("--m", type=int, required=True)
    p_random.add_argument("--primes", default=DEFAULT_PRIMES)
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("--entry-bound", type=int, default=9)
    p_random.add_argument("--attempts", type=int, default=400)
    p_random.add_argument("--out")
    add_common(p_random)
    p_random.set_defaults(func=cmd_random)

    p_reduce = sub.add_parser("reduce", help="emit the reduced family of a net")
    p_reduce.add_argument("--net", required=True)
    p_reduce.add_argument("--point")
    p_reduce.add_argument("--primes")
    p_reduce.add_argument("--out")
    add_common(p_reduce)
    p_reduce.set_defaults(func=cmd_reduce)

    p_cubic = sub.add_parser("cubic", help="plane-projection counts for a cubic form")
    p_cubic.add_argument("--form", required=True)
    p_cubic.add_argument("--primes", default="5,7,11")
    p_cubic.add_argument("--budget", type=int, default=2_000_000)
    add_common(p_cubic)
    p_cubic.set_defaults(func=cmd_cubic)

    p_verra = sub.add_parser("verra", help="double-cover counts for a (2,2) form")
    p_verra.add_argument("--form", required=True)
    p_verra.add_argument("--primes", default="3,5,7")
    add_common(p_verra)
    p_verra.set_defaults(func=cmd_verra)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
