"""Command-line surface: net/form ingestion, per-prime reports, derivation
rendering, and discriminant tables.

Exit codes partition the outcomes: 0 success, 1 a mathematical residual
failed, 2 malformed input (a reduction point whose section degenerates at
a requested prime and an --out path that cannot be written included), 3 an
enumeration or search budget ran out.
Machine-readable output is a single JSON document with sorted keys and a
format_version field; identical inputs (and seed) produce byte-identical
documents whatever the --jobs setting, since worker counts only partition
index ranges whose integer merges are order-free.

`count`, `cubic` and `verra` check an identity prime by prime and share one
emit path, `_emit_reports`.  Each report says whether a hypothesis of its
identity fails at its prime (`skipped`), whether the identity held there
(`passed`) and how it prints (`text_line`); a command is ok, and exits 0,
when some prime is not skipped and every prime that is not skipped passed.

The numeric layers (`gfp`, `mpoly`, `netfib`, and numpy beneath them) are
imported inside the handlers that run them, so `groth` and `disc` start
without loading numpy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Sequence

from . import grothring, nslattice
from .errors import BudgetExceededError, DegenerateSectionError, InputError, json_int, load_json_object

if TYPE_CHECKING:
    from .mpoly import HomPoly
    from .netfib import QuadricNet

FORMAT_VERSION = 1

DEFAULT_PRIMES = "3,5,7,11,13"


def _parse_primes(text: str) -> list[int]:
    from .gfp import PrimeField

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


def _parse_point(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad {option} {text!r}: {exc}") from exc


def _join_integer_values(argv: Sequence[str]) -> list[str]:
    """argv with `--point -1,0,..` read as `--point=-1,0,..`: argparse takes
    a token that starts with '-' for an option, not for a value."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in ("--point", "--ns") and re.fullmatch(r"-?\d+(,-?\d+)*", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}, expected A..B: {exc}") from exc
    if lo < 1 or hi < lo:
        raise InputError(f"range must satisfy 1 <= A <= B, got {text!r}")
    return lo, hi


def load_cubic_form(path: str) -> HomPoly:
    """Cubic form file: {"num_vars": 6, "degree": 3, "terms": [[[e...], c]]};
    the coefficients of repeated monomials add up."""
    from .mpoly import HomPoly

    doc = load_json_object(path, "form file")
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
    from .mpoly import HomPoly

    doc = load_json_object(path, "form file")
    tensor = doc.get("tensor")
    if not isinstance(tensor, list) or len(tensor) != 81:
        raise InputError(f"form file {path} needs an 81-entry 'tensor' array")
    terms: dict[tuple[int, ...], int] = {}
    for (i, j, k, l), x in zip(itertools.product(range(3), repeat=4), tensor):
        key = tuple(map((i, j, 3 + k, 3 + l).count, range(6)))
        terms[key] = terms.get(key, 0) + json_int(x, "tensor entry")
    return HomPoly(6, 4, terms)


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_json_file(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps(doc))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(args: argparse.Namespace, doc: dict, lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(_dumps({"format_version": FORMAT_VERSION, "command": args.command, **doc}))
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _emit_reports(args: argparse.Namespace, doc: dict, lines: list[str], reports: Sequence) -> int:
    """Emit a per-prime check (`count`, `cubic`, `verra`): it is ok when some
    prime is not skipped and every prime that is not skipped passed."""
    checked = [r for r in reports if not r.skipped]
    ok = bool(checked) and all(r.passed for r in checked)
    lines = lines + [r.text_line() for r in reports]
    lines.append("RESULT: " + ("all residuals zero" if ok else "FAILED"))
    _emit(args, {**doc, "reports": [r.to_document() for r in reports], "ok": ok}, lines)
    return 0 if ok else 1


def _find_integral_point(net: QuadricNet) -> tuple[int, ...] | None:
    """Deterministic small-height scan for a Z-point of X (coords in
    {-1, 0, 1}, first nonzero equal to 1, the first coordinate varying
    fastest)."""
    for digits in itertools.product((0, 1, -1), repeat=net.fiber_size):
        v = digits[::-1]
        if next(filter(None, v), 0) == 1 and all(mat.q(v) == 0 for mat in net.matrices):
            return v
    return None


def cmd_count(args: argparse.Namespace) -> int:
    from .netfib import SUPPORTED_SHAPES, load_net, verify_relations

    net, file_point = load_net(args.net)
    point = _parse_point(args.point, "--point") if args.point else file_point
    if point is None and (net.n, net.m) in SUPPORTED_SHAPES:  # verify_relations rejects the others
        point = _find_integral_point(net)
    primes = _parse_primes(args.primes)
    budget, jobs = _at_least_one(args.budget, "--budget"), _at_least_one(args.jobs, "--jobs")
    reports = verify_relations(net, point, primes, budget=budget, jobs=jobs)
    doc = {"n": net.n, "m": net.m, "point": list(point) if point else None, "primes": primes}
    return _emit_reports(args, doc, [f"net: n={net.n} m={net.m} point={point}"], reports)


def cmd_groth(args: argparse.Namespace) -> int:
    names = (
        list(grothring.DERIVATION_NAMES)
        if args.derive == "all"
        else [args.derive]
    )
    derivations = [grothring.derive(name) for name in names]
    doc = {
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
    _emit(args, doc, lines)
    return 0 if ok else 1


def cmd_disc(args: argparse.Namespace) -> int:
    if (args.range is None) == (args.ns is None):
        raise InputError("give exactly one of --range or --ns")
    budget = _at_least_one(args.budget, "--budget")
    verdicts = []
    if args.ns:
        parts = _parse_point(args.ns, "--ns")
        if len(parts) != 2:
            raise InputError("--ns expects CH,C2")
        ch, c2 = parts
        verdicts.append((nslattice.discriminant(ch, c2), nslattice.classify_ns(ch, c2, budget)))
    else:
        lo, hi = _parse_range(args.range)
        for d in range(lo, hi + 1):  # each d may walk `budget` PQa steps
            verdicts.append((d, nslattice.classify_discriminant(d, budget)))
    doc = {"verdicts": [v.to_document() for _, v in verdicts]}
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
    _emit(args, doc, lines)
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    from .netfib import random_net_search

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
    _emit(args, doc, lines)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from .gfp import PrimeField, size_within_budget
    from .netfib import count_double_cover, count_reduced_family, hyperbolic_reduce_family, load_net

    budget = _at_least_one(args.budget, "--budget")
    net, file_point = load_net(args.net)
    point = _parse_point(args.point, "--point") if args.point else file_point
    if point is None:
        raise InputError("reduction needs a point: give --point or a net file with one")
    reduced = hyperbolic_reduce_family(net, [list(point)])
    doc = {"point": list(point), "reduced": reduced.to_document()}
    lines = [
        f"reduced family: base P^{reduced.m}, fibers of dimension {reduced.reduced_dim}",
        f"pivots deleted: {list(reduced.pivots)}",
    ]
    if args.primes:
        primes = _parse_primes(args.primes)
        for p in primes:  # the fiber walks of P^m, every prime before any fiber
            size_within_budget(reduced.m, p, budget)
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
    _emit(args, doc, lines)
    return 0


def cmd_cubic(args: argparse.Namespace) -> int:
    from .netfib import cubic_with_plane_counts

    form = load_cubic_form(args.form)
    primes = _parse_primes(args.primes)
    reports = cubic_with_plane_counts(form, primes, budget=_at_least_one(args.budget, "--budget"))
    return _emit_reports(args, {"primes": primes}, [], reports)


def cmd_verra(args: argparse.Namespace) -> int:
    from .netfib import verra_counts

    form = load_verra_form(args.form)
    primes = _parse_primes(args.primes)
    reports = verra_counts(form, primes, budget=_at_least_one(args.budget, "--budget"))
    return _emit_reports(args, {"primes": primes}, [], reports)


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
    p_disc.add_argument("--budget", type=int, default=2_000_000)
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
    p_reduce.add_argument("--budget", type=int, default=2_000_000)
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
    p_verra.add_argument("--budget", type=int, default=2_000_000)
    add_common(p_verra)
    p_verra.set_defaults(func=cmd_verra)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # numpy's OpenBLAS starts a worker thread per core when numpy is
    # imported, and quadring never uses one: its arrays are int64, which
    # numpy does not hand to BLAS.  Set before any handler imports numpy; a
    # value the user set wins.  Only the command line does this, since a
    # library must not change its host's BLAS.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(_join_integer_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (InputError, DegenerateSectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
