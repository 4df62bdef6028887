"""Formal calculus for variety classes: Z[L]-linear combinations of
monomials in opaque atoms, the standard relation rules as the classes
they give, and scripted derivations of the headline identities.

Atoms are uninterpreted symbols; products of atoms are formal monomials in
the free commutative monoid.  The class of P^n is never an atom: it
normalizes to the polynomial 1 + L + ... + L^n.  Equality is equality of
normal forms.  There is deliberately no division anywhere: L is a zero
divisor in the ring this models, so a derivation may only ever *exhibit* a
residual like ([X] - [Y]) * L, never cancel the L.

Derivations compute one pivot class along two independent routes and
return the difference; asserting the hypothesis that both routes compute
the same class turns the residual into zero.  Substituting integers for L
and the atoms (counts measured by `netfib`, with L mapped to p) must turn
every derived identity into a true integer identity: `netfib.relations` and
`netfib.recipes` form every residual they report that way, so the
identities are stated here only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InputError

Monomial = tuple[str, ...]
LPoly = dict[int, int]


def _poly_add(a: LPoly, b: LPoly) -> LPoly:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def _poly_mul(a: LPoly, b: LPoly) -> LPoly:
    out: LPoly = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _poly_str(poly: LPoly) -> str:
    parts = []
    for k in sorted(poly):
        c = poly[k]
        if k == 0:
            parts.append(str(c))
            continue
        lpart = "L" if k == 1 else f"L^{k}"
        if c == 1:
            parts.append(lpart)
        elif c == -1:
            parts.append(f"-{lpart}")
        else:
            parts.append(f"{c}*{lpart}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class GRExpr:
    """A normalized Z[L]-combination of atom monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, LPoly] | None = None):
        normalized: dict[Monomial, LPoly] = {}
        for mono, poly in (terms or {}).items():
            key = tuple(sorted(mono))
            merged = _poly_add(normalized.get(key, {}), poly)
            if merged:
                normalized[key] = merged
            else:
                normalized.pop(key, None)
        self.terms = normalized

    # -- constructors ------------------------------------------------------

    @staticmethod
    def atom(name: str) -> "GRExpr":
        if not name or name == "L":
            raise InputError(f"invalid atom name {name!r}")
        return GRExpr({(name,): {0: 1}})

    @staticmethod
    def lpower(k: int, coeff: int = 1) -> "GRExpr":
        if k < 0:
            raise InputError("negative powers of L are not allowed: L is a zero divisor")
        return GRExpr({(): {k: coeff}})

    @staticmethod
    def const(c: int) -> "GRExpr":
        return GRExpr({(): {0: c}})

    @staticmethod
    def proj_space(n: int) -> "GRExpr":
        """[P^n] = 1 + L + ... + L^n."""
        if n < 0:
            raise InputError(f"negative projective dimension {n}")
        return GRExpr({(): {k: 1 for k in range(n + 1)}})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "GRExpr") -> "GRExpr":
        out = {m: dict(p) for m, p in self.terms.items()}
        for mono, poly in other.terms.items():
            out[mono] = _poly_add(out.get(mono, {}), poly)
        return GRExpr(out)

    def __neg__(self) -> "GRExpr":
        return GRExpr({m: {k: -c for k, c in p.items()} for m, p in self.terms.items()})

    def __sub__(self, other: "GRExpr") -> "GRExpr":
        return self + (-other)

    def __mul__(self, other: "GRExpr") -> "GRExpr":
        out: dict[Monomial, LPoly] = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = _poly_add(out.get(mono, {}), _poly_mul(p1, p2))
        return GRExpr(out)

    def __pow__(self, k: int) -> "GRExpr":
        if k < 0:
            raise InputError("no inverses in the Grothendieck ring")
        out = GRExpr.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GRExpr) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    # -- operations --------------------------------------------------------

    def atoms(self) -> set[str]:
        return {a for mono in self.terms for a in mono}

    def evaluate(self, l_value: int, atom_values: Mapping[str, int]) -> int:
        """Integer value under L -> l_value, atoms -> given integers."""
        total = 0
        for mono, poly in self.terms.items():
            v = 1
            for a in mono:
                if a not in atom_values:
                    raise InputError(f"no value provided for atom {a!r}")
                v *= atom_values[a]
            total += v * sum(c * l_value**k for k, c in poly.items())
        return total

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Stable text form: atoms sorted inside monomials, monomials sorted,
        L-powers ascending.  A common L-power across all terms is factored
        out, so difference statements read as ([X] - [Y])*L^r."""
        if self.is_zero():
            return "0"
        factored = self._render_factored()
        if factored is not None:
            return factored
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            poly = self.terms[mono]
            mono_str = "*".join(f"[{a}]" for a in mono)
            if not mono:
                body = _poly_str(poly)
                parts.append(f"({body})" if len(poly) > 1 else body)
                continue
            if len(poly) == 1:
                ((k, c),) = poly.items()
                lpart = "" if k == 0 else ("L" if k == 1 else f"L^{k}")
                cpart = "" if c in (1, -1) else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                term = sign + cpart + mono_str + (f"*{lpart}" if lpart else "")
                parts.append(term)
            else:
                parts.append(f"{mono_str}*({_poly_str(poly)})")
        return " + ".join(parts).replace("+ -", "- ")

    def _render_factored(self) -> str | None:
        # applies when every term is a single c * L^k with one shared k >= 1
        # and every monomial is a plain atom with coefficient +-1
        ks = set()
        pieces = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            poly = self.terms[mono]
            if len(poly) != 1 or len(mono) != 1:
                return None
            ((k, c),) = poly.items()
            if c not in (1, -1):
                return None
            ks.add(k)
            pieces.append((mono[0], c))
        if len(ks) != 1:
            return None
        k = ks.pop()
        if k == 0 or len(pieces) < 2:
            return None
        body = " + ".join(("-" if c < 0 else "") + f"[{a}]" for a, c in pieces)
        body = body.replace("+ -", "- ")
        lpart = "L" if k == 1 else f"L^{k}"
        return f"({body})*{lpart}"

    def __repr__(self) -> str:
        return f"GRExpr({self.render()})"


L = GRExpr.lpower(1)
ONE = GRExpr.const(1)


def rule_blowup(ambient: GRExpr, center: GRExpr, codim: int) -> GRExpr:
    """[Bl_Z X] = [X] + [Z](L + ... + L^(c-1)) for a smooth center Z of
    codimension c in X: the class of the blow-up."""
    if codim < 1:
        raise InputError("blowup codimension must be at least 1")
    return ambient + center * GRExpr({(): {k: 1 for k in range(1, codim)}})


def rule_hyperbolic_reduction(base: GRExpr, n: int, k: int, reduced: GRExpr) -> GRExpr:
    """[Q] = [S][P^k](1 + L^(n-k)) + [Qbar] L^(k+1) for a flat family Q over
    S of n-dimensional quadrics with a nondegenerate k-section and reduced
    family Qbar: the class of Q."""
    if k < 0 or n - k < 0 or n - 2 * k - 2 < -2:
        raise InputError(f"bad reduction parameters n={n}, k={k}")
    return base * GRExpr.proj_space(k) * (ONE + GRExpr.lpower(n - k)) + reduced * GRExpr.lpower(k + 1)


def rule_family_total(x: GRExpr, n: int, m: int) -> GRExpr:
    """[Q] = [P^(n+1)][P^(m-1)] + [X] L^m for the family Q of quadrics
    through a complete intersection X of m+1 quadrics in P^(n+1): the class
    of Q."""
    if m < 1:
        raise InputError(f"family base must have dimension m >= 1, got {m}")
    return GRExpr.proj_space(n + 1) * GRExpr.proj_space(m - 1) + x * GRExpr.lpower(m)


@dataclass(frozen=True)
class Derivation:
    """Two routes to one pivot class and the residual difference.

    The hypothesis equation asserts route_a = route_b (both compute the
    pivot class); the residual is their difference in normal form and must
    match the expected statement exactly.  after_hypothesis subtracts the
    hypothesis residual and is identically zero, recorded to make the
    'zero after asserting the hypothesis' step explicit and auditable.
    """

    name: str
    pivot: str
    route_a: GRExpr
    route_a_description: str
    route_b: GRExpr
    route_b_description: str
    statement: GRExpr
    steps: tuple[str, ...]

    @property
    def residual(self) -> GRExpr:
        return self.route_a - self.route_b

    @property
    def after_hypothesis(self) -> GRExpr:
        return self.residual - (self.route_a - self.route_b)

    def consistent(self) -> bool:
        return self.residual == self.statement and self.after_hypothesis.is_zero()

    def render_lines(self) -> list[str]:
        return [
            f"identity: {self.name}",
            f"pivot class: {self.pivot}",
            f"route A ({self.route_a_description}): {self.route_a.render()}",
            f"route B ({self.route_b_description}): {self.route_b.render()}",
            *self.steps,
            f"residual = {self.residual.render()}",
            "after asserting route A = route B: "
            + ("0" if self.after_hypothesis.is_zero() else self.after_hypothesis.render()),
        ]


def _derive_theorem_main() -> Derivation:
    x, y = GRExpr.atom("X"), GRExpr.atom("Y")
    # blowup route: the reduced family is P^4 blown up in the projection X'
    # of X from the base point, and X' is X blown up in the point itself
    route_a = rule_blowup(GRExpr.proj_space(4), rule_blowup(x, ONE, 2), 2)
    # cover route: hyperbolic reduction of the 2-dimensional reduced family
    route_b = rule_hyperbolic_reduction(GRExpr.proj_space(2), 2, 0, y)
    return Derivation(
        name="theorem-main",
        pivot="Qbar_P, the reduced family of the net of a degree-8 surface",
        route_a=route_a,
        route_a_description="blowup of P^4 along the projected surface",
        route_b=route_b,
        route_b_description="base shell plus determinant double cover",
        statement=(x - y) * L,
        steps=("substituted [Xprime] = [X] + L (blowup of a point on a surface)",),
    )


def _derive_corollary_m1() -> Derivation:
    x, y = GRExpr.atom("X"), GRExpr.atom("Y")
    route_a = rule_family_total(x, 2, 1)
    route_b = rule_hyperbolic_reduction(GRExpr.proj_space(1), 2, 0, y)
    return Derivation(
        name="corollary-m1",
        pivot="Q, the pencil of quadric surfaces through a degree-4 curve",
        route_a=route_a,
        route_a_description="fibration of Q over P^3",
        route_b=route_b,
        route_b_description="reduction at a base point of the curve",
        statement=(x - y) * L,
        steps=(),
    )


def _derive_corollary_m2() -> Derivation:
    x, y = GRExpr.atom("X"), GRExpr.atom("Y")
    route_a = rule_family_total(x, 4, 2)
    route_b = rule_hyperbolic_reduction(GRExpr.proj_space(2), 4, 1, y)
    return Derivation(
        name="corollary-m2",
        pivot="Q, the net of quadric fourfolds through a degree-8 surface",
        route_a=route_a,
        route_a_description="fibration of Q over P^5",
        route_b=route_b,
        route_b_description="reduction along a line on the surface",
        statement=(x - y) * L**2,
        steps=(),
    )


def _derive_cubic_plane() -> Derivation:
    x, y = GRExpr.atom("X"), GRExpr.atom("Y")
    route_a = rule_blowup(x, GRExpr.proj_space(2), 2)
    route_b = rule_hyperbolic_reduction(GRExpr.proj_space(2), 2, 0, y)
    return Derivation(
        name="cubic-plane",
        pivot="the blowup of a cubic fourfold along a contained plane",
        route_a=route_a,
        route_a_description="blowup relation for the plane",
        route_b=route_b,
        route_b_description="quadric surface fibration over P^2",
        statement=x - (ONE + GRExpr.lpower(2) + GRExpr.lpower(4)) - y * L,
        steps=(
            "[X] appears with the plane correction [P^2]*L on route A;",
            "moving everything but [X] right gives [X] = 1 + L^2 + L^4 + [Y]*L",
        ),
    )


def _derive_verra() -> Derivation:
    y1, y2 = GRExpr.atom("Y1"), GRExpr.atom("Y2")
    shell = GRExpr.proj_space(2) * (ONE + GRExpr.lpower(2))
    route_a = shell + y1 * L
    route_b = shell + y2 * L
    return Derivation(
        name="verra",
        pivot="the double cover of P^2 x P^2 branched in a (2,2) divisor",
        route_a=route_a,
        route_a_description="quadric fibration over the first factor",
        route_b=route_b,
        route_b_description="quadric fibration over the second factor",
        statement=(y1 - y2) * L,
        steps=(),
    )


def _derive_pfaffian_check() -> Derivation:
    x, y = GRExpr.atom("X"), GRExpr.atom("Y")
    return Derivation(
        name="pfaffian-statement-check",
        pivot="formal statement only: annihilation by L^6 for the"
        " Pfaffian-Grassmannian pair",
        route_a=x * L**6,
        route_a_description="[X]*L^6",
        route_b=y * L**6,
        route_b_description="[Y]*L^6",
        statement=(x - y) * L**6,
        steps=(
            "no derivation chain is in scope; this records that the engine",
            "keeps ([X] - [Y])*L^6 formally nonzero and never cancels L",
        ),
    )


_DERIVATIONS = {
    "theorem-main": _derive_theorem_main,
    "corollary-m1": _derive_corollary_m1,
    "corollary-m2": _derive_corollary_m2,
    "cubic-plane": _derive_cubic_plane,
    "verra": _derive_verra,
    "pfaffian-statement-check": _derive_pfaffian_check,
}

DERIVATION_NAMES = tuple(_DERIVATIONS)


def derive(name: str) -> Derivation:
    """Build the named derivation; its residual is the expected difference
    statement in normal form (never with an L cancelled)."""
    try:
        builder = _DERIVATIONS[name]
    except KeyError:
        raise InputError(
            f"unknown identity {name!r}; known: {', '.join(DERIVATION_NAMES)}"
        ) from None
    return builder()
