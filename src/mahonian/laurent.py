"""Exact sparse Laurent polynomials in the variables q, t, z, s.

Terms live in a private dict mapping length-4 integer exponent vectors
(exponents may be negative) to nonzero integer coefficients, read through
the read-only terms mapping, so a polynomial never changes and is safe to
hash.  Coefficients are plain Python ints, so there is no overflow.
Equality is term-map equality and zero coefficients are never stored;
a polynomial is false exactly when it is zero.

Polynomials are written out by str() and to_json() and are never parsed
back: build them from the constants Q, T, Z, S, ONE and monomial().
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

VARS = ("q", "t", "z", "s")
_NVARS = len(VARS)
_ZEROEXP = (0,) * _NVARS


class ExactDivisionError(ArithmeticError):
    """Raised when a division that should be exact leaves a remainder."""


class Laurent:
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        if terms:
            self._terms = {tuple(e): c for e, c in terms.items() if c}
        else:
            self._terms = {}

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """The exponent vector -> coefficient map, read-only."""
        return MappingProxyType(self._terms)

    # -- construction -------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], int]) -> "Laurent":
        """Wrap a dict of nonzero coefficients that no one else holds,
        without copying it."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def const(cls, c: int) -> "Laurent":
        return cls({_ZEROEXP: c}) if c else cls()

    @classmethod
    def variable(cls, name: str) -> "Laurent":
        e = [0] * _NVARS
        e[VARS.index(name)] = 1
        return cls({tuple(e): 1})

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Laurent.const(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent.const(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Laurent._of(out)

    __radd__ = __add__

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "Laurent":
        return Laurent.const(other) - self

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            if other == 0:
                return Laurent()
            return Laurent({e: c * other for e, c in self._terms.items()})
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    del out[e]
        return Laurent._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            # only unit monomials are invertible over the integers
            if len(self._terms) != 1:
                raise ValueError("negative power of a non-monomial")
            (e, c) = next(iter(self._terms.items()))
            if c not in (1, -1):
                raise ValueError("negative power needs coefficient +-1")
            inv = Laurent({tuple(-x for x in e): c})
            return inv ** (-n)
        result = Laurent.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- division and substitution ------------------------------------------

    def divide_exact(self, divisor: "Laurent") -> "Laurent":
        """Quotient self/divisor, which must be exact.

        Repeated leading-term elimination in lexicographic order; a
        nonzero remainder raises ExactDivisionError.  Valuation bounds
        per variable detect inexact division instead of diverging.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return Laurent()
        lo = tuple(
            min(e[i] for e in self._terms) - min(e[i] for e in divisor._terms)
            for i in range(_NVARS)
        )
        hi = tuple(
            max(e[i] for e in self._terms) - max(e[i] for e in divisor._terms)
            for i in range(_NVARS)
        )
        dlead = max(divisor._terms)
        dcoef = divisor._terms[dlead]
        rem = dict(self._terms)
        quo: dict[tuple[int, ...], int] = {}
        while rem:
            rlead = max(rem)
            qc, leftover = divmod(rem[rlead], dcoef)
            if leftover:
                raise ExactDivisionError(f"nonzero remainder dividing {self} by {divisor}")
            qe = tuple(a - b for a, b in zip(rlead, dlead))
            if any(qe[i] < lo[i] or qe[i] > hi[i] for i in range(_NVARS)):
                raise ExactDivisionError(f"nonzero remainder dividing {self} by {divisor}")
            quo[qe] = quo.get(qe, 0) + qc
            for e, c in divisor._terms.items():
                key = tuple(a + b for a, b in zip(qe, e))
                nc = rem.get(key, 0) - qc * c
                if nc:
                    rem[key] = nc
                else:
                    rem.pop(key, None)
        return Laurent._of({e: c for e, c in quo.items() if c})

    def substitute(self, mapping: Mapping[str, "Laurent"]) -> "Laurent":
        """Simultaneous substitution of polynomials for variables.

        A variable occurring with negative exponents may only receive a
        unit monomial (otherwise the result is not a Laurent polynomial).
        """
        idx = {name: VARS.index(name) for name in mapping}
        powers: dict[tuple[str, int], Laurent] = {}
        result = Laurent()
        for e, c in self._terms.items():
            residual = tuple(0 if VARS[i] in mapping else e[i] for i in range(_NVARS))
            term = Laurent({residual: c})
            for name, target in mapping.items():
                k = e[idx[name]]
                if k == 0:
                    continue
                key = (name, k)
                if key not in powers:
                    powers[key] = target**k
                term = term * powers[key]
            result = result + term
        return result

    # -- queries -------------------------------------------------------------

    def coefficient(self, q: int = 0, t: int = 0, z: int = 0, s: int = 0) -> int:
        return self._terms.get((q, t, z, s), 0)

    def truncate(self, var: str, max_degree: int) -> "Laurent":
        """Drop terms whose exponent of var exceeds max_degree."""
        i = VARS.index(var)
        return Laurent({e: c for e, c in self._terms.items() if e[i] <= max_degree})

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        display_order = ((0, "q"), (3, "s"), (1, "t"), (2, "z"))
        bits: list[tuple[str, str]] = []
        for e in sorted(self._terms):
            c = self._terms[e]
            factors = []
            for i, name in display_order:
                k = e[i]
                if k == 1:
                    factors.append(name)
                elif k != 0:
                    factors.append(f"{name}^{k}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            bits.append(("-" if c < 0 else "+", "*".join(factors)))
        sign, first = bits[0]
        out = ("-" if sign == "-" else "") + first
        for sign, term in bits[1:]:
            out += f" {sign} {term}"
        return out

    def __repr__(self) -> str:
        return f"Laurent({self})"

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(e), "coeff": self._terms[e]} for e in sorted(self._terms)
        ]


def monomial(coeff: int = 1, q: int = 0, t: int = 0, z: int = 0, s: int = 0) -> Laurent:
    return Laurent({(q, t, z, s): coeff})


ZERO = Laurent()
ONE = Laurent.const(1)
Q = Laurent.variable("q")
T = Laurent.variable("t")
Z = Laurent.variable("z")
S = Laurent.variable("s")
