"""Exact sparse Laurent polynomials in the variables q, t, z, s.

Terms live in a private dict mapping length-4 integer exponent vectors
(exponents may be negative) to nonzero integer coefficients, read through
the read-only terms mapping, so a polynomial never changes and is safe to
hash.  Coefficients are plain Python ints, so there is no overflow.
Equality is term-map equality and zero coefficients are never stored;
a polynomial is false exactly when it is zero.

Polynomials are written out by str() and to_json() and are never parsed
back: build them from the constants Q, T, Z, S, ONE and monomial().

Every operation is generic in the four variables, since the checks and
the benchmark read them as oracles for the q-only recurrences:

- products add unpacked exponent 4-tuples term by term, and powers are
  left-to-right binary powering;
- divide_exact eliminates leading terms in lexicographic order, each
  step cancelling the current lead exactly, so every quotient term is
  written once;
- substitute groups the terms by their exponents in the mapped
  variables, tables each target's powers once, and makes one product
  per group, summed into a single dict.
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
        # a constant equals its integer, so it must hash as that integer
        if self._terms.keys() <= {_ZEROEXP}:
            return hash(self._terms.get(_ZEROEXP, 0))
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
        """self**n by left-to-right binary powering.

        From self (the top bit of n), each lower bit squares, and a set
        bit then multiplies by self, so p**2 is one product and p**8
        three.  A negative power exists only for a unit monomial.
        """
        if n < 0:
            # only unit monomials are invertible over the integers
            if len(self._terms) != 1:
                raise ValueError("negative power of a non-monomial")
            (e, c) = next(iter(self._terms.items()))
            if c not in (1, -1):
                raise ValueError("negative power needs coefficient +-1")
            inv = Laurent({tuple(-x for x in e): c})
            return inv ** (-n)
        if n == 0:
            return Laurent.const(1)
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- division and substitution ------------------------------------------

    def divide_exact(self, divisor: "Laurent") -> "Laurent":
        """Quotient self/divisor, which must be exact.

        Repeated leading-term elimination in lexicographic order: each
        step subtracts qc*x^qe*divisor, which cancels the remainder's
        leading term exactly, so the leads strictly decrease and every
        quotient term is written once.  A nonzero remainder raises
        ExactDivisionError; so does a quotient exponent outside the
        per-variable valuation bounds, which stops an inexact division
        instead of letting it diverge.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return Laurent()
        lo0, lo1, lo2, lo3 = (
            min(e[i] for e in self._terms) - min(e[i] for e in divisor._terms)
            for i in range(_NVARS)
        )
        hi0, hi1, hi2, hi3 = (
            max(e[i] for e in self._terms) - max(e[i] for e in divisor._terms)
            for i in range(_NVARS)
        )
        d0, d1, d2, d3 = dlead = max(divisor._terms)
        dcoef = divisor._terms[dlead]
        rest = [(*e, c) for e, c in divisor._terms.items() if e != dlead]
        rem = dict(self._terms)
        quo: dict[tuple[int, ...], int] = {}
        while rem:
            r0, r1, r2, r3 = rlead = max(rem)
            qc, leftover = divmod(rem.pop(rlead), dcoef)
            q0, q1, q2, q3 = r0 - d0, r1 - d1, r2 - d2, r3 - d3
            if leftover or not (
                lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1 and lo2 <= q2 <= hi2 and lo3 <= q3 <= hi3
            ):
                raise ExactDivisionError(f"nonzero remainder dividing {self} by {divisor}")
            quo[q0, q1, q2, q3] = qc
            for e0, e1, e2, e3, c in rest:
                key = (q0 + e0, q1 + e1, q2 + e2, q3 + e3)
                nc = rem.get(key, 0) - qc * c
                if nc:
                    rem[key] = nc
                else:
                    del rem[key]
        return Laurent._of(quo)

    def substitute(self, mapping: Mapping[str, "Laurent"]) -> "Laurent":
        """Simultaneous substitution of polynomials for variables.

        The terms are grouped by the exponents they carry in the mapped
        variables, leaving one residual polynomial in the other variables
        per group.  Each target's powers are tabled once, by successive
        products up to the largest exponent in use (and by powers of
        target**-1 below zero), and each group is one product of its
        residual with its table entries, summed into a single dict.

        A variable occurring with negative exponents may only receive a
        unit monomial (otherwise the result is not a Laurent polynomial).
        """
        mapped = [VARS.index(name) for name in mapping]
        groups: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for e, c in self._terms.items():
            residual = list(e)
            for i in mapped:
                residual[i] = 0
            groups.setdefault(tuple([e[i] for i in mapped]), {})[tuple(residual)] = c
        tables = [
            _power_table(target, [ks[j] for ks in groups])
            for j, target in enumerate(mapping.values())
        ]
        out: dict[tuple[int, ...], int] = {}
        for ks, residual in groups.items():
            term = Laurent._of(residual)
            for table, k in zip(tables, ks):
                if k:
                    term = term * table[k]
            for e, c in term._terms.items():
                nc = out.get(e, 0) + c
                if nc:
                    out[e] = nc
                else:
                    del out[e]
        return Laurent._of(out)

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


def _power_table(target: Laurent, exponents: list[int]) -> dict[int, Laurent]:
    """target**k for every nonzero k between the least and the largest of
    the exponents, by successive products (with target**-1 below zero,
    which exists only for a unit monomial)."""
    lo, hi = min(exponents, default=0), max(exponents, default=0)
    table = {}
    power = ONE
    for k in range(1, hi + 1):
        power = power * target
        table[k] = power
    if lo < 0:
        inverse = target**-1
        power = ONE
        for k in range(-1, lo - 1, -1):
            power = power * inverse
            table[k] = power
    return table


def monomial(coeff: int = 1, q: int = 0, t: int = 0, z: int = 0, s: int = 0) -> Laurent:
    return Laurent({(q, t, z, s): coeff})


ZERO = Laurent()
ONE = Laurent.const(1)
Q = monomial(q=1)
T = monomial(t=1)
Z = monomial(z=1)
S = monomial(s=1)
