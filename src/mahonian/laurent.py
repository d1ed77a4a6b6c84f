"""Exact sparse Laurent polynomials in the variables q, t, z, s.

Terms live in a private dict mapping length-4 integer exponent vectors
(exponents may be negative) to nonzero integer coefficients, read through
the read-only terms mapping, so a polynomial never changes and is safe to
hash.  Coefficients are plain Python ints, so there is no overflow.
Equality is term-map equality and zero coefficients are never stored;
a polynomial is false exactly when it is zero.  The public builders
Laurent(terms), Laurent.const and monomial raise ValueError on an
exponent vector that is not a tuple of four ints and on a coefficient or
exponent that is not an int, so no float enters; the internal builders
skip those checks.

Polynomials are written out by str() and to_json() and are never parsed
back: build them from the constants Q, T, Z, S, ONE and monomial().

Every operation is generic in the four variables, since the checks and
the benchmark read them as oracles for the q-only recurrences.  All
multiplication is one inner loop, _mul_into, which adds the product of
two term maps into a dict over unpacked exponent 4-tuples, dropping the
coefficients that cancel.  Its readers:

- products, so powers (left-to-right binary powering) and the power
  tables of substitute, grown by successive products;
- sum_of_products, which accumulates a sum of products in one dict, for
  the recurrences in genfun;
- divide_exact, which eliminates leading terms in lexicographic order,
  each step subtracting the divisor's other terms times the new
  quotient term from the remainder in place, so every quotient term is
  written once;
- substitute, which groups the terms by their exponents in the mapped
  variables, reads each target's powers from a table kept across calls
  for at most _POWERS_CAP (8) targets, and multiplies each group's
  factors smallest first, the last product accumulated straight into
  the output.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

VARS = ("q", "t", "z", "s")
_NVARS = len(VARS)
_ZEROEXP = (0,) * _NVARS


class ExactDivisionError(ArithmeticError):
    """Raised when a division that should be exact leaves a remainder."""


class Laurent:
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        terms = terms or {}
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == _NVARS and all(isinstance(x, int) for x in e)):
                raise ValueError(f"exponent vector {e!r} is not a tuple of {_NVARS} ints")
            _require_int(c)
        self._terms = {e: c for e, c in terms.items() if c}

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
        return cls._of({_ZEROEXP: c} if _require_int(c) else {})

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
        return Laurent._of({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent.const(other)
        elif not isinstance(other, Laurent):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                del out[e]
        return Laurent._of(out)

    __radd__ = __add__

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        return self + (-other)

    def __rsub__(self, other: int) -> "Laurent":
        if not isinstance(other, int):
            return NotImplemented
        return Laurent.const(other) - self

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            return Laurent._of({e: c * other for e, c in self._terms.items() if other})
        if not isinstance(other, Laurent):
            return NotImplemented
        return Laurent._of(_mul_into({}, self._terms, other._terms))

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
            return Laurent._of({tuple(-x for x in e): c}) ** -n
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
        step pops the remainder's leading term, which qc*x^qe times the
        divisor's lead cancels exactly, and subtracts qc*x^qe times the
        divisor's other terms from the remainder in place, so the leads
        strictly decrease and every quotient term is written once.  A
        nonzero remainder raises ExactDivisionError; so does a quotient
        exponent outside the per-variable valuation bounds, which stops
        an inexact division instead of letting it diverge.
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
        rest = {e: c for e, c in divisor._terms.items() if e != dlead}
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
            _mul_into(rem, {(q0, q1, q2, q3): -qc}, rest)
        return Laurent._of(quo)

    def substitute(self, mapping: Mapping[str, "Laurent"]) -> "Laurent":
        """Simultaneous substitution of polynomials for variables.

        The terms are grouped by the exponents they carry in the mapped
        variables, leaving one residual polynomial in the other variables
        per group.  Each target's powers come from a table kept across
        calls for at most _POWERS_CAP (8) targets, grown by successive
        products up to the largest exponent in use (below zero, the
        table of target**-1).  Each group multiplies its residual and its
        table entries smallest first, the last product added straight
        into the output, so no group builds a polynomial.

        A variable occurring with negative exponents may only receive a
        unit monomial (otherwise the result is not a Laurent polynomial).
        """
        mapped = [var_index(name) for name in mapping]
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
            factors = [residual, *(table[k]._terms for table, k in zip(tables, ks) if k)]
            *head, last = sorted(factors, key=len)
            term = head.pop(0) if head else _UNIT
            for factor in head:
                term = _mul_into({}, term, factor)
            _mul_into(out, term, last)
        return Laurent._of(out)

    # -- queries -------------------------------------------------------------

    def coefficient(self, q: int = 0, t: int = 0, z: int = 0, s: int = 0) -> int:
        return self._terms.get((q, t, z, s), 0)

    def truncate(self, var: str, max_degree: int) -> "Laurent":
        """Drop terms whose exponent of var exceeds max_degree."""
        i = var_index(var)
        return Laurent._of({e: c for e, c in self._terms.items() if e[i] <= max_degree})

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


def var_index(name: str) -> int:
    """The position of the variable name in an exponent vector."""
    if name not in VARS:
        raise ValueError(f"unknown variable {name!r}, not one of {VARS}")
    return VARS.index(name)


def _mul_into(out: dict, a: Mapping, b: Mapping) -> dict:
    """Add the product of the term maps a and b into out and return out,
    deleting every coefficient that cancels to zero.

    The shorter map is the outer loop.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for (a0, a1, a2, a3), ca in a.items():
        for (b0, b1, b2, b3), cb in b.items():
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            c = get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def sum_of_products(pairs: Iterable[tuple[Laurent, Laurent]]) -> Laurent:
    """The sum of a*b over the pairs (a, b), accumulated in one dict."""
    out: dict[tuple[int, ...], int] = {}
    for a, b in pairs:
        _mul_into(out, a._terms, b._terms)
    return Laurent._of(out)


def _power_table(target: Laurent, exponents: list[int]) -> tuple[Laurent, ...]:
    """A tuple holding target**k at index k for every k between the least
    and the largest of the exponents, negative k by Python's negative
    indexing (target**-1 exists only for a unit monomial)."""
    lo, hi = min(exponents, default=0), max(exponents, default=0)
    if lo >= 0:
        return _powers(target, hi)
    # raises for a target that is not a unit monomial, before any store
    below = _powers(target**-1, -lo)
    return _powers(target, hi)[: max(hi, 0) + 1] + below[-lo:0:-1]


def _powers(target: Laurent, m: int) -> tuple[Laurent, ...]:
    """(target**0, ..., target**m) or a longer such tuple, kept in _POWERS.

    A table that is too short is extended by successive products into a
    new tuple, never in place, so a reader never sees a half-built one.
    A new target drops the oldest of _POWERS_CAP stored ones.
    """
    powers = _POWERS.get(target, (ONE,))
    if len(powers) > m:
        return powers
    grown = list(powers)
    while len(grown) <= m:
        grown.append(grown[-1] * target)
    if target not in _POWERS and len(_POWERS) >= _POWERS_CAP:
        _POWERS.pop(next(iter(_POWERS)), None)
    powers = _POWERS[target] = tuple(grown)
    return powers


def _require_int(c: int) -> int:
    """c, unless it is not an int: coefficients and exponents are exact."""
    if not isinstance(c, int):
        raise ValueError(f"{c!r} is not an int")
    return c


def monomial(coeff: int = 1, q: int = 0, t: int = 0, z: int = 0, s: int = 0) -> Laurent:
    for x in (coeff, q, t, z, s):
        _require_int(x)
    return Laurent._of({(q, t, z, s): coeff} if coeff else {})


ZERO = Laurent()
ONE = Laurent.const(1)
Q = monomial(q=1)
T = monomial(t=1)
Z = monomial(z=1)
S = monomial(s=1)
_UNIT = ONE._terms
# target -> (target**0, ..., target**m), insertion-ordered, oldest first
_POWERS: dict[Laurent, tuple[Laurent, ...]] = {}
_POWERS_CAP = 8
