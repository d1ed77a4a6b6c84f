"""Exact sparse Laurent polynomials in the variables q, t, z, s.

Terms live in a private dict mapping packed exponent vectors to nonzero
integer coefficients.  A vector (q, t, z, s) packs into one int as
balanced signed fields of _WIDTH (32) bits, q lowest, then s, t and z:
key = q + s*2**32 + t*2**64 + z*2**96, so a q-only key is its q exponent
and packing is additive, the key of a product term being the sum of its
factors' keys.  Every stored exponent lies in [-2**30, 2**30), so a sum
of two still fits its field and never carries into the next.  Each
polynomial carries an upper bound on its largest |exponent|: a product
adds its factors' bounds and a sum takes the larger, and only a bound
that reaches 2**30 is replaced by the exact maximum, so the range costs
O(1) per operation, not per term.  A builder given an exponent outside
the range, and a product, power, division or substitution whose result
(or a partial product of one substitution group) would leave it, raise
OverflowError.  Only this module knows the layout.

The read-only terms mapping gives the exponent 4-tuples, decoded once
per polynomial on the first read of a key; nothing changes a polynomial,
so it is safe to hash.  Coefficients are plain Python ints, so there is
no overflow in them.  Equality is term-map equality and zero coefficients
are never stored; a polynomial is false exactly when it is zero.  The
public builders Laurent(terms), Laurent.const and monomial raise
ValueError on an exponent vector that is not a tuple of four ints and on
a coefficient or exponent that is not an int, so no float enters; the
internal builders skip those checks.

Polynomials are written out by str() and to_json() and are never parsed
back: build them from the constants Q, T, Z, S, ONE, monomial(),
q_poly() and from_counts().

Every operation is generic in the four variables, since the checks and
the benchmark read them as oracles for the q-only recurrences.  All
multiplication is one inner loop, _mul_into, which adds the product of
two term maps into a dict, one int addition and lookup per pair of
terms, dropping the coefficients that cancel.  Its readers:

- products, so powers (left-to-right binary powering) and the power
  tables of substitute, grown by successive products;
- sum_of_products, which accumulates a sum of products in one dict, for
  the recurrences in genfun;
- divide_exact, which settles its refusals before the loop: the ring
  has no zero divisors, so an exact quotient spans exactly self's
  extent minus the divisor's in each variable, and an empty such box, or
  a point with each variable 1 or -1 where the divisor's value does not
  divide the dividend's, raises ExactDivisionError, a box out of range
  OverflowError.  The loop then eliminates leading terms in the order of
  the keys as ints (lexicographic in z, t, s, q), each step subtracting
  the divisor's other terms times the new quotient term from the
  remainder in place, so every quotient term is written once, and
  raises only ExactDivisionError, on a leftover or a lead outside the
  box;
- substitute, which groups the terms by their exponents in the mapped
  variables (reading and clearing those fields with masks), reads each
  target's powers from a table kept across calls for at most
  _POWERS_CAP (8) targets of at most _POWERS_TERMS (2048) terms each,
  and multiplies each group's factors smallest first, the last product
  accumulated straight into the output.

Each mechanism stays for a measured reason (paired genfun-routes runs
with it removed): the terms view, since comparing two polynomials'
terms reads the packed maps without decoding (a read-only proxy over
the decoded dict read item_tail_ms +19% to +26%); the smallest-first
order of a substitution group (item_p50_ms +7%, item_tail_ms +10%
without it); the power tables kept across calls (item_p50_ms +34%);
and the per-variable fences of divide_exact, since one bound in the int
order of the keys lets (q^2 - t^2)/(q + 1), which no sign point
refuses, walk q down about 2**30 steps where the q box refuses its
first lead.  The per-variable exponent columns of substitute read flat
on the workloads but stay, since without them a lucanomial item's
substitution took 7% to 15% longer in process.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from operator import add, gt, lshift, rshift, sub

VARS = ("q", "t", "z", "s")
_NVARS = len(VARS)

# the packed layout: each variable's field starts at its bit offset in
# _SHIFTS (indexed like VARS), and _BIAS makes every field nonnegative
_WIDTH = 32
_SHIFTS = (0, 2 * _WIDTH, 3 * _WIDTH, _WIDTH)
_MASK = (1 << _WIDTH) - 1
_HALF = 1 << (_WIDTH - 1)
_HALVES = tuple(_HALF << shift for shift in _SHIFTS)
_BIAS = sum(_HALVES)
_LIMIT = 1 << (_WIDTH - 2)
# each field in its place, and the low bit of every field: a biased key
# masked with _PARITY keeps the parity of each exponent
_FIELDS = tuple(_MASK << shift for shift in _SHIFTS)
_PARITY = sum(1 << shift for shift in _SHIFTS)
_RANGE = f"exponents must lie in [-2**{_WIDTH - 2}, 2**{_WIDTH - 2})"


class ExactDivisionError(ArithmeticError):
    """Raised when a division that should be exact leaves a remainder."""


class Laurent:
    __slots__ = ("_terms", "_bound", "_vectors")

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        terms = terms or {}
        packed = {}
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == _NVARS and all(isinstance(x, int) for x in e)):
                raise ValueError(f"exponent vector {e!r} is not a tuple of {_NVARS} ints")
            key = _pack(e)
            if _require_int(c):
                packed[key] = c
        self._terms = packed
        self._bound = _max_exponent(packed)
        self._vectors = None

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """The exponent vector -> coefficient map, read-only."""
        return _Terms(self)

    def _decoded(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent 4-tuples, decoded on the first call
        and kept."""
        if self._vectors is None:
            bias, mask, half = _BIAS, _MASK, _HALF
            sq, st, sz, ss = _SHIFTS
            self._vectors = {
                (
                    ((u := k + bias) >> sq & mask) - half,
                    (u >> st & mask) - half,
                    (u >> sz & mask) - half,
                    (u >> ss & mask) - half,
                ): c
                for k, c in self._terms.items()
            }
        return self._vectors

    # -- construction -------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict[int, int], bound: int) -> "Laurent":
        """Wrap a dict of nonzero coefficients over packed keys that no one
        else holds, without copying it.  bound is an upper bound on its
        |exponents|; one that reaches _LIMIT is replaced by the exact
        maximum, which raises OverflowError out of range."""
        poly = cls.__new__(cls)
        poly._terms = terms
        poly._bound = bound if bound < _LIMIT else _max_exponent(terms)
        poly._vectors = None
        return poly

    @classmethod
    def const(cls, c: int) -> "Laurent":
        return cls._of({0: c} if _require_int(c) else {}, 0)

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
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Laurent":
        return Laurent._of({k: -c for k, c in self._terms.items()}, self._bound)

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent.const(other)
        elif not isinstance(other, Laurent):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                del out[k]
        return Laurent._of(out, max(self._bound, other._bound))

    __radd__ = __add__

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        return self + (-other)

    def __rsub__(self, other: int) -> "Laurent":
        if not isinstance(other, int):
            return NotImplemented
        return Laurent.const(other) - self

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            return Laurent._of({k: c * other for k, c in self._terms.items() if other}, self._bound)
        if not isinstance(other, Laurent):
            return NotImplemented
        return Laurent._of(_mul_into({}, self._terms, other._terms), self._bound + other._bound)

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
            (k, c) = next(iter(self._terms.items()))
            if c not in (1, -1):
                raise ValueError("negative power needs coefficient +-1")
            # packing is additive, so the negated key is the inverse's
            return Laurent._of({-k: c}, self._bound) ** -n
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

        The ring has no zero divisors, so in each variable the least and
        the largest exponent of a product are the sums of its factors':
        an exact quotient spans exactly self's extent minus the divisor's,
        its valuation box.  Before the first step, an empty box and a sign
        point refusing the division (see _signs_refuse; a one-term divisor,
        whose steps add no term, skips it) raise ExactDivisionError, and a
        box leaving the range OverflowError.
        Then repeated leading-term elimination in the order of the keys:
        each step pops the remainder's leading term, which qc*x^qe times
        the divisor's lead cancels exactly, and subtracts qc*x^qe times
        the divisor's other terms from the remainder in place, so the
        leads strictly decrease and every quotient term is written once.
        A leftover, or a lead whose quotient term leaves the box, raises
        ExactDivisionError, so the leads run out.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return Laurent()
        dkey = max(divisor._terms)
        dcoef = divisor._terms[dkey]
        rest = {k: c for k, c in divisor._terms.items() if k != dkey}
        (*sf, sc), (*df, dc) = _fields(self._terms), _fields(divisor._terms)
        # the box: each variable's least and largest quotient exponent, in
        # its field's place
        lo = list(map(sub, map(min, sf), map(min, df)))
        hi = list(map(sub, map(max, sf), map(max, df)))
        if any(map(gt, lo, hi)) or (
            rest and _signs_refuse(zip(sc, self._terms.values()), zip(dc, divisor._terms.values()))
        ):
            raise ExactDivisionError(f"nonzero remainder dividing {self} by {divisor}")
        least, most = min(map(rshift, lo, _SHIFTS)), max(map(rshift, hi, _SHIFTS))
        if least < -_LIMIT or most >= _LIMIT:
            raise OverflowError(f"quotient exponents {least}..{most} out of range: {_RANGE}")
        # the fences are the box, biased: a quotient key is the difference
        # of a sum of two in-range vectors and one, so a field that leaves
        # its _WIDTH bits wraps to a value outside the fences, and a key
        # within them is a vector in the box
        lo0, lo1, lo2, lo3 = map(add, lo, _HALVES)
        hi0, hi1, hi2, hi3 = map(add, hi, _HALVES)
        m0, m1, m2, m3 = _FIELDS
        bias = _BIAS
        rem = dict(self._terms)
        quo: dict[int, int] = {}
        while rem:
            rkey = max(rem)
            qc, leftover = divmod(rem.pop(rkey), dcoef)
            qkey = rkey - dkey
            u = qkey + bias
            if leftover or not (
                lo0 <= u & m0 <= hi0 and lo1 <= u & m1 <= hi1 and lo2 <= u & m2 <= hi2 and lo3 <= u & m3 <= hi3
            ):
                raise ExactDivisionError(f"nonzero remainder dividing {self} by {divisor}")
            quo[qkey] = qc
            _mul_into(rem, {qkey: -qc}, rest)
        return Laurent._of(quo, max(-least, most))

    def substitute(self, mapping: Mapping[str, "Laurent"]) -> "Laurent":
        """Simultaneous substitution of polynomials for variables.

        The terms are grouped by the exponents they carry in the mapped
        variables, leaving one residual polynomial in the other variables
        per group.  Each target's powers come from a table kept across
        calls for at most _POWERS_CAP (8) targets, grown by successive
        products up to the largest exponent in use (below zero, each
        target**k is built by itself and not kept).  Each group
        multiplies its residual and its table entries smallest first, the
        last product added straight into the output, so no group builds a
        polynomial.

        A variable occurring with negative exponents may only receive a
        unit monomial (otherwise the result is not a Laurent polynomial).
        """
        mapped = [var_index(name) for name in mapping]
        groups = _group(self._terms, mapped)
        # each mapped variable's exponent in every group, in group order
        columns = [[((m + _BIAS) >> _SHIFTS[i] & _MASK) - _HALF for m in groups] for i in mapped]
        tables = [_power_table(target, ks) for target, ks in zip(mapping.values(), columns)]
        # target**k has no exponent beyond |k| times the target's bound
        bound = self._bound
        for target, ks in zip(mapping.values(), columns):
            bound += max(map(abs, ks), default=0) * target._bound
        check = bound >= _LIMIT
        out: dict[int, int] = {}
        for residual, *ks in zip(groups.values(), *columns):
            factors = [residual, *(table[k]._terms for table, k in zip(tables, ks) if k)]
            *head, last = sorted(factors, key=len)
            term = head.pop(0) if head else _UNIT
            for factor in head:
                term = _mul_into({}, term, factor)
                if check:
                    # in range before the next product, so it cannot carry
                    _max_exponent(term)
            _mul_into(out, term, last)
        return Laurent._of(out, bound)

    # -- queries -------------------------------------------------------------

    def coefficient(self, q: int = 0, t: int = 0, z: int = 0, s: int = 0) -> int:
        return self._decoded().get((q, t, z, s), 0)

    def truncate(self, var: str, max_degree: int) -> "Laurent":
        """Drop terms whose exponent of var exceeds max_degree."""
        shift = _SHIFTS[var_index(var)]
        return Laurent._of(
            {k: c for k, c in self._terms.items() if ((k + _BIAS) >> shift & _MASK) - _HALF <= max_degree},
            self._bound,
        )

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        display_order = ((0, "q"), (3, "s"), (1, "t"), (2, "z"))
        bits: list[tuple[str, str]] = []
        for e, c in sorted(self._decoded().items()):
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
        return [{"exponents": list(e), "coeff": c} for e, c in sorted(self._decoded().items())]


class _Terms(Mapping):
    """A polynomial's exponent vector -> coefficient map, read-only.

    The vectors are decoded once per polynomial, on the first read of a
    key; the length, the values and the comparison with another
    polynomial's map read the packed map itself.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: Laurent):
        self._poly = poly

    def __getitem__(self, e: tuple[int, ...]) -> int:
        return self._poly._decoded()[e]

    def __iter__(self):
        return iter(self._poly._decoded())

    def __len__(self) -> int:
        return len(self._poly._terms)

    def items(self):
        return self._poly._decoded().items()

    def values(self):
        return self._poly._terms.values()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Terms):
            return self._poly._terms == other._poly._terms
        return self._poly._decoded() == other

    def __repr__(self) -> str:
        return f"terms({self._poly._decoded()!r})"


def var_index(name: str) -> int:
    """The position of the variable name in an exponent vector."""
    if name not in VARS:
        raise ValueError(f"unknown variable {name!r}, not one of {VARS}")
    return VARS.index(name)


def _pack(e: Sequence[int]) -> int:
    """The key of the exponent vector e; OverflowError if an exponent
    leaves [-_LIMIT, _LIMIT)."""
    key = 0
    for x, shift in zip(e, _SHIFTS):
        if not -_LIMIT <= x < _LIMIT:
            raise OverflowError(f"exponent {x} out of range: {_RANGE}")
        key += x << shift
    return key


def _unpack(key: int) -> tuple[int, ...]:
    """The exponent vector packed in key."""
    u = key + _BIAS
    return tuple([(u >> shift & _MASK) - _HALF for shift in _SHIFTS])


def _fields(terms: dict[int, int]) -> list[tuple[int, ...]]:
    """The biased fields of the keys of the nonempty terms, each masked in
    its place, one tuple per variable (indexed like VARS), then the tuple
    of the keys' parity classes."""
    m0, m1, m2, m3 = _FIELDS
    bias, parity = _BIAS, _PARITY
    return list(zip(*[((u := k + bias) & m0, u & m1, u & m2, u & m3, u & parity) for k in terms]))


def _max_exponent(terms: dict[int, int]) -> int:
    """The largest |exponent| in terms, whose keys may be sums of two
    in-range vectors; OverflowError if one leaves [-_LIMIT, _LIMIT)."""
    if not terms:
        return 0
    *fields, _ = _fields(terms)
    lo = min(map(rshift, map(min, fields), _SHIFTS)) - _HALF
    hi = max(map(rshift, map(max, fields), _SHIFTS)) - _HALF
    if lo < -_LIMIT or hi >= _LIMIT:
        raise OverflowError(f"exponents {lo}..{hi} out of range: {_RANGE}")
    return max(-lo, hi)


def _signs_refuse(dividend: Iterable[tuple[int, int]], divisor: Iterable[tuple[int, int]]) -> bool:
    """Whether some point with each variable 1 or -1 shows that divisor
    does not divide dividend, each given as the (parity class,
    coefficient) pairs of its terms.  An exact quotient has integer
    coefficients, so its value there is an integer: the divisor's value
    divides the dividend's, and is 0 only where the dividend's is.

    The coefficients are summed by class in one dict, the divisor's
    classes flagged with bit 2 (no parity bit), and one butterfly stage
    per variable with an odd exponent turns the sums into the values,
    keyed by the parity mask of the variables at -1; a variable with
    only even exponents changes no value.
    """
    sums: defaultdict[int, int] = defaultdict(int)
    for m, c in dividend:
        sums[m] += c
    for m, c in divisor:
        sums[m | 2] += c
    odd = 0
    for m in sums:
        odd |= m
    for shift in _SHIFTS:
        if odd >> shift & 1:
            bit = 1 << shift
            for m in {m & ~bit for m in sums}:
                x, y = sums[m], sums[m | bit]
                sums[m], sums[m | bit] = x + y, x - y
    return any(sums[m ^ 2] % d if d else sums[m ^ 2] for m, d in sums.items() if m & 2)


def _mul_into(out: dict, a: Mapping, b: Mapping) -> dict:
    """Add the product of the term maps a and b into out and return out,
    deleting every coefficient that cancels to zero.

    The shorter map is the outer loop.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def sum_of_products(pairs: Iterable[tuple[Laurent, Laurent]]) -> Laurent:
    """The sum of a*b over the pairs (a, b), accumulated in one dict."""
    out: dict[int, int] = {}
    bound = 0
    for a, b in pairs:
        _mul_into(out, a._terms, b._terms)
        if a._bound + b._bound > bound:
            bound = a._bound + b._bound
    return Laurent._of(out, bound)


def _group(terms: dict[int, int], indices: list[int]) -> dict[int, dict[int, int]]:
    """The terms grouped by their exponents in the variables at indices:
    each group is keyed by those exponents packed alone and maps the keys
    with those fields cleared to the coefficients."""
    fields = sum(_FIELDS[i] for i in indices)
    bias = _BIAS & fields
    groups: dict[int, dict[int, int]] = {}
    for k, c in terms.items():
        m = ((k + _BIAS) & fields) - bias
        groups.setdefault(m, {})[k - m] = c
    return groups


def _power_table(target: Laurent, exponents: list[int]) -> tuple[Laurent, ...]:
    """A tuple holding target**k at index k for every k between the least
    and the largest of the exponents, negative k by Python's negative
    indexing (target**k with k < 0 exists only for a unit monomial)."""
    lo, hi = min(exponents, default=0), max(exponents, default=0)
    if lo >= 0:
        return _powers(target, hi)
    # raises for a target that is not a unit monomial, before any store
    below = tuple(target**k for k in range(lo, 0))
    return _powers(target, hi)[: max(hi, 0) + 1] + below


def _powers(target: Laurent, m: int) -> tuple[Laurent, ...]:
    """(target**0, ..., target**m) or a longer such tuple.

    The tables are kept in _POWERS.  A table that is too short is
    extended by successive products into a new tuple, never in place, so
    a reader never sees a half-built one, and only its longest prefix of
    at most _POWERS_TERMS terms is stored; a new target drops the oldest
    of _POWERS_CAP stored ones.
    """
    powers = _POWERS.get(target, (ONE,))
    if len(powers) > m:
        return powers
    grown = list(powers)
    size = sum(len(p._terms) for p in grown)
    kept = len(grown)
    while len(grown) <= m:
        grown.append(grown[-1] * target)
        size += len(grown[-1]._terms)
        if size <= _POWERS_TERMS:
            kept = len(grown)
    if kept > len(powers):
        if target not in _POWERS and len(_POWERS) >= _POWERS_CAP:
            _POWERS.pop(next(iter(_POWERS)), None)
        _POWERS[target] = tuple(grown[:kept])
    return tuple(grown)


def _require_int(c: int) -> int:
    """c, unless it is not an int: coefficients and exponents are exact."""
    if not isinstance(c, int):
        raise ValueError(f"{c!r} is not an int")
    return c


def monomial(coeff: int = 1, q: int = 0, t: int = 0, z: int = 0, s: int = 0) -> Laurent:
    for x in (coeff, q, t, z, s):
        _require_int(x)
    key = _pack((q, t, z, s))
    return Laurent._of({key: coeff} if coeff else {}, max(abs(q), abs(t), abs(z), abs(s)))


def from_counts(slots: Sequence[int], counts: Mapping[tuple[int, ...], int]) -> Laurent:
    """The sum of c * prod(VARS[i]**v for i, v in zip(slots, values)) over
    the items (values, c) of counts, whose value tuples are distinct;
    OverflowError if a value leaves [-_LIMIT, _LIMIT)."""
    flat = [v for values in counts for v in values]
    lo, hi = min(flat, default=0), max(flat, default=0)
    if lo < -_LIMIT or hi >= _LIMIT:
        raise OverflowError(f"exponent {lo if lo < -_LIMIT else hi} out of range: {_RANGE}")
    shifts = [_SHIFTS[i] for i in slots]
    return Laurent._of({sum(map(lshift, values, shifts)): c for values, c in counts.items() if c}, max(-lo, hi))


def q_poly(coeffs: Iterable[int]) -> Laurent:
    """The polynomial in q whose coefficient of q^j is the j-th of the
    integer coeffs."""
    # a q-only key is its q exponent
    terms = {j: c for j, c in enumerate(coeffs) if c}
    return Laurent._of(terms, max(terms, default=0))


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
# the most terms stored per target: (1+q)^0..(1+q)^62 is 2016 terms
_POWERS_TERMS = 2048
