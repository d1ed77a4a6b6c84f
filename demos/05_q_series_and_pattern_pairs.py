"""Rank sieves, truncated products, Lucas-sequence binomials, and
pattern-avoidance pairs.

Run with: python3 demos/05_q_series_and_pattern_pairs.py
"""

from mahonian import (
    distribution,
    inv,
    lucanomial,
    maj,
    partitions_of,
    pattern_class,
    q_binomial,
    st_catalan,
    truncated_product,
)
from mahonian.laurent import ONE, Q, monomial
from mahonian.partitions import all_ranks, parts_off_residues

# Partitions with every rank positive are equinumerous with partitions
# avoiding the part 1; the right side is a product.
N = 12
prod = truncated_product(range(2, N + 1), N)
for n in range(N + 1):
    a = sum(1 for p in partitions_of(n) if all_ranks(p, lambda r: r >= 1))
    assert a == prod.coefficient(q=n)
print("all-ranks-positive counts match 1/((1-q^2)(1-q^3)...) through q^12")

# Restricting ranks to an interval matches dropping residue classes of
# parts; the modulus-5 cases are the Rogers-Ramanujan sieves.
for modulus, r in ((5, 1), (5, 2)):
    rhs = truncated_product(parts_off_residues(modulus, r, N), N)
    for n in range(N + 1):
        a = sum(
            1
            for p in partitions_of(n)
            if all_ranks(p, lambda x: -r + 2 <= x <= modulus - r - 2)
        )
        assert a == rhs.coefficient(q=n)
    print(f"rank interval [{-r + 2}, {modulus - r - 2}] matches parts != 0, +-{r} mod {modulus}")

# Lucas-sequence binomials: nonnegative polynomials in s, t specializing
# to fibonomials (s = t = 1) and Gaussian binomials (s = 1+q, t = -q).
print("\n{4 choose 2} =", lucanomial(4, 2))
print("at s=1+q, t=-q:", lucanomial(4, 2).substitute({"s": ONE + Q, "t": -Q}))
print("Gaussian [4 2]:", q_binomial(4, 2))

# The Catalan analogue is again a nonnegative polynomial.
print("\nCatalan analogue at n=3:", st_catalan(3))
print(
    "two-binomial form:",
    lucanomial(5, 2) + monomial(1, t=1) * lucanomial(5, 1),
)

# Pattern-avoidance classes: maj over one doubleton class matches inv
# over another, for every n.
n = 6
S = list(pattern_class(n, [(1, 3, 2), (2, 1, 3)]))
T = list(pattern_class(n, [(1, 3, 2), (2, 3, 1)]))
print(f"\n|Av_{n}| classes: {len(S)} and {len(T)}")
print("maj over the first: ", distribution(S, {"q": maj}))
print("inv over the second:", distribution(T, {"q": inv}))
