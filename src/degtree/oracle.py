"""Exhaustive enumeration and exact counting of trees for a degree multiset.

Ground truth for the sampler.  ``enumerate_trees`` lists every code in
lexicographic order, from one table of completions over the
multiplicities still left.  ``count_trees`` evaluates the closed form
``(n-1)! / prod(m_d!)`` exactly, from the exponent of each prime in it
(Legendre's formula) and a balanced product of the prime powers.  The
test suite holds the two routes equal over a full sweep of small
multisets before either is trusted.  numpy is imported only by the
exponent step, so importing this module does not load it.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress, repeat
from math import factorial, isqrt
from operator import mul

# unused here; bench test_names_rebound_by_import_are_traced wraps oracle.is_well_formed
from .degrees import DegreeMultiset, is_well_formed
from .errors import EnumerationTooLargeError, NotConstructibleError

TYPE_CHECKING = False  # True for a type checker; typing is not imported at run time
if TYPE_CHECKING:
    import decimal

    import numpy as np

#: Node-count ceiling for exhaustive enumeration.  Time and memory are
#: linear in the table's states and the result, so the bound caps the
#: size of the result: no 10-node multiset has more than 756 trees
#: (``{0: 5, 1: 2, 2: 2, 3: 1}``).
DEFAULT_ENUMERATION_BOUND = 10


def enumerate_trees(
    multiset: DegreeMultiset, bound: int = DEFAULT_ENUMERATION_BOUND
) -> list[tuple[int, ...]]:
    """Every well-formed code over ``multiset``, in strictly increasing order.

    A state is the multiplicities still left, kept as one index whose
    mixed-radix digits they are: at most ``prod(m_d + 1)`` states.  Its
    charge, ``1 - sum((1 - d) * left_d)``, fixes what may come next:
    degree d, if one is left and the state after it has charge <= 0 or is
    empty.  Each state's row of completions is built once, in ascending
    order, from the rows of the states one symbol smaller; a completion is
    a degree and the index of the rest, so codes are copied out only at
    the root.  Time is linear in the states times the distinct degrees
    plus the result, and peak memory about two to three times the
    result's, so ``bound`` guards the node count.  A non-constructible
    multiset yields ``[]``.

    Raises:
        EnumerationTooLargeError: if ``multiset.total_nodes > bound``.
    """
    if multiset.total_nodes > bound:
        raise EnumerationTooLargeError(multiset.total_nodes, bound)
    if multiset.charge != 1:
        return []
    steps, charges, size = [], [1], 1
    for degree, multiplicity in multiset.counts.items():
        # this degree's digit of a state is state % span // stride
        steps.append((degree, size, size * (multiplicity + 1)))
        charges = [c + k * (degree - 1) for k in range(multiplicity + 1) for c in charges]
        size *= multiplicity + 1
    enterable = [charge <= 0 for charge in charges]
    enterable[0] = True
    # completion i is heads[i] followed by completion tails[i]; 0 is empty
    heads, tails = [None], [None]
    rows = [range(1)] + [None] * (size - 1)
    for state in compress(range(1, size), enterable[1:]):
        start = len(heads)
        for degree, stride, span in steps:
            if state % span >= stride and enterable[state - stride]:
                row = rows[state - stride]
                heads += repeat(degree, len(row))
                tails += row
        rows[state] = range(start, len(heads))
    codes = []
    for i in rows[-1]:
        code = []
        while i:
            code.append(heads[i])
            i = tails[i]
        codes.append(tuple(code))
    return codes


def count_trees(multiset: DegreeMultiset) -> int:
    """Exact number of distinct trees matching ``multiset``.

    Evaluates ``(n! / prod(m_d!)) / n = (n-1)! / prod(m_d!)``: the
    multinomial counts the pairwise-different orderings of the degree
    list, and exactly one ordering in n is well-formed.  The count is
    the product of ``p**e`` over the primes p below n, with e from
    Legendre's formula, multiplied in a balanced tree so that large
    counts cost quasi-linear time in their length.

    Unlike ``enumerate_trees`` it takes no node bound, and its prime
    sieve takes n bytes; the ``count`` command refuses more than 1e7
    nodes.

    Raises:
        NotConstructibleError: if the multiset charge differs from 1.
    """
    primes, exponents = _count_exponents(multiset)
    return _balanced_product(map(pow, primes, exponents), mul, 1)


def _count_decimal(multiset: DegreeMultiset) -> decimal.Decimal:
    # count_trees formed in decimal, where libmpdec multiplies long numbers
    # by a number-theoretic transform and str() is linear; no
    # binary-to-decimal conversion (quadratic in CPython) ever runs.
    primes, exponents = _count_exponents(multiset)
    import decimal  # loaded only by the count command

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    return _balanced_product(map(exact.power, primes, exponents), exact.multiply, 1)


def _count_exponents(multiset: DegreeMultiset) -> tuple[list[int], list[int]]:
    # The primes p < n with a positive exponent e_p in (n-1)!/prod(m_d!),
    # and those exponents: e_p((n-1)!) - sum_d e_p(m_d!).  The sieve takes
    # n bytes.
    total_charge = multiset.charge
    if total_charge != 1:
        raise NotConstructibleError(total_charge)
    import numpy as np

    top = multiset.total_nodes - 1
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.flatnonzero(sieve)
    exponents = _factorial_exponents(top, primes)
    for multiplicity in multiset.counts.values():
        below = np.searchsorted(primes, multiplicity, side="right")
        exponents[:below] -= _factorial_exponents(multiplicity, primes[:below])
    present = exponents > 0
    return primes[present].tolist(), exponents[present].tolist()


def _factorial_exponents(m: int, primes: np.ndarray) -> np.ndarray:
    # Legendre's formula: the exponent of p in m! is the sum over k >= 1 of
    # m // p**k, found as repeated floor division of m by p.  The quotients
    # fall as p grows, so the primes still contributing are a prefix.
    import numpy as np

    exponents = np.zeros(len(primes), dtype=np.int64)
    quotients = np.full(len(primes), m, dtype=np.int64)
    while len(primes):
        quotients //= primes
        live = np.count_nonzero(quotients)
        primes, quotients = primes[:live], quotients[:live]
        exponents[:live] += quotients
    return exponents


def _balanced_product(factors: Iterable, multiply, one):
    # A binary counter over the factors: after factor i the stack holds one
    # partial product per set bit of i, of 2**bit factors each.  Every
    # multiplication joins two products of as many factors, and only
    # O(log n) partial products are alive at once.
    stack = []
    for i, factor in enumerate(factors, 1):
        while not i & 1:
            factor = multiply(stack.pop(), factor)
            i >>= 1
        stack.append(factor)
    product = one
    for partial in reversed(stack):
        product = multiply(partial, product)
    return product


def catalan(n: int) -> int:
    """n-th Catalan number ``(2n)! / (n! (n+1)!)``, exactly.

    Counts the binary trees with n internal (outdegree-2) nodes, i.e.
    ``count_trees({0: n + 1, 2: n})``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def binary_leaf_count(internal_nodes: int) -> int:
    """Leaves needed to close ``internal_nodes`` outdegree-2 nodes into a tree.

    Solving ``charge + leaves = 1`` with every internal node contributing
    ``1 - 2`` gives ``internal_nodes + 1``.
    """
    if internal_nodes < 0:
        raise ValueError(f"internal_nodes must be non-negative, got {internal_nodes}")
    return internal_nodes + 1
