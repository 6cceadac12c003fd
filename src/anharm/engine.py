"""Core recursion engine for the semiclassical expansion of the log-derivative.

Writing the bound-state log-derivative as C(r) = sum_k C_k(r) hbar^k and the
energy as E = sum_k E_k hbar^k turns the radial Schroedinger problem into a
triangular hierarchy of coefficient identities.  Each C_k for k >= 1 is a
Laurent series

    C_k(r) = r^(1-2k) * sum_i  C[k][i] r^(2i),

while the classical momentum term C_0(r) = -sqrt(2 m V(r)) is an odd Taylor
series r * sum_i C0[i] r^(2i).  Matching powers of r at each order in hbar
gives a recursion that fills a rectangular rational table level by level; the
residue of C_k at the origin is pinned by the node-count quantization rule,
which is what makes ground and excited states uniform.  All arithmetic is
exact.

The table is filled on integers in oscillator units (m = omega = 1), where
v~_i = v_i / (m^(i+1) omega^(i+2)) and every divisor of the recursion is 2.
With weight i for v~_i, C~[k][i] is weighted-homogeneous of degree i in the
couplings and E~_k of degree k-1, so scaling v~_i by s^i scales them by s^i
and s^(k-1), for any rational s.  For an integer D with den(v~_i) | D^i the
couplings v~_i D^i are integers, and they share a factor G^i: G is the
largest integer with G^i | v~_i D^i for every nonzero coupling.  The fill
runs on the integer couplings u_i = v~_i D^i / G^i, in the unit s = D/G,
with the power of 2 as the only denominator, and the exponent rule reads

    C~[k][i] = N[k][i] G^i / (2^(k+i) D^i),    C[k][i] = (m omega)^(1-k+i) C~[k][i],
    E_k = omega G^(k-1) E~_k(u) / D^(k-1),

row 0 included.  Every N[k][i] carries i log2(G) bits fewer than in a fill
on v~_i D^i.  Every product N[j][p] N[k-j][i-p] of a convolution sits at
exponent k+i, so the fill is gcd-free big-integer dot products; the only
division, by 2, is exact and checked.

Zeros are skipped by position.  Row j is nonzero only in columns
first[j]..last[j], read from the row itself, and a convolution multiplies
only entries inside those spans.  This pays on nodeless states: for n = 0,
C_k (k >= 2) has no pole at the origin, so row k starts at column k and a
ground-state table is an upper triangle.  In a fill without a momentum term,
that is every harmonic potential and couplings that are zero up to K-1,
row k ends at the last column that row k-1 or a pair of rows reaches, and
the rest of the row is zeros.  One `Fraction` is built per energy and per
nonzero entry of a row read; every zero entry is one shared Fraction(0).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .model import EnergySeries, PotentialSpec, QuantumState

DEFAULT_MAX_ORDER = 64
_ZERO = Fraction(0)


class EngineError(Exception):
    """Recursion-level failure."""


class OrderTooLarge(EngineError):
    """Requested expansion order exceeds the configured resource cap."""


def _halve(acc: int, cell: str) -> int:
    """acc / 2, which the exponent rule makes exact; an odd acc is an engine fault."""
    if acc & 1:
        raise EngineError(f"odd numerator at {cell}: the integer recursion lost exactness")
    return acc >> 1


def _common_power(couplings: list[int]) -> int:
    """The largest G with G^i | u_i for every nonzero u_i = couplings[i-1].

    G divides c, the gcd of the u_i, and a prime q of c enters G as q^e with
    e = min over nonzero u_i of floor(v_q(u_i) / i).  Trial division takes
    the primes of c below 1000 one at a time and gives each its exact
    exponent, where lowering c by gcd steps can lose a prime (for
    u = 1080, -7560000, 47628000000 it finds 20, not 60).  What trial
    division leaves of c is a prime, or past the bound a product of larger
    primes taken whole: its powers keep G^i | u_i but may stop short of the
    largest G.
    """
    c = math.gcd(*couplings)  # a zero coupling leaves the gcd as it is
    terms = [(i, u) for i, u in enumerate(couplings, start=1) if u]
    g, q = 1, 2
    while c > 1:
        if q * q > c or q > 1000:
            q = c  # a prime, or a product of primes past the trial bound
        elif c % q:
            q += 1 if q == 2 else 2
            continue
        while c % q == 0:
            c //= q
        e = 0
        while all(u % q ** (i * (e + 1)) == 0 for i, u in terms):
            e += 1
        g *= q**e
    return g


def _momentum_row(potential: PotentialSpec, imax: int) -> tuple[int, int, list[int]]:
    """D, G and the integer momentum row N[0][0..imax], in the unit D/G:
    c~_i = N[0][i] G^i / (2^i D^i).

    In oscillator units c~_0 = -1 and

        c~_i = (sum_{p=1}^{i-1} c~_p c~_{i-p} - 2 v~_i) / 2.

    D needs den(v~_i) | D^i for every i.  Since v~_i = (v_i / omega) / (m omega)^(i+1),
    both lcm den(v~_i) and lcm den(v_i / omega) num(m omega)^2 qualify, and so
    does their gcd, which needs no factoring.  G is `_common_power` of the
    integers v~_i D^i, and the row is filled on the integer couplings
    u_i = v~_i D^i / G^i, where c~_i(u) = (D/G)^i c~_i(v~) by homogeneity.
    A coupling past the given ones is zero, with denominator 1, so only the
    given ones are read as Fractions.
    """
    mw, omega = potential.mass * potential.omega, potential.omega
    couplings = potential.anharmonic[:imax]
    scaled = [v / (omega * mw ** (i + 1)) for i, v in enumerate(couplings, start=1)]
    d = math.gcd(
        math.lcm(*(v.denominator for v in scaled)),
        math.lcm(*((v / omega).denominator for v in couplings)) * mw.numerator**2,
    )
    u = [v.numerator * (d**i // v.denominator) for i, v in enumerate(scaled, start=1)]
    g = _common_power(u)
    u = [x // g**i for i, x in enumerate(u, start=1)]
    row = [-1]
    for i in range(1, imax + 1):
        acc = sum(map(mul, row[1:i], row[i - 1:0:-1]))
        if i <= len(u):  # v_i = 0 past the given couplings
            acc -= 2 ** (i + 1) * u[i - 1]
        row.append(_halve(acc, f"C0[{i}]"))
    return d, g, row


class CoefficientTable:
    """The filled table of Laurent coefficients C[k][i], k = 0..order, i = 0..order-1.

    Row 0 is the momentum Taylor series, -sqrt(2 m V(r)) = r sum_i c_i r^(2i),
    with c_0 = -m omega and, squaring the series against 2mV term by term,

        c_i = (sum_{p=1}^{i-1} c_p c_{i-p} - 2 m v_i) / (2 m omega);

    rows 1..order hold the hbar^k Laurent coefficients.  `compute_series`
    builds it complete, and it is read-only from then on.  It holds the
    integer numerators N[k][i] of the fill on u_i = v~_i D^i / G^i, in the
    unit D/G; C~[k][i] has degree i in the couplings, so
    C[k][i] = (m omega)^(1-k+i) N[k][i] G^i / (2^(k+i) D^i).
    A row of entries, in the problem's own units, is built when first read and
    kept; every zero entry is one shared Fraction(0).
    """

    def __init__(
        self, potential: PotentialSpec, state: QuantumState, d: int, g: int, rows: list
    ):
        self.potential = potential
        self.state = state
        self.order = len(rows) - 1
        self._d, self._g = d, g
        self._numerators = rows
        self._rows = [None] * len(rows)

    def row(self, k: int) -> tuple:
        """Row k as a tuple; row 0 is the momentum Taylor series."""
        if not 0 <= k <= self.order:
            raise IndexError(f"level {k} outside 0..{self.order}")
        if self._rows[k] is None:
            mw, d, g = self.potential.mass * self.potential.omega, self._d, self._g
            row = []
            for i, n in enumerate(self._numerators[k]):
                if not n:
                    row.append(_ZERO)
                    continue
                # (m omega)^e N G^i / (2^(k+i) D^i), e = 1-k+i, as one Fraction
                # of integers: m omega = a/b, with a and b swapped when e < 0
                a, b, e = mw.numerator, mw.denominator, 1 - k + i
                if e < 0:
                    a, b, e = b, a, -e
                row.append(Fraction(n * a**e * g**i, b**e * 2 ** (k + i) * d**i))
            self._rows[k] = tuple(row)
        return self._rows[k]


def _convolution(
    spans: list, backs: list, first: list, last: list, k: int, width: int
) -> tuple[list, int, int]:
    """conv[i] = sum_{j=1}^{k-1} sum_p N[j][p] N[k-j][i-p] for i < width, and
    the first and last columns reached.

    Uses the j <-> k-j symmetry of the sum (both halves reindex to the same
    value).  spans[j] holds row j's columns first[j]..last[j] and backs[j]
    the same reversed, so at column i one slice lines up every p with
    first[j] <= p <= last[j] and first[k-j] <= i-p <= last[k-j]; `map` stops
    at the shorter operand.  The columns reached are those that a pair of
    nonzero rows reaches: the first is `width` and the last -1 when none does.
    """
    conv = [0] * width
    low = width  # the first column reached
    reach = 0  # one past the last column reached
    for j in range(1, k // 2 + 1):
        m = k - j
        if j == m:  # every pair before the middle one stands for its mirror too
            conv[:reach] = [2 * x for x in conv[:reach]]
        fa, la, lb = first[j], last[j], last[m]
        start, stop = fa + first[m], la + lb + 1
        if start >= stop:
            continue  # a zero row
        if start < low:
            low = start
        if stop > reach:
            reach = stop
        a, b = spans[j], backs[m]
        for i in range(start, stop if stop < width else width):
            # a[q] = N[j][fa + q] meets b[d + q] = N[m][i - fa - q]
            d = lb + fa - i
            conv[i] += sum(map(mul, a, b[d:])) if d >= 0 else sum(map(mul, a[-d:], b))
    if k % 2:
        conv[:reach] = [2 * x for x in conv[:reach]]
    return conv, low, reach - 1


def compute_series(
    potential: PotentialSpec,
    state: QuantumState,
    order: int,
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[CoefficientTable, EnergySeries]:
    """Fill the coefficient table and return it with E_1..E_order.

    Levels are filled in ascending k; within a level, columns in ascending i.
    The residue column i = k-1 is the node-count quantization rule: C[k][k-1]
    is 2n+l+1 at first order and zero at all others, because the contour
    around the origin encloses all 2n+l+1 wavefunction zeros and the enclosed
    count enters the expansion only at order hbar^1.  Every other column
    follows from power matching at order hbar^k, power r^(2i+2-2k):

        C[k][i] = -[ (3-2k+2i) C[k-1][i]
                     + sum_{j=1}^{k-1} sum_{p=0}^{i} C[j][p] C[k-j][i-p]
                     + 2 sum_{p=1}^{i} C0[p] C[k][i-p]
                     - l(l+1) (k==2)(i==0) ] / (2 C0[0])

    Once level k is complete, the r^0 power-matching identity at order hbar^k
    gives the energy coefficient

        2 m E_k = -C[k-1][k-1] - sum_{j=0}^{k} sum_{p=0}^{k-1} C[j][p] C[k-j][k-1-p]

    where the j = 0 and j = k terms involve the pinned residue C[k][k-1].
    Producing E_K touches potential coefficients v_i only for i <= K-1 and
    nothing beyond the allocated rectangle, so enlarging the order never
    changes earlier entries.

    Both identities run on the integer numerators of the module docstring:
    at exponent k+i, C[k-1][i] is scaled by 2 and l(l+1) by 4, the
    convolutions need no scaling, and -2 c~_0 = 2, so

        N[k][i] = [ 2 (3-2k+2i) N[k-1][i] + conv + 2 sum_p N[0][p] N[k][i-p]
                    - 4 l(l+1) (k==2)(i==0) ] / 2,
        E_k = -omega (2 N[k-1][k-1] + conv) G^(k-1) / (4^k D^(k-1)).

    With first[j] and last[j] the first and last nonzero columns of row j
    (row 0 included), the pair (j, k-j) enters the convolution at column i
    only through p in [max(first[j], i - last[k-j]), min(last[j], i - first[k-j])],
    and the momentum term stops at p = i - first[k].  The residue column's
    cell sum lacks only the p = 0 term 2 c~_0 N[k][k-1] of the bracket of
    E_k, so E_k needs no second convolution.  Without a momentum term, row k
    is filled through column max(last[k-1], reach, 0), reach = max_{j=1}^{k-1}
    last[j] + last[k-j] over nonzero rows, and padded with zeros: past it no
    term of a cell is nonzero.  Likewise row k starts at column
    min(first[k-1], min_j first[j] + first[k-j], k-1) and before it holds
    zeros: there every term but the momentum term is zero, and that one
    reads the row's own earlier cells.  Row 1 starts at column 0, its
    residue 2n+l+1, so row 2 starts at column 0, where l(l+1) enters.
    Each E_k is built as one Fraction of integers.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > max_order:
        raise OrderTooLarge(
            f"order {order} exceeds the cap of {max_order}; "
            "raise max_order explicitly if the big-integer growth is acceptable"
        )
    d, g, c0 = _momentum_row(potential, order - 1)
    momentum = any(c0[1:])
    # first[j], last[j]: the first and last nonzero columns of row j; a zero
    # row has first = order and last = -1, so it reaches no column
    first, last = [0], [max(i for i, x in enumerate(c0) if x)]
    spans, backs = [c0[:last[0] + 1]], [c0[last[0]::-1]]
    tail = spans[0][1:]
    rows = [c0]
    omega = potential.omega
    corrections = []
    for k in range(1, order + 1):
        prev = rows[k - 1]
        conv, low, reach = _convolution(spans, backs, first, last, k, order)
        # Without a momentum term the row is zero past `end`: the convolution
        # is zero past the last column that a pair of nonzero entries reaches,
        # and on a harmonic fill that is column 0.
        end = order - 1 if momentum else min(max(last[k - 1], reach, 0), order - 1)
        # The row is zero before `start`, the first column a term reaches.
        start = min(first[k - 1], low, k - 1, end + 1)
        energy = 0  # the residue column's bracket, when the row ends before it
        row, lo, hi = [0] * start, order, -1
        for i in range(start, end + 1):
            acc = 2 * (3 - 2 * k + 2 * i) * prev[i] + conv[i]
            if lo < i:
                # reversed(row) runs C[k][i-1], C[k][i-2], ..., pairing
                # C[k][i-p] with c_p; past p = i - lo the entry is zero
                acc += 2 * sum(map(mul, tail[:i - lo], reversed(row)))
            if i == k - 1:
                n = 2 * state.principal if k == 1 else 0
                energy = acc - 2 * n  # plus the p = 0 term, 2 c~_0 N[k][k-1]
            else:
                if k == 2 and i == 0:
                    acc -= 4 * state.centrifugal
                # the label is built only for an odd acc, which _halve refuses
                n = _halve(acc, f"C[{k}][{i}]") if acc & 1 else acc >> 1
            row.append(n)
            if n:
                lo, hi = min(lo, i), i
        rows.append(row + [0] * (order - 1 - end))
        first.append(lo)
        last.append(hi)
        spans.append(row[lo:hi + 1])
        backs.append(spans[k][::-1])
        scale = 4**k * d ** (k - 1) * omega.denominator
        corrections.append(Fraction(-energy * omega.numerator * g ** (k - 1), scale))
    return CoefficientTable(potential, state, d, g, rows), EnergySeries(tuple(corrections))
