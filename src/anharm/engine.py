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
divisions, by 2 and by the node series' 4^n n!, are exact and checked.

The pole triangle, the cells below the residue column, is fixed by n
series.  In the expansion in hbar at fixed r, the wavefunction's n nodes, at
squared radii a_j of order hbar, fall onto the origin, and beyond the simple
pole of the factor r^(l+1) the poles of C there are the Laurent expansion of

    hbar sum_j 2r / (r^2 - a_j) = 2 hbar sum_m (sum_j a_j^m) r^(-1-2m).

Its r^(-1-2m) coefficient, collected over the orders, is diagonal m of the
table, R_m(x) = sum_i N[m+1+i][i] x^i, so R_m is 4 times the m-th power sum
of n series b_j(x), the a_j rescaled to the fill's integers.  A power sum
of n series is fixed by the first n through Newton's identities, so every
cell on a diagonal m > n follows from R_1..R_n by the integer identity of
`_NodeSeries`: n dot products of length i+1 per cell, where the convolution
makes about (k/2)(i+1).  The recursion fills only the columns from k-1-n on:
R_1..R_n, the residue column and the regular part.  For n = 0 the pole
triangle is zero, so a ground-state table is an upper triangle.

The pole entries also enter the convolution of every cell the recursion
fills, and there they are taken by division, not pair by pair.  Split
S = sum_{k>=1} hbar^k C_k into its pole part P, the cells below the residue
column, and Q', the residue column and the regular part.  The convolution
of row k is the hbar^k part of S^2 = Q'^2 + Z with Z = P (2Q' + P), and Q'^2
pairs only the entries a ground state has.  With the node polynomial

    Pi = prod_j (r^2 - a_j) = sum_{m=0}^{n} (-1)^m e_m r^(2(n-m)),

P = hbar sum_j 2a_j / (r (r^2 - a_j)), and x Pi'(x) - n Pi(x) =
sum_j a_j prod_{i != j} (x - a_i) at x = r^2, the product P Pi is the finite

    Num = (2 hbar / r) sum_{m=1}^{n} (-1)^(m+1) m e_m r^(2(n-m)).

So Z Pi = Num (2Q' + P), and dividing by the leading term r^(2n) gives

    Z = 2 hbar sum_{m=1}^{n} (-1)^(m+1) m e_m r^(-1-2m) (2Q' + P)
        - sum_{m=1}^{n} (-1)^m e_m r^(-2m) Z.

Since e_m is of order hbar^m, the last sum reads Z of earlier rows only.  In
the fill's integers, e_m is E_m / (4^m m!) with E_m of `_NodeSeries`, and
both sums pair e_m with the same cells, so a cell of Z costs n dot
products, one per e_m against a diagonal of 4 m s N + Z (s = 2 on Q', 1 on
P), and one exact division by 4^n n!; no pole entry meets another pole
entry.  For n = 0, Z = 0 and Q' is the whole table.

Zeros are also skipped by position.  The Q' part of row j is nonzero only
in columns first[j]..last[j], read from the row itself, and a convolution
multiplies only entries inside those spans.  Without a momentum term, that
is every harmonic potential and couplings that are zero up to K-1, the fill
is the harmonic one: every row is zero past column 0.  One `Fraction` is
built per nonzero energy and per nonzero entry of a row read; every zero is
one shared Fraction(0).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .model import EnergySeries, PotentialSpec, QuantumState

DEFAULT_MAX_ORDER = 64
_ZERO = Fraction(0)
# A row's nonzero span: columns first..last, their entries and the same reversed.
_Span = namedtuple("_Span", "first last entries backward")


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
    if not any(u):  # no coupling below v_(imax+1): the harmonic row, -1 and zeros
        return d, g, [-1] + [0] * imax
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


def _convolution(spans: list, k: int, first: int, width: int) -> list:
    """conv[i] = sum_{j=1}^{k-1} sum_p N[j][p] N[k-j][i-p] for first <= i < width,
    and zero below first, over the entries that the spans hold: the whole
    table for n = 0, the Q' part of each row for an excited state.

    Uses the j <-> k-j symmetry of the sum (both halves reindex to the same
    value).  spans[j], row j's _Span, has `entries` in columns first..last
    and `backward` the same reversed, so at column i one slice lines up every
    p with first[j] <= p <= last[j] and first[k-j] <= i-p <= last[k-j]; `map`
    stops at the shorter operand.
    """
    conv = [0] * width
    if first >= width:
        return conv
    reach = 0  # past every column that a pair reaches
    for j in range(1, k // 2 + 1):
        m = k - j
        if j == m:  # every pair before the middle one stands for its mirror too
            conv[first:reach] = [2 * x for x in conv[first:reach]]
        fa, la, a, _ = spans[j]
        fb, lb, _, b = spans[m]
        start, stop = fa + fb, la + lb + 1
        if stop > reach:
            reach = stop
        for i in range(start if start > first else first, stop if stop < width else width):
            # a[q] = N[j][fa + q] meets b[d + q] = N[m][i - fa - q]
            d = lb + fa - i
            conv[i] += sum(map(mul, a, b[d:])) if d >= 0 else sum(map(mul, a[-d:], b))
    if k % 2:
        conv[first:reach] = [2 * x for x in conv[first:reach]]
    return conv


class _NodeSeries:
    """The node series of an n-node fill (n >= 1): the cells below column
    k-1-n of row k, which they fix, and Z[k][i], the pairs with a pole entry
    in the convolution of a cell from column k-1-n on.

    The pole triangle is also kept by diagonal, so that a sum along one is a
    slice: R_m[q] = N[m+1+q][q] is poles[m+1][q].  e[j] holds the
    coefficients of E_j so far, e[0] = 1, 0, 0, ...; once row k is in, each
    is extended to degree min(k-1-j, end), as far as row k+1 reads it, by

        E_j = sum_{t=1}^{j} (-1)^(t-1) ((j-1)!/(j-t)!) 4^(t-1) E_(j-t) R_t.

    Every operand of row k lies in a row before k.  With L = 4^n n! and
    w_m = (-1)^(m-1) L/(4^m m!), a cell i on diagonal m = k-1-i > n is

        N[k][i] = sum_{m'=1}^{n} w_m' [x^i](E_m' R_(m-m')) / L,

    and a cell i >= k-1-n has

        Z[k][i] = sum_{m=1}^{n} w_m sum_q E_m[q] H_m[k-1-m-q][i-q] / L,
        H_m[r][c] = 4 m s N[r][c] + Z[r+1][c],

    with s = 2 for the residue and regular entries of 2Q' (c >= r-1) and
    s = 1 for the pole entries, and q <= min(i, k-2-m).  Z is zero in rows
    1 and 2.  operands[m][d] holds H_m[r][r-d] for r = max(d, 1), ..., the
    diagonals d <= n-m that the recursion reads, columns 0..end; a diagonal
    d < 0 sits at the end of the list, by negative indexing.
    """

    __slots__ = ("e", "weights", "whole", "poles", "operands", "end")

    def __init__(self, n: int, order: int, end: int):
        self.e = [[1] + [0] * end] + [[] for _ in range(n)]
        self.whole = 4**n * math.factorial(n)
        self.weights = [(-1) ** (j - 1) * self.whole // (4**j * math.factorial(j))
                        for j in range(1, n + 1)]
        self.poles = [[] for _ in range(order + 1)]
        self.operands = [None] + [[[] for _ in range(n - m + end + 1)]
                                  for m in range(1, n + 1)]
        self.end = end

    def add(self, k: int, row: list) -> None:
        """Take the pole entries of row k, N[k][0..k-2] as far as column end,
        into the diagonals and extend E_1..E_n."""
        poles, e, end = self.poles, self.e, self.end
        for i in range(k - 1 if k <= end + 1 else end + 1):
            poles[k - i].append(row[i])
        # E_j gains degree p = k-1-j, for the j with 0 <= p <= end
        for j in range(k - 1 - end if k - 1 > end else 1, k if k < len(e) else len(e)):
            p = k - 1 - j
            acc, c = 0, 1  # c = (-1)^(t-1) ((j-1)!/(j-t)!) 4^(t-1)
            for t in range(1, j + 1):
                # R_t[p], R_t[p-1], ..., R_t[0]
                acc += c * sum(map(mul, e[j - t], poles[t + 1][p::-1]))
                c *= 4 * (t - j)
            e[j].append(acc)

    def cells(self, k: int, count: int) -> list:
        """N[k][0..count-1], for count <= k-1-n."""
        e, poles, whole = self.e, self.poles, self.whole
        row = []
        for i in range(count):
            acc = 0
            for j, w in enumerate(self.weights, start=1):
                # R_(m-j)[i], ..., R_(m-j)[0] for m = k-1-i
                acc += w * sum(map(mul, e[j], poles[k - i - j][i::-1]))
            cell, rest = divmod(acc, whole)
            if rest:
                raise _inexact("numerator", k, i, whole)
            row.append(cell)
        return row

    def products(self, conv: list, k: int, first: int, prev: list) -> None:
        """Add Z[k][i] to conv[i] for first <= i <= end, where first >= k-1-n
        and k >= 2, and take H_m[k-1][i] from prev, row k-1."""
        e, operands, whole, n = self.e, self.operands, self.whole, len(self.weights)
        # H_m[k-1-m-q][i-q] lies on diagonal k-1-m-i; q runs to top = k-2-m,
        # or to i before column top
        terms = [(k - 1 - m, k - 2 - m, w, e[m], operands[m])
                 for m, w in enumerate(self.weights[:k - 2], start=1)]
        for i in range(first, self.end + 1):
            acc = 0
            for base, top, w, em, h in terms:
                acc += w * sum(map(mul, em, h[base - i][(i if i < top else top)::-1]))
            z, rest = divmod(acc, whole)
            if rest:
                raise _inexact("pole product", k, i, whole)
            conv[i] += z
            d = k - 1 - i
            s = prev[i] if d > 1 else 2 * prev[i]  # s N[k-1][i]
            for m in range(1, (n - d if d > 0 else n) + 1):
                operands[m][d].append(4 * m * s + z)


def _inexact(what: str, k: int, i: int, whole: int) -> EngineError:
    return EngineError(
        f"{what} at C[{k}][{i}] is not a multiple of {whole}: the node series lost exactness"
    )


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

    The cells below column k-1-n, on the pole triangle's diagonals m > n,
    come from the node series instead (module docstring, `_NodeSeries`), and
    the convolution skips their columns; for n = 0 they are zero.  In the
    columns from k-1-n on, `_convolution` pairs only the entries on and
    right of each row's residue column, Q', and `_NodeSeries.products` adds
    Z[k][i], every pair with a pole entry, from Z Pi = Num (2Q' + P) (module
    docstring).  With first[j] and last[j] the first and last nonzero
    columns of row j's Q' part, kept in its _Span record with the entries
    between them (row 0 included), the pair (j, k-j) enters the convolution
    at column i only through p in [max(first[j], i - last[k-j]),
    min(last[j], i - first[k-j])], and the momentum term stops at p = i - f,
    f the first nonzero column of row k.  The residue column's cell sum
    lacks only the p = 0 term 2 c~_0 N[k][k-1] of the bracket of E_k, so E_k
    needs no second convolution.  Without a momentum term, row 1 is
    2n+l+1 in column 0 and zeros, and by induction every term of a cell in a
    column i >= 1 is zero, so each row is filled through column 0 only.
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
    # one _Span per row; a zero row has first = order and last = -1, so it
    # reaches no column
    top = max(i for i, x in enumerate(c0) if x)
    spans = [_Span(0, top, c0[:top + 1], c0[top::-1])]
    tail = spans[0].entries[1:]  # empty exactly when there is no momentum term
    # Without a momentum term the fill is the harmonic one, zero past column 0.
    end = order - 1 if tail else 0
    rows = [c0]
    nodes = _NodeSeries(state.n, order, end) if state.n else None
    omega = potential.omega
    corrections = []
    for k in range(1, order + 1):
        prev = rows[k - 1]
        # the cells below column k-1-n, which the node series fix; the
        # recursion fills the rest
        count = min(max(k - 1 - state.n, 0), end + 1)
        conv = _convolution(spans, k, count, end + 1)
        row, lo, hi = [0] * count, order, -1
        if nodes:
            if count:
                row = nodes.cells(k, count)
                nonzero = [i for i, n in enumerate(row) if n]
                if nonzero:
                    lo, hi = nonzero[0], nonzero[-1]
            if k > 1 and count <= end:
                nodes.products(conv, k, count, prev)
        energy = 0  # the residue column's bracket, when the row ends before it
        for i in range(count, end + 1):
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
        if nodes:
            nodes.add(k, row)
            # the convolution pairs only the entries on and right of the
            # residue column, Q'; the pole entries enter through Z
            if hi < k - 1:
                lo, hi = order, -1
            elif lo < k - 1:
                lo = k - 1
                while not row[lo]:
                    lo += 1
        rows.append(row + [0] * (order - 1 - end))
        entries = row[lo:hi + 1]
        spans.append(_Span(lo, hi, entries, entries[::-1]))
        if energy:
            scale = 4**k * d ** (k - 1) * omega.denominator
            corrections.append(Fraction(-energy * omega.numerator * g ** (k - 1), scale))
        else:
            corrections.append(_ZERO)
    return CoefficientTable(potential, state, d, g, rows), EnergySeries(tuple(corrections))
