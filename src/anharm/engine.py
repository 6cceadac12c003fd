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
"""

from __future__ import annotations

from fractions import Fraction

from .model import EnergySeries, PotentialSpec, QuantumState

DEFAULT_MAX_ORDER = 64


class EngineError(Exception):
    """Recursion-level failure."""


class OrderTooLarge(EngineError):
    """Requested expansion order exceeds the configured resource cap."""


def c0_coefficients(potential: PotentialSpec, imax: int) -> tuple[Fraction, ...]:
    """Expand -sqrt(2 m V(r)) = r * sum_i c_i r^(2i) through i = imax.

    c_0 = -m*omega and, squaring the series against 2mV term by term,

        c_i = (sum_{p=1}^{i-1} c_p c_{i-p} - 2 m v_i) / (2 m omega).

    Recomputing with a larger cutoff never changes existing entries.
    """
    if imax < 0:
        raise ValueError("imax must be >= 0")
    m, omega = potential.mass, potential.omega
    coeffs = [-m * omega]
    denom = 2 * m * omega
    for i in range(1, imax + 1):
        acc = -2 * m * potential.coefficient(i)
        for p in range(1, i):
            acc += coeffs[p] * coeffs[i - p]
        coeffs.append(acc / denom)
    return tuple(coeffs)


class CoefficientTable:
    """The filled table of Laurent coefficients C[k][i], k = 0..order, i = 0..imax.

    Row 0 is the momentum Taylor series `c0`; rows 1..order hold the hbar^k
    Laurent coefficients.  `compute_series` builds it complete, and it is
    read-only from then on.
    """

    def __init__(self, potential: PotentialSpec, state: QuantumState, rows: list):
        self.potential = potential
        self.state = state
        self.order = len(rows) - 1
        self.imax = self.order - 1
        self.c0 = rows[0]
        self._rows = tuple(tuple(row) for row in rows)

    def entry(self, k: int, i: int) -> Fraction:
        """C[k][i]; row 0 is the momentum Taylor series."""
        if not 0 <= k <= self.order:
            raise IndexError(f"level {k} outside 0..{self.order}")
        if not 0 <= i <= self.imax:
            raise IndexError(f"column {i} outside 0..{self.imax}")
        return self._rows[k][i]

    def row(self, k: int) -> tuple:
        """Row k as a tuple; row 0 is the momentum Taylor series."""
        return self._rows[k]


def _convolution(rows: list, k: int, i: int, lo: int) -> Fraction:
    """sum_{j=lo}^{k-lo} sum_{p=0}^{i} C[j][p] C[k-j][i-p].

    Uses the j <-> k-j symmetry of the sum (both halves reindex to the same
    value) and skips zero factors, which is what keeps sparse (harmonic)
    tables cheap.
    """
    acc = Fraction(0)
    for j in range(lo, (k - 1) // 2 + 1):
        partial = Fraction(0)
        row_a, row_b = rows[j], rows[k - j]
        for p in range(i + 1):
            a = row_a[p]
            if a:
                b = row_b[i - p]
                if b:
                    partial += a * b
        acc += 2 * partial
    if k % 2 == 0 and lo <= k // 2:
        row = rows[k // 2]
        for p in range(i + 1):
            a = row[p]
            if a:
                b = row[i - p]
                if b:
                    acc += a * b
    return acc


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
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > max_order:
        raise OrderTooLarge(
            f"order {order} exceeds the cap of {max_order}; "
            "raise max_order explicitly if the big-integer growth is acceptable"
        )
    c0 = c0_coefficients(potential, order - 1)
    rows = [c0]
    corrections = []
    for k in range(1, order + 1):
        row = []
        rows.append(row)
        for i in range(order):
            if i == k - 1:
                row.append(Fraction(state.principal if k == 1 else 0))
                continue
            acc = (3 - 2 * k + 2 * i) * rows[k - 1][i]
            acc += _convolution(rows, k, i, lo=1)
            for p in range(1, i + 1):
                a = c0[p]
                if a:
                    b = row[i - p]
                    if b:
                        acc += 2 * a * b
            if k == 2 and i == 0:
                acc -= state.centrifugal
            row.append(-acc / (2 * c0[0]))
        acc = rows[k - 1][k - 1] + _convolution(rows, k, k - 1, lo=0)
        corrections.append(-acc / (2 * potential.mass))
    return CoefficientTable(potential, state, rows), EnergySeries(tuple(corrections))
