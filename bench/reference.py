"""Reference values computed apart from anharm, and the checks that use them.

Nothing here imports anharm.  Exact values use `fractions.Fraction`; the
energies of the radial problem come from a numpy diagonalisation in a
harmonic-oscillator basis, a method unrelated to the program's Numerov
shooting.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# |E_solver - E_diag| allowed; README "Tolerances" gives the reasons.
ENERGY_TOL = 1e-9
# Two basis sizes must agree this closely before a diagonalised energy is used.
DIAG_CONVERGED = 1e-11
# Relative distance allowed between the program's float Pade value and the
# exact rational Pade approximant of the same degrees.
PADE_RTOL = 1e-9


class Checks:
    """Collects check failures; a run is correct when none were recorded."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.count += 1
        if not ok:
            self.failures.append(what)
        return ok


def first_correction(omega: Fraction, n: int, l: int) -> Fraction:
    """E_1 = (2n + l + 3/2) omega, the oscillator level."""
    return (2 * n + l + Fraction(3, 2)) * omega


def second_correction(mass: Fraction, omega: Fraction, v1: Fraction, n: int, l: int) -> Fraction:
    """E_2 = v1 <n l| r^4 |n l>, first-order perturbation theory.

    <r^4> is the diagonal of the square of the tridiagonal r^2 matrix in the
    oscillator basis, whose length squared is 1/(m omega):
    <n|r^2|n> = 2n+l+3/2 and <n-1|r^2|n>^2 = n(n+l+1/2).
    """
    diag = 2 * n + l + Fraction(3, 2)
    r4 = diag * diag + n * (n + l + Fraction(1, 2)) + (n + 1) * (n + l + Fraction(3, 2))
    return v1 * r4 / (mass * mass * omega * omega)


def oscillator_units(mass: Fraction, omega: Fraction, couplings) -> list[Fraction]:
    """v~_i = v_i / (m^(i+1) omega^(i+2)); then E_k(m, omega, v) = omega E~_k(v~)."""
    return [v / (mass ** (i + 1) * omega ** (i + 2)) for i, v in enumerate(couplings, 1)]


def exact_partial_sums(corrections) -> list[float]:
    """Correctly rounded cumulative sums of the exact corrections."""
    out, acc = [], Fraction(0)
    for c in corrections:
        acc += c
        out.append(float(acc))
    return out


def exact_pade(corrections, num: int, den: int, coupling: Fraction) -> float:
    """[num/den] Pade approximant of sum_j E_{j+1} (x/coupling)^j at x = coupling.

    Solved in exact rational arithmetic, then rounded once.
    """
    c = [Fraction(e) / coupling**j for j, e in enumerate(corrections)]
    coeff = lambda j: c[j] if j >= 0 else Fraction(0)  # noqa: E731
    # sum_{m=0}^{den} b_m c_{num+s-m} = 0 for s = 1..den, with b_0 = 1.
    rows = [[coeff(num + s - m) for m in range(1, den + 1)] + [-coeff(num + s)]
            for s in range(1, den + 1)]
    for col in range(den):
        pivot = next(r for r in range(col, den) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(den):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    b = [Fraction(1)] + [rows[i][den] / rows[i][i] for i in range(den)]
    a = [sum(b[m] * coeff(i - m) for m in range(min(i, den) + 1)) for i in range(num + 1)]
    x = Fraction(coupling)
    return float(sum(ai * x**i for i, ai in enumerate(a)) / sum(bi * x**i for i, bi in enumerate(b)))


def _ho_levels(m: float, omega: float, couplings, l: int, size: int, omega_b: float) -> np.ndarray:
    """Eigenvalues of H = p^2/2m + m omega^2 r^2/2 + sum v_i r^(2i+2) for one l.

    Basis: radial oscillator functions of frequency omega_b.  H0 of that
    oscillator is diagonal, r^2 is tridiagonal, and r^(2k) is the k-th power
    of r^2 computed in a basis k larger than the one kept, which makes every
    kept matrix element exact.
    """
    big = size + len(couplings) + 2
    idx = np.arange(big, dtype=float)
    b2 = 1.0 / (m * omega_b)
    off = -b2 * np.sqrt((idx[:-1] + 1.0) * (idx[:-1] + l + 1.5))
    r2 = np.diag(b2 * (2.0 * idx + l + 1.5)) + np.diag(off, 1) + np.diag(off, -1)
    h = np.diag(omega_b * (2.0 * idx + l + 1.5)) + 0.5 * m * (omega * omega - omega_b * omega_b) * r2
    power = r2
    for v in couplings:
        power = power @ r2
        h = h + float(v) * power
    return np.linalg.eigvalsh(h[:size, :size])


def diagonalised_energy(mass, omega, couplings, n: int, l: int,
                        size: int = 70, omega_b: float | None = None) -> float:
    """Level with n radial nodes at angular momentum l, or ValueError if two
    basis sizes (size and size + 30) disagree by more than DIAG_CONVERGED."""
    m, w = float(mass), float(omega)
    wb = w if omega_b is None else omega_b
    e_small = _ho_levels(m, w, couplings, l, size, wb)[n]
    e_large = _ho_levels(m, w, couplings, l, size + 30, wb)[n]
    if abs(e_small - e_large) > DIAG_CONVERGED:
        raise ValueError(
            f"oscillator-basis energy not converged: {e_small!r} vs {e_large!r}"
        )
    return float(e_large)
