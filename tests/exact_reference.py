"""E_1..E_K by a second exact method: Rayleigh-Schroedinger perturbation
theory on the polynomial factor of the wavefunction.

It shares nothing with `anharm.engine` but the problem's definition.  In
oscillator units (m = omega = hbar = 1, v~_i = v_i / (m^(i+1) omega^(i+2)))
write u = r^(l+1) e^(-r^2/2) P(s), s = r^2.  The radial equation becomes

    A P + W P = (E - l - 3/2) P,    W = sum_i v~_i s^(i+1),
    A = 2s d/ds - 2s d^2/ds^2 - (2l+3) d/ds,    A s^j = 2j s^j - j(2j+2l+1) s^(j-1).

Scale v~_i by lambda^i and expand P = sum_p P_p lambda^p and
E - l - 3/2 = 2n + sum_p eps_p lambda^p.  Then P_0 is the monic Laguerre
solution of (A - 2n) P_0 = 0 and, for p >= 1,

    (A - 2n) P_p = sum_{q=1}^{p} eps_q P_(p-q) - sum_i v~_i s^(i+1) P_(p-i),

with the s^n coefficient of P_p set to zero.  At s^d the left side is
2(d-n) c_d - (d+1)(2d+2l+3) c_(d+1), so the coefficients follow from the top
degree down; the s^n row has no c_n and fixes eps_p, which enters the right
side only through eps_p P_0, at degrees n and below.  The weight of v~_i is
i, so eps_p is the part of degree p in the couplings: E_1 = (2n+l+3/2) omega
and E_(p+1) = omega eps_p.
"""

from __future__ import annotations

from fractions import Fraction


def _rows_down(rhs: list, top: int, n: int, l: int, c: list, stop: int) -> None:
    """Solve 2(d-n) c_d = rhs_d + (d+1)(2d+2l+3) c_(d+1) for d = top-1 down to stop."""
    for d in range(top - 1, stop - 1, -1):
        if d != n:
            c[d] = (rhs[d] + (d + 1) * (2 * d + 2 * l + 3) * c[d + 1]) / (2 * (d - n))


def reference_energies(mass, omega, couplings, n: int, l: int, order: int) -> list[Fraction]:
    """E_1..E_order of V = m omega^2 r^2 / 2 + sum_i v_i r^(2i+2) for the state (n, l)."""
    mass, omega = Fraction(mass), Fraction(omega)
    v = [Fraction(x) / (mass ** (i + 1) * omega ** (i + 2)) for i, x in enumerate(couplings, 1)]
    width = n + 2 * order + 2  # P_p has degree at most n + 2p
    p0 = [Fraction(0)] * (width + 1)
    p0[n] = Fraction(1)
    _rows_down([0] * width, n, n, l, p0, 0)
    polys, eps = [p0], [None]
    for p in range(1, order):
        rhs = [Fraction(0)] * width
        for q in range(1, p):
            for d, x in enumerate(polys[p - q]):
                if x:
                    rhs[d] += eps[q] * x
        for i, vi in enumerate(v[:p], start=1):
            for d, x in enumerate(polys[p - i][:width - i - 1]):
                if x:
                    rhs[d + i + 1] -= vi * x
        c = [Fraction(0)] * (width + 1)
        _rows_down(rhs, width, n, l, c, n + 1)
        # the s^n row: 0 c_n - (n+1)(2n+2l+3) c_(n+1) = eps_p + rhs_n
        eps.append(-(n + 1) * (2 * n + 2 * l + 3) * c[n + 1] - rhs[n])
        for d in range(n + 1):
            rhs[d] += eps[p] * p0[d]
        _rows_down(rhs, n + 1, n, l, c, 0)
        polys.append(c)
    return [(2 * n + l + Fraction(3, 2)) * omega] + [omega * e for e in eps[1:]]
