"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction

from anharm.engine import compute_series
from anharm.model import EnergySeries, make_potential, make_state
from anharm.oracle import compare_with_series, default_config, solve_radial
from anharm.resummation import divergence_diagnostics, pade, partial_sums
from anharm.wavefunction import harmonic_d_coefficients, node_polynomial

from conftest import closed_form_corrections, random_problem, riccati_residuals


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")


def test_criterion_1_closed_form_identity():
    """E_1..E_5 equal the transcribed closed forms on 20 random rational tuples."""
    rng = random.Random(20240817)
    start = time.perf_counter()
    mismatches = []
    for _ in range(20):
        potential, state = random_problem(rng)
        _, series = compute_series(potential, state, 5)
        if list(series) != closed_form_corrections(potential, state):
            mismatches.append((potential, state))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _report(1, "closed-form identity for E_1..E_5 on 20 random tuples", ok,
            f"{elapsed:.3f} s")
    assert not mismatches, f"closed-form mismatch for {mismatches}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f} s exceeds 1 s"


def test_criterion_2_harmonic_exactness():
    """Harmonic limit is exact: E_1 = (2n+l+3/2) omega, E_k = 0, C[k][0] = d_k."""
    start = time.perf_counter()
    failures = []
    omega = Fraction(5, 3)
    scaled = make_potential(Fraction(7, 4), omega)
    unit = make_potential(1, 1)
    for n in range(11):
        for l in range(11):
            state = make_state(n, l)
            _, series = compute_series(scaled, state, 15)
            if series.correction(1) != Fraction(2 * n + l + 1, 1) * omega + omega / 2:
                failures.append((n, l, 1))
            if any(series.correction(k) != 0 for k in range(2, 16)):
                failures.append((n, l, "tail"))
            table, unit_series = compute_series(unit, state, 15)
            if unit_series.correction(1) != Fraction(2 * (2 * n) + 2 * l + 3, 2):
                failures.append((n, l, "unit E1"))
            if any(unit_series.correction(k) != 0 for k in range(2, 16)):
                failures.append((n, l, "unit tail"))
            d = harmonic_d_coefficients(state, 15)
            if any(table.entry(k, 0) != d[k] for k in range(1, 16)):
                failures.append((n, l, "d_k"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(2, "harmonic exactness over n,l <= 10 at K = 15", ok, f"{elapsed:.2f} s")
    assert not failures, f"harmonic exactness violated at {failures[:5]}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f} s exceeds 10 s"


def test_criterion_3_laguerre_structure():
    """Node-polynomial ratios match m(m+l+1/2)/(m-n-1) exactly for n <= 8, l <= 6."""
    start = time.perf_counter()
    failures = []
    for n in range(0, 9):
        for l in range(0, 7):
            state = make_state(n, l)
            d = harmonic_d_coefficients(state, max(2, n + 1))
            poly = node_polynomial(state, d)
            for m in range(1, n + 1):
                expected = Fraction(m) * (m + l + Fraction(1, 2)) / (m - n - 1)
                if poly[m - 1] / poly[m] != expected:
                    failures.append((n, l, m))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report(3, "associated-Laguerre ratio structure for n <= 8, l <= 6", ok,
            f"{elapsed:.3f} s")
    assert not failures, f"ratio mismatch at {failures[:5]}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f} s exceeds 1 s"


def _enclosure_misses(sums: list[float], energy: float, slack: float) -> list[int]:
    """Orders K at which energy lies outside [S_K, S_{K+1}] by more than slack."""
    return [
        k
        for k in range(1, len(sums))
        if not min(sums[k - 1], sums[k]) - slack <= energy <= max(sums[k - 1], sums[k]) + slack
    ]


def test_criterion_4_oracle_agreement_at_weak_coupling():
    """The solver energy lies between S_K and S_{K+1} for every K = 1..8 at v_1 = 1/100.

    S_K = E_1 + ... + E_K.  The weak-coupling series of the quartic well is
    asymptotic and alternates from E_2 on, and consecutive partial sums
    bracket the energy: the remainder after S_K has the sign of E_{K+1} and is
    smaller.  The only slack allowed is the solver's own residual estimate
    (2e-12 here, twice the tolerance, against a closest approach of ~3.8e-8).
    The check is one-sided but strict: scaling E_2 by 1 +/- 1/100 breaks it in
    every state, which the companion assertion confirms on the same solver
    energies.

    A fixed bound such as |S_8 - E| < 1e-8 is unattainable: the order-8
    remainder is 0.61-0.76 |E_9| (1.2e-7 for (0,0), 1.9e-5 for (1,0), 1.6e-6
    for (0,1), 4.4e-4 for (1,2)), and state (1,2) never gets below ~1.1e-5 at
    any order, its optimal truncation lying near K = 25.
    """
    potential = make_potential(1, 1, [Fraction(1, 100)])
    start = time.perf_counter()
    rows = []
    for n, l in [(0, 0), (1, 0), (0, 1), (1, 2)]:
        state = make_state(n, l)
        _, series = compute_series(potential, state, 9)
        config = default_config(potential, state, grid_points=16000, tolerance=1e-12)
        result = solve_radial(potential, config)
        rows.append((n, l, series, result))
    elapsed = time.perf_counter() - start

    misses = {}
    undetected = []
    lines = []
    for n, l, series, result in rows:
        energy, slack = result.energy, result.residual_estimate
        sums = partial_sums(series)
        missed = _enclosure_misses(sums, energy, slack)
        if missed:
            misses[(n, l)] = missed
        for factor in (Fraction(101, 100), Fraction(99, 100)):
            terms = list(series)
            terms[1] *= factor
            if not _enclosure_misses(partial_sums(EnergySeries(terms)), energy, slack):
                undetected.append((n, l, str(factor)))
        lines.append(
            f"({n},{l}): S_8={sums[7]:.12f} S_9={sums[8]:.12f} E={energy:.12f} "
            f"res={slack:.1e} (S_8-E)/E_9={(sums[7] - energy) / float(series.correction(9)):.3f}"
        )
    residual_ok = all(result.residual_estimate < 1e-10 for *_, result in rows)
    runtime_ok = elapsed < 30.0
    enclosure_ok = not misses
    strict_ok = not undetected
    detail = ", ".join(lines)
    _report(4, "solver energy between S_K and S_{K+1}, K = 1..8, at weak coupling",
            residual_ok and runtime_ok and enclosure_ok and strict_ok, detail)
    assert residual_ok, f"solver residual exceeded 1e-10: {detail}"
    assert runtime_ok, f"runtime {elapsed:.1f} s exceeds 30 s"
    assert enclosure_ok, f"energy outside [S_K, S_K+1] at orders {misses}: {detail}"
    assert strict_ok, f"enclosure accepted E_2 scaled by 1 +/- 1/100 for {undetected}: {detail}"


def test_criterion_5_divergence_property():
    """Strong-coupling ratios grow from k = 8 and the deviation curve turns."""
    potential = make_potential(1, 1, [Fraction(1)])
    state = make_state(0, 0)
    _, series = compute_series(potential, state, 15)
    report = divergence_diagnostics(series)
    tail = report.ratios[7:]  # |E_9/E_8| onward
    ratios_ok = all(r is not None for r in tail) and all(
        a < b for a, b in zip(tail, tail[1:])
    )
    config = default_config(potential, state, grid_points=8000, tolerance=1e-11)
    record = compare_with_series(solve_radial(potential, config), report)
    curve = record.deviations
    truncation_ok = record.best_order < series.order and any(
        curve[k] > curve[k - 1] for k in range(1, len(curve))
    )
    ok = ratios_ok and truncation_ok and report.growth_flag
    _report(5, "asymptotic divergence at strong coupling", ok,
            f"best order {record.best_order}, growth flag {report.growth_flag}")
    assert ratios_ok, f"ratio tail not strictly increasing: {tail}"
    assert report.growth_flag
    assert truncation_ok, f"no optimal-truncation signature: {curve}"


def test_criterion_6_pade_improvement():
    """[3/3] Pade beats the order-7 partial sum at v_1 = 1/10."""
    coupling = Fraction(1, 10)
    potential = make_potential(1, 1, [coupling])
    state = make_state(0, 0)
    _, series = compute_series(potential, state, 7)
    resummed = pade(series, 3, 3, coupling)
    plain = partial_sums(series)[-1]
    config = default_config(potential, state, grid_points=8000, tolerance=1e-11)
    energy = solve_radial(potential, config).energy
    pade_dev = abs(resummed - energy)
    plain_dev = abs(plain - energy)
    ok = pade_dev < plain_dev
    _report(6, "[3/3] Pade beats the order-7 partial sum", ok,
            f"pade dev {pade_dev:.3e} vs partial-sum dev {plain_dev:.3e}")
    assert ok


def test_criterion_7_riccati_residual_property():
    """Hierarchy identities hold exactly, recomputed by direct multiplication."""
    rng = random.Random(271828)
    failures = []
    for _ in range(5):
        potential, state = random_problem(rng)
        table, series = compute_series(potential, state, 8)
        if any(r != 0 for r in riccati_residuals(table, series)):
            failures.append((potential, state))
    ok = not failures
    _report(7, "exact hierarchy residuals for 5 random problems (k <= 8, i <= 7)", ok)
    assert not failures, f"nonzero residuals for {failures}"


def _stieltjes_misses(series: EnergySeries, energy: float, slack: float) -> list[int]:
    """N = 2..16 at which energy lies outside [[N/N], [N+1/N]] by more than slack."""
    return [
        n
        for n in range(2, 17)
        if not pade(series, n, n) - slack <= energy <= pade(series, n + 1, n) + slack
    ]


def test_criterion_8_stieltjes_enclosure():
    """[N/N] <= E_solver <= [N+1/N] for N = 2..16 at v_1 = 1, from K = 34.

    The pure quartic series is a Stieltjes series (Loeffel, Martin, Simon and
    Wightman, Phys. Lett. B 30 (1969) 656), so its diagonal Pade approximants
    rise to the level from below and the [N+1/N] ones fall to it from above.
    The only slack is the solver's residual estimate (2e-12 at the default
    config, against a closest approach of ~2e-3 for (0,0)).  Scaling E_2 by
    1 +/- 1/100 must break the enclosure in every state; it does from N = 7-9.

    The enclosure holds to N = 31 as well (K = 64), but the exact solves took
    about 11 s per state there on a 2-CPU host, against about 0.1 s here, and
    N = 16 already narrows the gap to 4e-3 for (0,0) and 0.1 for (1,2).
    """
    potential = make_potential(1, 1, [Fraction(1)])
    start = time.perf_counter()
    misses = {}
    undetected = []
    lines = []
    for n, l in [(0, 0), (1, 2), (0, 3)]:
        state = make_state(n, l)
        _, series = compute_series(potential, state, 34)
        result = solve_radial(potential, default_config(potential, state))
        energy, slack = result.energy, result.residual_estimate
        missed = _stieltjes_misses(series, energy, slack)
        if missed:
            misses[(n, l)] = missed
        for factor in (Fraction(101, 100), Fraction(99, 100)):
            terms = list(series)
            terms[1] *= factor
            if not _stieltjes_misses(EnergySeries(tuple(terms)), energy, slack):
                undetected.append((n, l, str(factor)))
        lines.append(
            f"({n},{l}): [16/16]={pade(series, 16, 16):.12f} E={energy:.12f} "
            f"[17/16]={pade(series, 17, 16):.12f} res={slack:.1e}"
        )
    elapsed = time.perf_counter() - start
    ok = not misses and not undetected and elapsed < 30.0
    detail = ", ".join(lines)
    _report(8, "solver energy between [N/N] and [N+1/N], N = 2..16, at v_1 = 1", ok, detail)
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeds 30 s"
    assert not misses, f"energy outside [[N/N], [N+1/N]] at {misses}: {detail}"
    assert not undetected, (
        f"enclosure accepted E_2 scaled by 1 +/- 1/100 for {undetected}: {detail}"
    )
