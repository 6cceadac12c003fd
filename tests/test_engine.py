import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm.engine import (
    CoefficientTable, EngineError, OrderTooLarge, _common_power, _halve, _momentum_row, _NodeSeries,
    compute_series,
)
from anharm.model import make_potential, make_state
from anharm.wavefunction import harmonic_d_coefficients

from conftest import closed_form_corrections, coefficient, random_problem, riccati_residuals
from exact_reference import reference_energies


def binomial_sqrt_momentum(potential, imax):
    """Independent expansion of -sqrt(2mV) by the binomial series.

    Writes 2mV = (m w r)^2 (1 + u(r)) with u = (2/(m w^2)) sum v_i r^(2i)
    and expands sqrt(1+u) term by term; a completely different route from
    the engine's coefficient-squaring recursion.
    """
    m, w = potential.mass, potential.omega
    u = [Fraction(0)] * (imax + 1)
    for i in range(1, imax + 1):
        u[i] = 2 * coefficient(potential, i) / (m * w**2)

    def poly_mul(a, b):
        out = [Fraction(0)] * (imax + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j <= imax:
                    out[i + j] += ai * bj
        return out

    sqrt_series = [Fraction(0)] * (imax + 1)
    sqrt_series[0] = Fraction(1)
    u_power = [Fraction(0)] * (imax + 1)
    u_power[0] = Fraction(1)
    binom = Fraction(1)
    for j in range(1, imax + 1):
        binom *= (Fraction(1, 2) - (j - 1)) / j
        u_power = poly_mul(u_power, u)
        sqrt_series = [s + binom * c for s, c in zip(sqrt_series, u_power)]
    return [-m * w * c for c in sqrt_series]


def momentum_row(potential, imax):
    """c_0..c_imax: row 0 of the table filled to order imax + 1."""
    return compute_series(potential, make_state(0, 0), imax + 1)[0].row(0)


class TestMomentumCoefficients:
    def test_harmonic_is_linear(self):
        series = momentum_row(make_potential(1, 1), 3)
        assert list(series) == [-1, 0, 0, 0]

    def test_quartic_matches_binomial_series(self):
        lam = Fraction(1)
        pot = make_potential(1, 1, [lam])
        series = momentum_row(pot, 2)
        assert list(series) == [-1, -lam, lam**2 / 2] == binomial_sqrt_momentum(pot, 2)

    def test_pure_sextic_matches_binomial_series(self):
        mu = Fraction(3, 7)
        pot = make_potential(1, 1, [0, mu])
        series = momentum_row(pot, 2)
        assert list(series) == [-1, 0, -mu] == binomial_sqrt_momentum(pot, 2)

    def test_general_potential_matches_binomial_series(self):
        pot = make_potential(Fraction(3, 2), Fraction(5, 3), [Fraction(1, 4), Fraction(-2, 5), 1])
        assert list(momentum_row(pot, 6)) == binomial_sqrt_momentum(pot, 6)

    def test_prefix_stable(self):
        pot = make_potential(2, 3, [1, -1, Fraction(1, 2)])
        short = momentum_row(pot, 3)
        long = momentum_row(pot, 9)
        assert long[:4] == short


class TestQuantization:
    def test_first_order_counts_zeros(self):
        pot = make_potential(1, 1, [Fraction(1, 10)])
        assert compute_series(pot, make_state(0, 0), 1)[0].row(1)[0] == 1
        assert compute_series(pot, make_state(2, 1), 1)[0].row(1)[0] == 6

    def test_higher_orders_vanish(self):
        pot = make_potential(1, 1, [Fraction(1, 10)])
        assert compute_series(pot, make_state(2, 1), 5)[0].row(5)[4] == 0


class TestTableOperations:
    @pytest.mark.parametrize(
        "mass,omega,n,l",
        [(1, 1, 0, 0), (1, 1, 1, 0), (2, 3, 1, 1)],
    )
    def test_second_level_head_entry(self, mass, omega, n, l):
        # C[2][0] = (N^2 - N - l(l+1)) / (2 m omega)
        pot = make_potential(mass, omega)
        state = make_state(n, l)
        table, _ = compute_series(pot, state, 3)
        big_n = state.principal
        expected = Fraction(big_n**2 - big_n - state.centrifugal, 2 * mass * omega)
        assert table.row(2)[0] == expected

    def test_store_bounds_checked(self):
        table, _ = compute_series(make_potential(1, 1), make_state(0, 0), 2)
        with pytest.raises(IndexError):
            table.row(3)[0]
        with pytest.raises(IndexError):
            table.row(1)[5]
        with pytest.raises(IndexError):
            table.row(-1)


class TestEnergyCorrections:
    def test_first_correction_is_oscillator_level(self):
        rng = random.Random(7)
        for _ in range(5):
            pot, state = random_problem(rng)
            _, series = compute_series(pot, state, 1)
            assert series[0] == Fraction(1 + 2 * state.principal, 2) * pot.omega

    def test_quartic_ground_state_low_orders(self):
        lam = Fraction(1, 10)
        _, series = compute_series(make_potential(1, 1, [lam]), make_state(0, 0), 3)
        assert series[1] == 15 * lam / 4
        assert series[2] == -165 * lam**2 / 8

    def test_matches_closed_forms_on_random_tuples(self):
        rng = random.Random(20240817)
        for _ in range(20):
            pot, state = random_problem(rng)
            _, series = compute_series(pot, state, 5)
            assert list(series) == closed_form_corrections(pot, state)

    def test_quartic_weak_coupling_table(self):
        _, series = compute_series(
            make_potential(1, 1, [Fraction(1, 100)]), make_state(0, 0), 5
        )
        assert list(series) == [
            Fraction(3, 2),
            Fraction(3, 80),
            Fraction(-33, 16000),
            Fraction(783, 3200000),
            Fraction(-104097, 2560000000),
        ]


class TestSeriesProperties:
    def test_harmonic_spectrum_exact(self):
        _, series = compute_series(make_potential(1, 1), make_state(2, 3), 10)
        assert series[0] == Fraction(17, 2)
        assert all(series[k - 1] == 0 for k in range(2, 11))

    def test_harmonic_spectrum_scales_with_omega(self):
        _, series = compute_series(make_potential(1, 2), make_state(1, 1), 3)
        assert list(series) == [9, 0, 0]

    def test_harmonic_annihilation(self):
        rng = random.Random(99)
        pot = make_potential(Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(1, 8), 4))
        table, series = compute_series(pot, make_state(2, 2), 8)
        assert all(series[k - 1] == 0 for k in range(2, 9))
        for k in range(1, 9):
            for i in range(1, table.order):
                assert table.row(k)[i] == 0

    def test_quantization_invariant(self):
        rng = random.Random(4)
        pot, state = random_problem(rng)
        table, _ = compute_series(pot, state, 6)
        for k in range(1, 7):
            expected = state.principal if k == 1 else 0
            assert table.row(k)[k - 1] == expected

    def test_quartic_scaling(self):
        lam = Fraction(2, 7)
        scale = Fraction(5, 3)
        _, base = compute_series(make_potential(1, 1, [lam]), make_state(1, 1), 7)
        _, scaled = compute_series(make_potential(1, 1, [scale * lam]), make_state(1, 1), 7)
        for k in range(1, 8):
            assert scaled[k - 1] == scale ** (k - 1) * base[k - 1]

    def test_prefix_stability(self):
        pot = make_potential(1, 1, [Fraction(1, 3), Fraction(-1, 5)])
        state = make_state(1, 2)
        table5, series5 = compute_series(pot, state, 5)
        table9, series9 = compute_series(pot, state, 9)
        assert list(series9)[:5] == list(series5)
        for k in range(1, 6):
            for i in range(table5.order):
                assert table9.row(k)[i] == table5.row(k)[i]

    def test_extra_potential_terms_beyond_order_ignored(self):
        # E_K touches v_i only for i <= K-1
        vs = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(1, 7)]
        _, lean = compute_series(make_potential(1, 1, vs), make_state(0, 1), 5)
        _, padded = compute_series(
            make_potential(1, 1, vs + [Fraction(7), Fraction(-9)]), make_state(0, 1), 5
        )
        assert list(lean) == list(padded)

    def test_riccati_residuals_vanish(self):
        rng = random.Random(31415)
        for _ in range(5):
            pot, state = random_problem(rng)
            table, series = compute_series(pot, state, 8)
            assert all(r == 0 for r in riccati_residuals(table, series))


class TestGuards:
    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            compute_series(make_potential(1, 1), make_state(0, 0), 65)
        compute_series(make_potential(1, 1), make_state(0, 0), 65, max_order=65)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            compute_series(make_potential(1, 1), make_state(0, 0), 0)


# Denominators mixing the primes 2, 3, 5, 7, 11 and 13, so that the unit D/G
# of the integer fill carries odd primes, not only powers of 2.
_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 15, 21, 35, 100])
_POSITIVE = st.builds(Fraction, st.integers(1, 12), _DENOMINATORS)
_COUPLING = st.builds(Fraction, st.integers(-12, 12), _DENOMINATORS)


def _oscillator_units(potential):
    """v~_i = v_i / (m^(i+1) omega^(i+2)): the same problem at m = omega = 1."""
    m, w = potential.mass, potential.omega
    return [v / (m ** (i + 1) * w ** (i + 2)) for i, v in enumerate(potential.anharmonic, 1)]


class TestExactProperties:
    """Zero-tolerance identities over rational m, omega and mixed-prime couplings."""

    @settings(max_examples=50, deadline=None)
    @given(
        mass=_POSITIVE,
        omega=_POSITIVE,
        couplings=st.lists(_COUPLING, max_size=4),
        other_v1=_COUPLING,
        n=st.integers(0, 3),
        l=st.integers(0, 3),
        order=st.integers(1, 12),
    )
    def test_residuals_scaling_and_homogeneity(self, mass, omega, couplings, other_v1, n, l, order):
        pot = make_potential(mass, omega, couplings)
        state = make_state(n, l)
        table, series = compute_series(pot, state, order)
        assert all(r == 0 for r in riccati_residuals(table, series))

        unit_table, unit = compute_series(make_potential(1, 1, _oscillator_units(pot)), state, order)
        assert list(series) == [omega * e for e in unit]
        # C[k][i] = (m omega)^(1-k+i) C~[k][i]; an empty coupling list is a harmonic fill
        for k in range(order + 1):
            for i, c in enumerate(unit_table.row(k)):
                assert table.row(k)[i] == (mass * omega) ** (1 - k + i) * c

        v1 = couplings[0] if couplings else Fraction(0)
        _, quartic = compute_series(make_potential(mass, omega, [v1]), state, order)
        _, other = compute_series(make_potential(mass, omega, [other_v1]), state, order)
        for k in range(1, order + 1):
            # E_k / v1^(k-1) does not depend on v1, multiplied out so v1 = 0 is allowed
            assert (
                quartic[k - 1] * other_v1 ** (k - 1)
                == other[k - 1] * v1 ** (k - 1)
            )

    @settings(max_examples=50, deadline=None)
    @given(
        mass=_POSITIVE,
        omega=_POSITIVE,
        n=st.integers(0, 5),
        l=st.integers(0, 6),
        order=st.integers(1, 24),
    )
    def test_harmonic_table_is_the_closed_recursion(self, mass, omega, n, l, order):
        # C[k][0] = (m omega)^(1-k) d_k and zeros past it, at every rational m, omega
        state = make_state(n, l)
        table, _ = compute_series(make_potential(mass, omega), state, order)
        d = harmonic_d_coefficients(state, max(order, 2))
        for k in range(order + 1):
            head, *tail = table.row(k)
            assert head == (mass * omega) ** (1 - k) * d[k]
            assert all(entry == 0 for entry in tail)
            assert all(type(entry) is Fraction for entry in table.row(k))

    @pytest.mark.parametrize(
        "couplings, order",
        [
            ([0, Fraction(1, 5)], 3),
            ([0, Fraction(1, 5)], 6),
            ([0, 0, Fraction(1, 7)], 3),  # v_3 lies past imax = 2: a harmonic fill
            ([0, 0, Fraction(1, 7)], 6),
        ],
    )
    def test_zero_couplings_inside_and_past_imax(self, couplings, order):
        mass, omega, state = Fraction(7, 4), Fraction(5, 3), make_state(1, 2)
        table, series = compute_series(make_potential(mass, omega, couplings), state, order)
        assert all(r == 0 for r in riccati_residuals(table, series))
        harmonic, unperturbed = compute_series(make_potential(mass, omega), state, order)
        rows = [table.row(k) for k in range(order + 1)]
        # the table is harmonic exactly when every nonzero coupling lies past imax
        harmonic_fill = len(couplings) > order - 1
        assert (rows == [harmonic.row(k) for k in range(order + 1)]) == harmonic_fill
        assert (list(series) == list(unperturbed)) == harmonic_fill

    def test_momentum_row_that_ends_early(self):
        # 2V = (r + r^3)^2, so c = (-1, -1, 0, ...), yet the momentum term
        # carries each row C_k past the last nonzero column of c and of C_(k-1)
        pot = make_potential(1, 1, [1, Fraction(1, 2)])
        table, series = compute_series(pot, make_state(1, 2), 6)
        assert table.row(0) == (-1, -1, 0, 0, 0, 0)
        assert table.row(1)[2] != 0
        assert all(r == 0 for r in riccati_residuals(table, series))


def _product(a, b):
    """Two series multiplied as far as both reach."""
    return [sum(a[p] * b[i - p] for p in range(i + 1)) for i in range(min(len(a), len(b)))]


def _alternating(pairs):
    """a_1 b_1 - a_2 b_2 + a_3 b_3 - ..., as far as every product reaches."""
    products = [_product(a, b) for a, b in pairs]
    return [sum((-1) ** i * q[t] for i, q in enumerate(products)) for t in range(min(map(len, products)))]


def _newton_holds(table, n):
    """Whether the pole triangle's p_m = sum_i (C[m+1+i][i] / 2) g^i, m = 1..K-1,
    are the power sums of n series in g: Newton's identities
    k e_k = sum_{i=1}^{k} (-1)^(i-1) e_(k-i) p_i give e_1..e_n, and every p_m
    with m > n must equal sum_{i=1}^{n} (-1)^(i-1) e_i p_(m-i) on the terms
    both sides have.  For n = 0 every p_m is zero."""
    order = table.order
    p = [None] + [[table.row(m + 1 + i)[i] / 2 for i in range(order - m)] for m in range(1, order)]
    e = [[Fraction(1)] + [0] * order]
    for k in range(1, n + 1):
        e.append([x / k for x in _alternating((e[k - i], p[i]) for i in range(1, k + 1))])
    for m in range(n + 1, order):
        expected = _alternating((e[i], p[m - i]) for i in range(1, n + 1)) if n else [0] * len(p[m])
        if p[m] != expected[:len(p[m])]:
            return False
    return True


def _pole_product(table, n):
    """P Pi and Num of the engine's module docstring, as {(power of hbar, power
    of r): coefficient} through hbar^K, from the table's Fractions alone.

    With a_j = hbar b_j(hbar), p_m = sum_i (C[m+1+i][i] / 2) hbar^i is the
    m-th power sum of the b_j, Newton's identities give their elementary
    symmetric series from p_1..p_n, and e_m = hbar^m times those."""
    order = table.order
    rows = [table.row(k) for k in range(order + 1)]
    pole = {(k, 1 - 2 * k + 2 * i): rows[k][i] for k in range(2, order + 1) for i in range(k - 1)}
    p = [None] + [[rows[m + 1 + i][i] / 2 for i in range(order - m)] for m in range(1, order)]
    # e_m with m >= K enters only past hbar^K
    e = [[Fraction(1)] + [0] * order]
    for k in range(1, min(n, order - 1) + 1):
        e.append([x / k for x in _alternating((e[k - i], p[i]) for i in range(1, k + 1))])
    # Pi = sum_m (-1)^m e_m r^(2(n-m)), Num = (2 hbar / r) sum_m (-1)^(m+1) m e_m r^(2(n-m))
    pi = {(m + s, 2 * (n - m)): (-1) ** m * x for m in range(len(e)) for s, x in enumerate(e[m])}
    num = {(1 + m + s, 2 * (n - m) - 1): 2 * (-1) ** (m + 1) * m * x
           for m in range(1, len(e)) for s, x in enumerate(e[m])}
    product = {}
    for (h1, r1), a in pole.items():
        for (h2, r2), b in pi.items():
            if a and b and h1 + h2 <= order:
                key = (h1 + h2, r1 + r2)
                product[key] = product.get(key, 0) + a * b
    return ({key: x for key, x in product.items() if x}, {key: x for key, x in num.items() if x})


class TestPoleTriangle:
    @settings(max_examples=40, deadline=None)
    @given(
        mass=_POSITIVE,
        omega=_POSITIVE,
        couplings=st.lists(_COUPLING, max_size=3),
        n=st.integers(0, 4),
        l=st.integers(0, 3),
        order=st.integers(1, 16),
    )
    def test_pole_part_times_node_polynomial_is_num(self, mass, omega, couplings, n, l, order):
        # The identity the engine's pole products divide by: P Pi = Num, a
        # polynomial of degree n-1 in r^2 over r, with nothing left below r^-1.
        # It is checked on the table of full sums, which uses no node series.
        pot, state = make_potential(mass, omega, couplings), make_state(n, l)
        d, g, _ = _momentum_row(pot, order - 1)
        table = CoefficientTable(pot, state, d, g, _naive_fill(pot, state, order)[0])
        product, num = _pole_product(table, n)
        assert product == num

    @settings(max_examples=40, deadline=None)
    @given(
        mass=_POSITIVE,
        omega=_POSITIVE,
        couplings=st.lists(_COUPLING, max_size=3),
        n_order=st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 2, 16))),
        l=st.integers(0, 3),
    )
    def test_pole_triangle_is_n_power_sums(self, mass, omega, couplings, n_order, l):
        # Below the residue column, C[k][i] with i <= k-2, an n-node table holds the
        # power sums of n series, the nodes' squared radii; n - 1 series do not fit.
        n, order = n_order
        table, _ = compute_series(make_potential(mass, omega, couplings), make_state(n, l), order)
        assert _newton_holds(table, n)
        assert n == 0 or not _newton_holds(table, n - 1)


class TestIntegerFill:
    def test_odd_numerator_raises(self):
        assert _halve(-6, "C[1][1]") == -3
        with pytest.raises(EngineError, match="odd numerator at C\\[2\\]\\[0\\]"):
            _halve(7, "C[2][0]")

    @pytest.mark.parametrize(
        "mass, omega, v1",
        [
            (1, 1, Fraction(1, 7)),
            (1, 1, Fraction(1, 100)),
            (1, 1, Fraction(1, 113)),
            (Fraction(7, 4), Fraction(5, 3), Fraction(1, 97)),  # v~_1 = 432 / (97 7^2 5^3)
            (1, 1, Fraction(3, 7)),
        ],
        ids=["7", "100", "113", "physical-97", "3/7"],
    )
    def test_coupling_denominator_stays_out_of_the_cells(self, mass, omega, v1):
        # A single coupling fills on u_1 = 1 in the unit 1/v~_1, so its integer rows
        # are those of v1 = 1 at m = omega = 1; a fill on u_1 = v~_1 D, or a cell
        # exponent of (2D)^(k+i), would make them differ by u_1^i or D^k.
        state = make_state(1, 2)
        scaled, _ = compute_series(make_potential(mass, omega, [v1]), state, 24)
        one, _ = compute_series(make_potential(1, 1, [1]), state, 24)
        assert scaled._numerators == one._numerators
        mw, v = Fraction(mass * omega), _oscillator_units(scaled.potential)[0]
        assert scaled.row(3) == tuple(mw ** (i - 2) * v**i * c for i, c in enumerate(one.row(3)))

    def test_denominator_base_needs_no_factoring(self):
        # m omega = 35/12: D = gcd(lcm den(v~_i) = 5^6 7^4, lcm den(v_i / omega) num(m omega)^2)
        # = 5^4 7^2, and u = v~_i D^i = 1080, -7560000, 47628000000 share G^i for G = 60
        couplings = [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)]
        pot = make_potential(Fraction(7, 4), Fraction(5, 3), couplings)
        assert _momentum_row(pot, 3)[:2] == (5**4 * 7**2, 60)

    @pytest.mark.parametrize(
        "couplings, power",
        [
            ([], 1),
            ([0, 0], 1),
            ([-5], 5),
            ([4, 8], 2),
            ([1080, -7560000, 47628000000], 60),  # a gcd step on 1080 loses the 3
            ([0, 3**4 * 7**2, 0, 3**8 * 7**4 * 13], 3**2 * 7),
            ([1009 * 1013, (1009 * 1013) ** 2 * 5], 1009 * 1013),  # past the trial bound
            ([1], 1),
            ([3, -2], 1),
        ],
    )
    def test_common_power(self, couplings, power):
        assert _common_power(couplings) == power

    @settings(max_examples=200, deadline=None)
    @given(
        mass=_POSITIVE,
        omega=_POSITIVE,
        couplings=st.lists(st.one_of(st.just(Fraction(0)), _COUPLING), min_size=1, max_size=4),
    )
    def test_fill_runs_in_the_least_unit(self, mass, omega, couplings):
        # The fill's couplings, read back from the momentum row
        # N[0][i] = (sum_p N[0][p] N[0][i-p] - 2^(i+1) u_i) / 2, are v~_i (D/G)^i,
        # integers that share no prime power q^i below 100 (the strategies' primes).
        pot = make_potential(mass, omega, couplings)
        d, g, c0 = _momentum_row(pot, len(couplings))
        unit = Fraction(d, g)
        fill = []
        for i, v in enumerate(_oscillator_units(pot), start=1):
            u = Fraction(sum(c0[p] * c0[i - p] for p in range(1, i)) - 2 * c0[i], 2 ** (i + 1))
            assert u == v * unit**i and u.denominator == 1
            fill.append((i, u.numerator))
        nonzero = [(i, u) for i, u in fill if u]
        if not nonzero:
            assert unit == 1
            return
        for q in (p for p in range(2, 100) if all(p % f for f in range(2, p))):
            assert not all(u % q**i == 0 for i, u in nonzero), q


def _naive_fill(potential, state, order):
    """N[k][i] and E_k by the integer recursion of `compute_series`, every sum in full.

    No term is skipped: each convolution runs over every j and every p, and
    E_k takes its own convolution over j = 0..k.
    """
    d, g, c0 = _momentum_row(potential, order - 1)
    rows, corrections = [c0], []
    for k in range(1, order + 1):
        rows.append([0] * order)
        for i in range(order):
            if i == k - 1:
                rows[k][i] = 2 * state.principal if k == 1 else 0
                continue
            acc = 2 * (3 - 2 * k + 2 * i) * rows[k - 1][i]
            acc += sum(rows[j][p] * rows[k - j][i - p] for j in range(1, k) for p in range(i + 1))
            acc += 2 * sum(c0[p] * rows[k][i - p] for p in range(1, i + 1))
            acc -= 4 * state.centrifugal * (k == 2 and i == 0)
            assert acc % 2 == 0
            rows[k][i] = acc // 2
        acc = 2 * rows[k - 1][k - 1] + sum(
            rows[j][p] * rows[k - j][k - 1 - p] for j in range(k + 1) for p in range(k)
        )
        corrections.append(-acc * potential.omega * Fraction(g, d) ** (k - 1) / 4**k)
    return rows, corrections


def _one_node(rows):
    """A one-node _NodeSeries through column 2, fed the hand-made rows 1, 2, ...
    as the fill feeds it: row k's pole products, then row k."""
    nodes = _NodeSeries(1, 4, 2)
    for k, row in enumerate(rows, start=1):
        if k > 1:
            nodes.products([0, 0, 0], k, max(k - 2, 0), rows[k - 2])
        nodes.add(k, row)
    return nodes


class TestSkipRule:
    @settings(max_examples=150, deadline=None)
    @given(
        mass=_POSITIVE,
        omega=_POSITIVE,
        couplings=st.lists(st.one_of(st.just(Fraction(0)), _COUPLING), max_size=3),
        n=st.integers(0, 5),
        l=st.integers(0, 4),
        order=st.integers(1, 14),
    )
    def test_fill_matches_the_full_sums(self, mass, omega, couplings, n, l, order):
        pot, state = make_potential(mass, omega, couplings), make_state(n, l)
        table, series = compute_series(pot, state, order)
        rows, corrections = _naive_fill(pot, state, order)
        assert table._numerators == rows
        assert list(series) == corrections
        if n == 0:
            # a nodeless C_k (k >= 2) has no pole at the origin: the skip rule's payoff
            assert all(not any(row[:k]) for k, row in enumerate(rows[2:], start=2))

    def test_node_series_cells_match_the_full_sums(self):
        # three nodes: every cell below column k-4 of rows 5..16 comes from the
        # node series, through E_1..E_3 and the division by 4^3 3!
        pot = make_potential(Fraction(7, 4), Fraction(5, 3), [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)])
        table, series = compute_series(pot, make_state(3, 1), 16)
        rows, corrections = _naive_fill(pot, make_state(3, 1), 16)
        assert table._numerators == rows
        assert list(series) == corrections
        assert all(any(row[:k - 4]) for k, row in enumerate(rows[5:], start=5))

    def test_inexact_node_cell_raises(self):
        # one node: C[3][0] = R_1[0]^2 / 4 with R_1[0] = N[2][0]
        assert _one_node([[3, 0, 0], [6, 0, 0]]).cells(3, 1) == [9]
        with pytest.raises(EngineError, match="numerator at C\\[3\\]\\[0\\] is not a multiple of 4"):
            _one_node([[3, 0, 0], [5, 0, 0]]).cells(3, 1)

    def test_inexact_pole_product_raises(self):
        # one node, R_1 = N[2][0] + N[3][1] x + ...: Z[3][i] = 2 N[2][0] N[1][i],
        # and 4 Z[4][2] = 8 (N[2][0] N[2][2] + N[3][1] N[1][1]) + N[2][0] Z[3][2]
        def pole_products(head):
            nodes = _one_node([[3, 1, 1], [head, 0, 0]])
            third, fourth = [0, 0, 0], [0, 0, 0]
            nodes.products(third, 3, 1, [head, 0, 0])
            nodes.add(3, [7, 1, 0])
            nodes.products(fourth, 4, 2, [7, 1, 0])
            return third, fourth

        assert pole_products(6) == ([0, 12, 12], [0, 0, 20])
        with pytest.raises(EngineError, match="pole product at C\\[4\\]\\[2\\] is not a multiple of 4"):
            pole_products(5)  # 5 Z[3][2] = 50


class TestExactReference:
    """E_k against Rayleigh-Schroedinger on the polynomial factor, which
    shares no code with the engine."""

    @settings(max_examples=100, deadline=None)
    @given(
        mass=_POSITIVE,
        omega=_POSITIVE,
        couplings=st.lists(_COUPLING, max_size=3),
        n=st.integers(0, 3),
        l=st.integers(0, 4),
        order=st.integers(1, 12),
    )
    def test_energies_match_the_reference(self, mass, omega, couplings, n, l, order):
        _, series = compute_series(make_potential(mass, omega, couplings), make_state(n, l), order)
        assert list(series) == reference_energies(mass, omega, couplings, n, l, order)

    def test_quartic_excited_state_at_order_32(self):
        v1 = Fraction(1, 101)
        _, series = compute_series(make_potential(1, 1, [v1]), make_state(1, 2), 32)
        assert list(series) == reference_energies(1, 1, [v1], 1, 2, 32)

    @pytest.mark.parametrize(
        "mass, omega, couplings, n, l, order",
        [
            (1, 1, [Fraction(1, 101)], 1, 2, 64),
            (Fraction(7, 4), Fraction(5, 3), [Fraction(1, 97), Fraction(1, 241), Fraction(1, 1013)], 1, 1, 32),
            (1, 1, [Fraction(1, 101)], 3, 0, 40),  # n >= 3, where pole entries once met pole entries
        ],
        ids=["quartic-1-2-K64", "three-couplings-1-1-K32", "quartic-3-0-K40"],
    )
    def test_excited_states_at_high_order(self, mass, omega, couplings, n, l, order):
        _, series = compute_series(make_potential(mass, omega, couplings), make_state(n, l), order)
        assert list(series) == reference_energies(mass, omega, couplings, n, l, order)
