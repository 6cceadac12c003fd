"""The three workloads: their seeded job lists, how a job runs, and its checks.

A job is one user-visible unit of work.  `make_jobs` builds a workload's
fixed job list from the seed; each pass of a run executes that list in order.
Checks run after the timed passes, on the first pass's outputs; every later
pass must reproduce those outputs exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from anharm import cli, engine, model, oracle, resummation, wavefunction

import reference as ref

MODULES = {
    "engine": engine,
    "resummation": resummation,
    "oracle": oracle,
    "wavefunction": wavefunction,
    "cli": cli,
}

# Coupling denominators are primes in narrow bands, so that every seed draws
# rationals of the same size and a job slot costs about the same on any seed.
_P_QUARTIC = (89, 97, 101, 103, 107, 109, 113)
_P_SEXTIC = (233, 239, 241, 251, 257, 263, 269)
_P_OCTIC = (997, 1009, 1013, 1019, 1021, 1031, 1033)
_P_WEAK = (61, 67, 71, 73, 79, 83)
_MASSES = (Fraction(7, 4), Fraction(3, 2), Fraction(6, 5))
_OMEGAS = (Fraction(5, 3), Fraction(4, 3), Fraction(7, 5))
# The exact jobs keep one (m, omega): their cost depends on its digits.
_MASS, _OMEGA = Fraction(7, 4), Fraction(5, 3)
# States for which S_K <= E <= S_{K+1} (either order) holds at v1 = 1/100,
# m = omega = 1, for every K <= 8 (ROADMAP standing note).
_ENCLOSED = ((0, 0), (1, 0), (0, 1), (1, 2))
# The negative-well ground state: the solver's default bracket starts at 0.0,
# which already lies above this level.
CANARY = (Fraction(1), Fraction(1, 4), (Fraction(-1), Fraction(1, 10)), 0, 0)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object, "ref.Checks"], None]
    reset: Callable[[], None] = lambda: None
    canary: bool = False


def _inv(p: int) -> Fraction:
    return Fraction(1, p)


def _check_low_orders(checks, label, corrections, mass, omega, v1, n, l):
    checks.expect(corrections[0] == ref.first_correction(omega, n, l),
                  f"{label}: E_1 = {corrections[0]} is not (2n+l+3/2)omega")
    checks.expect(corrections[1] == ref.second_correction(mass, omega, v1, n, l),
                  f"{label}: E_2 = {corrections[1]} differs from v1 <r^4>")


# ---------------------------------------------------------------------------
# series-deep


def _series_job(label, mass, omega, couplings, n, l, order, pade_degree, divergent):
    potential = model.make_potential(mass, omega, couplings)
    state = model.make_state(n, l)
    v1 = couplings[0]

    def run():
        _, series = engine.compute_series(potential, state, order)
        sums = resummation.partial_sums(series)
        report = resummation.divergence_diagnostics(series)
        value = resummation.pade(series, pade_degree, pade_degree, v1)
        return series.corrections, sums, report, value

    def check(out, checks):
        corrections, sums, report, value = out
        checks.expect(len(corrections) == order, f"{label}: {len(corrections)} corrections")
        _check_low_orders(checks, label, corrections, mass, omega, v1, n, l)
        exact = ref.exact_partial_sums(corrections)
        checks.expect(sums == exact, f"{label}: partial sums are not the rounded exact sums")
        checks.expect(list(report.partial_sums) == exact,
                      f"{label}: diagnostics partial sums differ")
        ratios = [None if a == 0 else float(abs(b / a)) for a, b in zip(corrections, corrections[1:])]
        checks.expect(list(report.ratios) == ratios, f"{label}: term ratios differ")
        if divergent:
            checks.expect(report.growth_flag,
                          f"{label}: quartic ratio tail is not growing at order {order}")
        expected = ref.exact_pade(corrections, pade_degree, pade_degree, v1)
        checks.expect(abs(value - expected) <= ref.PADE_RTOL * abs(expected),
                      f"{label}: Pade {value!r} vs exact {expected!r}")
        # Scaling law in oscillator units, and quartic homogeneity, at K = 12.
        k = 12
        scaled = model.make_potential(1, 1, ref.oscillator_units(mass, omega, couplings))
        _, unit = engine.compute_series(scaled, state, k)
        checks.expect(all(corrections[i] == omega * unit.corrections[i] for i in range(k)),
                      f"{label}: E_k != omega * E~_k in oscillator units")
        if len(couplings) == 1:
            other = Fraction(1, 7)
            u1 = scaled.anharmonic[0]
            _, alt = engine.compute_series(model.make_potential(1, 1, [other]), state, k)
            checks.expect(
                all(unit.corrections[i] / u1**i == alt.corrections[i] / other**i for i in range(k)),
                f"{label}: E_k / v1^(k-1) depends on v1",
            )

    return Job(label, run, check)


def _series_deep(rng: random.Random) -> list[Job]:
    """Five slots of clearly different cost; the middle one sets job_ref.p50.

    States, orders and (m, omega) are fixed per slot, because the cost of an
    exact series depends strongly on them (an excited state costs about four
    times its ground state); the seed draws the couplings.
    """
    def quartic():
        return [_inv(rng.choice(_P_QUARTIC))]

    def three():
        return [_inv(rng.choice(_P_QUARTIC)), _inv(rng.choice(_P_SEXTIC)), _inv(rng.choice(_P_OCTIC))]

    m, w = _MASS, _OMEGA
    return [
        _series_job("quartic (0,2) K=28", 1, 1, quartic(), 0, 2, 28, 4, True),
        _series_job("three-coupling (0,0) K=32", m, w, three(), 0, 0, 32, 3, False),
        _series_job("quartic (0,0) K=40", 1, 1, quartic(), 0, 0, 40, 4, True),
        _series_job("three-coupling (1,1) K=28", m, w, three(), 1, 1, 28, 3, False),
        _series_job("quartic (1,2) K=32", 1, 1, quartic(), 1, 2, 32, 4, True),
    ]


# ---------------------------------------------------------------------------
# solve-states


def _solve_job(label, mass, omega, couplings, n, l, enclosure, canary=False, omega_b=None):
    potential = model.make_potential(mass, omega, couplings)
    state = model.make_state(n, l)
    order = 9

    def run():
        config = oracle.default_config(potential, state)
        result = oracle.solve_radial(potential, config)
        _, series = engine.compute_series(potential, state, order)
        report = resummation.divergence_diagnostics(series)
        record = oracle.compare_with_series(result, report)
        return result, series.corrections, record

    def check(out, checks):
        result, corrections, record = out
        checks.expect(result.node_count == n and result.converged,
                      f"{label}: {result.node_count} nodes, converged={result.converged}")
        exact_e = ref.diagonalised_energy(mass, omega, couplings, n, l, omega_b=omega_b)
        checks.expect(abs(result.energy - exact_e) <= ref.ENERGY_TOL,
                      f"{label}: solver {result.energy!r} vs diagonalisation {exact_e!r}")
        _check_low_orders(checks, label, corrections, mass, omega, couplings[0], n, l)
        sums = ref.exact_partial_sums(corrections)
        checks.expect(list(record.deviations) == [abs(s - result.energy) for s in sums],
                      f"{label}: deviations are not |S_k - E|")
        best = min(range(order), key=lambda k: abs(sums[k] - result.energy)) + 1
        checks.expect(record.best_order == best, f"{label}: best order {record.best_order} != {best}")
        if enclosure:
            slack = result.residual_estimate
            for k in range(1, 9):
                lo, hi = sorted((sums[k - 1], sums[k]))
                checks.expect(lo - slack <= result.energy <= hi + slack,
                              f"{label}: E = {result.energy!r} outside [S_{k}, S_{k + 1}]")

    return Job(label, run, check, canary=canary)


def _solve_states(rng: random.Random) -> list[Job]:
    jobs = []
    for n, l in rng.sample(_ENCLOSED, 3):
        jobs.append(_solve_job(f"v1=1/100 ({n},{l})", 1, 1, [Fraction(1, 100)], n, l, True))
    for n, l in rng.sample(((0, 0), (1, 1), (2, 0), (0, 2), (2, 1), (0, 3)), 2):
        m, w, p = rng.choice(_MASSES), rng.choice(_OMEGAS), rng.choice(_P_WEAK)
        jobs.append(_solve_job(f"m={m} w={w} v1=1/{p} ({n},{l})", m, w, [_inv(p)], n, l, False))
    m, w, vs, n, l = CANARY
    # The level sits in a shell near r = 2.6; a narrower basis (omega_b = 2) converges there.
    jobs.append(_solve_job("negative well (0,0)", m, w, list(vs), n, l, False, canary=True, omega_b=2.0))
    return jobs


# ---------------------------------------------------------------------------
# cli-batch


@dataclass
class CliOutput:
    code: int
    stdout: bytes
    files: dict
    rss_kb: int = field(compare=False)


class CliRunner:
    """Runs `anharm` argv lists as fresh processes, or in-process via cli.main."""

    def __init__(self, root: Path, in_process: bool):
        self.root = root
        self.in_process = in_process
        self.out_dir = root / ".bench_out"
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))

    def __call__(self, argv: list[str], files_dir: Path | None) -> CliOutput:
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            stdout, rss = buffer.getvalue().encode(), 0
        else:
            out_path = self.out_dir / "stdout"
            with open(out_path, "wb") as out, open(self.out_dir / "stderr", "wb") as err:
                proc = subprocess.Popen([sys.executable, "-m", "anharm", *argv],
                                        stdout=out, stderr=err, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = code = os.waitstatus_to_exitcode(status)
            stdout, rss = out_path.read_bytes(), usage.ru_maxrss
        files = {}
        if files_dir is not None and files_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(files_dir.iterdir())}
        return CliOutput(code, stdout, files, rss)


def _check_document(checks, label, doc, mass, omega, v1, n, l):
    corrections = [model.parse_rational(c) for c in doc["corrections"]]
    _check_low_orders(checks, label, corrections, mass, omega, v1, n, l)
    checks.expect(doc["partial_sums"] == ref.exact_partial_sums(corrections),
                  f"{label}: partial sums are not the rounded exact sums")
    return corrections


def _cli_batch(rng: random.Random, runner: CliRunner) -> list[Job]:
    jobs = []
    sweep_dir = runner.out_dir / "sweep"

    def cli_job(label, argv, check, files_dir=None):
        def reset():
            if files_dir is not None:
                shutil.rmtree(files_dir, ignore_errors=True)

        def run():
            out = runner(argv, files_dir)
            if out.code != 0:
                raise RuntimeError(f"{label}: exit code {out.code}")
            return out

        jobs.append(Job(label, run, check, reset))

    expected = (b"checked 121 harmonic states (n <= 10, l <= 10) through order 15: "
                b"all exact checks passed\n")
    cli_job("check-harmonic", ["check-harmonic"],
            lambda out, checks: checks.expect(out.stdout == expected, "check-harmonic: unexpected report"))

    v1 = _inv(rng.choice(_P_QUARTIC))
    v2 = _inv(rng.choice(_P_SEXTIC))
    states = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def check_sweep(out, checks):
        names = sorted(f"state_n{n}_l{l}.json" for n, l in states)
        if checks.expect(sorted(out.files) == names, f"sweep: files {sorted(out.files)}"):
            for n, l in states:
                doc = json.loads(out.files[f"state_n{n}_l{l}.json"])
                _check_document(checks, f"sweep ({n},{l})", doc, 1, 1, v1, n, l)

    cli_job("compute --sweep",
            ["compute", "--v", str(v1), str(v2), "--order", "18", "--output", str(sweep_dir),
             "--sweep", *(f"{n},{l}" for n, l in states)],
            check_sweep, sweep_dir)

    vv = _inv(rng.choice(_P_WEAK))
    n, l = rng.choice(_ENCLOSED)

    def check_validate(out, checks):
        doc = json.loads(out.stdout)
        _check_document(checks, "validate", doc, 1, 1, vv, n, l)
        energy = ref.diagonalised_energy(1, 1, [vv], n, l)
        checks.expect(doc["oracle"]["converged"] and abs(doc["oracle"]["energy"] - energy) <= ref.ENERGY_TOL,
                      f"validate: solver {doc['oracle']['energy']!r} vs diagonalisation {energy!r}")
        corrections = [model.parse_rational(c) for c in doc["corrections"]]
        pade = ref.exact_pade(corrections, 3, 3, vv)
        checks.expect(abs(doc["pade"]["value"] - pade) <= ref.PADE_RTOL * abs(pade),
                      f"validate: Pade {doc['pade']['value']!r} vs exact {pade!r}")

    cli_job("validate", ["validate", "--v", str(vv), "--order", "7", "--pade-num", "3",
                         "--pade-den", "3", "--n", str(n), "--l", str(l)], check_validate)

    m, w, cn, cl = _MASS, _OMEGA, 1, 1
    cv = [_inv(rng.choice(_P_QUARTIC)), _inv(rng.choice(_P_SEXTIC)), _inv(rng.choice(_P_OCTIC))]

    def check_csv(out, checks):
        lines = out.stdout.decode().splitlines()
        if checks.expect(lines[0] == "order,correction,partial_sum" and len(lines) == 17,
                         "csv: header or row count"):
            rows = [line.split(",") for line in lines[1:]]
            doc = {"corrections": [r[1] for r in rows], "partial_sums": [float(r[2]) for r in rows]}
            _check_document(checks, "csv", doc, m, w, cv[0], cn, cl)

    cli_job("compute --format csv",
            ["compute", "--format", "csv", "--mass", str(m), "--omega", str(w),
             "--v", *map(str, cv), "--order", "16", "--n", str(cn), "--l", str(cl)], check_csv)

    pv = _inv(rng.choice(_P_QUARTIC))
    pn, pl = 1, 0

    def check_pade(out, checks):
        doc = json.loads(out.stdout)
        corrections = _check_document(checks, "compute pade", doc, 1, 1, pv, pn, pl)
        pade = ref.exact_pade(corrections, 4, 4, pv)
        checks.expect(abs(doc["pade"]["value"] - pade) <= ref.PADE_RTOL * abs(pade),
                      f"compute pade: {doc['pade']['value']!r} vs exact {pade!r}")

    cli_job("compute --pade", ["compute", "--v", str(pv), "--order", "9", "--pade-num", "4",
                               "--pade-den", "4", "--n", str(pn), "--l", str(pl)], check_pade)
    return jobs


def make_jobs(workload: str, seed: int, runner: CliRunner | None = None) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series-deep":
        return _series_deep(rng)
    if workload == "solve-states":
        return _solve_states(rng)
    return _cli_batch(rng, runner)
