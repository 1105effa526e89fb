"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS line on success (visible with pytest -v -rA
or -s); a failure reads as the criterion number in the pytest report.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np

import he3cap.cli as cli
from he3cap.angular import cg, coupling_range, projections, HalfInt
from he3cap.cross_sections import (
    OAM_CHANNELS,
    ORDINARY_CHANNELS,
    SINGLET,
    TRIPLET,
    CaptureMode,
    CaptureModel,
    compare_with_oracle,
    grid_values,
    oam_closed_form,
    oracle,
    ordinary_closed_form,
)
from he3cap.exactnum import QuadRational, SqrtRational
from he3cap.experiment import MeasurementSetting, design_matrix, fit_rates, fit_strengths, simulate_counts
from he3cap.levels import ReactionKinematics, check_kinematics
from he3cap.polarization import PolarizationTriple

J0, J1, J2 = OAM_CHANNELS
UNIT_OAM = CaptureModel.uniform(CaptureMode.OAM)
UNIT_ORDINARY = CaptureModel.uniform(CaptureMode.ORDINARY)


def rational(value) -> QuadRational:
    return QuadRational.from_rational(Fraction(value))


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_01_ordinary_closed_form_equals_oracle_on_9x9_grid():
    started = time.perf_counter()
    values = grid_values(9)
    assert values[1] - values[0] == Fraction(1, 4)
    for p, pn in product(values, values):
        pol = PolarizationTriple(p, Fraction(0), pn)
        for channel in ORDINARY_CHANNELS:
            closed = ordinary_closed_form(channel, pol, UNIT_ORDINARY).value
            exact = oracle(channel, pol, UNIT_ORDINARY).value
            assert closed == exact, (channel.label, pol)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report("criterion 1 (ordinary closed form == oracle, 9x9 grid, exact)")


def test_criterion_02_oam_closed_form_equals_oracle_for_j0_and_j1():
    started = time.perf_counter()
    values = grid_values(5)
    for p, pl, pn in product(values, values, values):
        pol = PolarizationTriple(p, pl, pn)
        for channel in (J0, J1):
            closed = oam_closed_form(channel, pol, UNIT_OAM).value
            exact = oracle(channel, pol, UNIT_OAM).value
            assert closed == exact, (channel.label, pol)
    # The three bracket coefficients of the j''=1 channel, reproduced exactly
    # (value at a corner isolating each pairwise product, times 24).
    assert oam_closed_form(J1, PolarizationTriple.of(1, 1, 0), UNIT_OAM).value * 24 == \
        QuadRational(Fraction(9), Fraction(0))  # 12 - 3
    assert oam_closed_form(J1, PolarizationTriple.of(1, 0, 1), UNIT_OAM).value * 24 == \
        QuadRational(Fraction(6), Fraction(4))  # 12 - (6 - 4*sqrt(2))
    assert oam_closed_form(J1, PolarizationTriple.of(0, 1, 1), UNIT_OAM).value * 24 == \
        QuadRational(Fraction(9), Fraction(-4))  # 12 - (3 + 4*sqrt(2))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report("criterion 2 (OAM j0/j1 closed forms == oracle on 5^3 grid, interference exact)")


def test_criterion_03_j2_adjudication_verdict_stable_and_oracle_sound():
    # Machine-readable verdict, stable across runs.
    first = compare_with_oracle(CaptureMode.OAM, 5)
    second = compare_with_oracle(CaptureMode.OAM, 5)
    assert first.to_json_dict() == second.to_json_dict()

    # The j''=2 closed-form bracket agrees with the coupling sum everywhere
    # on the grid, so there is no discrepancy table to ship.
    assert first.agreement
    assert first.discrepancies == ()

    # The oracle path itself: nonnegative, sign-flip invariant, and carrying
    # the unpolarized statistical weight 5/12.
    values = grid_values(5)
    for p, pl, pn in product(values, values, values):
        pol = PolarizationTriple(p, pl, pn)
        value = oracle(J2, pol, UNIT_OAM).value
        assert value.sign() >= 0
        assert value == oracle(J2, pol.flipped(), UNIT_OAM).value
    unpolarized = PolarizationTriple.of(0, 0, 0)
    assert oracle(J2, unpolarized, UNIT_OAM).value == rational("5/12")

    # CLI verdict: exit 0 because closed forms and oracle agree everywhere.
    assert cli.main(["oracle-check", "--grid", "5", "--json", "--out", "/dev/null"]) == 0
    report("criterion 3 (j2 verdict stable; oracle nonneg, sign-flip invariant, weight 5/12)")


def test_criterion_04_coupled_state_table_reproduced_with_signs():
    one = SqrtRational.from_rational(1)
    rows = [
        # (m_L, mu, j', m', amplitude)
        (1, "1/2", "3/2", "3/2", one),
        (1, "-1/2", "3/2", "1/2", SqrtRational.sqrt("1/3")),
        (1, "-1/2", "1/2", "1/2", SqrtRational.sqrt("2/3")),
        (-1, "1/2", "3/2", "-1/2", SqrtRational.sqrt("1/3")),
        (-1, "1/2", "1/2", "-1/2", SqrtRational(-1, Fraction(2, 3))),
        (-1, "-1/2", "3/2", "-3/2", one),
    ]
    for m_l, mu, j_coupled, m_coupled, expected in rows:
        assert cg(1, m_l, "1/2", mu, j_coupled, m_coupled) == expected
    report("criterion 4 (all coupled-state amplitudes with signs, exact)")


def test_criterion_05_zero_loci_exact():
    # Ordinary singlet closes when p * P_N = 1.
    for sign in (1, -1):
        pol = PolarizationTriple.of(sign, 0, sign)
        assert ordinary_closed_form(SINGLET, pol, UNIT_ORDINARY).value.is_zero
    # j''=0 closes whenever p * P_L = 1 or P_L * P_N = 1.
    for sign, other in product((1, -1), grid_values(5)):
        aligned_spin_oam = PolarizationTriple(Fraction(sign), Fraction(sign), other)
        assert oam_closed_form(J0, aligned_spin_oam, UNIT_OAM).value.is_zero
        assert oracle(J0, aligned_spin_oam, UNIT_OAM).value.is_zero
        aligned_oam_nuclear = PolarizationTriple(other, Fraction(sign), Fraction(sign))
        assert oam_closed_form(J0, aligned_oam_nuclear, UNIT_OAM).value.is_zero
        assert oracle(J0, aligned_oam_nuclear, UNIT_OAM).value.is_zero
    # j''=1 closes at the fully aligned corner.
    for sign in (1, -1):
        corner = PolarizationTriple.of(sign, sign, sign)
        assert oam_closed_form(J1, corner, UNIT_OAM).value.is_zero
        assert oracle(J1, corner, UNIT_OAM).value.is_zero
    report("criterion 5 (zero loci: singlet, j0 on both loci, j1 at aligned corner)")


def test_criterion_06_unpolarized_statistical_weights_scale_with_strength():
    unpolarized = PolarizationTriple.of(0, 0, 0)
    strength = Fraction(7, 3)
    oam_model = CaptureModel(CaptureMode.OAM, (strength,) * 3)
    expected_oam = [Fraction(1, 12), Fraction(1, 2), Fraction(5, 12)]
    for channel, weight in zip(OAM_CHANNELS, expected_oam):
        assert oam_closed_form(channel, unpolarized, oam_model).value == rational(weight * strength)
    ordinary_model = CaptureModel(CaptureMode.ORDINARY, (strength,) * 2)
    assert ordinary_closed_form(SINGLET, unpolarized, ordinary_model).value == rational(
        Fraction(1, 4) * strength
    )
    assert ordinary_closed_form(TRIPLET, unpolarized, ordinary_model).value == rational(
        Fraction(3, 4) * strength
    )
    report("criterion 6 (unpolarized weights (1/12, 1/2, 5/12) and (1/4, 3/4), exact)")


def test_criterion_07_coupling_property_suite_at_least_500_cases():
    j_values = [HalfInt(t) for t in range(0, 5)]  # j <= 2
    cases = 0

    # Orthonormality: sum over (J, M) of cg^2 == 1.
    for j1, j2 in product(j_values, j_values):
        for m1, m2 in product(projections(j1), projections(j2)):
            total = Fraction(0)
            m = m1 + m2
            for j in coupling_range(j1, j2):
                if abs(m.twice) > j.twice:
                    continue
                total += cg(j1, m1, j2, m2, j, m).square()
            assert total == 1
            cases += 1

    # Completeness: sum over (m1, m2) of cg^2 == 1.
    for j1, j2 in product(j_values, j_values):
        for j in coupling_range(j1, j2):
            for m in projections(j):
                total = Fraction(0)
                for m1 in projections(j1):
                    m2 = m - m1
                    if abs(m2.twice) > j2.twice:
                        continue
                    total += cg(j1, m1, j2, m2, j, m).square()
                assert total == 1
                cases += 1

    # Reflection symmetry with phase (-1)^(j1 + j2 - J).
    for j1, j2 in product(j_values, j_values):
        for j in coupling_range(j1, j2):
            phase = (-1) ** ((j1.twice + j2.twice - j.twice) // 2)
            for m1, m2 in product(projections(j1), projections(j2)):
                m = m1 + m2
                if abs(m.twice) > j.twice:
                    continue
                left = cg(j1, m1, j2, m2, j, m)
                right = cg(j1, -m1, j2, -m2, j, -m)
                assert left == right * SqrtRational.from_rational(phase)
                cases += 1

    assert cases >= 500, f"only {cases} property cases"
    report(f"criterion 7 (coupling properties, {cases} exact cases)")


def _calibration_settings() -> list[MeasurementSetting]:
    values = grid_values(5)
    return [
        MeasurementSetting(PolarizationTriple(p, pl, pn), 6.5e7, 1e-4)
        for p in values
        for pl in values
        for pn in values
    ]


def test_criterion_08_strength_recovery():
    started = time.perf_counter()

    # Noiseless: exact recovery to 1e-10 relative.
    settings = _calibration_settings()
    design = design_matrix(settings, CaptureMode.OAM)
    for truth in ([1.0, 1.0, 1.0], [1.0, 0.0, 0.0]):
        scale = np.array([s.exposure * s.depth for s in settings])
        rates = (design * scale[:, None]) @ np.array(truth)
        result = fit_rates(settings, rates, CaptureMode.OAM)
        assert np.allclose(result.strengths, truth, rtol=1e-10, atol=1e-10)

    # Poisson: ~1e6 total counts, truth (1, 2, 1/2); every strength within
    # 3 estimated standard deviations in at least 99 of the 100 fixed seeds.
    model = CaptureModel(CaptureMode.OAM, (1, 2, "1/2"))
    truth = np.array([1.0, 2.0, 0.5])
    passes = 0
    total_counts = 0
    for seed in range(100):
        records = simulate_counts(settings, model, seed)
        total_counts += sum(record.capture_counts for record in records)
        result = fit_strengths(records, CaptureMode.OAM)
        sigma = result.standard_errors()
        if all(
            abs(estimate - true) < 3 * s
            for estimate, true, s in zip(result.strengths, truth, sigma)
        ):
            passes += 1
    assert passes >= 99, f"only {passes}/100 seeds within 3 sigma"
    assert total_counts / 100 > 5e5, "calibration lost its ~1e6-count scale"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report(f"criterion 8 (noiseless exact to 1e-10; Poisson {passes}/100 seeds in 3 sigma)")


def test_criterion_09_kinematics():
    reference = check_kinematics(ReactionKinematics(764.0, 573.0, 191.0))
    assert reference.passed
    by_name = {check.name: check.passed for check in reference.checks}
    assert by_name["energy_sum"] and by_name["momentum_balance"]
    report("criterion 9 (764 = 573 + 191 keV; momentum balance within 1%)")


def test_criterion_10_simulation_determinism():
    settings = [
        MeasurementSetting(PolarizationTriple.of(p, pl, pn), 1e5, 0.01)
        for p, pl, pn in [(0, 0, 0), (1, 1, 1), ("1/2", "-1/2", "1/2"), (-1, 1, -1)]
    ]
    model = CaptureModel.uniform(CaptureMode.OAM)
    first = simulate_counts(settings, model, 2026)
    second = simulate_counts(settings, model, 2026)
    assert first == second
    assert [r.channel_counts for r in first] == [r.channel_counts for r in second]
    report("criterion 10 (simulate_counts bit-identical for a fixed seed)")
