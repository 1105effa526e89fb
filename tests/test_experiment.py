import csv
import io
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from he3cap import cli, cross_sections, experiment
from he3cap.cross_sections import (
    OAM_CHANNELS,
    CaptureMode,
    CaptureModel,
    ChannelCrossSection,
    channels_for,
    closed_form,
    grid_values,
)
from he3cap.errors import DegenerateDesignError, DomainError
from he3cap.exactnum import QuadRational, parse_rational
from he3cap.experiment import (
    CountRecord,
    MeasurementSetting,
    design_matrix,
    discriminability_sweep,
    fit_rates,
    fit_strengths,
    read_counts_csv,
    read_settings_csv,
    simulate_counts,
    write_counts_csv,
)
from he3cap.polarization import PolarizationTriple


def setting(p, pl, pn, exposure=1.0, depth=1.0) -> MeasurementSetting:
    return MeasurementSetting(PolarizationTriple.of(p, pl, pn), exposure, depth)


def cube_settings(resolution=5, exposure=1.0, depth=1.0):
    values = grid_values(resolution)
    return [
        MeasurementSetting(PolarizationTriple(p, pl, pn), exposure, depth)
        for p in values
        for pl in values
        for pn in values
    ]


def _reference_simulation(settings, model, seed):
    """simulate_counts as first written: a generator built per setting from (seed, index)."""
    sigma_rows = design_matrix(settings, model.mode) * [float(k) for k in model.strengths]
    records = []
    for index, (s, sigmas) in enumerate(zip(settings, sigma_rows.tolist())):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        sigma_total = sum(sigmas)
        transmission = math.exp(-s.depth * sigma_total)
        captures = int(rng.poisson(s.exposure * (1.0 - transmission)))
        split = (0,) * len(sigmas)
        if captures > 0 and sigma_total > 0:
            shares = [sigma / sigma_total for sigma in sigmas]
            split = tuple(int(n) for n in rng.multinomial(captures, shares))
        transmitted = int(rng.poisson(s.exposure * transmission))
        records.append(CountRecord(s, captures, transmitted, split))
    return records


def _patch_wrong_j1_closed_form(monkeypatch):
    """Make the j''=1 OAM closed form 11/10 too large; return the patched function."""
    original = cross_sections.oam_closed_form

    def wrong_closed_form(channel, pol, model):
        section = original(channel, pol, model)
        if channel != OAM_CHANNELS[1]:
            return section
        return ChannelCrossSection(channel, section.value * Fraction(11, 10))

    monkeypatch.setattr(cross_sections, "oam_closed_form", wrong_closed_form)
    return wrong_closed_form


# Every binding a closed form can be patched in at, with a mode that reads it.
CLOSED_FORM_BINDINGS = [
    ("closed_form", CaptureMode.OAM),
    ("closed_form", CaptureMode.ORDINARY),
    ("ordinary_closed_form", CaptureMode.ORDINARY),
    ("oam_closed_form", CaptureMode.OAM),
]


def _patch_shifted_closed_form(monkeypatch, name, mode):
    """Add 1 to the last channel of mode in the closed form bound at cross_sections.<name>."""
    original = getattr(cross_sections, name)
    last = channels_for(mode)[-1]

    def shifted(channel, pol, model):
        section = original(channel, pol, model)
        if channel != last:
            return section
        return ChannelCrossSection(channel, section.value + QuadRational.one())

    monkeypatch.setattr(cross_sections, name, shifted)


class TestSettingTypes:
    def test_positive_exposure_and_depth(self):
        with pytest.raises(DomainError):
            setting(0, 0, 0, exposure=0.0)
        with pytest.raises(DomainError):
            setting(0, 0, 0, depth=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_finite_exposure_and_depth(self, value):
        with pytest.raises(DomainError):
            setting(0, 0, 0, exposure=value)
        with pytest.raises(DomainError):
            setting(0, 0, 0, depth=value)

    def test_count_record_validation(self):
        s = setting(0, 0, 0)
        with pytest.raises(DomainError):
            CountRecord(s, -1, 0)
        with pytest.raises(DomainError):
            CountRecord(s, 5, 0, channel_counts=(1, 2, 3))
        CountRecord(s, 6, 0, channel_counts=(1, 2, 3))


class TestDesignMatrix:
    def test_unpolarized_row(self):
        row = design_matrix([setting(0, 0, 0)], CaptureMode.OAM)[0]
        assert row == pytest.approx([1 / 12, 1 / 2, 5 / 12], abs=1e-15)

    def test_fully_aligned_row(self):
        row = design_matrix([setting(1, 1, 1)], CaptureMode.OAM)[0]
        assert row == pytest.approx([0.0, 0.0, 1.0], abs=0)

    def test_ordinary_aligned_row(self):
        row = design_matrix([setting(1, 0, 1)], CaptureMode.ORDINARY)[0]
        assert row == pytest.approx([0.0, 1.0], abs=0)

    def test_empty_settings_rejected(self):
        message = "at least one measurement setting is required"
        with pytest.raises(DomainError, match=message):
            design_matrix([], CaptureMode.OAM)
        with pytest.raises(DomainError, match=message):
            simulate_counts([], CaptureModel.uniform(CaptureMode.OAM), 1)

    # Grid 13 is not dyadic, so its polarization products are inexact in floats.
    @pytest.mark.parametrize("resolution", [7, 9, 13])
    @pytest.mark.parametrize("mode", list(CaptureMode))
    def test_float_path_matches_exact_closed_form(self, resolution, mode):
        settings = cube_settings(resolution)
        unit = CaptureModel.uniform(mode)
        exact = np.array(
            [
                [float(closed_form(channel, s.pol, unit).value) for channel in channels_for(mode)]
                for s in settings
            ]
        )
        design = design_matrix(settings, mode)
        assert np.max(np.abs(design - exact)) <= 1e-15
        assert np.all(design >= 0)
        assert np.array_equal(design == 0, exact == 0)

    def test_float_path_follows_the_closed_form_in_force(self, monkeypatch):
        settings = cube_settings(3, exposure=1e6, depth=1e-3)
        model = CaptureModel.uniform(CaptureMode.OAM)
        design = design_matrix(settings, CaptureMode.OAM)
        records = simulate_counts(settings, model, 3)
        _patch_wrong_j1_closed_form(monkeypatch)
        assert not np.array_equal(design_matrix(settings, CaptureMode.OAM), design)
        assert simulate_counts(settings, model, 3) != records

    def test_kept_matrix_follows_a_closed_form_patched_in(self, monkeypatch):
        # One settings list, so the second call has the kept matrix's
        # settings and mode; only the coefficient rows differ.
        settings = cube_settings(5)
        before = design_matrix(settings, CaptureMode.OAM)
        assert design_matrix(settings, CaptureMode.OAM) is before
        wrong_closed_form = _patch_wrong_j1_closed_form(monkeypatch)
        after = design_matrix(settings, CaptureMode.OAM)
        unit = CaptureModel.uniform(CaptureMode.OAM)
        patched = np.array(
            [[float(wrong_closed_form(ch, s.pol, unit).value) for ch in OAM_CHANNELS] for s in settings]
        )
        assert np.max(np.abs(after - patched)) <= 1e-15
        assert np.array_equal(after[:, [0, 2]], before[:, [0, 2]])
        assert not np.array_equal(after[:, 1], before[:, 1])

    @pytest.mark.parametrize(("name", "mode"), CLOSED_FORM_BINDINGS)
    def test_kept_matrix_follows_each_closed_form_binding(self, monkeypatch, name, mode):
        settings = cube_settings(3)
        before = design_matrix(settings, mode)
        _patch_shifted_closed_form(monkeypatch, name, mode)
        after = design_matrix(settings, mode)
        assert np.array_equal(after[:, :-1], before[:, :-1])
        assert np.allclose(after[:, -1], before[:, -1] + 1, rtol=0, atol=1e-15)
        monkeypatch.undo()
        assert np.array_equal(design_matrix(settings, mode), before)

    def test_kept_matrix_is_rebuilt_for_other_settings_or_mode(self):
        settings = cube_settings(3)
        oam = design_matrix(settings, CaptureMode.OAM)
        assert design_matrix(settings, CaptureMode.ORDINARY).shape == (27, 2)
        # Equal settings that are other objects are another key.
        copies = [MeasurementSetting(s.pol, s.exposure, s.depth) for s in settings]
        again = design_matrix(copies, CaptureMode.OAM)
        assert again is not oam
        assert np.array_equal(again, oam)
        assert design_matrix(settings[:-1], CaptureMode.OAM).shape == (26, 3)

    def test_matrix_refuses_writes(self):
        design = design_matrix(cube_settings(3), CaptureMode.OAM)
        with pytest.raises(ValueError, match="read-only"):
            design[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            design *= 2


# K_hat, covariance and residual_norm of fits of simulate_counts(settings,
# K = (1, 2, 1/2), seed) as scipy.optimize.nnls solved them, keyed by
# (settings, seed, channel-resolved): the README's four settings, and the 5^3
# grid at exposure 6.5e7 and depth 1e-4.
RECORDED_FITS = {
    ("readme", 7, False): (
        (0.9138672832803123, 2.0296555768689233, 0.499),
        (
            (0.23284692234659946, -0.06398828001047936, 0.0018711479082658918),
            (-0.06398828001047936, 0.018874169368794973, -0.0007276913180443141),
            (0.0018711479082658934, -0.0007276913180443144, 0.000499),
        ),
        1.2914215502751065,
    ),
    ("readme", 7, True): (
        (0.9605730208127018, 2.0306265638516616, 0.4835610009941397),
        (
            (0.0017076853703336923, 0.0, 0.0),
            (0.0, 0.0009719378109091717, 0.0),
            (0.0, 0.0, 0.0002495798714808463),
        ),
        1.811135773949227,
    ),
    ("grid5", 1, False): (
        (0.9990961353881378, 2.000930795503932, 0.4976496350161548),
        (
            (0.0006558674330052336, -0.00011935493410382945, 1.5003610600387413e-05),
            (-0.00011935493410382943, 3.410908006331742e-05, -1.1149467520803407e-05),
            (1.5003610600387397e-05, -1.1149467520803404e-05, 1.1848619365242014e-05),
        ),
        11.026935439871599,
    ),
    ("grid5", 1, True): (
        (1.0053346920071102, 1.9988137219758928, 0.4983712864158114),
        (
            (1.4848020066566555e-05, 0.0, 0.0),
            (0.0, 4.920156854094508e-06, 0.0),
            (0.0, 0.0, 1.4721121075667036e-06),
        ),
        17.746635942981133,
    ),
    ("grid5", 2, False): (
        (1.0319826074675553, 1.9912427268902724, 0.5052135636081682),
        (
            (0.0006569652765524468, -0.0001195111375788811, 1.5068627640072133e-05),
            (-0.00011951113757888111, 3.418513916924151e-05, -1.1238114817114639e-05),
            (1.506862764007222e-05, -1.1238114817114653e-05, 1.1964335394258042e-05),
        ),
        11.957339741589985,
    ),
    ("grid5", 2, True): (
        (0.995505817239153, 1.99990058071643, 0.5014138602286382),
        (
            (1.4702855146916728e-05, 0.0, 0.0),
            (0.0, 4.922832198686599e-06, 0.0),
            (0.0, 0.0, 1.4810994025215155e-06),
        ),
        19.541377727251742,
    ),
    ("grid5", 3, False): (
        (1.0278940213641277, 1.9955570763931076, 0.5018687480800709),
        (
            (0.0006560487186395675, -0.00011940300399885601, 1.511010187228171e-05),
            (-0.00011940300399885605, 3.415651825302405e-05, -1.1212652508973418e-05),
            (1.5110101872281667e-05, -1.121265250897341e-05, 1.1915605707563665e-05),
        ),
        11.422095363663537,
    ),
    ("grid5", 3, True): (
        (1.0007988847425202, 2.0006482479709997, 0.5005038310043278),
        (
            (1.4781029682351068e-05, 0.0, 0.0),
            (0.0, 4.924672610390155e-06, 0.0),
            (0.0, 0.0, 1.4784113161973988e-06),
        ),
        18.942641123919294,
    ),
}


@st.composite
def nnls_problems(draw):
    """A full-rank problem of two or three columns, at times with channels pinned at 0."""
    channels = channels_for(draw(st.sampled_from(CaptureMode)))
    rows = draw(arrays(float, (draw(st.integers(0, 6)), len(channels)), elements=st.floats(0, 10)))
    # An identity block keeps every design at full column rank.
    design = np.vstack([np.eye(len(channels)), rows])
    # A negative truth pins its channel at 0, and a zero truth without noise
    # puts it on the boundary with a zero gradient.
    strengths = st.floats(-1, 3) | st.sampled_from([0.0, -1.0, 1.0, 2.0])
    truth = draw(arrays(float, len(channels), elements=strengths))
    # Noise of any normal size; a subnormal response has no precision left
    # to meet a relative tolerance with.
    noise = draw(arrays(float, len(design), elements=st.floats(-1, 1, allow_subnormal=False)))
    response = design @ truth + draw(st.sampled_from([0.0, 1.0])) * noise
    return design, response, channels


def _exact_inverse(matrix):
    """The inverse of a 3 x 3 matrix of Fractions, by cofactors."""
    def cofactor(i, j):
        rows, columns = ((i + 1) % 3, (i + 2) % 3), ((j + 1) % 3, (j + 2) % 3)
        (a, b), (c, d) = ([matrix[r][s] for s in columns] for r in rows)
        return a * d - b * c

    determinant = sum(matrix[0][j] * cofactor(0, j) for j in range(3))
    return [[cofactor(j, i) / determinant for j in range(3)] for i in range(3)]


class TestFitting:
    def test_noiseless_recovery_is_exact(self):
        settings = cube_settings()
        truth = np.array([1.0, 1.0, 1.0])
        rates = design_matrix(settings, CaptureMode.OAM) @ truth
        result = fit_rates(settings, rates, CaptureMode.OAM)
        assert np.allclose(result.strengths, truth, rtol=1e-10, atol=0)
        assert result.residual_norm < 1e-9

    def test_noiseless_recovery_with_vanishing_channels(self):
        settings = cube_settings()
        truth = np.array([1.0, 0.0, 0.0])
        rates = design_matrix(settings, CaptureMode.OAM) @ truth
        result = fit_rates(settings, rates, CaptureMode.OAM)
        assert np.allclose(result.strengths, truth, rtol=1e-10, atol=1e-12)
        # Channels pinned at the constraint boundary carry no covariance.
        assert result.covariance[1, 1] == 0
        assert result.covariance[2, 2] == 0
        assert result.covariance[0, 0] > 0

    def test_exposure_and_depth_enter_the_model(self):
        settings = [
            MeasurementSetting(PolarizationTriple.of(p, pl, pn), exposure, depth)
            for (p, pl, pn), exposure, depth in [
                ((0, 0, 0), 2.0, 0.5),
                ((1, 1, 1), 3.0, 0.25),
                ((1, -1, 1), 1.5, 2.0),
                (("1/2", "-1/2", "1/2"), 4.0, 1.0),
            ]
        ]
        truth = np.array([0.5, 2.0, 1.0])
        scale = np.array([s.exposure * s.depth for s in settings])
        rates = (design_matrix(settings, CaptureMode.OAM) * scale[:, None]) @ truth
        result = fit_rates(settings, rates, CaptureMode.OAM)
        assert np.allclose(result.strengths, truth, rtol=1e-9)

    def test_too_few_settings(self):
        with pytest.raises(DegenerateDesignError):
            fit_rates([setting(0, 0, 0)], [1.0], CaptureMode.OAM)

    def test_degenerate_design_names_channels(self):
        settings = [setting(0, 0, 0)] * 4
        with pytest.raises(DegenerateDesignError) as excinfo:
            fit_rates(settings, [1.0] * 4, CaptureMode.OAM)
        message = str(excinfo.value)
        assert "K[" in message
        assert excinfo.value.combination

    # Unpolarized and aligned rows, and a point between them, in two orders;
    # both leave the same combination unidentified.
    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0, 0), (1, 1, 1), (-1, -1, -1), (1, 1, 1)],
            [(1, 1, 1), (1, 1, 1), (0, 0, 0), ("1/2", "1/2", "1/2")],
        ],
        ids=["unpolarized-first", "aligned-first"],
    )
    def test_degenerate_combination_is_signed_the_same_in_any_order(self, points):
        # Its first coefficient of largest magnitude is +1, whatever sign
        # LAPACK gives the null vector.
        with pytest.raises(DegenerateDesignError) as caught:
            fit_rates([setting(*point) for point in points], [1.0] * 4, CaptureMode.OAM)
        assert str(caught.value) == (
            "design cannot identify the channel combination +1*K[0-] , -0.166667*K[1-]; "
            "add settings that separate these channels"
        )
        assert caught.value.combination == {"0-": 1.0, "1-": -0.166667}

    def test_degenerate_combination_of_equal_coefficients_leads_with_the_first(self):
        # Both rows are (1/2, 1/2), so the null vector is (1, -1)/sqrt(2), and
        # roundoff makes its second coefficient the larger in magnitude.
        with pytest.raises(DegenerateDesignError) as caught:
            fit_rates([setting(1, 0, -1)] * 2, [1.0] * 2, CaptureMode.ORDINARY)
        assert caught.value.combination == {"0+": 1.0, "1+": -1.0}

    def test_covariance_is_accurate_for_an_ill_conditioned_design(self):
        # Condition number 1.9e7, which the normal matrix A.T @ A would square.
        eps = Fraction(1, 2**22)
        rows = [
            (1, 1, 1), (1, 1 + eps, 1), (1, 1, 1 + eps), (1, 1 + eps, 1 + eps), (2, 1, 0), (0, 1, 2)
        ]
        normal = [
            [sum(Fraction(row[i]) * row[j] for row in rows) for j in range(3)] for i in range(3)
        ]
        design = np.array(rows, dtype=float)
        result = experiment._weighted_nnls(
            design, design @ np.array([1.0, 2.0, 0.5]), np.ones(len(rows)), OAM_CHANNELS
        )
        assert min(result.strengths) > 0
        exact = np.array(_exact_inverse(normal), dtype=float)
        np.testing.assert_allclose(result.covariance, exact, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("resolved", [False, True], ids=["summed", "channel-resolved"])
    def test_a_fit_factors_its_data_once(self, monkeypatch, resolved):
        settings = cube_settings(5, exposure=6.5e7, depth=1e-4)
        records = simulate_counts(settings, CaptureModel(CaptureMode.OAM, (1, 2, "1/2")), 1)
        shapes = []
        for name in ("svd", "qr", "inv", "lstsq"):

            def recording(*args, _original=getattr(np.linalg, name), **kwargs):
                shapes.extend(np.shape(arg) for arg in args if isinstance(arg, np.ndarray))
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        fit_strengths(records, CaptureMode.OAM, channel_resolved=resolved)
        # The one array of more than three rows is the weighted design.
        rows = len(records) * (3 if resolved else 1)
        assert [shape for shape in shapes if shape[0] > 3] == [(rows, 3)]

    def test_fit_strengths_channel_summed(self):
        settings = cube_settings(exposure=1e6, depth=1e-3)
        model = CaptureModel(CaptureMode.OAM, (1, 2, "1/2"))
        records = simulate_counts(settings, model, seed=123)
        result = fit_strengths(records, CaptureMode.OAM)
        errors = result.standard_errors()
        for estimate, sigma, true in zip(result.strengths, errors, (1.0, 2.0, 0.5)):
            assert abs(estimate - true) < 4 * sigma

    def test_fit_strengths_channel_resolved(self):
        settings = cube_settings(exposure=1e6, depth=1e-3)
        model = CaptureModel(CaptureMode.OAM, (1, 2, "1/2"))
        records = simulate_counts(settings, model, seed=321)
        result = fit_strengths(records, CaptureMode.OAM, channel_resolved=True)
        for estimate, sigma, true in zip(
            result.strengths, result.standard_errors(), (1.0, 2.0, 0.5)
        ):
            assert abs(estimate - true) < 4 * sigma

    def test_channel_resolved_stacking_matches_a_per_row_loop(self):
        # Reference: one row per (setting, channel), zero but for that channel.
        settings = cube_settings(3, exposure=1e6, depth=1e-3)
        records = simulate_counts(settings, CaptureModel(CaptureMode.OAM, (1, 2, "1/2")), seed=5)
        scale = np.array([s.exposure * s.depth for s in settings])
        design = design_matrix(settings, CaptureMode.OAM) * scale[:, None]
        rows, counts = [], []
        for record, design_row in zip(records, design):
            for index, count in enumerate(record.channel_counts):
                row = np.zeros(len(OAM_CHANNELS))
                row[index] = design_row[index]
                rows.append(row)
                counts.append(float(count))
        counts = np.array(counts)
        reference = experiment._weighted_nnls(
            np.array(rows), counts, 1.0 / np.maximum(counts, 1.0), OAM_CHANNELS
        )
        result = fit_strengths(records, CaptureMode.OAM, channel_resolved=True)
        assert result.strengths == reference.strengths
        assert np.array_equal(result.covariance, reference.covariance)
        assert result.residual_norm == reference.residual_norm

    # The CLI refuses such counts files at their header; a library caller
    # that builds records itself meets these checks.
    def test_channel_resolved_requires_channel_counts(self):
        records = [CountRecord(setting(0, 0, 0), 10, 5), CountRecord(setting(1, 1, 1), 10, 5)]
        with pytest.raises(DomainError) as caught:
            fit_strengths(records + [CountRecord(setting(1, -1, 1), 3, 5)],
                          CaptureMode.OAM, channel_resolved=True)
        assert str(caught.value) == "channel-resolved fitting needs channel_counts on every record"

    def test_channel_resolved_requires_one_count_per_channel(self):
        records = [CountRecord(setting(p, 1, 1), 10, 5, (4, 6)) for p in (0, 1, -1)]
        with pytest.raises(DomainError) as caught:
            fit_strengths(records, CaptureMode.OAM, channel_resolved=True)
        assert str(caught.value) == "record 0 has 2 channel counts, but oam mode has 3 channels"

    @pytest.mark.parametrize("case", list(RECORDED_FITS), ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_fits_agree_with_the_recorded_values(self, case):
        name, seed, resolved = case
        if name == "readme":
            settings = [
                setting(*pol, exposure=1e6, depth=1e-3)
                for pol in [(0, 0, 0), (1, 1, 1), (1, -1, 1), ("-1/2", "1/2", "-1/2")]
            ]
        else:
            settings = cube_settings(5, exposure=6.5e7, depth=1e-4)
        records = simulate_counts(settings, CaptureModel(CaptureMode.OAM, (1, 2, "1/2")), seed)
        result = fit_strengths(records, CaptureMode.OAM, channel_resolved=resolved)
        strengths, covariance, residual_norm = RECORDED_FITS[case]
        np.testing.assert_allclose(result.strengths, strengths, rtol=1e-12, atol=0)
        np.testing.assert_allclose(result.covariance, covariance, rtol=1e-12, atol=0)
        assert result.residual_norm == pytest.approx(residual_norm, rel=1e-12, abs=0)

    @given(nnls_problems())
    @hypothesis_settings(deadline=None)
    def test_solution_meets_the_optimality_conditions(self, problem):
        design, response, channels = problem
        result = experiment._weighted_nnls(design, response, np.ones(len(design)), channels)
        strengths = np.array(result.strengths)
        gradient = design.T @ (response - design @ strengths)
        # From the largest entries, which unlike 2-norms cannot underflow.
        tolerance = 1e-9 * len(design) * np.abs(design).max() * np.abs(response).max()
        assert (strengths >= 0).all()
        assert (np.abs(gradient[strengths > 0]) <= tolerance).all()
        assert (gradient[strengths == 0] <= tolerance).all()

    @pytest.mark.parametrize("scale", [2.0**-700, 1e-200, 1e200])
    def test_solution_scales_with_the_response(self, scale):
        # Noiseless, with the 1- channel on the boundary at zero gradient.
        design = design_matrix(cube_settings(3), CaptureMode.OAM)
        response = design @ np.array([1.0, 0.0, 0.5])
        weights = np.ones(len(design))
        unit = experiment._weighted_nnls(design, response, weights, OAM_CHANNELS)
        scaled = experiment._weighted_nnls(design, response * scale, weights, OAM_CHANNELS)
        assert unit.strengths[1] == scaled.strengths[1] == 0
        assert scaled.strengths == pytest.approx(np.multiply(unit.strengths, scale), rel=1e-12)
        assert np.array_equal(scaled.covariance, unit.covariance)

    @pytest.mark.parametrize("weight", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_weights_are_refused_before_lapack(self, capfd, weight):
        # LAPACK prints to stderr on a NaN and fails, so no such weight may reach it.
        settings = cube_settings(3)
        rates = design_matrix(settings, CaptureMode.OAM) @ np.array([1.0, 2.0, 0.5])
        weights = [1.0] * len(settings)
        weights[3] = weight
        with pytest.raises(DomainError, match="^weights must be finite and nonnegative$"):
            fit_rates(settings, rates, CaptureMode.OAM, weights=weights)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rates_are_domain_errors(self, rate):
        rates = [1.0] * 27
        rates[5] = rate
        with pytest.raises(DomainError, match="^rates and weights must be finite$"):
            fit_rates(cube_settings(3), rates, CaptureMode.OAM)

    def test_json_shape(self):
        settings = cube_settings(3)
        rates = design_matrix(settings, CaptureMode.OAM) @ np.array([1.0, 1.0, 1.0])
        payload = fit_rates(settings, rates, CaptureMode.OAM).to_json_dict()
        assert set(payload) == {"K_hat", "covariance", "residual_norm", "channels"}
        assert list(payload["K_hat"]) == ["0-", "1-", "2-"]
        assert len(payload["covariance"]) == 3


class TestSimulation:
    def test_deterministic_for_fixed_seed(self):
        settings = cube_settings(2, exposure=5e4, depth=0.01)
        model = CaptureModel.uniform(CaptureMode.OAM)
        assert simulate_counts(settings, model, 9) == simulate_counts(settings, model, 9)

    def test_different_seeds_differ(self):
        settings = cube_settings(2, exposure=5e4, depth=0.01)
        model = CaptureModel.uniform(CaptureMode.OAM)
        assert simulate_counts(settings, model, 1) != simulate_counts(settings, model, 2)

    def test_zero_strengths_mean_no_captures(self):
        settings = cube_settings(2, exposure=2e4, depth=0.1)
        records = simulate_counts(settings, CaptureModel(CaptureMode.OAM, (0, 0, 0)), 5)
        assert all(record.capture_counts == 0 for record in records)
        transmitted = np.array([record.transmitted_counts for record in records])
        # Transmission mean equals the exposure; allow 6 sigma of Poisson noise.
        assert np.all(np.abs(transmitted - 2e4) < 6 * math.sqrt(2e4))

    def test_exposure_beyond_the_poisson_sampler_is_domain_error(self):
        settings = [setting(0, 0, 0), setting(0, 0, 0, exposure=1e99)]
        with pytest.raises(DomainError, match="setting 1: exposure"):
            simulate_counts(settings, CaptureModel.uniform(CaptureMode.OAM), 1)

    def test_aligned_corner_captures_only_into_j2(self):
        settings = [setting(1, 1, 1, exposure=1e5, depth=0.01)]
        record = simulate_counts(settings, CaptureModel.uniform(CaptureMode.OAM), 99)[0]
        assert record.capture_counts > 0
        assert record.channel_counts[0] == 0
        assert record.channel_counts[1] == 0
        assert record.channel_counts[2] == record.capture_counts

    def test_channel_partition_sums_to_total(self):
        settings = cube_settings(3, exposure=1e4, depth=0.05)
        for record in simulate_counts(settings, CaptureModel.uniform(CaptureMode.OAM), 17):
            assert sum(record.channel_counts) == record.capture_counts

    def test_ordinary_mode(self):
        settings = [setting(1, 0, 1, exposure=1e5, depth=0.01)]
        record = simulate_counts(settings, CaptureModel.uniform(CaptureMode.ORDINARY), 4)[0]
        # Singlet is closed at p = P_N = 1; all captures are triplet.
        assert record.channel_counts[0] == 0
        assert record.channel_counts[1] == record.capture_counts

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 3, 2**128 + 1])
    @pytest.mark.parametrize(
        "model",
        [CaptureModel(CaptureMode.OAM, (1, 2, "1/2")), CaptureModel(CaptureMode.ORDINARY, (1, 3))],
        ids=["oam", "ordinary"],
    )
    def test_simulated_counts_match_a_generator_per_setting(self, seed, model):
        # Each record holds the summed and the channel-resolved counts.
        settings = [
            setting(0, 0, 0, 1e6, 1e-3),
            setting(1, 1, 1, 1e6, 1e-3),
            setting(1, -1, 1, 1e6, 1e-3),
            setting("-1/2", "1/2", "-1/2", 1e6, 1e-3),
        ] + cube_settings(5, exposure=6.5e7, depth=1e-4)
        expected = _reference_simulation(settings, model, seed)
        assert simulate_counts(settings, model, seed) == expected

    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_leading_settings_simulate_as_they_do_alone(self, seed):
        settings = cube_settings(3, exposure=1e5, depth=0.01)
        model = CaptureModel(CaptureMode.OAM, (1, 2, "1/2"))
        records = simulate_counts(settings, model, seed)
        for count in (1, 2, 13, 26):
            assert simulate_counts(settings[:count], model, seed) == records[:count]

    @pytest.mark.parametrize(("name", "mode"), CLOSED_FORM_BINDINGS)
    def test_simulation_follows_each_closed_form_binding(self, monkeypatch, name, mode):
        settings = cube_settings(3, exposure=1e6, depth=1e-3)
        model = CaptureModel.uniform(mode)
        records = simulate_counts(settings, model, 5)
        _patch_shifted_closed_form(monkeypatch, name, mode)
        assert simulate_counts(settings, model, 5) != records
        monkeypatch.undo()
        assert simulate_counts(settings, model, 5) == records

    @given(
        seed=st.integers(0, 2**130),
        mode=st.sampled_from(CaptureMode),
        strengths=st.lists(st.sampled_from([0, 1, 2, "1/2", "7/3"]), min_size=3, max_size=3),
        exposure=st.sampled_from([1.0, 40.0, 1e4, 1e7]),
        depth=st.sampled_from([1e-4, 0.05, 1.0, 30.0]),
    )
    @hypothesis_settings(max_examples=40, deadline=None)
    def test_records_match_the_constructor(self, seed, mode, strengths, exposure, depth):
        settings = cube_settings(3, exposure=exposure, depth=depth)
        model = CaptureModel(mode, strengths[: len(channels_for(mode))])
        for record in simulate_counts(settings, model, seed):
            fields = (
                record.setting,
                record.capture_counts,
                record.transmitted_counts,
                record.channel_counts,
            )
            rebuilt = CountRecord(*fields)
            assert type(record) is CountRecord
            assert record == rebuilt
            assert hash(record) == hash(rebuilt)
            assert vars(record) == vars(rebuilt)
            # The constructor still checks what the simulator does not.
            with pytest.raises(DomainError, match="must sum to the total captures"):
                CountRecord(record.setting, record.capture_counts + 1, *fields[2:])

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_domain_error(self, seed):
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            simulate_counts([setting(0, 0, 0)], CaptureModel.uniform(CaptureMode.OAM), seed)


def _sweep_rows(sweep):
    """Each row of a sweep as (point, share decimals, condition number)."""
    return [
        (PolarizationTriple.of(p, pl, pn), tuple(column[group] for column in sweep.decimals), c)
        for p, pl, pn, group, c in sweep.rows()
    ]


def _exact_fractions(pol, model, evaluate=closed_form):
    """Each channel's closed form divided by their sum."""
    sections = [evaluate(channel, pol, model).value for channel in model.channels]
    total = sum(sections, QuadRational.zero())
    return tuple(value / total for value in sections)


def _rendered(fractions):
    return tuple(share.decimal_str() for share in fractions)


class TestSweep:
    def test_corner_fractions_at_resolution_two(self):
        rows = _sweep_rows(discriminability_sweep(2, CaptureModel.uniform(CaptureMode.OAM)))
        assert len(rows) == 8
        corner = PolarizationTriple.of(1, 1, 1)
        assert next(decimals for pol, decimals, _ in rows if pol == corner) == ("0", "0", "1")

    def test_resolution_three_contains_unpolarized_weights(self):
        rows = _sweep_rows(discriminability_sweep(3, CaptureModel.uniform(CaptureMode.OAM)))
        assert len(rows) == 27
        center = PolarizationTriple.of(0, 0, 0)
        assert next(decimals for pol, decimals, _ in rows if pol == center) == _rendered(
            QuadRational.from_rational(Fraction(k, 12)) for k in (1, 6, 5)
        )

    def test_ordinary_fractions_independent_of_pl(self):
        by_p_pn = {}
        for pol, decimals, _ in _sweep_rows(
            discriminability_sweep(3, CaptureModel.uniform(CaptureMode.ORDINARY))
        ):
            by_p_pn.setdefault((pol.p, pol.pn), set()).add(decimals)
        assert all(len(variants) == 1 for variants in by_p_pn.values())

    def test_sorted_by_condition_number_then_lexicographic(self):
        rows = _sweep_rows(discriminability_sweep(3, CaptureModel.uniform(CaptureMode.OAM)))
        keys = [(condition, pol.p, pol.pl, pol.pn) for pol, _, condition in rows]
        assert keys == sorted(keys)

    def test_resolution_below_two_rejected(self):
        with pytest.raises(DomainError):
            discriminability_sweep(1, CaptureModel.uniform(CaptureMode.OAM))

    def test_fractions_follow_the_closed_form_in_force(self, monkeypatch):
        model = CaptureModel(CaptureMode.OAM, ("7/3", 2, "1/2"))
        before = {
            pol: decimals for pol, decimals, _ in _sweep_rows(discriminability_sweep(3, model))
        }
        wrong_closed_form = _patch_wrong_j1_closed_form(monkeypatch)
        after = _sweep_rows(discriminability_sweep(3, model))
        assert any(decimals != before[pol] for pol, decimals, _ in after)
        for pol, decimals, _ in after:
            assert decimals == _rendered(_exact_fractions(pol, model, wrong_closed_form))

    @pytest.mark.parametrize(
        "model",
        [
            CaptureModel(CaptureMode.OAM, ("7/3", 2, "1/2")),
            CaptureModel(CaptureMode.ORDINARY, (1, 3)),
        ],
        ids=["oam", "ordinary"],
    )
    def test_a_point_and_its_flip_agree(self, model):
        by_pol = {pol: row for pol, *row in _sweep_rows(discriminability_sweep(5, model))}
        for pol, row in by_pol.items():
            assert by_pol[pol.flipped()] == row

    @pytest.mark.parametrize(
        "model",
        [
            CaptureModel(CaptureMode.OAM, ("7/3", 2, "1/2")),
            CaptureModel(CaptureMode.ORDINARY, (1, 3)),
        ],
        ids=["oam", "ordinary"],
    )
    def test_decimals_render_the_closed_forms_over_their_sum(self, model):
        for pol, decimals, _ in _sweep_rows(discriminability_sweep(5, model)):
            assert decimals == _rendered(_exact_fractions(pol, model))

    def test_deterministic(self):
        model = CaptureModel.uniform(CaptureMode.OAM)
        first, second = discriminability_sweep(3, model), discriminability_sweep(3, model)
        assert list(first.rows()) == list(second.rows())
        assert first.decimals == second.decimals

    @pytest.mark.parametrize("mode", list(CaptureMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("grid", [9, 13])
    def test_integer_grid_rows_are_the_design_matrix_rows(self, mode, grid):
        # The grid's float coordinates come from integers, not from its
        # Fractions; grid 13's thirds and sixths are not dyadic.
        values, coordinates, products = experiment._grid(grid)
        pols = experiment._GridPoints(values)
        settings = cube_settings(grid)
        assert list(pols) == [setting.pol for setting in settings]
        coefficients = cross_sections.u_coefficients(mode)
        rows = experiment._unit_brackets(coordinates, pols, mode, coefficients)
        assert np.array_equal(rows, design_matrix(settings, mode))
        # Each u-key is the point's u-numerators over the grid's denominator.
        d = grid - 1
        keys = [experiment._u_key(*point, d) for point in products.tolist()]
        for pol, key in zip(pols, keys):
            reduced = pol.integer_form[1]
            assert key == tuple(value * (d**2 // reduced[0]) for value in reduced)
        # Points share a group exactly when their u-keys agree, and groups
        # are numbered in order of their first point.
        first_of = {}
        for index, key in enumerate(keys):
            first_of.setdefault(key, index)
        number = {key: group for group, key in enumerate(first_of)}
        first, groups = experiment._share_groups(products, d)
        assert first.tolist() == list(first_of.values())
        assert groups.tolist() == [number[key] for key in keys]


class TestFileFormats:
    def test_settings_read_exact_rationals(self):
        text = "p,P_L,P_N,exposure,depth\n-1/2,1/3,0.25,2.5,0.125\n1,-1,0,1000000.0,0.0001\n"
        assert read_settings_csv(io.StringIO(text)) == [
            setting("-1/2", "1/3", "0.25", exposure=2.5, depth=0.125),
            setting(1, -1, 0, exposure=1e6, depth=1e-4),
        ]

    def test_settings_header_enforced(self):
        with pytest.raises(DomainError):
            read_settings_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_settings_comments_ignored(self):
        text = "# a comment\np,P_L,P_N,exposure,depth\n0,0,0,1,1\n"
        assert len(read_settings_csv(io.StringIO(text))) == 1

    def test_blank_and_comment_lines_inside_a_quoted_cell_are_kept(self):
        # Only a line that starts a record is skipped as blank or comment.
        text = 'a,b\n"x\n\n# y\n",1\n\n# z\n2,3\n'
        lines = experiment._DataLines(io.StringIO(text), "test")
        assert lines.header() == ["a", "b"]
        assert lines.rows(2, tuple) == [("x\n\n# y\n", "1"), ("2", "3")]
        assert lines.line == 8

    def test_a_row_after_a_quoted_cell_is_located(self):
        text = 'p,P_L,P_N,exposure,depth\n"1/2",0,0,1,1\n"\n1/3\n",0,0,1,1\n\n0,0,x,1,1\n'
        with pytest.raises(DomainError, match=r"^settings file, line 7: column P_N: "):
            read_settings_csv(io.StringIO(text))

    def test_counts_roundtrip(self):
        settings = cube_settings(2, exposure=1e4, depth=0.01)
        records = simulate_counts(settings, CaptureModel.uniform(CaptureMode.OAM), 8)
        buffer = io.StringIO()
        write_counts_csv(records, buffer, CaptureMode.OAM)
        buffer.seek(0)
        assert read_counts_csv(buffer, settings) == records

    def test_counts_roundtrip_channel_summed(self):
        settings = cube_settings(2, exposure=1e4, depth=0.01)
        records = simulate_counts(settings, CaptureModel.uniform(CaptureMode.OAM), 8)
        buffer = io.StringIO()
        write_counts_csv(records, buffer)
        buffer.seek(0)
        loaded = read_counts_csv(buffer, settings)
        assert [r.capture_counts for r in loaded] == [r.capture_counts for r in records]
        assert all(record.channel_counts is None for record in loaded)

    def test_counts_header_enforced(self):
        with pytest.raises(DomainError):
            read_counts_csv(io.StringIO("x,y\n1,2\n"), [])

    @pytest.mark.parametrize(
        ("columns", "has"),
        [("", "none"), (",capture_j1,capture_j0", "capture_j0, capture_j1")],
        ids=["none", "too-few"],
    )
    def test_counts_reader_checks_the_channel_columns_of_a_mode(self, columns, has):
        text = f"setting_id,capture,transmitted{columns}\n"
        with pytest.raises(DomainError) as caught:
            read_counts_csv(io.StringIO(text), [setting(0, 0, 0)], CaptureMode.OAM)
        assert str(caught.value) == (
            "counts file, line 1: a channel-resolved oam fit needs columns "
            f"capture_j0, capture_j1, capture_j2; the header has {has}"
        )

    def test_counts_bad_setting_id(self):
        text = "setting_id,capture,transmitted\n7,1,1\n"
        with pytest.raises(DomainError):
            read_counts_csv(io.StringIO(text), [setting(0, 0, 0)])

    def test_each_distinct_polarization_text_is_parsed_once(self, tmp_path, monkeypatch):
        # The 5^3 calibration file: 375 polarization cells, 5 distinct texts.
        settings = cube_settings(5, exposure=6.5e7, depth=1e-4)
        path = tmp_path / "settings.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(experiment.SETTINGS_HEADER)
            for s in settings:
                writer.writerow([s.pol.p, s.pol.pl, s.pol.pn, repr(s.exposure), repr(s.depth)])
        parsed = []

        def counting_parse_rational(text):
            parsed.append(text)
            return parse_rational(text)

        def no_dict_reader(*args, **kwargs):
            raise AssertionError("the readers build no csv.DictReader")

        monkeypatch.setattr(experiment, "parse_rational", counting_parse_rational)
        monkeypatch.setattr(csv, "DictReader", no_dict_reader)
        with path.open(encoding="utf-8") as handle:
            assert read_settings_csv(handle) == settings
        assert sorted(parsed) == ["-1", "-1/2", "0", "1", "1/2"]
        counts = io.StringIO("setting_id,capture,transmitted\n124,1,2\n")
        assert read_counts_csv(counts, settings) == [CountRecord(settings[124], 1, 2)]


SETTINGS_HEADER = "p,P_L,P_N,exposure,depth"
COUNTS_HEADER = "setting_id,capture,transmitted"

# Each file read as the CSV reader of the standard library reads it: the
# settings or records it gives, or its error message, where {path} is the
# file's path.
SETTINGS_FILE_CASES = {
    "crlf": (
        SETTINGS_HEADER + "\r\n0,0,0,1e6,0.001\r\n-1/2,1/2,1,1e6,0.001\r\n",
        [("0", "0", "0", 1e6, 0.001), ("-1/2", "1/2", "1", 1e6, 0.001)],
    ),
    "comments-and-blanks": (
        "# title\n" + SETTINGS_HEADER
        + "\n\n0,0,0,1e6,0.001\n   \n# between\n  # indented\n1,1,1,1e6,0.001\n",
        [("0", "0", "0", 1e6, 0.001), ("1", "1", "1", 1e6, 0.001)],
    ),
    "quoted-comma": (
        SETTINGS_HEADER + '\n0,0,0,1e6,0.001\n"0,5",0,0,1e6,0.001\n',
        "{path}, line 3: column p: malformed value '0,5'",
    ),
    "quoted-newline": (
        SETTINGS_HEADER + '\n0,0,0,1e6,0.001\n"1\n/2",0,0,1e6,0.001\n',
        "{path}, line 4: column p: malformed value '1\\n/2'",
    ),
    "quoted-trailing-newline": (
        SETTINGS_HEADER + '\n"1/2\n",0,0,1e6,0.001\n',
        [("1/2", "0", "0", 1e6, 0.001)],
    ),
    "empty-cells": (SETTINGS_HEADER + "\n,,,,\n", "{path}, line 2: column p: malformed value ''"),
    "whitespace": (
        SETTINGS_HEADER + "\n 1/2 , -1/3 ,0, 1e6 ,0.001\n",
        [("1/2", "-1/3", "0", 1e6, 0.001)],
    ),
    "one-cell-too-many": (
        SETTINGS_HEADER + "\n0,0,0,1e6,0.001\n0,0,0,1e6,0.001,7\n",
        "{path}, line 3: expected 5 cells",
    ),
    "one-cell-too-few": (
        SETTINGS_HEADER + "\n0,0,0,1e6,0.001\n0,0,0,1e6\n",
        "{path}, line 3: expected 5 cells",
    ),
}

# Records as (setting index, capture, transmitted, channel counts), read
# against four distinct settings.
COUNTS_FILE_CASES = {
    "crlf": (COUNTS_HEADER + "\r\n0,5,10\r\n3,6,11\r\n", [(0, 5, 10, None), (3, 6, 11, None)]),
    "comments-and-blanks": (
        "# title\n" + COUNTS_HEADER + "\n\n0,5,10\n   \n# between\n  # indented\n3,6,11\n",
        [(0, 5, 10, None), (3, 6, 11, None)],
    ),
    "quoted-comma": (
        COUNTS_HEADER + '\n0,5,10\n1,"1,000",10\n',
        "{path}, line 3: column capture: malformed value '1,000'",
    ),
    "quoted-newline": (
        COUNTS_HEADER + '\n0,5,10\n1,"1\n2",10\n',
        "{path}, line 4: column capture: malformed value '1\\n2'",
    ),
    "empty-cells": (
        COUNTS_HEADER + "\n,,\n",
        "{path}, line 2: column setting_id: malformed value ''",
    ),
    "whitespace": (COUNTS_HEADER + "\n 1 , 2 , 3 \n", [(1, 2, 3, None)]),
    "one-cell-too-many": (
        COUNTS_HEADER + "\n0,5,10\n1,5,10,0\n",
        "{path}, line 3: expected 3 cells",
    ),
    "one-cell-too-few": (COUNTS_HEADER + "\n0,5,10\n1,5\n", "{path}, line 3: expected 3 cells"),
    "bad-channel-cell": (
        COUNTS_HEADER + ",capture_j0,capture_j1,capture_j2\n0,3,1,1,1,1\n1,3,1,1,x,1\n",
        "{path}, line 3: column capture_j1: malformed value 'x'",
    ),
    "repeated-column": (
        COUNTS_HEADER + ",setting_id\n0,5,10,2\n",
        "{path}, line 1: column setting_id appears more than once",
    ),
    "non-ascii-digits": (COUNTS_HEADER + "\n0,\u0663,1_0\n", [(0, 3, 10, None)]),
    # A row with two faults is refused for the one met first: the setting,
    # then each cell as an integer (channel cells first), then the signs of
    # the standard counts, of the channel counts, and the channel sum.
    "unknown-setting-and-bad-cell": (
        COUNTS_HEADER + "\n0,5,10\n9,-1,x\n",
        "{path}, line 3: setting_id 9 has no matching setting",
    ),
    "negative-and-bad-cell": (
        COUNTS_HEADER + "\n0,-1,x\n",
        "{path}, line 2: column transmitted: malformed value 'x'",
    ),
    "negative-and-too-large": (
        COUNTS_HEADER + "\n0,-1," + "9" * 400 + "\n",
        "{path}, line 2: column transmitted: count is too large for a float",
    ),
    "bad-capture-and-bad-channel-cell": (
        COUNTS_HEADER + ",capture_j0,capture_j1,capture_j2\n0,x,1,1,y,1\n",
        "{path}, line 2: column capture_j1: malformed value 'y'",
    ),
    "negative-capture-and-channel-sum": (
        COUNTS_HEADER + ",capture_j0,capture_j1,capture_j2\n0,-1,1,1,1,1\n",
        "{path}, line 2: counts must be nonnegative",
    ),
    "negative-channel-and-channel-sum": (
        COUNTS_HEADER + ",capture_j0,capture_j1,capture_j2\n0,3,1,-1,2,1\n",
        "{path}, line 2: channel counts must be nonnegative",
    ),
    "channel-sum": (
        COUNTS_HEADER + ",capture_j0,capture_j1,capture_j2\n0,3,1,1,1,1\n1,3,1,1,1,0\n",
        "{path}, line 3: channel counts must sum to the total captures",
    ),
}


def _read_file(tmp_path, text, read):
    """read() on the text written as a file and opened as the command line opens it."""
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    try:
        with path.open(encoding="utf-8") as handle:
            return read(handle)
    except DomainError as exc:
        return str(exc).replace(str(path), "{path}")


class TestFileRows:
    @pytest.mark.parametrize("name", SETTINGS_FILE_CASES)
    def test_settings_file(self, tmp_path, name):
        text, expected = SETTINGS_FILE_CASES[name]
        got = _read_file(tmp_path, text, read_settings_csv)
        if isinstance(expected, list):
            expected = [setting(*row) for row in expected]
        assert got == expected

    @pytest.mark.parametrize("name", COUNTS_FILE_CASES)
    def test_counts_file(self, tmp_path, name):
        settings = [
            setting(0, 0, 0),
            setting(1, 1, 1),
            setting("-1/2", "1/2", "-1/2"),
            setting(1, -1, 1),
        ]
        text, expected = COUNTS_FILE_CASES[name]
        got = _read_file(tmp_path, text, lambda handle: read_counts_csv(handle, settings))
        if isinstance(expected, list):
            expected = [CountRecord(settings[index], *counts) for index, *counts in expected]
        assert got == expected


class TestCoefficientsKeptAcrossCalls:
    def test_repeated_rounds_read_no_closed_form(self, monkeypatch, tmp_path):
        # The 5^3 calibration grid, simulated and fitted in both modes per round.
        monkeypatch.chdir(tmp_path)
        values = ("-1", "-1/2", "0", "1/2", "1")
        rows = [f"{','.join(point)},65000000.0,0.0001\n" for point in product(values, repeat=3)]
        (tmp_path / "s.csv").write_text("p,P_L,P_N,exposure,depth\n" + "".join(rows))
        original = cross_sections.closed_form
        seen = []

        def counted(channel, pol, model):
            seen.append(channel)
            return original(channel, pol, model)

        monkeypatch.setattr(cross_sections, "closed_form", counted)
        per_round = []
        for seed in ("7", "8", "9"):
            before = len(seen)
            for mode, k in (("oam", "1,2,1/2"), ("ordinary", "1,3")):
                simulate = ["simulate", "--settings", "s.csv", "--mode", mode, "--k", k]
                fit = ["fit", "--settings", "s.csv", "--counts", "c.csv", "--mode", mode]
                assert cli.main([*simulate, "--seed", seed, "--out", "c.csv"]) == 0
                assert cli.main([*fit, "--out", "f.json"]) == 0
            per_round.append(len(seen) - before)
        # The first round reads five anchors per channel once per mode: three
        # OAM channels and two ordinary ones.
        assert per_round == [25, 0, 0]
