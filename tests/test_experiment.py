import io
import math
from fractions import Fraction

import numpy as np
import pytest

from he3cap import cross_sections
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
from he3cap.exactnum import QuadRational
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
    write_settings_csv,
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
        with pytest.raises(DomainError):
            design_matrix([], CaptureMode.OAM)

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

    def test_fit_strengths_channel_summed(self):
        settings = cube_settings(exposure=1e6, depth=1e-3)
        model = CaptureModel.oam(1, 2, "1/2")
        records = simulate_counts(settings, model, seed=123)
        result = fit_strengths(records, CaptureMode.OAM)
        errors = result.standard_errors()
        for estimate, sigma, true in zip(result.strengths, errors, (1.0, 2.0, 0.5)):
            assert abs(estimate - true) < 4 * sigma

    def test_fit_strengths_channel_resolved(self):
        settings = cube_settings(exposure=1e6, depth=1e-3)
        model = CaptureModel.oam(1, 2, "1/2")
        records = simulate_counts(settings, model, seed=321)
        result = fit_strengths(records, CaptureMode.OAM, channel_resolved=True)
        for estimate, sigma, true in zip(
            result.strengths, result.standard_errors(), (1.0, 2.0, 0.5)
        ):
            assert abs(estimate - true) < 4 * sigma

    def test_channel_resolved_requires_channel_counts(self):
        records = [CountRecord(setting(0, 0, 0), 10, 5), CountRecord(setting(1, 1, 1), 10, 5)]
        with pytest.raises(DomainError):
            fit_strengths(records + [CountRecord(setting(1, -1, 1), 3, 5)],
                          CaptureMode.OAM, channel_resolved=True)

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
        records = simulate_counts(settings, CaptureModel.oam(0, 0, 0), 5)
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


class TestSweep:
    def test_corner_fractions_at_resolution_two(self):
        sweep = discriminability_sweep(2, CaptureMode.OAM)
        assert len(sweep) == 8
        corner = next(
            point for point in sweep if (point.pol.p, point.pol.pl, point.pol.pn) == (1, 1, 1)
        )
        assert corner.fractions == (
            QuadRational.zero(),
            QuadRational.zero(),
            QuadRational.one(),
        )

    def test_resolution_three_contains_unpolarized_weights(self):
        sweep = discriminability_sweep(3, CaptureMode.OAM)
        assert len(sweep) == 27
        center = next(
            point for point in sweep if (point.pol.p, point.pol.pl, point.pol.pn) == (0, 0, 0)
        )
        assert center.fractions == (
            QuadRational.from_rational(Fraction(1, 12)),
            QuadRational.from_rational(Fraction(1, 2)),
            QuadRational.from_rational(Fraction(5, 12)),
        )

    def test_ordinary_fractions_independent_of_pl(self):
        sweep = discriminability_sweep(3, CaptureMode.ORDINARY)
        by_p_pn = {}
        for point in sweep:
            by_p_pn.setdefault((point.pol.p, point.pol.pn), set()).add(point.fractions)
        assert all(len(variants) == 1 for variants in by_p_pn.values())

    def test_sorted_by_condition_number_then_lexicographic(self):
        sweep = discriminability_sweep(3, CaptureMode.OAM)
        keys = [
            (point.condition_number, point.pol.p, point.pol.pl, point.pol.pn)
            for point in sweep
        ]
        assert keys == sorted(keys)

    def test_fractions_sum_to_one(self):
        for point in discriminability_sweep(3, CaptureMode.OAM):
            total = QuadRational.zero()
            for share in point.fractions:
                total = total + share
            assert total == QuadRational.one()

    def test_resolution_below_two_rejected(self):
        with pytest.raises(DomainError):
            discriminability_sweep(1, CaptureMode.OAM)

    def test_fractions_follow_the_closed_form_in_force(self, monkeypatch):
        model = CaptureModel.oam("7/3", 2, "1/2")
        before = {
            point.pol: point.fractions
            for point in discriminability_sweep(3, CaptureMode.OAM, model)
        }
        wrong_closed_form = _patch_wrong_j1_closed_form(monkeypatch)
        after = discriminability_sweep(3, CaptureMode.OAM, model)
        assert any(point.fractions != before[point.pol] for point in after)
        for point in after:
            sections = [wrong_closed_form(ch, point.pol, model).value for ch in OAM_CHANNELS]
            total = sum(sections, QuadRational.zero())
            assert point.fractions == tuple(value / total for value in sections)

    def test_deterministic(self):
        assert discriminability_sweep(3, CaptureMode.OAM) == discriminability_sweep(
            3, CaptureMode.OAM
        )


class TestFileFormats:
    def test_settings_roundtrip_preserves_exact_rationals(self):
        settings = [
            setting("-1/2", "1/3", "0.25", exposure=2.5, depth=0.125),
            setting(1, -1, 0, exposure=1e6, depth=1e-4),
        ]
        buffer = io.StringIO()
        write_settings_csv(settings, buffer)
        buffer.seek(0)
        assert read_settings_csv(buffer) == settings

    def test_settings_header_enforced(self):
        with pytest.raises(DomainError):
            read_settings_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_settings_comments_ignored(self):
        text = "# a comment\np,P_L,P_N,exposure,depth\n0,0,0,1,1\n"
        assert len(read_settings_csv(io.StringIO(text))) == 1

    def test_counts_roundtrip(self):
        settings = cube_settings(2, exposure=1e4, depth=0.01)
        records = simulate_counts(settings, CaptureModel.uniform(CaptureMode.OAM), 8)
        buffer = io.StringIO()
        write_counts_csv(records, buffer, CaptureMode.OAM, channel_resolved=True)
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

    def test_counts_bad_setting_id(self):
        text = "setting_id,capture,transmitted\n7,1,1\n"
        with pytest.raises(DomainError):
            read_counts_csv(io.StringIO(text), [setting(0, 0, 0)])
