import hashlib

import pytest

from he3cap.angular import HalfInt
from he3cap.cross_sections import (
    OAM_CHANNELS,
    ORDINARY_CHANNELS,
    SINGLET,
    TRIPLET,
    CaptureMode,
    Channel,
    Parity,
    channels_for,
)
from he3cap.errors import LevelNotFoundError
from he3cap.levels import (
    ENTRY_ENERGY_KEV,
    PROTON_ENERGY_KEV,
    Q_VALUE_KEV,
    TRITON_ENERGY_KEV,
    ReactionKinematics,
    builtin_levels,
    channel_detuning,
    check_kinematics,
    level_data_text,
)

# Frozen digest of the shipped reference table; update only on a deliberate
# data revision.
LEVEL_DATA_SHA256 = "df783285eaf8ff535bedd077be23e7cf579f46cad9e89732d2ea0bc36598ce18"


class TestBuiltinLevels:
    def test_exactly_six_records(self):
        assert len(builtin_levels()) == 6

    def test_reference_data_is_checksummed(self):
        digest = hashlib.sha256(level_data_text().encode()).hexdigest()
        assert digest == LEVEL_DATA_SHA256

    def test_contains_odd_parity_j2_level(self):
        assert any(
            record.energy_kev == 21840
            and record.j == HalfInt(4)
            and record.parity is Parity.ODD
            and record.isospin_t == 0
            for record in builtin_levels()
        )

    def test_contains_even_parity_resonance(self):
        assert any(
            record.energy_kev == 20210
            and record.j == HalfInt(0)
            and record.parity is Parity.EVEN
            and record.isospin_t == 0
            for record in builtin_levels()
        )

    def test_entry_point_record(self):
        entries = [record for record in builtin_levels() if record.j is None]
        assert len(entries) == 1
        assert entries[0].energy_kev == ENTRY_ENERGY_KEV
        assert entries[0].parity is None

    def test_sorted_by_energy(self):
        energies = [record.energy_kev for record in builtin_levels()]
        assert energies == sorted(energies)

    def test_all_isospin_zero(self):
        assert all(record.isospin_t == 0 for record in builtin_levels())


class TestChannelDetuning:
    def test_even_parity_resonance_is_368_kev_below_entry(self):
        assert channel_detuning(SINGLET) == 0.368

    def test_triplet_far_detuned(self):
        assert channel_detuning(TRIPLET) == -7.732

    def test_oam_detunings(self):
        j0, j1, j2 = OAM_CHANNELS
        assert channel_detuning(j0) == -0.432
        assert channel_detuning(j1) == -3.672
        assert channel_detuning(j2) == -1.262

    def test_missing_level(self):
        with pytest.raises(LevelNotFoundError):
            channel_detuning(Channel(HalfInt(6), Parity.ODD))


class TestParitySelection:
    def test_ordinary_channels_are_even(self):
        channels = channels_for(CaptureMode.ORDINARY)
        assert channels == ORDINARY_CHANNELS
        assert all(channel.parity is Parity.EVEN for channel in channels)

    def test_oam_channels_are_odd(self):
        channels = channels_for(CaptureMode.OAM)
        assert len(channels) == 3
        assert all(channel.parity is Parity.ODD for channel in channels)

    def test_unique_j_per_mode(self):
        for mode in CaptureMode:
            channels = channels_for(mode)
            assert len({channel.j_final for channel in channels}) == len(channels)


REFERENCE = ReactionKinematics(Q_VALUE_KEV, PROTON_ENERGY_KEV, TRITON_ENERGY_KEV)


class TestKinematics:
    def test_reference_values_pass(self):
        report = check_kinematics(REFERENCE)
        assert report.passed
        assert [check.name for check in report.checks] == ["energy_sum", "momentum_balance"]

    def test_equal_split_fails_momentum_balance(self):
        report = check_kinematics(ReactionKinematics(764.0, 382.0, 382.0))
        assert not report.passed
        by_name = {check.name: check.passed for check in report.checks}
        assert by_name["energy_sum"]
        assert not by_name["momentum_balance"]

    def test_wrong_q_fails_energy_sum(self):
        report = check_kinematics(ReactionKinematics(800.0, 573.0, 191.0))
        by_name = {check.name: check.passed for check in report.checks}
        assert not by_name["energy_sum"]
        assert by_name["momentum_balance"]

    def test_zero_triton_energy(self):
        report = check_kinematics(ReactionKinematics(573.0, 573.0, 0.0))
        by_name = {check.name: check.passed for check in report.checks}
        assert not by_name["momentum_balance"]

    def test_json_shape(self):
        payload = check_kinematics(REFERENCE).to_json_dict()
        assert payload["passed"] is True
        assert len(payload["checks"]) == 2
