import copy
import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import he3cap.cross_sections as cross_sections
from he3cap.angular import HalfInt
from he3cap.cross_sections import (
    OAM_CHANNELS,
    ORDINARY_CHANNELS,
    SINGLET,
    TRIPLET,
    CaptureMode,
    CaptureModel,
    Channel,
    Discrepancy,
    Parity,
    ReconciliationReport,
    channel_cross_sections,
    channel_fractions,
    channels_for,
    closed_form,
    compare_with_oracle,
    grid_values,
    j2_corner_extrema,
    oam_closed_form,
    oracle,
    ordinary_closed_form,
    sections_total,
)
from he3cap.errors import DomainError, ModeMismatchError
from he3cap.exactnum import QuadRational
from he3cap.polarization import PolarizationTriple

J0, J1, J2 = OAM_CHANNELS

UNIT_OAM = CaptureModel.uniform(CaptureMode.OAM)
UNIT_ORDINARY = CaptureModel.uniform(CaptureMode.ORDINARY)

polarizations = st.fractions(min_value=Fraction(-1), max_value=Fraction(1), max_denominator=16)
triples = st.builds(PolarizationTriple, polarizations, polarizations, polarizations)


def rational(value) -> QuadRational:
    return QuadRational.from_rational(Fraction(value))


class TestModelTypes:
    def test_channel_labels(self):
        assert [c.label for c in ORDINARY_CHANNELS] == ["0+", "1+"]
        assert [c.label for c in OAM_CHANNELS] == ["0-", "1-", "2-"]

    def test_channels_for(self):
        assert channels_for(CaptureMode.ORDINARY) == (SINGLET, TRIPLET)
        assert channels_for(CaptureMode.OAM) == OAM_CHANNELS

    def test_model_validation(self):
        with pytest.raises(DomainError):
            CaptureModel(CaptureMode.OAM, (-1, 1, 1))
        with pytest.raises(DomainError):
            CaptureModel(CaptureMode.OAM, (Fraction(1), Fraction(1)))

    def test_strength_lookup(self):
        model = CaptureModel(CaptureMode.OAM, (1, 2, 3))
        assert model.strength(J1) == 2
        with pytest.raises(ModeMismatchError):
            model.strength(TRIPLET)

    def test_channel_cross_section_is_a_frozen_dataclass(self):
        section = cross_sections.ChannelCrossSection(J1, rational("1/2"))
        assert section == cross_sections.ChannelCrossSection(value=rational("1/2"), channel=J1)
        assert hash(section) == hash(copy.copy(section))
        assert repr(section).startswith("ChannelCrossSection(channel=Channel(")
        assert pickle.loads(pickle.dumps(section)) == section
        with pytest.raises(dataclasses.FrozenInstanceError):
            section.value = rational(1)

    def test_a_fresh_channel_finds_its_strength_and_rows(self):
        # Lookups hash a channel by its fields, so an equal channel built
        # anew finds what the module's own instance does.
        fresh = Channel(HalfInt(2), Parity.ODD)
        assert fresh == J1 and fresh is not J1 and hash(fresh) == hash(J1)
        assert CaptureModel(CaptureMode.OAM, (1, 2, 3)).strength(fresh) == 2
        assert cross_sections._BRACKETS[fresh] == cross_sections._BRACKETS[J1]
        assert cross_sections._substates(fresh) == cross_sections._substates(J1)
        with pytest.raises(ModeMismatchError):
            CaptureModel(CaptureMode.ORDINARY, (1, 3)).strength(fresh)
        with pytest.raises(ModeMismatchError):
            CaptureModel(CaptureMode.OAM, (1, 2, 3)).strength(Channel(HalfInt(2), Parity.EVEN))

    def test_a_pickled_channel_is_found_under_another_hash_seed(self):
        # A channel carries its hash, so the hash may not depend on the
        # string hash seed of the process that built it.
        script = (
            "import pickle, sys\n"
            "from he3cap.cross_sections import OAM_CHANNELS\n"
            "channel, model = pickle.loads(sys.stdin.buffer.read())\n"
            "print(model.strength(OAM_CHANNELS[1]), model.strength(channel))\n"
        )
        source = str(Path(cross_sections.__file__).parents[1])
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": source}
            result = subprocess.run(
                [sys.executable, "-c", script],
                input=pickle.dumps((J1, CaptureModel(CaptureMode.OAM, (1, 2, 3)))),
                capture_output=True,
                env=env,
                check=True,
                timeout=60,
            )
            assert result.stdout.split() == [b"2", b"2"]


class TestOrdinaryClosedForm:
    def test_singlet_vanishes_when_aligned(self):
        pol = PolarizationTriple.of(1, 0, 1)
        assert ordinary_closed_form(SINGLET, pol, UNIT_ORDINARY).value.is_zero
        pol = PolarizationTriple.of(-1, 0, -1)
        assert ordinary_closed_form(SINGLET, pol, UNIT_ORDINARY).value.is_zero

    def test_unpolarized_weights(self):
        pol = PolarizationTriple.of(0, 0, 0)
        assert ordinary_closed_form(TRIPLET, pol, UNIT_ORDINARY).value == rational("3/4")
        assert ordinary_closed_form(SINGLET, pol, UNIT_ORDINARY).value == rational("1/4")

    def test_singlet_antialigned(self):
        pol = PolarizationTriple.of(1, 0, -1)
        assert ordinary_closed_form(SINGLET, pol, UNIT_ORDINARY).value == rational("1/2")

    @given(triples, polarizations)
    def test_oam_polarization_is_ignored(self, pol, other_pl):
        other = PolarizationTriple(pol.p, other_pl, pol.pn)
        for channel in ORDINARY_CHANNELS:
            assert (
                ordinary_closed_form(channel, pol, UNIT_ORDINARY).value
                == ordinary_closed_form(channel, other, UNIT_ORDINARY).value
            )

    def test_mode_mismatch(self):
        pol = PolarizationTriple.of(0, 0, 0)
        with pytest.raises(ModeMismatchError):
            ordinary_closed_form(J2, pol, UNIT_ORDINARY)
        with pytest.raises(ModeMismatchError):
            ordinary_closed_form(SINGLET, pol, UNIT_OAM)


class TestOamClosedForm:
    def test_j0_zero_when_spin_oam_aligned(self):
        pol = PolarizationTriple.of(1, 1, Fraction(1, 2))
        assert oam_closed_form(J0, pol, UNIT_OAM).value.is_zero

    def test_j1_zero_at_fully_aligned_corner(self):
        pol = PolarizationTriple.of(1, 1, 1)
        assert oam_closed_form(J1, pol, UNIT_OAM).value.is_zero

    def test_j2_is_full_strength_at_aligned_corner(self):
        pol = PolarizationTriple.of(1, 1, 1)
        assert oam_closed_form(J2, pol, UNIT_OAM).value == rational(1)

    def test_j2_value_at_mixed_corner(self):
        # The bracket evaluates to 4/24 here; the coupling oracle must agree.
        pol = PolarizationTriple.of(1, -1, 1)
        closed_value = oam_closed_form(J2, pol, UNIT_OAM).value
        assert closed_value == rational("1/6")
        assert oracle(J2, pol, UNIT_OAM).value == closed_value

    def test_interference_coefficients_pinned_exactly(self):
        # Corners isolating each pairwise product pin the bracket
        # coefficients 3, 6 - 4*sqrt(2), and 3 + 4*sqrt(2) at denominator 24.
        spin_oam = oam_closed_form(J1, PolarizationTriple.of(1, 1, 0), UNIT_OAM).value
        assert spin_oam == QuadRational(Fraction(9, 24), Fraction(0))
        spin_nuclear = oam_closed_form(J1, PolarizationTriple.of(1, 0, 1), UNIT_OAM).value
        assert spin_nuclear == QuadRational(Fraction(6, 24), Fraction(4, 24))
        oam_nuclear = oam_closed_form(J1, PolarizationTriple.of(0, 1, 1), UNIT_OAM).value
        assert oam_nuclear == QuadRational(Fraction(9, 24), Fraction(-4, 24))

    def test_strength_scales_linearly(self):
        pol = PolarizationTriple.of("1/2", "-1/3", "1/4")
        model = CaptureModel(CaptureMode.OAM, (1, Fraction(7, 3), 1))
        assert (
            oam_closed_form(J1, pol, model).value
            == oam_closed_form(J1, pol, UNIT_OAM).value * Fraction(7, 3)
        )

    def test_mode_mismatch(self):
        pol = PolarizationTriple.of(0, 0, 0)
        with pytest.raises(ModeMismatchError):
            oam_closed_form(J1, pol, UNIT_ORDINARY)
        with pytest.raises(ModeMismatchError):
            oam_closed_form(TRIPLET, pol, UNIT_OAM)


class TestOracles:
    def test_ordinary_unpolarized_statistical_weights(self):
        pol = PolarizationTriple.of(0, 0, 0)
        assert oracle(SINGLET, pol, UNIT_ORDINARY).value == rational("1/4")
        assert oracle(TRIPLET, pol, UNIT_ORDINARY).value == rational("3/4")

    def test_ordinary_stretched_state(self):
        pol = PolarizationTriple.of(1, 0, 1)
        assert oracle(TRIPLET, pol, UNIT_ORDINARY).value == rational(1)
        assert oracle(SINGLET, pol, UNIT_ORDINARY).value.is_zero

    def test_oam_j0_blocked_when_spin_oam_aligned(self):
        # Only the coupled j'=1/2 component feeds j''=0, and the stretched
        # m'=3/2 state reached at p = P_L = 1 has none of it.
        for pn in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1)):
            pol = PolarizationTriple(Fraction(1), Fraction(1), pn)
            assert oracle(J0, pol, UNIT_OAM).value.is_zero

    def test_oam_unpolarized_statistical_weights(self):
        pol = PolarizationTriple.of(0, 0, 0)
        assert oracle(J0, pol, UNIT_OAM).value == rational("1/12")
        assert oracle(J1, pol, UNIT_OAM).value == rational("1/2")
        assert oracle(J2, pol, UNIT_OAM).value == rational("5/12")

    def test_dispatchers(self):
        pol = PolarizationTriple.of("1/2", "1/4", "-1/3")
        assert (
            closed_form(SINGLET, pol, UNIT_ORDINARY).value
            == ordinary_closed_form(SINGLET, pol, UNIT_ORDINARY).value
        )
        # The oracle serves both modes and still refuses a channel of the other.
        with pytest.raises(ModeMismatchError):
            oracle(TRIPLET, pol, UNIT_OAM)
        with pytest.raises(ModeMismatchError):
            oracle(J1, pol, UNIT_ORDINARY)


class TestTabledOracle:
    """The oracle contracts a per-channel |A|^2 table; it still decides every point."""

    EXTENDED_GRID = grid_values(5) + (Fraction(1, 3), Fraction(-2, 7))

    @pytest.fixture
    def fresh_tables(self):
        cross_sections._substates.cache_clear()
        yield
        cross_sections._substates.cache_clear()

    @pytest.mark.parametrize(
        "model",
        [
            CaptureModel(CaptureMode.OAM, (Fraction(7, 3), 2, Fraction(1, 2))),
            CaptureModel(CaptureMode.ORDINARY, (1, 3)),
        ],
        ids=["oam", "ordinary"],
    )
    def test_field_equal_to_closed_forms_on_extended_cube(self, model):
        for p, pl, pn in product(self.EXTENDED_GRID, repeat=3):
            pol = PolarizationTriple(p, pl, pn)
            for channel in model.channels:
                assert oracle(channel, pol, model).value == closed_form(channel, pol, model).value

    @pytest.mark.parametrize(
        ("mode", "corrupt_channel"),
        [(CaptureMode.OAM, J1), (CaptureMode.ORDINARY, TRIPLET)],
        ids=["oam", "ordinary"],
    )
    def test_corrupted_table_entry_is_reported(
        self, fresh_tables, monkeypatch, mode, corrupt_channel
    ):
        original = cross_sections._substates

        def corrupted(channel):
            denominator, entries = original(channel)
            if channel != corrupt_channel:
                return denominator, entries
            # Double the first occupied interference entry (m_L != 0, b != 0)
            # in OAM mode; an ordinary table is rational, so its first entry.
            index = next(
                i
                for i, (substates, _, b) in enumerate(entries)
                if mode is CaptureMode.ORDINARY or (substates[1] and b)
            )
            substates, a, b = entries[index]
            doubled = (substates, 2 * a, 2 * b)
            return denominator, entries[:index] + (doubled,) + entries[index + 1 :]

        monkeypatch.setattr(cross_sections, "_substates", corrupted)
        report = compare_with_oracle(mode, 3)
        assert not report.agreement
        assert {item.channel for item in report.discrepancies} == {corrupt_channel}


ALL_CHANNELS = ORDINARY_CHANNELS + OAM_CHANNELS
KNOBS = ("p", "pl", "pn")
# Position in a table key (2*m_N, 2*m_L, 2*mu) of the substate each knob polarizes.
KEY_POSITION = {"p": 2, "pl": 1, "pn": 0}
KNOBS_BUT = {knob: tuple(other for other in KNOBS if other != knob) for knob in KNOBS}


def oracle_values(models, points, doubled=lambda key: False):
    """Oracle values with every table entry whose key satisfies `doubled` counted twice."""
    original = cross_sections._substates

    def patched(channel):
        denominator, entries = original(channel)
        return denominator, tuple(
            (key, 2 * a, 2 * b) if doubled(key) else (key, a, b) for key, a, b in entries
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cross_sections, "_substates", patched)
        return [
            oracle(channel, pol, model).value
            for model in models
            for pol in points
            for channel in model.channels
        ]


class TestSubstateOccupations:
    """The integer tables and the substate occupations the oracle contracts them with."""

    @pytest.mark.parametrize(
        ("pol", "point"),
        [
            (PolarizationTriple.of("1/2", "-1/3", 1), (6, 3, -2, 6)),
            (PolarizationTriple.of(0, 0, 0), (1, 0, 0, 0)),
        ],
        ids=["mixed-denominators", "unpolarized"],
    )
    def test_integer_point(self, pol, point):
        assert pol.integer_form[0] == point

    @pytest.mark.parametrize("channel", ALL_CHANNELS, ids=lambda channel: channel.label)
    def test_orbital_momentum_follows_parity(self, channel):
        # Even-parity compound states are fed by s-wave (L = 0) capture, odd
        # ones by L = 1; the table lists m_L = 0 only for L = 0.
        orbital = cross_sections._orbital_momentum(channel)
        _, entries = cross_sections._substates(channel)
        projections_listed = {key[1] for key, _, _ in entries}
        if channel in ORDINARY_CHANNELS:
            assert orbital.twice == 0
            assert projections_listed == {0}
        else:
            assert orbital.twice == 2
            assert projections_listed == {-2, 0, 2}

    @pytest.mark.parametrize(
        ("channel", "total"),
        [(SINGLET, 1), (TRIPLET, 3), (J0, 1), (J1, 6), (J2, 5)],
        ids=lambda value: value.label if hasattr(value, "label") else str(value),
    )
    def test_table_sums_to_paths_times_multiplicity(self, channel, total):
        # Summed over every substate, each coupling path into j'' contributes
        # 2j''+1 and two different j' paths are orthogonal, so the sqrt(2)
        # interference cancels; only 1- is reached by two paths.
        denominator, entries = cross_sections._substates(channel)
        assert all(isinstance(part, int) for _, a, b in entries for part in (a, b))
        assert math.gcd(denominator, *(part for _, a, b in entries for part in (a, b))) == 1
        assert sum(a for _, a, _ in entries) == total * denominator
        assert sum(b for _, _, b in entries) == 0

    def test_m_l_zero_is_never_occupied_for_l_one(self):
        # The preparation puts every L = 1 neutron into m_L = +-1, so counting
        # the m_L = 0 entries twice changes no OAM value.
        models = (UNIT_OAM, CaptureModel(CaptureMode.OAM, (Fraction(7, 3), 2, Fraction(1, 2))))
        points = [PolarizationTriple(*values) for values in product(grid_values(3), repeat=3)]
        assert oracle_values(models, points, lambda key: key[1] == 0) == oracle_values(
            models, points
        )

    @pytest.mark.parametrize("sign", (1, -1), ids=["plus", "minus"])
    @pytest.mark.parametrize("knob", KNOBS)
    def test_fully_polarized_knob_occupies_one_substate(self, knob, sign):
        # At knob = sign only the substate of that sign is occupied: counting
        # the empty substate twice changes nothing, the occupied one does.
        models = (UNIT_OAM,) if knob == "pl" else (UNIT_OAM, UNIT_ORDINARY)
        others = grid_values(3) + (Fraction(1, 3),)
        points = [
            PolarizationTriple(**{knob: Fraction(sign)}, **dict(zip(KNOBS_BUT[knob], rest)))
            for rest in product(others, repeat=2)
        ]
        position = KEY_POSITION[knob]
        reference = oracle_values(models, points)
        assert oracle_values(models, points, lambda key: key[position] * sign < 0) == reference
        assert oracle_values(models, points, lambda key: key[position] * sign > 0) != reference

    @pytest.mark.parametrize("knob", KNOBS)
    @given(pol=triples)
    @settings(max_examples=30, deadline=None)
    def test_each_knob_enters_affinely(self, knob, pol):
        # Occupations (1 +- P)/2 make every value affine in each knob alone.
        def at(value):
            moved = PolarizationTriple(**{**vars(pol), knob: Fraction(value)})
            return oracle_values((UNIT_OAM, UNIT_ORDINARY), [moved])

        value = getattr(pol, knob)
        for middle, up, down in zip(at(value), at(1), at(-1)):
            assert middle == up * ((1 + value) / 2) + down * ((1 - value) / 2)


class TestClosedFormEqualsOracle:
    @given(triples)
    @settings(max_examples=60, deadline=None)
    def test_oam_equivalence_random_points(self, pol):
        for channel in OAM_CHANNELS:
            assert (
                oam_closed_form(channel, pol, UNIT_OAM).value
                == oracle(channel, pol, UNIT_OAM).value
            )

    @given(triples)
    @settings(max_examples=60, deadline=None)
    def test_ordinary_equivalence_random_points(self, pol):
        for channel in ORDINARY_CHANNELS:
            assert (
                ordinary_closed_form(channel, pol, UNIT_ORDINARY).value
                == oracle(channel, pol, UNIT_ORDINARY).value
            )

    @given(triples)
    @settings(max_examples=40, deadline=None)
    def test_pairwise_product_dependence(self, pol):
        flipped = pol.flipped()
        for channel in OAM_CHANNELS:
            assert (
                oam_closed_form(channel, pol, UNIT_OAM).value
                == oam_closed_form(channel, flipped, UNIT_OAM).value
            )
        for channel in ORDINARY_CHANNELS:
            assert (
                ordinary_closed_form(channel, pol, UNIT_ORDINARY).value
                == ordinary_closed_form(channel, flipped, UNIT_ORDINARY).value
            )

    @given(triples)
    @settings(max_examples=60, deadline=None)
    def test_nonnegativity(self, pol):
        for channel in OAM_CHANNELS:
            assert oam_closed_form(channel, pol, UNIT_OAM).value.sign() >= 0
        for channel in ORDINARY_CHANNELS:
            assert ordinary_closed_form(channel, pol, UNIT_ORDINARY).value.sign() >= 0


class TestZeroLoci:
    def test_j0_zero_on_spin_oam_locus(self):
        for sign, pn in product((1, -1), grid_values(5)):
            pol = PolarizationTriple(Fraction(sign), Fraction(sign), pn)
            assert oam_closed_form(J0, pol, UNIT_OAM).value.is_zero

    def test_j0_zero_on_oam_nuclear_locus(self):
        for sign, p in product((1, -1), grid_values(5)):
            pol = PolarizationTriple(p, Fraction(sign), Fraction(sign))
            assert oam_closed_form(J0, pol, UNIT_OAM).value.is_zero

    def test_j1_zero_only_at_fully_aligned_corner(self):
        for signs in product((1, -1), repeat=3):
            pol = PolarizationTriple.of(*signs)
            value = oam_closed_form(J1, pol, UNIT_OAM).value
            if signs[0] == signs[1] == signs[2]:
                assert value.is_zero
            else:
                assert value.sign() > 0


class TestTotals:
    def test_oam_unpolarized_total_matches_oracle_sum(self):
        pol = PolarizationTriple.of(0, 0, 0)
        total = sections_total(channel_cross_sections(pol, UNIT_OAM))
        assert total == rational(1)
        oracle_sum = QuadRational.zero()
        for channel in OAM_CHANNELS:
            oracle_sum = oracle_sum + oracle(channel, pol, UNIT_OAM).value
        assert total == oracle_sum

    @given(triples)
    @settings(max_examples=40, deadline=None)
    def test_ordinary_total_is_polarization_independent(self, pol):
        assert sections_total(channel_cross_sections(pol, UNIT_ORDINARY)) == rational(1)

    def test_zero_model(self):
        pol = PolarizationTriple.of("1/2", "1/2", "1/2")
        model = CaptureModel(CaptureMode.OAM, (0, 0, 0))
        assert sections_total(channel_cross_sections(pol, model)).is_zero

    @given(triples)
    @settings(max_examples=40, deadline=None)
    def test_fractions_sum_to_one(self, pol):
        fractions = channel_fractions(pol, UNIT_OAM)
        total = QuadRational.zero()
        for _, share in fractions:
            assert share.sign() >= 0
            total = total + share
        assert total == rational(1)

    def test_fractions_undefined_for_zero_total(self):
        for pol, model in [
            (PolarizationTriple.of(0, 0, 0), CaptureModel(CaptureMode.OAM, (0, 0, 0))),
            (PolarizationTriple.of(1, 1, 1), CaptureModel(CaptureMode.OAM, (1, 1, 0))),
            (PolarizationTriple.of(-1, "1/2", -1), CaptureModel(CaptureMode.ORDINARY, (1, 0))),
        ]:
            with pytest.raises(DomainError, match=re.escape(f"zero at {pol};")):
                channel_fractions(pol, model)


def _cube(values) -> list[PolarizationTriple]:
    return [PolarizationTriple(p, pl, pn) for p, pl, pn in product(values, repeat=3)]


def _share_rows(pols, model) -> list[tuple[QuadRational, ...]]:
    """channel_share_numerators at each point's own u-numerators, as QuadRationals."""
    rows = cross_sections.channel_share_numerators(
        (pol.integer_form[1] for pol in pols),
        model,
        cross_sections.u_coefficients(model.mode),
        pols.__getitem__,
    )
    return [tuple(QuadRational(Fraction(p, n), Fraction(q, n)) for p, q, n in row) for row in rows]


class TestFractionRows:
    """The integer shares against each closed form divided by their sum, point by point."""

    @pytest.mark.parametrize(
        "model",
        [
            CaptureModel(CaptureMode.OAM, (1, 1, 1)),
            CaptureModel(CaptureMode.OAM, ("7/3", 2, "1/2")),
            CaptureModel(CaptureMode.OAM, (0, 5, "3/11")),
            CaptureModel(CaptureMode.ORDINARY, (1, 3)),
            CaptureModel(CaptureMode.ORDINARY, ("7/3", 0)),
        ],
        ids=lambda model: f"{model.mode.value}-{','.join(map(str, model.strengths))}",
    )
    @pytest.mark.parametrize(
        "values",
        [
            grid_values(2),
            grid_values(3),
            grid_values(9),
            # Mixed denominators, so a point's lcm differs from its parts'.
            grid_values(3) + (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 6)),
        ],
        ids=["grid2", "grid3", "grid9", "mixed"],
    )
    def test_field_equal_to_closed_forms_over_their_sum(self, model, values):
        defined, reference = [], []
        for pol in _cube(values):
            sections = [closed_form(channel, pol, model).value for channel in model.channels]
            total = sum(sections, QuadRational.zero())
            if total.is_zero:
                with pytest.raises(DomainError):
                    _share_rows([pol], model)
                continue
            defined.append(pol)
            reference.append(tuple(value / total for value in sections))
        assert _share_rows(defined, model) == reference

    @pytest.mark.parametrize("mode", list(CaptureMode), ids=lambda mode: mode.value)
    def test_u_coefficients_read_back_the_table(self, mode):
        # The anchors recover each row of the shipped closed form exactly.
        assert cross_sections.u_coefficients(mode) == [
            cross_sections._BRACKETS[channel] for channel in channels_for(mode)
        ]

    def test_first_zero_total_is_named(self):
        # The 0- channel alone vanishes wherever all three polarizations align.
        pols = [PolarizationTriple.of(*signs) for signs in ((0, 0, 0), (1, 1, 1), (-1, -1, -1))]
        with pytest.raises(DomainError, match=re.escape("zero at (p=1, P_L=1, P_N=1);")):
            _share_rows(pols, CaptureModel(CaptureMode.OAM, (1, 0, 0)))

    def test_channel_fractions_agree_with_the_integer_shares(self):
        pol = PolarizationTriple.of("1/3", "-2/7", "5/6")
        model = CaptureModel(CaptureMode.OAM, ("7/3", 2, "1/2"))
        (row,) = _share_rows([pol], model)
        assert channel_fractions(pol, model) == tuple(zip(OAM_CHANNELS, row))


class TestReconciliation:
    def test_grid_values(self):
        assert grid_values(5) == (
            Fraction(-1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
            Fraction(1),
        )
        assert grid_values(2) == (Fraction(-1), Fraction(1))
        with pytest.raises(DomainError):
            grid_values(1)

    def test_oam_agreement_on_grid(self):
        report = compare_with_oracle(CaptureMode.OAM, 3)
        assert report.agreement
        assert report.points_checked == 27
        assert report.discrepancies == ()

    def test_ordinary_agreement_on_grid(self):
        report = compare_with_oracle(CaptureMode.ORDINARY, 5)
        assert report.agreement
        assert report.points_checked == 25

    def test_verdict_is_stable_across_runs(self):
        first = compare_with_oracle(CaptureMode.OAM, 3)
        second = compare_with_oracle(CaptureMode.OAM, 3)
        assert first.to_json_dict() == second.to_json_dict()

    def test_j2_extrema(self):
        extrema = j2_corner_extrema()
        assert extrema.maximum.value == rational(1)
        assert extrema.minimum.value == rational("1/6")
        assert extrema.aligned_corner_value == rational(1)
        # The aligned corner is a maximum, and the minimum sits where the
        # spin-OAM and OAM-nuclear products are both -1.
        aligned = {(p.p, p.pl, p.pn) for p in extrema.maximum.points}
        assert (1, 1, 1) in aligned and (-1, -1, -1) in aligned
        for point in extrema.minimum.points:
            assert point.p * point.pl == -1
            assert point.pl * point.pn == -1

    def test_report_json_shape(self):
        payload = compare_with_oracle(CaptureMode.OAM, 2).to_json_dict()
        assert payload["agreement"] is True
        assert payload["mode"] == "oam"
        assert payload["discrepancies"] == []
        assert payload["j2_extrema"]["maximum"]["value_exact"] == "1"
        assert payload["j2_extrema"]["minimum"]["value_exact"] == "1/6"


def _faulted(original, wrong_channel, shift):
    """original with shift(pol) added to wrong_channel's value, shift a QuadRational or None."""

    def faulted(channel, pol, model):
        section = original(channel, pol, model)
        offset = shift(pol) if channel == wrong_channel else None
        if offset is None:
            return section
        return cross_sections.ChannelCrossSection(channel, section.value + offset)

    return faulted


def _reference_report(mode, resolution):
    """compare_with_oracle as a plain loop: closed_form against oracle() at every point."""
    values = grid_values(resolution)
    model = CaptureModel.uniform(mode)
    if mode is CaptureMode.ORDINARY:
        points = [PolarizationTriple(p, Fraction(0), pn) for p in values for pn in values]
    else:
        points = [PolarizationTriple(*point) for point in product(values, repeat=3)]
    discrepancies = []
    for pol in points:
        for channel in channels_for(mode):
            closed_value = cross_sections.closed_form(channel, pol, model).value
            oracle_value = oracle(channel, pol, model).value
            if closed_value != oracle_value:
                discrepancies.append(Discrepancy(channel, pol, closed_value, oracle_value))
    extrema = j2_corner_extrema() if mode is CaptureMode.OAM else None
    return ReconciliationReport(mode, resolution, len(points), tuple(discrepancies), extrema)


# The closed form each mode dispatches to, and the channel a fault is put into.
_MODE_FORMS = {
    CaptureMode.OAM: ("oam_closed_form", J1),
    CaptureMode.ORDINARY: ("ordinary_closed_form", TRIPLET),
}


class TestAdjudication:
    """compare_with_oracle against the per-point loop it streams."""

    @pytest.mark.parametrize(
        ("mode", "point"),
        [
            (CaptureMode.OAM, PolarizationTriple.of("1/2", "-1/2", 0)),
            (CaptureMode.ORDINARY, PolarizationTriple.of("1/2", 0, "-1/2")),
        ],
        ids=["oam", "ordinary"],
    )
    def test_a_fault_at_one_interior_point_is_the_one_discrepancy(self, monkeypatch, mode, point):
        name, wrong_channel = _MODE_FORMS[mode]
        original = getattr(cross_sections, name)
        shift = rational("1/1000")
        monkeypatch.setattr(
            cross_sections,
            name,
            _faulted(original, wrong_channel, lambda pol: shift if pol == point else None),
        )
        report = compare_with_oracle(mode, 5)
        assert not report.agreement
        assert [(item.channel, item.pol) for item in report.discrepancies] == [
            (wrong_channel, point)
        ]
        (item,) = report.discrepancies
        model = CaptureModel.uniform(mode)
        assert item.oracle_value == oracle(wrong_channel, point, model).value
        assert item.closed_value == original(wrong_channel, point, model).value + shift

    @pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
    @pytest.mark.parametrize("mode", list(CaptureMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("resolution", [2, 3, 4, 5])
    def test_report_equals_the_per_point_loop(self, monkeypatch, resolution, mode, faulty):
        # Grid 4 has thirds for coordinates, so its d = 3 is odd.  The fault
        # shifts the rational part by p*P_N/1000 and the sqrt(2) part by
        # P_N^2/1000, so at p = 0 only the sqrt(2) parts differ.
        if faulty:
            name, wrong_channel = _MODE_FORMS[mode]
            shifted = _faulted(
                getattr(cross_sections, name),
                wrong_channel,
                lambda pol: QuadRational(pol.p * pol.pn / 1000, pol.pn * pol.pn / 1000),
            )
            monkeypatch.setattr(cross_sections, name, shifted)
        report = compare_with_oracle(mode, resolution)
        assert report.agreement is not faulty
        assert report.to_json_dict() == _reference_report(mode, resolution).to_json_dict()

    @pytest.mark.parametrize(
        ("mode", "calls"), [(CaptureMode.OAM, 729 * 3), (CaptureMode.ORDINARY, 81 * 2)]
    )
    def test_every_point_and_channel_reads_the_closed_form(self, monkeypatch, mode, calls):
        # Only a scan of every point catches a closed form that is not
        # multilinear, so the adjudication may not read a sample in its place.
        original = cross_sections.closed_form
        seen = []

        def counted(channel, pol, model):
            seen.append((channel, pol))
            return original(channel, pol, model)

        monkeypatch.setattr(cross_sections, "closed_form", counted)
        assert compare_with_oracle(mode, 9).agreement
        assert len(seen) == calls
        assert len(set(seen)) == calls


# Every binding a closed form can be patched in at, with a mode that reads it.
_BINDINGS = [
    ("closed_form", CaptureMode.OAM),
    ("closed_form", CaptureMode.ORDINARY),
    ("ordinary_closed_form", CaptureMode.ORDINARY),
    ("oam_closed_form", CaptureMode.OAM),
]


class TestKeptCoefficients:
    """u_coefficients keeps its rows per mode, keyed on the three closed-form bindings."""

    @pytest.mark.parametrize(("name", "mode"), _BINDINGS)
    def test_a_patch_at_each_binding_is_read_and_undone(self, monkeypatch, name, mode):
        table = [cross_sections._BRACKETS[channel] for channel in channels_for(mode)]
        assert cross_sections.u_coefficients(mode) == table
        # One more unit of the last channel everywhere is one more unit of its c0.
        last = channels_for(mode)[-1]
        shifted = _faulted(getattr(cross_sections, name), last, lambda pol: QuadRational.one())
        monkeypatch.setattr(cross_sections, name, shifted)
        denominator, (c0, *slopes), root = table[-1]
        patched = (denominator, (c0 + denominator, *slopes), root)
        assert cross_sections.u_coefficients(mode) == [*table[:-1], patched]
        monkeypatch.undo()
        assert cross_sections.u_coefficients(mode) == table

    @pytest.mark.parametrize("mode", list(CaptureMode), ids=lambda mode: mode.value)
    def test_kept_rows_read_no_closed_form(self, monkeypatch, mode):
        original = cross_sections.closed_form
        seen = []

        def counted(channel, pol, model):
            seen.append(channel)
            return original(channel, pol, model)

        monkeypatch.setattr(cross_sections, "closed_form", counted)
        first = cross_sections.u_coefficients(mode)
        # Five anchors per channel, read once for the new binding.
        assert len(seen) == 5 * len(channels_for(mode))
        first.clear()
        for _ in range(3):
            assert cross_sections.u_coefficients(mode) == [
                cross_sections._BRACKETS[channel] for channel in channels_for(mode)
            ]
        assert len(seen) == 5 * len(channels_for(mode))
