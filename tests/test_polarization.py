from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from he3cap.angular import HalfInt
from he3cap.errors import DomainError
from he3cap.polarization import (
    PolarizationTriple,
    SubstateDistribution,
    oam_distribution,
    spin_half_distribution,
)

polarizations = st.fractions(min_value=Fraction(-1), max_value=Fraction(1), max_denominator=60)


class TestPolarizationTriple:
    def test_of_accepts_rationals_and_strings(self):
        triple = PolarizationTriple.of("1/2", "-1", "0.25")
        assert triple.p == Fraction(1, 2)
        assert triple.pl == Fraction(-1)
        assert triple.pn == Fraction(1, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            PolarizationTriple.of(2, 0, 0)
        with pytest.raises(DomainError):
            PolarizationTriple.of(0, "-3/2", 0)
        with pytest.raises(DomainError):
            PolarizationTriple.of(0, 0, "1.01")

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            PolarizationTriple.of(0.5, 0, 0)

    def test_flipped(self):
        triple = PolarizationTriple.of("1/2", "-1/3", 1)
        assert triple.flipped() == PolarizationTriple.of("-1/2", "1/3", -1)


class TestSpinHalfDistribution:
    def test_fully_polarized(self):
        dist = spin_half_distribution(1)
        assert dist.probability(HalfInt(1)) == 1
        assert dist.probability(HalfInt(-1)) == 0

    def test_unpolarized(self):
        dist = spin_half_distribution(0)
        assert dist.probability(HalfInt(1)) == Fraction(1, 2)
        assert dist.probability(HalfInt(-1)) == Fraction(1, 2)

    def test_linear_map(self):
        dist = spin_half_distribution(Fraction(1, 2))
        assert dist.probability(HalfInt(1)) == Fraction(3, 4)
        assert dist.probability(HalfInt(-1)) == Fraction(1, 4)

    def test_cached_fraction_does_not_admit_an_equal_float(self):
        spin_half_distribution(Fraction(1, 2))
        oam_distribution(Fraction(1, 2))
        with pytest.raises(TypeError):
            spin_half_distribution(0.5)
        with pytest.raises(TypeError):
            oam_distribution(0.5)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            spin_half_distribution(Fraction(3, 2))

    @given(polarizations)
    def test_normalization_and_roundtrip(self, value):
        dist = spin_half_distribution(value)
        assert sum(probability for _, probability in dist) == 1
        assert dist.polarization(HalfInt(1)) == value


class TestOamDistribution:
    def test_reverse_polarized(self):
        dist = oam_distribution(-1)
        assert dist.probability(HalfInt(2)) == 0
        assert dist.probability(HalfInt(-2)) == 1
        assert dist.probability(HalfInt(0)) == 0

    def test_unpolarized(self):
        dist = oam_distribution(0)
        assert dist.probability(HalfInt(2)) == Fraction(1, 2)
        assert dist.probability(HalfInt(-2)) == Fraction(1, 2)
        assert dist.probability(HalfInt(0)) == 0

    def test_linear_map(self):
        dist = oam_distribution(Fraction(1, 3))
        assert dist.probability(HalfInt(2)) == Fraction(2, 3)
        assert dist.probability(HalfInt(-2)) == Fraction(1, 3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            oam_distribution("-9/8")

    @given(polarizations)
    def test_m_zero_never_populated(self, value):
        assert oam_distribution(value).probability(HalfInt(0)) == 0

    @given(polarizations)
    def test_normalization_and_roundtrip(self, value):
        dist = oam_distribution(value)
        assert sum(probability for _, probability in dist) == 1
        assert dist.polarization(HalfInt(2)) == value


class TestSubstateDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            SubstateDistribution(((HalfInt(1), Fraction(1, 2)), (HalfInt(-1), Fraction(1, 4))))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            SubstateDistribution(((HalfInt(1), Fraction(3, 2)), (HalfInt(-1), Fraction(-1, 2))))

    def test_missing_state_has_zero_probability(self):
        dist = spin_half_distribution(0)
        assert dist.probability(HalfInt(3)) == 0
