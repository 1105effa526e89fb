from fractions import Fraction

import pytest

from he3cap.errors import DomainError
from he3cap.polarization import PolarizationTriple


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
