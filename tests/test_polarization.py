import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


polarizations = st.fractions(min_value=-1, max_value=1, max_denominator=60)
triples = st.builds(PolarizationTriple, polarizations, polarizations, polarizations)


class TestIntegerForm:
    @given(triples)
    def test_integer_form_is_the_point_over_the_lcm_of_its_denominators(self, pol):
        d = math.lcm(pol.p.denominator, pol.pl.denominator, pol.pn.denominator)
        x, y, z = (int(value * d) for value in (pol.p, pol.pl, pol.pn))
        dd = d * d
        expected = ((d, x, y, z), (dd, dd - x * y, dd - x * z, dd - y * z))
        assert pol.integer_form == expected
        # Read once, kept: the second read returns the same tuple.
        assert pol.integer_form is pol.integer_form

    @given(triples)
    def test_a_triple_with_its_form_read_is_the_same_value(self, pol):
        fresh = PolarizationTriple(pol.p, pol.pl, pol.pn)
        form = pol.integer_form
        assert pol == fresh and hash(pol) == hash(fresh)
        assert (repr(pol), str(pol)) == (repr(fresh), str(fresh))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(pol, protocol)
            assert data == pickle.dumps(fresh, protocol)
            loaded = pickle.loads(data)
            assert loaded == pol and hash(loaded) == hash(pol)
            assert loaded.integer_form == form
        assert copy.copy(pol) == pol and copy.deepcopy(pol).integer_form == form

    def test_integer_form_is_not_a_field(self):
        assert [field.name for field in dataclasses.fields(PolarizationTriple)] == ["p", "pl", "pn"]
        pol = PolarizationTriple.of("1/2", "-1/3", 1)
        assert pol.integer_form == ((6, 3, -2, 6), (36, 42, 18, 48))
        with pytest.raises(dataclasses.FrozenInstanceError):
            pol.integer_form = ((1, 0, 0, 0), (1, 1, 1, 1))


class TestFieldChecks:
    @pytest.mark.parametrize(
        ("fields", "expected"),
        [
            ((1, -1, 0), (Fraction(1), Fraction(-1), Fraction(0))),
            (("1/2", "-0.25", "1e-1"), (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 10))),
            ((Fraction(1, 3), 1, "1/2"), (Fraction(1, 3), Fraction(1), Fraction(1, 2))),
            ((True, False, Fraction(-1)), (Fraction(1), Fraction(0), Fraction(-1))),
        ],
        ids=["ints", "texts", "mixed", "bools"],
    )
    def test_other_types_are_converted_to_fractions(self, fields, expected):
        pol = PolarizationTriple(*fields)
        assert (pol.p, pol.pl, pol.pn) == expected
        assert all(type(value) is Fraction for value in (pol.p, pol.pl, pol.pn))

    def test_fractions_in_range_are_kept(self):
        fields = (Fraction(-1), Fraction(2, 3), Fraction(1))
        pol = PolarizationTriple(*fields)
        assert all(kept is given for kept, given in zip((pol.p, pol.pl, pol.pn), fields))

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ((Fraction(3, 2), 0, 0), "p must lie in [-1, 1], got 3/2"),
            ((Fraction(0), Fraction(-5, 4), Fraction(0)), "P_L must lie in [-1, 1], got -5/4"),
            (
                (Fraction(0), Fraction(0), Fraction(101, 100)),
                "P_N must lie in [-1, 1], got 101/100",
            ),
            ((2, 0, 0), "p must lie in [-1, 1], got 2"),
            ((0, "-1.5", 0), "P_L must lie in [-1, 1], got -3/2"),
            # The first field out of range is the one named.
            ((Fraction(2), Fraction(-2), Fraction(2)), "p must lie in [-1, 1], got 2"),
        ],
    )
    def test_out_of_range_fields_raise(self, fields, message):
        with pytest.raises(DomainError) as caught:
            PolarizationTriple(*fields)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("fields", "error"),
        [
            ((0.5, Fraction(0), Fraction(0)), TypeError),
            ((Fraction(0), Fraction(0), 0.0), TypeError),
            ((Fraction(0), "x", Fraction(0)), ValueError),
            ((Fraction(0), Fraction(0), "1/0"), ZeroDivisionError),
            ((None, Fraction(0), Fraction(0)), TypeError),
        ],
        ids=["float-p", "float-pn", "malformed-text", "zero-denominator", "none"],
    )
    def test_unconvertible_fields_raise_as_the_conversion_does(self, fields, error):
        with pytest.raises(error):
            PolarizationTriple(*fields)
