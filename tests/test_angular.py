from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from he3cap.angular import HalfInt, cg, coupling_range, projections, validate_jm
from he3cap.errors import InvalidQuantumNumberError
from he3cap.exactnum import SqrtRational

HALF = HalfInt(1)
ONE = HalfInt(2)
THREE_HALVES = HalfInt(3)


def sqrt(q) -> SqrtRational:
    return SqrtRational.sqrt(Fraction(q))


class TestHalfInt:
    def test_of_coercions(self):
        assert HalfInt.of(2) == HalfInt(4)
        assert HalfInt.of("3/2") == HalfInt(3)
        assert HalfInt.of("-1/2") == HalfInt(-1)
        assert HalfInt.of(Fraction(5, 2)) == HalfInt(5)
        assert HalfInt.of(HalfInt(7)) == HalfInt(7)

    def test_of_rejects_quarters(self):
        with pytest.raises(InvalidQuantumNumberError):
            HalfInt.of("1/4")

    def test_str(self):
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(-1)) == "-1/2"
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(0)) == "0"

    def test_arithmetic_and_order(self):
        assert HalfInt(1) + HalfInt(2) == HalfInt(3)
        assert HalfInt(1) - HalfInt(2) == HalfInt(-1)
        assert -HalfInt(3) == HalfInt(-3)
        assert HalfInt(1) < HalfInt(2)

    def test_projections(self):
        assert projections(THREE_HALVES) == (HalfInt(-3), HalfInt(-1), HalfInt(1), HalfInt(3))

    def test_coupling_range(self):
        assert coupling_range(ONE, HALF) == (HALF, THREE_HALVES)

    def test_validate_jm(self):
        validate_jm(THREE_HALVES, HalfInt(-3))
        with pytest.raises(InvalidQuantumNumberError):
            validate_jm(THREE_HALVES, HalfInt(2))  # parity mismatch
        with pytest.raises(InvalidQuantumNumberError):
            validate_jm(HALF, HalfInt(3))  # |m| > j
        with pytest.raises(InvalidQuantumNumberError):
            validate_jm(HalfInt(-2), HalfInt(0))  # negative j


class TestCouplingCoefficient:
    def test_coupled_state_table(self):
        # The four coupled states reachable by controlling m_L and mu.
        assert cg(1, 1, "1/2", "1/2", "3/2", "3/2") == SqrtRational.from_rational(1)
        assert cg(1, 1, "1/2", "-1/2", "3/2", "1/2") == sqrt("1/3")
        assert cg(1, 1, "1/2", "-1/2", "1/2", "1/2") == sqrt("2/3")
        assert cg(1, -1, "1/2", "1/2", "3/2", "-1/2") == sqrt("1/3")
        assert cg(1, -1, "1/2", "1/2", "1/2", "-1/2") == SqrtRational(-1, Fraction(2, 3))
        assert cg(1, -1, "1/2", "-1/2", "3/2", "-3/2") == SqrtRational.from_rational(1)

    def test_projection_mismatch_is_zero(self):
        assert cg(1, 0, "1/2", "1/2", "3/2", "3/2").is_zero

    def test_triangle_violation_is_zero(self):
        assert cg(1, 0, 1, 0, 3, 0).is_zero
        assert cg("1/2", "1/2", "1/2", "1/2", 3, 1).is_zero

    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidQuantumNumberError):
            cg(1, "1/2", "1/2", "1/2", "3/2", "3/2")
        with pytest.raises(InvalidQuantumNumberError):
            cg(1, 2, "1/2", "1/2", "3/2", "3/2")

    def test_spin_half_coupling(self):
        assert cg("1/2", "1/2", "1/2", "-1/2", 0, 0) == sqrt("1/2")
        assert cg("1/2", "-1/2", "1/2", "1/2", 0, 0) == SqrtRational(-1, Fraction(1, 2))
        assert cg("1/2", "1/2", "1/2", "-1/2", 1, 0) == sqrt("1/2")
        assert cg("1/2", "1/2", "1/2", "1/2", 1, 1) == SqrtRational.from_rational(1)

    def test_known_integer_coupling(self):
        # 1 x 1 -> 2, 1, 0 at M = 0
        assert cg(1, 0, 1, 0, 2, 0) == sqrt("2/3")
        assert cg(1, 0, 1, 0, 1, 0).is_zero
        assert cg(1, 0, 1, 0, 0, 0) == SqrtRational(-1, Fraction(1, 3))
        assert cg(1, 1, 1, -1, 0, 0) == sqrt("1/3")


def all_j_values(max_twice: int):
    return [HalfInt(t) for t in range(0, max_twice + 1)]


class TestCouplingProperties:
    def test_orthonormality_small_j(self):
        # For fixed (j1, m1, j2, m2): sum over (J, M) of cg^2 == 1 exactly.
        cases = 0
        for j1 in all_j_values(4):
            for j2 in all_j_values(4):
                for m1 in projections(j1):
                    for m2 in projections(j2):
                        total = Fraction(0)
                        for j in coupling_range(j1, j2):
                            m = m1 + m2
                            if abs(m.twice) > j.twice:
                                continue
                            total += cg(j1, m1, j2, m2, j, m).square()
                        assert total == 1, (j1, m1, j2, m2)
                        cases += 1
        assert cases >= 225

    def test_completeness_small_j(self):
        # For fixed (j1, j2, J, M): sum over (m1, m2) of cg^2 == 1 exactly.
        for j1 in all_j_values(4):
            for j2 in all_j_values(4):
                for j in coupling_range(j1, j2):
                    for m in projections(j):
                        total = Fraction(0)
                        for m1 in projections(j1):
                            m2 = m - m1
                            if abs(m2.twice) > j2.twice:
                                continue
                            total += cg(j1, m1, j2, m2, j, m).square()
                        assert total == 1, (j1, j2, j, m)

    def test_reflection_symmetry_small_j(self):
        # cg(j1 m1 j2 m2|J M) == (-1)^(j1+j2-J) cg(j1 -m1 j2 -m2|J -M).
        for j1 in all_j_values(4):
            for j2 in all_j_values(4):
                for j in coupling_range(j1, j2):
                    phase = (-1) ** ((j1.twice + j2.twice - j.twice) // 2)
                    for m1 in projections(j1):
                        for m2 in projections(j2):
                            m = m1 + m2
                            if abs(m.twice) > j.twice:
                                continue
                            left = cg(j1, m1, j2, m2, j, m)
                            right = cg(j1, -m1, j2, -m2, j, -m)
                            assert left == right * SqrtRational.from_rational(phase)

    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.data(),
    )
    def test_orthonormality_random_j(self, tj1, tj2, data):
        j1, j2 = HalfInt(tj1), HalfInt(tj2)
        m1 = data.draw(st.sampled_from(projections(j1)))
        m2 = data.draw(st.sampled_from(projections(j2)))
        total = Fraction(0)
        for j in coupling_range(j1, j2):
            m = m1 + m2
            if abs(m.twice) > j.twice:
                continue
            total += cg(j1, m1, j2, m2, j, m).square()
        assert total == 1
