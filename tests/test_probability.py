import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    Distribution,
    JointDistribution,
    ValidationError,
    conditional_entropy,
    joint_entropy,
    mutual_information,
    mutual_information_as_divergence,
    relative_entropy,
    shannon_entropy,
)

LN2 = 0.6931471805599453
# independently evaluated at 30-digit precision for the table
# [[0.4, 0.1], [0.2, 0.3]]
JOINT_H_TABLE = 1.2798542258336674
COND_H_TABLE = 0.5867070452737222
MI_TABLE = 0.08630462173553428

TABLE = [[0.4, 0.1], [0.2, 0.3]]


class TestConstruction:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            Distribution([0.5, -0.1, 0.6])

    def test_bad_normalization_rejected_not_renormalized(self):
        with pytest.raises(ValidationError, match="sum"):
            Distribution([0.5, 0.6])

    def test_normalization_tolerance_is_tight(self):
        with pytest.raises(ValidationError):
            Distribution([0.5, 0.5 + 1e-9])
        Distribution([0.5, 0.5 + 1e-13])

    def test_normalized_classmethod(self):
        d = Distribution.normalized([2.0, 6.0])
        assert d.probs == pytest.approx([0.25, 0.75])

    def test_joint_table_must_be_2d(self):
        with pytest.raises(ValidationError):
            JointDistribution([0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # nan compares False against every bound, so it needs its own check
        with pytest.raises(ValidationError, match="distribution must be finite"):
            Distribution([0.5, bad])
        with pytest.raises(ValidationError, match="distribution must be finite"):
            Distribution([bad])
        with pytest.raises(ValidationError, match="joint table must be finite"):
            JointDistribution([[bad, 0.0], [0.0, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_normalized_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            Distribution.normalized([1.0, bad])
        with pytest.raises(ValidationError, match="must be finite"):
            JointDistribution.normalized([[1.0, bad], [0.0, 1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normalized_accepts_weights_whose_sum_overflows(self):
        assert Distribution.normalized([1e308, 1e308]).probs.tolist() == [0.5, 0.5]
        assert Distribution.normalized([1e308, 1e308, 0.0, 1e308]).probs == pytest.approx([1 / 3, 1 / 3, 0, 1 / 3])
        table = JointDistribution.normalized([[1e308, 1e308], [1e308, 1e308]]).table
        assert table.tolist() == [[0.25, 0.25], [0.25, 0.25]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_normalized_checks_finiteness_before_dividing(self, bad):
        with pytest.raises(ValidationError, match="weights must be finite"):
            Distribution.normalized([bad, 1.0])
        with pytest.raises(ValidationError, match="weights must be finite"):
            JointDistribution.normalized([[bad, 1.0], [0.0, 1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normalized_overflowing_negative_weights_rejected(self):
        with pytest.raises(ValidationError, match="positive total"):
            Distribution.normalized([-1e308, -1e308])
        with pytest.raises(ValidationError, match="negative"):
            Distribution.normalized([1e308, -1e308, 1e308])

    def test_normalized_ordinary_weights_divide_by_their_sum(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 17):
            w = rng.random(n) * 10.0 ** rng.integers(-300, 300)
            assert np.array_equal(Distribution.normalized(w).probs, w / w.sum())
        table = rng.random((3, 4))
        assert np.array_equal(JointDistribution.normalized(table).table, table / table.sum())

    def test_probs_are_read_only(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestShannonEntropy:
    def test_uniform_two_outcomes(self):
        assert shannon_entropy(Distribution([0.5, 0.5])) == pytest.approx(LN2, abs=1e-15)

    def test_deterministic(self):
        assert shannon_entropy(Distribution([1.0, 0.0])) == 0.0

    @pytest.mark.parametrize("probs", [[1.0, 0.0], [1.0], [0.0, 1.0, 1e-16]])
    def test_point_mass_is_positive_zero(self, probs):
        """The negated sum of zeros is -0.0, which prints as -0."""
        assert math.copysign(1.0, shannon_entropy(probs)) == 1.0

    def test_quarter_three_quarter(self):
        assert shannon_entropy(Distribution([0.25, 0.75])) == pytest.approx(
            0.5623351446188084, abs=1e-12
        )

    def test_range(self, rng):
        for _ in range(50):
            n = rng.integers(2, 9)
            d = Distribution.normalized(rng.random(n) + 1e-9)
            s = shannon_entropy(d)
            assert -1e-12 <= s <= math.log(n) + 1e-12


class TestJointAndConditional:
    @pytest.mark.parametrize("table", [[[1.0]], [[0.0, 1.0], [0.0, 0.0]]])
    def test_one_cell_joint_entropy_is_positive_zero(self, table):
        assert math.copysign(1.0, joint_entropy(table)) == 1.0

    def test_perfect_correlation(self):
        assert joint_entropy(JointDistribution(np.diag([0.5, 0.5]))) == pytest.approx(
            LN2, abs=1e-15
        )

    def test_product_of_uniforms(self):
        assert joint_entropy(JointDistribution(np.full((2, 2), 0.25))) == pytest.approx(
            2 * LN2, abs=1e-15
        )

    def test_joint_of_table(self):
        assert joint_entropy(JointDistribution(TABLE)) == pytest.approx(
            JOINT_H_TABLE, abs=1e-12
        )

    def test_conditional_perfect_correlation(self):
        assert conditional_entropy(JointDistribution(np.diag([0.5, 0.5]))) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_conditional_independence(self):
        assert conditional_entropy(JointDistribution(np.full((2, 2), 0.25))) == pytest.approx(
            LN2, abs=1e-15
        )

    def test_conditional_of_table(self):
        assert conditional_entropy(JointDistribution(TABLE)) == pytest.approx(
            COND_H_TABLE, abs=1e-12
        )

    def test_chain_rule(self, rng):
        for _ in range(200):
            j = JointDistribution.normalized(rng.random((rng.integers(2, 9), rng.integers(2, 9))))
            lhs = joint_entropy(j)
            rhs = shannon_entropy(j.marginal_x()) + conditional_entropy(j)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMutualInformation:
    def test_independent_variables(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-15)

    def test_perfect_correlation(self):
        assert mutual_information(JointDistribution(np.diag([0.5, 0.5]))) == pytest.approx(
            LN2, abs=1e-15
        )

    def test_table_value_and_route_agreement(self):
        j = JointDistribution(TABLE)
        entropic = mutual_information(j)
        conditional = shannon_entropy(j.marginal_y()) - conditional_entropy(j)
        assert entropic == pytest.approx(MI_TABLE, abs=1e-12)
        assert entropic == pytest.approx(conditional, abs=1e-12)

    def test_transpose_symmetry_exact(self, rng):
        for _ in range(100):
            j = JointDistribution.normalized(rng.random((rng.integers(2, 9), rng.integers(2, 9))))
            assert mutual_information(j) == pytest.approx(
                mutual_information(JointDistribution(j.table.T)), abs=1e-13
            )

    def test_bounded_by_marginal_entropies(self, rng):
        for _ in range(200):
            j = JointDistribution.normalized(rng.random((rng.integers(2, 9), rng.integers(2, 9))))
            info = mutual_information(j)
            cap = min(shannon_entropy(j.marginal_x()), shannon_entropy(j.marginal_y()))
            assert -1e-12 <= info <= cap + 1e-12


class TestRelativeEntropy:
    def test_identical_distributions(self):
        d = Distribution([0.5, 0.5])
        assert relative_entropy(d, d) == 0.0

    def test_point_mass_vs_uniform(self):
        assert relative_entropy(Distribution([1.0, 0.0]), Distribution([0.5, 0.5])) == (
            pytest.approx(LN2, abs=1e-15)
        )

    def test_support_violation_is_infinite(self):
        assert relative_entropy(Distribution([0.5, 0.5]), Distribution([1.0, 0.0])) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            relative_entropy(Distribution([1.0]), Distribution([0.5, 0.5]))

    def test_nonnegative_and_zero_only_at_equality(self, rng):
        for _ in range(200):
            n = rng.integers(2, 9)
            p = Distribution.normalized(rng.random(n) + 1e-6)
            q = Distribution.normalized(rng.random(n) + 1e-6)
            div = relative_entropy(p, q)
            assert div >= -1e-13
            if div < 1e-13:
                assert np.max(np.abs(p.probs - q.probs)) < 1e-6


class TestDivergenceForm:
    def test_product_table_gives_zero(self):
        j = JointDistribution(np.outer([0.2, 0.8], [0.55, 0.45]))
        assert mutual_information_as_divergence(j) == pytest.approx(0.0, abs=1e-15)

    def test_perfect_correlation(self):
        j = JointDistribution(np.diag([0.5, 0.5]))
        assert mutual_information_as_divergence(j) == pytest.approx(LN2, abs=1e-15)

    def test_agrees_with_entropic_form(self):
        j = JointDistribution(TABLE)
        assert mutual_information_as_divergence(j) == pytest.approx(
            mutual_information(j), abs=1e-12
        )


@st.composite
def random_joint_tables(draw):
    rows = draw(st.integers(min_value=2, max_value=8))
    cols = draw(st.integers(min_value=2, max_value=8))
    cells = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return JointDistribution.normalized(np.array(cells).reshape(rows, cols))


@given(random_joint_tables())
@settings(max_examples=150, deadline=None)
def test_property_three_mutual_information_routes_agree(j):
    entropic = mutual_information(j)
    conditional = shannon_entropy(j.marginal_y()) - conditional_entropy(j)
    divergence = mutual_information_as_divergence(j)
    assert abs(entropic - conditional) < 1e-12
    assert abs(entropic - divergence) < 1e-12
    assert entropic >= -1e-12


@given(random_joint_tables())
@settings(max_examples=150, deadline=None)
def test_property_chain_rule(j):
    assert abs(
        joint_entropy(j) - shannon_entropy(j.marginal_x()) - conditional_entropy(j)
    ) < 1e-12
