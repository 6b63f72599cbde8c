import math

import numpy as np
import pytest

from hintlock.distortion import DistortionSpec
from hintlock.exponents import (
    ExponentResult,
    _rates,
    RdQuery,
    rd_exponent_functional,
    rd_function,
    rd_privacy_exponent,
    variational_optimum,
)
from hintlock.prob import DomainError, JointPmf, Pmf, RenyiOrder, renyi_cond_entropy, shannon_cond_entropy
from oracles import rd_function_grid_oracle, variational_renyi_check, variational_value


def h2(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


SMALL = RdQuery(grid_points=200, polish_runs=5, polish_steps=40)


def test_zero_distortion_equals_conditional_entropy():
    j = JointPmf.of([[0.2, 0.1], [0.15, 0.25], [0.05, 0.25]])
    spec = DistortionSpec.hamming(j.x_alphabet, 0.0)
    assert rd_function(j, spec) == pytest.approx(shannon_cond_entropy(j), abs=1e-9)


def test_saturated_distortion_is_zero():
    j = JointPmf.from_marginal(Pmf.of([0.4, 0.6]))
    spec = DistortionSpec.hamming((0, 1), 1.0)
    assert rd_function(j, spec) == pytest.approx(0.0, abs=1e-9)


def test_binary_hamming_closed_form_and_oracle():
    q = JointPmf.from_marginal(Pmf.of([0.3, 0.7]))
    spec = DistortionSpec.hamming((0, 1), 0.1)
    closed = h2(0.3) - h2(0.1)
    val = rd_function(q, spec)
    assert val == pytest.approx(closed, abs=1e-6)
    oracle = rd_function_grid_oracle(q, spec)
    assert oracle == pytest.approx(closed, abs=1e-6)
    assert val == pytest.approx(oracle, abs=1e-6)


def test_rd_function_convex_nonincreasing_in_delta():
    q = JointPmf.from_marginal(Pmf.of([0.35, 0.4, 0.25]))
    base = DistortionSpec.hamming((0, 1, 2), 0.0)
    deltas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    vals = [
        rd_function(q, DistortionSpec((0, 1, 2), (0, 1, 2), base.d, dl)) for dl in deltas
    ]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-8
    for i in range(1, len(vals) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-8


def test_functional_zero_distortion_matches_renyi():
    for table in ([[0.5], [0.3], [0.2]], [[0.2, 0.1], [0.15, 0.25], [0.05, 0.25]]):
        j = JointPmf.of(table)
        spec = DistortionSpec.hamming(j.x_alphabet, 0.0)
        for rho in (0.5, 1.0, 2.0):
            res = rd_exponent_functional(j, spec, rho, SMALL)
            h = renyi_cond_entropy(j, RenyiOrder.from_rho(rho))
            assert res.value == pytest.approx(h, abs=1e-3)
            lo, hi = res.certified_bracket
            assert lo <= res.value <= hi


def test_functional_uniform_witness_is_base_law():
    j = JointPmf.from_marginal(Pmf.uniform(3))
    spec = DistortionSpec.hamming((0, 1, 2), 0.0)
    res = rd_exponent_functional(j, spec, 1.0, SMALL)
    witness = np.array([[float(v) for v in row] for row in res.witness.table])
    assert np.allclose(witness, 1 / 3, atol=5e-3)


def test_functional_never_below_base_value():
    j = JointPmf.from_marginal(Pmf.of([0.6, 0.4]))
    spec = DistortionSpec.hamming((0, 1), 0.15)
    res = rd_exponent_functional(j, spec, 1.0, SMALL)
    assert res.value >= rd_function(j, spec) - 1e-9


def test_functional_small_rho_approaches_base_rd():
    # divergence penalty blows up as rho -> 0, pinning Q at the base law
    q = JointPmf.from_marginal(Pmf.of([0.3, 0.7]))
    spec = DistortionSpec.hamming((0, 1), 0.1)
    res = rd_exponent_functional(q, spec, 1e-3, RdQuery(grid_points=60, polish_runs=3, polish_steps=25))
    assert res.value == pytest.approx(rd_function(q, spec), abs=2e-3)


def test_privacy_exponent_examples():
    assert rd_privacy_exponent(1.0, 1.0, 1.0, 1.5).value == pytest.approx(1.0)
    assert rd_privacy_exponent(0.6, 0.6, 1.0, 1.5).value == -math.inf
    assert rd_privacy_exponent(0.4, 0.4, 1.0, 1.2, e_bob=0.5).value == pytest.approx(0.9)
    assert rd_privacy_exponent(0.75, 0.75, 1.0, 1.5).boundary


def test_variational_identity():
    j = JointPmf.of([[0.2, 0.1], [0.15, 0.25], [0.05, 0.25]])
    for rho in (0.5, 1.0, 2.0):
        h = renyi_cond_entropy(j, RenyiOrder.from_rho(rho))
        _, _, closed = variational_optimum(j, rho)
        assert closed == pytest.approx(h, abs=1e-12)
        gap = variational_renyi_check(j, rho, samples=300)
        assert 0 <= gap <= 1e-3


def test_variational_lower_bound_direction():
    j = JointPmf.from_marginal(Pmf.of([0.5, 0.5]))
    rng = np.random.default_rng(2)
    h = renyi_cond_entropy(j, RenyiOrder.from_rho(1.0))
    for _ in range(200):
        q = np.array([1.0])
        v = rng.dirichlet(np.ones(2)).reshape(2, 1)
        assert variational_value(j, q, v, 1.0) <= h + 1e-9


def test_variational_deterministic_source():
    j = JointPmf.from_marginal(Pmf.of([1.0, 0.0]))
    assert renyi_cond_entropy(j, 0.5) == pytest.approx(0.0)
    assert variational_renyi_check(j, 1.0, samples=10) == pytest.approx(0.0, abs=1e-9)


def test_exponent_result_validates_bracket():
    with pytest.raises(DomainError):
        ExponentResult(2.0, None, (0.0, 1.0))


def test_controls_validation():
    # no start, a negative polish, or a seed numpy's generator refuses
    for bad in (
        {"grid_points": 0},
        {"polish_steps": -1},
        {"seed": -1},
    ):
        with pytest.raises(DomainError):
            RdQuery(**bad)


def test_controls_at_their_smallest_admissible_values():
    q = JointPmf.from_marginal(Pmf.of([0.3, 0.7]))
    spec = DistortionSpec.hamming((0, 1), 0.1)
    (val,) = _rates([q], spec, (400, 1e-10, 1, 0))  # one multiplier, no bisection level
    assert h2(0.3) - h2(0.1) - 1e-9 <= val <= h2(0.3) + 1e-9
