import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from hintlock.guessing import (
    GuessingFunction,
    arikan_bounds,
    ceil_moment,
    guess_moment,
    optimal_guess_moment,
    optimal_guesser,
    power_moment,
    random_joint,
    side_info_encoder,
    side_info_lower_bound,
    sorted_moment,
)
from hintlock.prob import JointPmf, Pmf
from oracles import encoder_guess_moment, per_context_ranks, stochastic_side_info_moment


def test_sorted_moment_adds_left_to_right():
    # a compensated sum (the built-in from Python 3.12) would give 1.0
    assert sorted_moment([0.1] * 10, 0.0) == 0.9999999999999999


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12), st.sampled_from([0.5, 1.0, 2.0]))
def test_sorted_moment_is_the_sequential_sum(masses, rho):
    total = 0.0
    for rank, p in enumerate(sorted(masses, reverse=True), start=1):
        total += p * rank**rho
    assert sorted_moment(masses, rho) == total


@given(
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 64)), max_size=20),
    st.sampled_from([0.0, 0.3, 1.0, 2, 2.5]),
)
def test_power_moment_is_the_sequential_sum(terms, rho):
    # k = 0 (an empty decoding list) and no terms at all are allowed
    total = 0.0
    for mass, k in terms:
        total += mass * k**rho
    assert power_moment([m for m, _ in terms], [k for _, k in terms], rho) == total
    # numpy ints too: each k is raised as a Python int (np.int64(k) ** rho can differ in the last bit)
    assert power_moment(np.array([m for m, _ in terms]), np.array([k for _, k in terms], dtype=np.int64), rho) == total


def test_optimal_guesser_tie_break_and_order():
    j = JointPmf.from_marginal(Pmf.uniform(4))
    g = optimal_guesser(j)
    assert g.ranks[0] == (1, 2, 3, 4)
    j2 = JointPmf.from_marginal(Pmf.of([0.5, 0.3, 0.2]))
    assert optimal_guesser(j2).ranks[0] == (1, 2, 3)
    j3 = JointPmf.from_marginal(Pmf.of([0.2, 0.5, 0.3]))
    assert optimal_guesser(j3).ranks[0] == (3, 1, 2)


@given(st.integers(1, 6), st.integers(1, 5), st.booleans(), st.data())
def test_optimal_guesser_equals_the_per_context_sort(nx, ny, exact, data):
    # few distinct weights, so masses tie; some contexts are all zero
    weights = data.draw(st.lists(st.integers(0, 3), min_size=nx * ny, max_size=nx * ny))
    zero_ctx = data.draw(st.sets(st.integers(0, ny - 1), max_size=ny - 1))
    weights = [0 if k % ny in zero_ctx else w for k, w in enumerate(weights)]
    if not any(weights):
        weights[max(set(range(ny)) - zero_ctx)] = 1
    cells = [Fraction(w, sum(weights)) if exact else w / sum(weights) for w in weights]
    joint = JointPmf.of([cells[i * ny : (i + 1) * ny] for i in range(nx)], exact=exact)
    assert optimal_guesser(joint).ranks == per_context_ranks(joint)


def test_zero_posterior_ranks_after_positive():
    j = JointPmf.from_marginal(Pmf.of([0.0, 0.6, 0.0, 0.4]))
    assert optimal_guesser(j).ranks[0] == (3, 1, 4, 2)


def test_guess_moment_examples():
    j = JointPmf.from_marginal(Pmf.uniform(4))
    g = optimal_guesser(j)
    assert guess_moment(g, j, 1.0) == pytest.approx(2.5)
    assert guess_moment(g, j, 2.0) == pytest.approx(7.5)
    det = JointPmf.of([[0.5, 0.0], [0.0, 0.5]])
    assert optimal_guess_moment(det, 1.0) == pytest.approx(1.0)


def test_arikan_bound_examples():
    j = JointPmf.from_marginal(Pmf.uniform(4))
    lo, hi = arikan_bounds(j, 1.0)
    assert hi == pytest.approx(4.0)
    assert lo == pytest.approx(4 / (1 + math.log(4)))
    assert lo <= 2.5 <= hi
    det = JointPmf.of([[0.5, 0.0], [0.0, 0.5]])
    lo, hi = arikan_bounds(det, 1.0)
    assert lo == pytest.approx(1.0, abs=1e-12) and hi == pytest.approx(1.0, abs=1e-12)
    skew = JointPmf.from_marginal(Pmf.of([0.5, 0.25, 0.25]))
    _, hi = arikan_bounds(skew, 1.0)
    assert hi == pytest.approx(2 ** 1.5431066063272239, rel=1e-9)
    moment = optimal_guess_moment(skew, 1.0)
    assert moment == pytest.approx(1.75)
    assert moment <= hi


def test_sandwich_on_random_joints():
    rng = np.random.default_rng(42)
    for _ in range(50):
        j = random_joint(rng, int(rng.integers(2, 8)), int(rng.integers(1, 5)))
        for rho in (0.5, 1.0, 2.0):
            lo, hi = arikan_bounds(j, rho)
            opt = optimal_guess_moment(j, rho)
            assert lo - 1e-9 <= opt <= hi + 1e-9


def test_optimal_beats_random_permutations():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        nx, nc = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        j = random_joint(rng, nx, nc)
        for rho in (0.5, 1.0, 2.0):
            opt = optimal_guess_moment(j, rho)
            for _ in range(60):
                rows = []
                for _ in range(nc):
                    perm = rng.permutation(nx) + 1
                    rows.append(tuple(int(v) for v in perm))
                g = GuessingFunction(j.x_alphabet, j.y_alphabet, tuple(rows))
                assert guess_moment(g, j, rho) >= opt - 1e-12


def test_side_info_encoder_examples():
    j = JointPmf.from_marginal(Pmf.uniform(4))
    # z_count=1: constant map, moment unchanged
    enc1 = side_info_encoder(j, 1)
    assert set(enc1.values()) == {0}
    assert encoder_guess_moment(j, enc1, 1.0) == pytest.approx(2.5)
    # z_count=2: ceil moment 1.5 attained exactly
    enc2 = side_info_encoder(j, 2)
    assert ceil_moment(j, 2, 1.0) == pytest.approx(1.5)
    assert encoder_guess_moment(j, enc2, 1.0) == pytest.approx(1.5, abs=1e-12)
    # z_count=|X|: every symbol first-guessed
    enc4 = side_info_encoder(j, 4)
    assert encoder_guess_moment(j, enc4, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_side_info_floor_examples():
    j = JointPmf.from_marginal(Pmf.uniform(4))
    assert side_info_lower_bound(j, 2, 1.0) == pytest.approx(1.25)
    assert side_info_lower_bound(j, 4, 1.0) == pytest.approx(1.0)
    assert side_info_lower_bound(j, 1, 1.0) == pytest.approx(2.5)
    assert encoder_guess_moment(j, side_info_encoder(j, 2), 1.0) >= 1.25


def test_constructed_encoder_beats_random_z_laws():
    rng = np.random.default_rng(99)
    for _ in range(10):
        nx, nc = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        j = random_joint(rng, nx, nc)
        for z, rho in ((2, 1.0), (3, 2.0)):
            achieved = encoder_guess_moment(j, side_info_encoder(j, z), rho)
            assert achieved == pytest.approx(ceil_moment(j, z, rho), abs=1e-12)
            for _ in range(50):
                rows = rng.dirichlet(np.ones(z), size=(nx, nc))
                assert stochastic_side_info_moment(j, rows, rho) >= achieved - 1e-9


def test_equiv_exponential_bound():
    # constructed-encoder moment < 1 + 2^(rho (H - log|Z| + 1))
    rng = np.random.default_rng(5)
    from hintlock.prob import RenyiOrder, renyi_cond_entropy

    for _ in range(20):
        j = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        for rho in (0.5, 1.0, 2.0):
            h = renyi_cond_entropy(j, RenyiOrder.from_rho(rho))
            for z in (2, 3, 5):
                achieved = encoder_guess_moment(j, side_info_encoder(j, z), rho)
                assert achieved < 1 + 2 ** (rho * (h - math.log2(z) + 1))


def test_serialization():
    j = JointPmf.from_marginal(Pmf.of([0.2, 0.5, 0.3]))
    g = optimal_guesser(j)
    doc = json.loads(g.to_json())
    assert doc["0"] == [1, 2, 0]
    assert g.order(0) == (1, 2, 0)


def test_rank_table_validation():
    with pytest.raises(Exception):
        GuessingFunction((0, 1), (0,), ((1, 1),))
