import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintlock.distortion import (
    DistortionSpec,
    _optimal_orders,
    avg_distortion,
    brute_optimal_distortion_guesser,
    brute_optimal_distortion_guessers,
    greedy_cover_guesser,
    rd_encoder_from_guessing,
    rd_guessing_from_lists,
    rd_side_info_encoder,
    success_function,
    tuple_alphabet,
    within,
    _tuple_wrap,
)
from hintlock.guessing import optimal_guess_moment, optimal_guesser, random_joint
from hintlock.prob import BudgetExceededError, DomainError, JointPmf, Pmf, product_pmf
from hintlock.tasks import s_alphabet_size
from oracles import permutation_table, table_near_optima, table_orders

J3 = JointPmf.from_marginal(Pmf.of([0.5, 0.3, 0.2]))
ASYM = DistortionSpec((0, 1, 2), (0, 1, 2), ((0.0, 0.4, 1.0), (0.9, 0.0, 0.4), (0.3, 1.1, 0.0)), 0.35)


def test_avg_distortion_examples():
    spec = DistortionSpec.hamming((0, 1), 0.0)
    assert avg_distortion((0, 1, 1), (0, 1, 1), spec) == 0.0
    assert avg_distortion((0, 1, 1), (1, 0, 0), spec) == 1.0
    assert avg_distortion((0, 1, 1), (0, 0, 1), spec) == pytest.approx(1 / 3)
    with pytest.raises(DomainError):
        avg_distortion((0, 1), (0,), spec)


def test_spec_requires_zero_distortion_reconstruction():
    with pytest.raises(DomainError):
        DistortionSpec((0, 1), (0, 1), ((0.0, 1.0), (1.0, 0.5)), 0.0)
    with pytest.raises(DomainError):
        DistortionSpec((0, 1), (0, 1), ((0.0, -1.0), (1.0, 0.0)), 0.0)


def test_spec_rejects_nan():
    """A NaN target or entry fails every comparison, so it must not slip past `< 0`."""
    with pytest.raises(DomainError):
        DistortionSpec.hamming((0, 1), math.nan)
    with pytest.raises(DomainError):
        DistortionSpec((0, 1), (0, 1), ((0.0, math.nan), (1.0, 0.0)), 0.1)


def test_spec_rejects_an_infinite_entry():
    """0 * inf is NaN in E[d], so an infinite entry made every Delta unreachable,
    although the identity channel meets Delta = 0.2 here."""
    with pytest.raises(DomainError, match="finite nonnegative"):
        DistortionSpec((0, 1), (0, 1), [[0, math.inf], [1, 0]], 0.2)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, -1.0])
def test_spec_names_a_bad_entry_before_the_zero_distortion_rule(bad):
    """min() of a row whose first entry is NaN is NaN, and of one with -inf or
    -1 is negative: either way not 0, and the row was called one without a
    zero-distortion reconstruction."""
    for row in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(DomainError, match="finite nonnegative"):
            DistortionSpec((0, 1), (0, 1), [row, [1.0, 0.0]], 0.5)


def test_spec_rejects_a_table_without_one_row_per_source_symbol():
    """Too few rows once read past the table's end, and a surplus row was ignored."""
    for d in (((0, 1),), ((0, 1), (1, 0), (0, 0))):
        with pytest.raises(DomainError, match="distortion table shape mismatch"):
            DistortionSpec((0, 1), (0, 1), d, 0.5)
    with pytest.raises(DomainError, match="zero-distortion"):  # an empty reconstruction alphabet
        DistortionSpec((0, 1), (), ((), ()), 0.5)


def test_spec_rejects_a_repeated_symbol():
    """`dist` finds a symbol's first row or column only: with xhat = (0, 0) the
    second column was never read, and the order search died on an empty min."""
    for x, xhat in (((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (1, 1.0))):
        with pytest.raises(DomainError, match="repeats"):
            DistortionSpec(x, xhat, [[0, 1], [1, 0]], 0.5)
    assert DistortionSpec((0, 1), ([0], [1]), [[0, 1], [1, 0]], 0.5).dist(1, [1]) == 0  # unhashable symbols still work


def test_success_function_examples():
    # Delta large enough that one ball covers everything: rank 1 everywhere
    big = DistortionSpec((0, 1, 2), (0, 1, 2), ASYM.d, 2.0)
    sf, val = brute_optimal_distortion_guesser(big, J3, 1, 1.0)
    assert val == pytest.approx(1.0)
    # Delta = 0 Hamming: collapses to exact guessing
    spec0 = DistortionSpec.hamming((0, 1, 2), 0.0)
    sf0, val0 = brute_optimal_distortion_guesser(spec0, J3, 1, 1.0)
    assert val0 == pytest.approx(optimal_guess_moment(J3, 1.0), abs=1e-12)
    # explicit rank enumeration for the asymmetric table at Delta = 0.5
    half = DistortionSpec((0, 1, 2), (0, 1, 2), ASYM.d, 0.5)
    g = optimal_guesser(JointPmf.from_marginal(Pmf.of([0.5, 0.3, 0.2])))
    ghat = type(g)(
        tuple((s,) for s in (0, 1, 2)), (0,), g.ranks
    )
    sf_half = success_function(ghat, half, _tuple_wrap(J3))
    for x in (0, 1, 2):
        order = ghat.order(0)
        expect = next(
            j for j, xh in enumerate(order, start=1) if half.dist(x, xh[0]) <= 0.5 + 1e-12
        )
        assert sf_half.ranks[((x,), 0)] == expect


def test_psi_fidelity():
    sf, _ = brute_optimal_distortion_guesser(ASYM, J3, 1, 1.0)
    for (x, c), xhat in sf.recon.items():
        assert within(x, xhat, ASYM)


def test_moment_monotone_in_delta():
    prev = math.inf
    for delta in (0.0, 0.2, 0.35, 0.5, 1.0):
        spec = DistortionSpec((0, 1, 2), (0, 1, 2), ASYM.d, delta)
        _, val = brute_optimal_distortion_guesser(spec, J3, 1, 1.0)
        assert val <= prev + 1e-12
        prev = val


def test_brute_budget():
    # the order search takes 2^m * m steps per context, m = |Xhat|^n: 9 * 2^9 for ternary n = 2
    spec = DistortionSpec.hamming((0, 1, 2), 0.0)
    with pytest.raises(BudgetExceededError):
        brute_optimal_distortion_guesser(spec, J3, 2, 1.0, budget=9 * 2**9 - 1)
    _, moment = brute_optimal_distortion_guesser(spec, J3, 2, 1.0, budget=9 * 2**9)
    assert moment == pytest.approx(optimal_guess_moment(product_pmf(J3, 2), 1.0), abs=1e-12)
    with pytest.raises(BudgetExceededError):  # m = 27 at the default budget
        brute_optimal_distortion_guesser(spec, J3, 3, 1.0)


def test_greedy_matches_oracle_on_easy_cases():
    spec0 = DistortionSpec.hamming((0, 1, 2), 0.0)
    _, opt = brute_optimal_distortion_guesser(spec0, J3, 1, 1.0)
    g = greedy_cover_guesser(spec0, J3, 1)
    assert g.moment(_tuple_wrap(J3), 1.0) == pytest.approx(opt, abs=1e-12)
    big = DistortionSpec((0, 1, 2), (0, 1, 2), ASYM.d, 2.0)
    g2 = greedy_cover_guesser(big, J3, 1)
    assert g2.moment(_tuple_wrap(J3), 1.0) == pytest.approx(1.0)


def test_greedy_gap_measured_against_oracle():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        d = rng.uniform(0.1, 1.2, size=(3, 3))
        np.fill_diagonal(d, 0.0)
        spec = DistortionSpec((0, 1, 2), (0, 1, 2), tuple(map(tuple, d)), float(rng.uniform(0.1, 0.6)))
        j = random_joint(rng, 3, 1)
        sfg = greedy_cover_guesser(spec, j, 1)
        _, opt = brute_optimal_distortion_guesser(spec, j, 1, 1.0)
        gap = sfg.moment(_tuple_wrap(j), 1.0) - opt
        assert gap >= -1e-12
        worst = max(worst, gap)
    assert worst < 2.0  # gap exists but is measured, not assumed zero


def test_side_info_encoder_bounds():
    sf, opt = brute_optimal_distortion_guesser(ASYM, J3, 1, 1.0)
    for z in (1, 2, 3):
        enc, rep = rd_side_info_encoder(sf, J3, 1, z, 1.0)
        assert rep["floor"] - 1e-12 <= rep["achieved"] <= rep["ceil_target"] + 1e-12
        if z == 1:
            assert rep["achieved"] == pytest.approx(opt)
        if z >= 3:
            assert rep["achieved"] == pytest.approx(1.0)
    g = greedy_cover_guesser(ASYM, J3, 1)
    with pytest.raises(DomainError):
        rd_side_info_encoder(g, J3, 1, 2, 1.0)  # not oracle-certified


def test_conversions_both_directions():
    sf, opt = brute_optimal_distortion_guesser(ASYM, J3, 1, 1.0)
    nh = 3
    for omega in (1, 2, 3):
        ns = 1 + math.floor(math.log2(math.ceil(nh / omega)))
        enc, lists, lm = rd_encoder_from_guessing(sf, J3, 1, omega, omega * ns, 1.0)
        ceil_target = sum(
            float(p) * math.ceil(sf.ranks[((x,), 0)] / omega) ** 1.0
            for x, p in zip(J3.x_alphabet, J3.y_column(0))
            if p > 0
        )
        assert lm <= ceil_target + 1e-12
        back = rd_guessing_from_lists(lists, enc, ASYM, J3, 1)
        assert back.moment(_tuple_wrap(J3), 1.0) <= (omega * ns) ** 1.0 * lm + 1e-12
    # omega = 1 corollary: list moment below the success moment
    ns1 = 1 + math.floor(math.log2(3))
    _, lists1, lm1 = rd_encoder_from_guessing(sf, J3, 1, 1, ns1, 1.0)
    assert lm1 <= opt + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 2)]))
def test_success_ranks_are_the_guessing_ranks_of_the_reconstructions(seed, shape):
    # the identity the rank-remainder and offset/refinement encoders rely on
    n, nh = shape  # block length and |Xhat|, within the brute-force budget
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 4))
    joint = random_joint(rng, nx, int(rng.integers(1, 3)), zeros=0.2)
    d = rng.uniform(0.1, 1.5, size=(nx, nh))
    d[np.arange(nx), rng.integers(0, nh, size=nx)] = 0.0
    spec = DistortionSpec(joint.x_alphabet, tuple(range(nh)), tuple(map(tuple, d)), float(rng.uniform(0.0, 1.0)))
    sf, _ = brute_optimal_distortion_guesser(spec, joint, n, 1.0)
    omega = int(rng.integers(1, nh**n + 1))
    enc, lists, _ = rd_encoder_from_guessing(sf, joint, n, omega, omega * s_alphabet_size(nh**n, omega), 1.0)
    big = product_pmf(joint, n) if n > 1 else _tuple_wrap(joint)
    cells = {(x, c) for x in big.x_alphabet for c in big.y_alphabet}
    for found in (sf, greedy_cover_guesser(spec, joint, n), rd_guessing_from_lists(lists, enc, spec, joint, n)):
        assert found.ranks.keys() == found.recon.keys() == cells
        for (x, c), rank in found.ranks.items():
            assert rank == found.ghat.rank(found.recon[(x, c)], c)
            assert within(x, found.recon[(x, c)], spec)


RHOS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 4.0))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_one_order_search_serves_every_rho(nh, nx, data):
    # the reference's shared permutation table and first-hit positions give,
    # at each rho, the order and the very float of a search made for that rho alone
    row = st.lists(st.booleans(), min_size=nh, max_size=nh).filter(any)  # every source row has a hit
    balls = np.array(data.draw(st.lists(row, min_size=nx, max_size=nx)))
    column = st.lists(st.floats(0.0, 1.0), min_size=nx, max_size=nx).map(np.array)
    columns = data.draw(st.lists(column, min_size=1, max_size=3))
    rhos = data.draw(st.lists(RHOS, min_size=1, max_size=4))
    shared = table_orders(balls, columns, rhos)
    assert len(shared) == len(rhos)
    for rho, best in zip(rhos, shared):
        (alone,) = table_orders(balls, columns, [rho])
        assert [order.tolist() for order, _ in best] == [order.tolist() for order, _ in alone]
        assert [moment.hex() for _, moment in best] == [moment.hex() for _, moment in alone]


@pytest.mark.parametrize("n", range(9))
def test_permutation_table_is_itertools_order(n):
    # the same rows in the same order, so argmin breaks ties as before
    table = permutation_table(n)
    assert table.dtype == np.int64 and table.shape == (math.factorial(n), n)
    assert table.tolist() == [list(order) for order in permutations(range(n))]


@st.composite
def ball_matrices(draw):
    """An |X| x m within-Delta matrix, m <= 8, every row with a hit; its
    columns repeat a few distinct ones, so that reconstructions tie."""
    m, nx = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    distinct = draw(st.integers(1, m))
    row = st.lists(st.booleans(), min_size=distinct, max_size=distinct)
    base = np.array(draw(st.lists(row, min_size=nx, max_size=nx)))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=m, max_size=m))
    balls = base[:, picks]
    for i in np.flatnonzero(~balls.any(axis=1)):
        balls[i, draw(st.integers(0, m - 1))] = True
    return balls


@settings(max_examples=120, deadline=None)
@given(ball_matrices(), st.data(), st.sampled_from([0.5, 1.0, 1.5, 2.0]))
def test_subset_dp_finds_the_table_order(balls, data, rho):
    # Wherever every order within 1e-12 relative of the table's least moment
    # guesses alike (the same first-hit position for every source tuple), the
    # DP's order is the table's: the first of the tied orders.  Near-ties
    # that differ only by rounding may go either way.  The moments agree to
    # 1e-12 relative, and bit for bit on the same order at an integer rho
    # (elsewhere numpy's array power can differ from Python's in the last bit).
    mass = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([0.125, 0.25, 0.5]))
    col = data.draw(st.lists(mass, min_size=balls.shape[0], max_size=balls.shape[0]))
    masks = [sum(1 << h for h in np.flatnonzero(row).tolist()) for row in balls]
    ((order, moment),) = _optimal_orders(masks, balls.shape[1], [col], [rho])[0]
    ((table_order, table_moment),) = table_orders(balls, [col], [rho])[0]
    least, near = table_near_optima(balls, col, rho, 1e-12)
    assert least == table_moment and abs(moment - least) <= 1e-12 * least
    if len(near) == 1:
        assert order == table_order.tolist()
        if rho in (1.0, 2.0):
            assert moment.hex() == table_moment.hex()


def test_order_search_at_m_16_beats_or_ties_greedy():
    # binary n = 4: 16! orders, out of the factorial search's reach
    joint = JointPmf.from_marginal(Pmf.of([0.7, 0.3]))
    spec = DistortionSpec.hamming(joint.x_alphabet, 0.25)
    big = product_pmf(joint, 4)
    greedy = greedy_cover_guesser(spec, joint, 4)
    for (sf, moment), rho in zip(brute_optimal_distortion_guessers(spec, joint, 4, [1.0, 2.0]), [1.0, 2.0]):
        assert sf.moment(big, rho) == moment
        assert moment <= greedy.moment(big, rho) + 1e-12
    # at rho = 1 greedy min-sum set cover is within 4 of the optimum (Feige, Lovasz and Tetali 2004)
    assert greedy.moment(big, 1.0) <= 4 * brute_optimal_distortion_guesser(spec, joint, 4, 1.0)[1]


def test_guessers_for_several_rhos_equal_one_rho_each():
    joint = JointPmf.of([[0.45, 0.1], [0.15, 0.3]])
    spec, rhos = DistortionSpec.hamming(joint.x_alphabet, 0.34), [0.5, 1.0, 2.0]
    for (sf, moment), rho in zip(brute_optimal_distortion_guessers(spec, joint, 3, rhos), rhos):
        sf1, moment1 = brute_optimal_distortion_guesser(spec, joint, 3, rho)
        assert sf.ranks == sf1.ranks and sf.recon == sf1.recon and moment.hex() == moment1.hex()
    with pytest.raises(DomainError):
        brute_optimal_distortion_guessers(spec, joint, 1, [1.0, 0.0])


def test_fidelity_violation_rejected():
    sf, _ = brute_optimal_distortion_guesser(ASYM, J3, 1, 1.0)
    enc, lists, _ = rd_encoder_from_guessing(sf, J3, 1, 1, 2, 1.0)
    broken = {k: ((2,),) for k in lists}  # a single far-away reconstruction
    with pytest.raises(DomainError):
        rd_guessing_from_lists(broken, enc, ASYM, J3, 1)


def test_delta_zero_pipeline_agrees_with_exact_guessing():
    # whole pipeline at Delta=0 + Hamming + Xhat = X equals the exact-guessing
    # pipeline to 1e-12, including n = 2 products
    from hintlock.guessing import ceil_moment
    from hintlock.tasks import decoding_lists, encoder_from_guessing, list_moment

    cases = [(J3, 1), (JointPmf.from_marginal(Pmf.of([0.7, 0.3])), 2)]
    for joint, n in cases:
        nx = len(joint.x_alphabet)
        spec0 = DistortionSpec.hamming(joint.x_alphabet, 0.0)
        sf, opt = brute_optimal_distortion_guesser(spec0, joint, n, 1.0)
        big = product_pmf(joint, n) if n > 1 else _tuple_wrap(joint)
        assert opt == pytest.approx(optimal_guess_moment(big, 1.0), abs=1e-12)
        for z in (1, 2, 3):
            _, rep = rd_side_info_encoder(sf, joint, n, z, 1.0)
            assert rep["ceil_target"] == pytest.approx(ceil_moment(big, z, 1.0), abs=1e-12)
        # the omega-descriptor lists match the non-distortion construction
        g = optimal_guesser(big)
        for omega in (1, nx**n):
            z_count = omega * s_alphabet_size(nx**n, omega)
            enc_plain = encoder_from_guessing(g, omega, z_count)
            plain_lm = list_moment(decoding_lists(enc_plain, big), big, 1.0, enc_plain)
            _, _, rd_lm = rd_encoder_from_guessing(sf, joint, n, omega, z_count, 1.0)
            assert rd_lm == pytest.approx(plain_lm, abs=1e-12)


def test_tuple_alphabet():
    assert tuple_alphabet((0, 1), 2) == ((0, 0), (0, 1), (1, 0), (1, 1))
