import math
from fractions import Fraction

import numpy as np
import pytest

from hintlock.guessing import optimal_guess_moment, optimal_guesser, random_joint, ceil_moment, guess_moment
from hintlock.prob import DomainError, JointPmf, Pmf
from hintlock.tasks import (
    DetTaskEncoder,
    StochTaskEncoder,
    bunte_bounds,
    decoding_lists,
    derandomize,
    encoder_from_guessing,
    fact1_census,
    guessing_from_lists,
    list_moment,
    s_alphabet_size,
)
from oracles import random_stoch_encoder

U4 = JointPmf.from_marginal(Pmf.of([Fraction(1, 4)] * 4, exact=True))


def det_encoder(mapping, z_count, joint=U4):
    return DetTaskEncoder(joint.x_alphabet, joint.y_alphabet, tuple(range(z_count)), mapping)


def test_injective_encoder_singleton_lists():
    enc = det_encoder({(x, 0): x for x in range(4)}, 4)
    lists = decoding_lists(enc, U4)
    assert all(len(v) == 1 for v in lists.lists.values())
    assert list_moment(lists, U4, 1.0, enc) == pytest.approx(1.0)


def test_constant_encoder_full_support_list():
    enc = det_encoder({(x, 0): 0 for x in range(4)}, 1)
    lists = decoding_lists(enc, U4)
    assert lists.list_for(0, 0) == (0, 1, 2, 3)
    assert list_moment(lists, U4, 1.0, enc) == pytest.approx(4.0)


def test_floor_log_rank_encoder():
    g = optimal_guesser(U4)
    enc = det_encoder({(x, 0): math.floor(math.log2(g.rank(x, 0))) for x in range(4)}, 3)
    lists = decoding_lists(enc, U4)
    sizes = sorted(len(lists.list_for(0, z)) for z in range(3))
    assert sizes == [1, 1, 2]
    assert list_moment(lists, U4, 1.0, enc) == pytest.approx(1.5)


def test_derandomize_mixture_of_injective_maps():
    # encoder mixing the identity map with a shifted injective map
    rows = {}
    for x in range(4):
        rows[(x, 0)] = {x: Fraction(1, 2), (x + 1) % 4: Fraction(1, 2)}
    enc = StochTaskEncoder(U4.x_alphabet, U4.y_alphabet, tuple(range(4)), rows)
    stoch_lists = decoding_lists(enc, U4)
    stoch_val = list_moment(stoch_lists, U4, 1.0, enc)
    det = derandomize(enc, U4)
    det_val = list_moment(decoding_lists(det, U4), U4, 1.0, det)
    assert det_val <= stoch_val
    # all candidate lists tie at size 2 here, so the smallest-z rule lands at
    # 1.5; the injective selection allowed by the same ties reaches 1.0
    ident = det_encoder({(x, 0): x for x in range(4)}, 4)
    for x in range(4):
        assert x in stoch_lists.list_for(0, x)
    assert list_moment(decoding_lists(ident, U4), U4, 1.0, ident) == pytest.approx(1.0)


def test_derandomize_keeps_deterministic_and_constant():
    enc = det_encoder({(x, 0): x for x in range(4)}, 4)
    as_stoch = StochTaskEncoder(
        U4.x_alphabet, U4.y_alphabet, enc.z_alphabet, {(x, 0): {x: Fraction(1)} for x in range(4)}
    )
    det = derandomize(as_stoch, U4)
    assert list_moment(decoding_lists(det, U4), U4, 1.0, det) == pytest.approx(1.0)
    const = StochTaskEncoder(
        U4.x_alphabet, U4.y_alphabet, (0,), {(x, 0): {0: Fraction(1)} for x in range(4)}
    )
    det2 = derandomize(const, U4)
    assert list_moment(decoding_lists(det2, U4), U4, 1.0, det2) == pytest.approx(4.0)


def test_derandomize_dominance_random_encoders():
    rng = np.random.default_rng(71)
    for _ in range(200):
        nx, nc = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        j = random_joint(rng, nx, nc, exact=True)
        enc = random_stoch_encoder(rng, j, int(rng.integers(2, 6)))
        stoch_val = list_moment(decoding_lists(enc, j), j, 1.0, enc)
        det = derandomize(enc, j)
        det_val = list_moment(decoding_lists(det, j), j, 1.0, det)
        assert det_val <= stoch_val + 1e-12


def test_bunte_bound_examples():
    ach, conv = bunte_bounds(U4, 8, 1.0)
    assert conv == pytest.approx(1.0)  # max(1, 4/8)
    ach2, _ = bunte_bounds(U4, 2, 1.0)
    assert ach2 is None  # 2 <= log2(4)+2
    ach5, _ = bunte_bounds(U4, 5, 1.0)
    assert ach5 == pytest.approx(17.0)  # 1 + 2^(2 - log2(1) + 2)


def test_encoder_from_guessing_examples():
    g = optimal_guesser(U4)
    ns = s_alphabet_size(4, 1)
    enc = encoder_from_guessing(g, 1, ns)
    lists = decoding_lists(enc, U4)
    lm = list_moment(lists, U4, 1.0, enc)
    assert lm == pytest.approx(1.5)
    assert lm <= optimal_guess_moment(U4, 1.0)
    enc4 = encoder_from_guessing(g, 4, 4)
    lists4 = decoding_lists(enc4, U4)
    assert list_moment(lists4, U4, 1.0, enc4) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        encoder_from_guessing(g, 2, 3)  # needs 2*(1+floor(log2 2)) = 4


def test_guessing_from_lists_examples():
    enc = det_encoder({(x, 0): x for x in range(4)}, 4)
    lists = decoding_lists(enc, U4)
    g = guessing_from_lists(lists, U4)
    assert guess_moment(g, U4, 1.0) == pytest.approx(2.5)  # singleton lists keep sorted order
    const = det_encoder({(x, 0): 0 for x in range(4)}, 1)
    clists = decoding_lists(const, U4)
    g2 = guessing_from_lists(clists, U4)
    assert guess_moment(g2, U4, 1.0) <= 1.0 * 4.0  # |Z|^rho * E|L|^rho with |Z|=1


def test_conversion_inequalities_random():
    rng = np.random.default_rng(17)
    for _ in range(60):
        nx, nc = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        j = random_joint(rng, nx, nc, exact=True, zeros=0.2)
        g = optimal_guesser(j)
        for rho in (0.5, 1.0, 2.0):
            for omega in range(1, nx + 1):
                z_count = omega * s_alphabet_size(nx, omega)
                enc = encoder_from_guessing(g, omega, z_count)
                lists = decoding_lists(enc, j)
                lm = list_moment(lists, j, rho, enc)
                ceil_target = sum(
                    float(p) * math.ceil(g.rank(x, c) / omega) ** rho
                    for ic, c in enumerate(j.y_alphabet)
                    for x, p in zip(j.x_alphabet, j.y_column(ic))
                    if p > 0
                )
                assert lm <= ceil_target + 1e-9
                # part 1: back to guessing
                back = guessing_from_lists(lists, j)
                assert guess_moment(back, j, rho) <= z_count**rho * lm + 1e-9


def test_guess_to_list_via_stochastic_encoders():
    rng = np.random.default_rng(23)
    for _ in range(40):
        nx, nc = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        j = random_joint(rng, nx, nc, exact=True)
        z = int(rng.integers(2, 5))
        enc = random_stoch_encoder(rng, j, z)
        lists = decoding_lists(enc, j)
        for rho in (1.0, 2.0):
            lm = list_moment(lists, j, rho, enc)
            back = guessing_from_lists(lists, j)
            assert guess_moment(back, j, rho) <= z**rho * lm + 1e-9


def test_best_list_corollary():
    rng = np.random.default_rng(31)
    for _ in range(30):
        nx = int(rng.integers(2, 7))
        j = random_joint(rng, nx, 1, exact=True)
        g = optimal_guesser(j)
        lx = 1 + math.floor(math.log2(nx))
        for z_count in range(lx, 3 * lx + 1):
            omega = min(z_count // lx, nx)
            if omega < 1 or z_count / (1 + math.log2(nx)) <= 1:
                continue
            enc = encoder_from_guessing(g, omega, z_count)
            lists = decoding_lists(enc, j)
            for rho in (1.0, 2.0):
                lm = list_moment(lists, j, rho, enc)
                gm = guess_moment(g, j, rho)
                bound = 1 + 2**rho * gm * (z_count / (1 + math.log2(nx)) - 1) ** (-rho)
                assert lm <= bound + 1e-9


def test_fact1_census():
    assert fact1_census(1) == 1
    assert fact1_census(5) == 4
    assert fact1_census(8) == 8
    for k in range(1, 200):
        assert fact1_census(k) == len(
            [m for m in range(1, 4 * k) if math.floor(math.log2(m)) == math.floor(math.log2(k))]
        )


def test_lists_csv_export():
    enc = det_encoder({(x, 0): x % 2 for x in range(4)}, 2)
    lists = decoding_lists(enc, U4)
    text = lists.to_csv()
    assert text.splitlines()[0] == "ctx,z,members"
    assert len(text.splitlines()) == 3


def test_coverage_violation_raises():
    lists_obj = decoding_lists(det_encoder({(x, 0): 0 for x in range(4)}, 1), U4)
    partial = type(lists_obj)({(0, 0): (0, 1)})  # drops two positive-mass symbols
    with pytest.raises(DomainError):
        guessing_from_lists(partial, U4)
