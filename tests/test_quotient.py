"""Property tests: Bob and Eve priced on a padded scheme's law, its pad (or
key) quotient, equal Bob and Eve priced on the full realized law of the oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from hintlock import disks
from hintlock.adversary import eve_exact_matching, moment_for_constant, support_moment
from hintlock.bounds import list_room
from hintlock.disks import build_delta_scheme, disk_sizes
from hintlock.gf import rs_generator
from hintlock.guessing import random_joint
from hintlock.prob import DomainError, JointPmf, Pmf, replace
from hintlock.twohint import EveListScheme, TwoHintScheme, build_eve_list_scheme, build_secret_key, build_two_hint

RHOS = (0.5, 1.0, 2.0)
DISK_PARAMS = [(3, 2, 1, 4, 2, 2), (3, 2, 1, 2, 0, 2), (4, 3, 1, 6, 2, 4), (4, 3, 2, 4, 2, 2), (4, 3, 2, 2, 0, 2)]


@st.composite
def sources(draw, max_x: int = 8, max_y: int = 3):
    """Seeded random joints, float or rational, and uniform laws (ties everywhere)."""
    exact = draw(st.booleans())
    if draw(st.booleans()):
        return JointPmf.from_marginal(Pmf.uniform(draw(st.integers(2, max_x)), exact=exact))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_joint(rng, draw(st.integers(2, max_x)), draw(st.integers(1, max_y)), exact=exact)


def assert_full_law_agrees(scheme, pads: int, eve=eve_exact_matching) -> None:
    """Eve's value on the quotient is `eve` (by default the matching) on the full law's Eve view."""
    law = oracles.full_law(scheme)
    full = oracles.coded(law).view(scheme.eve_positions)
    if not isinstance(scheme, EveListScheme):  # one realization per (x, y); eve-list's are per (x, y, v1', v2')
        assert len(scheme.law) == len(list(scheme.joint.support_items()))
    assert len(scheme.law) * pads == len(law)
    for rho in RHOS:
        assert scheme.eve(rho) == pytest.approx(eve(full, rho), rel=1e-12)


def assert_bob_agrees_with_full_law(scheme, pads: int) -> None:
    """Bob's moment on the quotient is the full law's min-max moment: the upper
    end of the bracket (each cell's worst rank over his views) or the list maximum."""
    law = oracles.full_law(scheme)
    full = list(oracles.coded(law).view(scheme.bob_positions))
    assert len(scheme.law) * pads == len(law)
    for rho in RHOS:
        if scheme.version == "guessing":
            expected = oracles.bob_minmax_bracket(full, rho)[1]
        else:
            expected = oracles.support_moment(full, rho, max)
        assert scheme.bob(rho) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(sources(), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.sampled_from(["guessing", "list"]))
def test_two_hint_quotient_matching_equals_full_law(joint, cs, c1, c2, version):
    assume(version == "guessing" or list_room(cs * c1 * c2, len(joint.x_alphabet)))
    scheme = build_two_hint(joint, cs, c1, c2, version)
    assert_full_law_agrees(scheme, cs)
    assert_full_law_agrees(TwoHintScheme.from_json(scheme.to_json()), cs)


@settings(max_examples=20, deadline=None)
@given(sources(max_x=6), st.sampled_from(DISK_PARAMS), st.sampled_from(["guessing", "list"]))
def test_delta_quotient_matching_equals_full_law(joint, params, version):
    assume(version == "guessing" or list_room(disk_sizes(*params[:4], params[-1])[0], len(joint.x_alphabet)))
    assert_full_law_agrees(build_delta_scheme(joint, *params, version), 1 << (params[2] * params[-1]))


@settings(max_examples=30, deadline=None)
@given(sources(), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.sampled_from(["guessing", "list"]))
def test_two_hint_bob_quotient_equals_full_law(joint, cs, c1, c2, version):
    assume(version == "guessing" or list_room(cs * c1 * c2, len(joint.x_alphabet)))
    scheme = build_two_hint(joint, cs, c1, c2, version)
    assert_bob_agrees_with_full_law(scheme, cs)
    assert_bob_agrees_with_full_law(TwoHintScheme.from_json(scheme.to_json()), cs)


@settings(max_examples=20, deadline=None)
@given(sources(max_x=6), st.sampled_from(DISK_PARAMS), st.sampled_from(["guessing", "list"]))
def test_delta_bob_quotient_equals_full_law(joint, params, version):
    assume(version == "guessing" or list_room(disk_sizes(*params[:4], params[-1])[0], len(joint.x_alphabet)))
    assert_bob_agrees_with_full_law(build_delta_scheme(joint, *params, version), 1 << (params[2] * params[-1]))


def fixed_view_moment(view, rho: float) -> float:  # secret-key's Eve: the moment given the stored hint
    return moment_for_constant(view, 0, rho)


def min_list_moment(view, rho: float) -> float:  # eve-list's Eve: the shorter of her two lists
    return support_moment(view, rho, min)


@settings(max_examples=30, deadline=None)
@given(sources(), st.integers(1, 3), st.integers(1, 4), st.sampled_from(["guessing", "list"]))
def test_secret_key_quotient_equals_full_law(joint, c, k_size, version):
    assume(version == "guessing" or list_room(c * k_size, len(joint.x_alphabet)))
    scheme = build_secret_key(joint, c, k_size, version)
    assert_full_law_agrees(scheme, k_size, fixed_view_moment)
    assert_bob_agrees_with_full_law(scheme, k_size)


@settings(max_examples=30, deadline=None)
@given(sources(), st.integers(4, 9), st.integers(4, 9), st.sampled_from([2.0, 2.5, 20.0]))
def test_eve_list_quotient_equals_full_law(joint, m1_size, m2_size, epsilon):
    scheme = build_eve_list_scheme(joint, m1_size, m2_size, epsilon)
    assert_full_law_agrees(scheme, scheme.cs, min_list_moment)
    assert_bob_agrees_with_full_law(scheme, scheme.cs)


def test_unpadded_schemes_price_eve_on_their_own_law():
    joint = random_joint(np.random.default_rng(2), 4, 2, exact=True)
    for scheme in (build_two_hint(joint, 1, 2, 2), build_delta_scheme(joint, 3, 2, 1, 2, 2, 0)):
        # one pad: the quotient is the law
        assert list(oracles.scheme_law(scheme).items()) == list(oracles.full_law(scheme).items())


def test_quotient_of_a_dict_coded_law_prices_eve_as_the_built_scheme():
    # A dict-coded law numbers its symbols by first appearance (here y = 1
    # first, as P(0, 0) = 0), and its common denominator is the realizations'.
    joints = [random_joint(np.random.default_rng(0), 5, 3, exact=exact, zeros=0.3) for exact in (False, True)]
    joints.append(JointPmf.from_marginal(Pmf.of([Fraction(2, 3), Fraction(1, 3)], exact=True)))
    for joint in joints:
        two_hint = [build_two_hint(joint, *triple) for triple in ((2, 2, 2), (4, 4, 4))]
        for scheme in (*two_hint, build_delta_scheme(joint, 3, 2, 1, 4, 2, 2)):
            recoded = replace(scheme, law=oracles.coded(oracles.scheme_law(scheme)))
            assert len(joint.y_alphabet) == 1 or recoded.law.ys != joint.y_alphabet
            for rho in RHOS:
                assert recoded.eve(rho) == scheme.eve(rho)


@st.composite
def tiny_rational_sources(draw, max_x: int):
    weights = draw(st.lists(st.integers(1, 6), min_size=2, max_size=max_x))
    return JointPmf.from_marginal(Pmf.of([Fraction(w, sum(weights)) for w in weights], exact=True))


@settings(max_examples=15, deadline=None)
@given(tiny_rational_sources(3), st.integers(2, 3), st.integers(1, 2), st.integers(1, 2))
def test_two_hint_quotient_equals_enumeration_on_the_full_law(joint, cs, c1, c2):
    scheme = build_two_hint(joint, cs, c1, c2)
    full = oracles.coded(oracles.full_law(scheme)).view(scheme.eve_positions)
    for rho in RHOS:
        assert scheme.eve(rho) == pytest.approx(oracles.eve_exact_enumeration(full, rho, budget_bits=14), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(tiny_rational_sources(2), st.sampled_from([(3, 2, 1, 4, 2, 2), (3, 2, 1, 2, 0, 2)]))
def test_delta_quotient_equals_enumeration_on_the_full_law(joint, params):
    scheme = build_delta_scheme(joint, *params)
    full = oracles.coded(oracles.full_law(scheme)).view(scheme.eve_positions)
    for rho in RHOS:
        assert scheme.eve(rho) == pytest.approx(oracles.eve_exact_enumeration(full, rho, budget_bits=14), rel=1e-12)


def test_a_pad_that_some_eta_hints_do_not_fix_is_rejected(monkeypatch):
    # the last disk's pad coordinate no longer depends on the pad
    def degenerate(k, n, field):
        g = rs_generator(k, n, field)
        entries = g.entries.copy()
        entries[0, -1] = 0
        return replace(g, entries=entries)

    monkeypatch.setattr(disks, "rs_generator", degenerate)
    joint = JointPmf.from_marginal(Pmf.uniform(4, exact=True))
    with pytest.raises(DomainError, match="do not fix the pad"):
        build_delta_scheme(joint, 3, 2, 1, 4, 2, 2)
