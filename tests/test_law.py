"""Property tests: the columnar realized laws and their cell views against the
dict builders and the per-call oracles on plain `Cell` lists, coded by `oracles`."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hintlock.adversary import Cell, CellView, Law
from hintlock.disks import build_delta_scheme
from hintlock.guessing import random_joint
from hintlock.prob import DomainError, JointPmf, Pmf
from hintlock.twohint import (
    TwoHintScheme,
    build_eve_list_scheme,
    build_secret_hint,
    build_secret_key,
    build_two_hint,
)

TINY_3 = Fraction(1, 3**41)  # numerators over 3^41 exceed 2^53
TINY_10 = Fraction(1, 10**400)  # a positive mass whose float is 0.0


@st.composite
def sources(draw):
    """Seeded random joints (x up to 11, so repr order differs from int order),
    a uniform law on 12 symbols (ties everywhere), huge denominators, a float-zero mass."""
    kind = draw(st.sampled_from(["random", "uniform", "huge", "float-zero"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        nx, ny = draw(st.integers(2, 12)), draw(st.integers(1, 3))
        return random_joint(rng, nx, ny, exact=draw(st.booleans()), zeros=draw(st.sampled_from([0.0, 0.3])))
    if kind == "uniform":
        return JointPmf.from_marginal(Pmf.uniform(12, exact=draw(st.booleans())))
    tiny = TINY_3 if kind == "huge" else TINY_10
    return JointPmf.from_marginal(Pmf.of([tiny, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - tiny], exact=True))


def built_with_references(joint):
    """(scheme, dict law, [(cell view, its dict law, dict views of the same observer)]) per builder.

    A padded scheme's law (two-hint, secret-key, eve-list, delta-disk) is its
    pad quotient, on which Bob's and Eve's views are read; the full dict law,
    coded into columns, has its Eve view checked against the dict views."""
    out = []
    for version in ("guessing", "list"):
        s, law = build_two_hint(joint, 2, 2, 2, version), oracles.two_hint_quotient(joint, 2, 2, 2, version, False)
        full = oracles.two_hint_law(joint, 2, 2, 2, version)
        views = [(s.bob_cells, law, oracles.bob_views)]
        views.append((s.eve_cells, oracles.two_hint_quotient(joint, 2, 2, 2, version), oracles.two_hint_eve_views))
        views.append((oracles.coded(full).view(s.eve_positions), full, oracles.two_hint_eve_views))
        out.append((s, law, views))
    back, quotient = TwoHintScheme.from_json(s.to_json()), oracles.two_hint_quotient(joint, 2, 2, 2, "list")
    out.append((back, law, [(back.eve_cells, quotient, oracles.two_hint_eve_views)]))
    sh, law = build_secret_hint(joint, 2, 4), oracles.secret_hint_law(joint, 2, 4, "guessing")
    out.append((sh, law, [(sh.bob_cells, law, oracles.bob_views), (sh.eve_cells, law, lambda k: ((k[1], k[2]),))]))
    sk, law = build_secret_key(joint, 2, 4), oracles.secret_key_law(joint, 2, 4, "guessing", quotient=True)
    full = oracles.secret_key_law(joint, 2, 4, "guessing")
    views = [(sk.bob_cells, law, oracles.bob_views), (sk.eve_cells, law, lambda k: ((k[1], k[3] % 2),))]
    views.append((oracles.coded(full).view(sk.eve_positions), full, lambda k: ((k[1], k[3]),)))
    out.append((sk, law, views))
    el, law = build_eve_list_scheme(joint, 8, 8, 20), oracles.eve_list_law(joint, 8, 8, 20, quotient=True)
    full, c1, c2 = oracles.eve_list_law(joint, 8, 8, 20), el.c1, el.c2
    views = [(el.bob_cells, law, oracles.bob_views), (el.no_hint_cells, law, lambda k: ((k[1],),))]
    views.append((el.eve_cells, law, lambda k: oracles.two_hint_eve_views((*k[:2], k[2] % c1, k[3] % c2))))
    views.append((oracles.coded(full).view(el.eve_positions), full, oracles.two_hint_eve_views))
    out.append((el, law, views))
    d = build_delta_scheme(joint, 3, 2, 1, 4, 2, 2)
    law, full = oracles.delta_quotient(d, public=False), oracles.delta_law(d)
    eve_views = oracles.subset_views("E", 3, 1)
    views = [(d.bob_cells, law, oracles.subset_views("B", 3, 2))]
    views.append((d.eve_cells, oracles.delta_quotient(d), eve_views))
    views.append((oracles.coded(full).view(d.eve_positions), full, eve_views))
    out.append((d, law, views))
    return out


def typed(law) -> list:
    """Items in order, with the type of every key entry and of the mass."""
    return [(key, tuple(map(type, key)), type(p), p) for key, p in law.items()]


@settings(max_examples=40, deadline=None)
@given(sources())
def test_columnar_laws_equal_dict_builders(joint):
    for scheme, reference, _ in built_with_references(joint):
        assert isinstance(scheme.law, Law)
        assert typed(oracles.scheme_law(scheme)) == typed(reference)
        assert len(scheme.law) == len(reference)


@settings(max_examples=25, deadline=None)
@given(sources(), st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3))
def test_columnar_views_equal_per_call_code(joint, rhos):
    # the eve-list Eve cells can merge: the matching raises on every call
    for _, _, views in built_with_references(joint):
        for view, reference, dict_views in views:
            assert isinstance(view, CellView)
            oracles.assert_same_as_per_call_code(view, oracles.cells(reference, dict_views), rhos)


SMALL_BUILDS = [  # the five builders, eve-list with exact (integer epsilon) and float smoothing
    lambda joint: build_two_hint(joint, 2, 2, 2, "list"),
    lambda joint: build_secret_hint(joint, 2, 4),
    lambda joint: build_secret_key(joint, 2, 4),
    lambda joint: build_eve_list_scheme(joint, 8, 8, 3),
    lambda joint: build_eve_list_scheme(joint, 8, 8, 2.5),
    lambda joint: build_delta_scheme(joint, 3, 2, 1, 4, 2, 2),
]


@settings(max_examples=20, deadline=None)
@given(sources())
def test_a_source_with_warm_caches_builds_what_a_fresh_copy_builds(joint):
    for build in SMALL_BUILDS:
        build(joint)  # fills the joint's kept support, numerators and ranks
        warm, fresh = build(joint).law, build(JointPmf(joint.x_alphabet, joint.y_alphabet, joint.table)).law
        assert all(np.array_equal(a, b) for a, b in ((warm.x, fresh.x), (warm.y, fresh.y), (warm.hints, fresh.hints)))
        exact = [(law.nums is None, list(law.nums or []), law.scale) for law in (warm, fresh)]
        assert exact[0] == exact[1]
        assert warm.mass.tobytes() == fresh.mass.tobytes()
    for epsilon in (3, 2.5):  # the smoothed law, in integers over one scale or in floats, is the dict builder's
        law = build_eve_list_scheme(joint, 8, 8, epsilon).law
        assert typed(oracles.law_dict(law)) == typed(oracles.eve_list_law(joint, 8, 8, epsilon, quotient=True))


def test_float_masses_follow_the_2_53_rule():
    joint = JointPmf.from_marginal(Pmf.of([TINY_10, Fraction(1, 3), Fraction(2, 3) - TINY_10], exact=True))
    law = oracles.coded(oracles.full_law(build_secret_key(joint, 1, 2)))  # two keys per x
    assert law.scale > 2**53
    assert law.mass.tolist() == [float(p) for p in oracles.law_dict(law).values()]
    assert law.mass[:2].tolist() == [0.0, 0.0] and law.mass[2] > 0  # float-zero cells stay on the support


def test_dict_law_is_coded_without_its_zero_mass_keys():
    law = {(0, 0, 0, 1): Fraction(1, 2), (1, 0, 1, 0): Fraction(1, 2), (1, 0, 0, 0): Fraction(0)}
    bit = JointPmf.from_marginal(Pmf.of([Fraction(1, 2)] * 2, exact=True))
    s = oracles.scheme_from_law(bit, law, 2, 2)
    assert len(s.law) == 2 and oracles.law_dict(s.law) == {k: p for k, p in law.items() if p > 0}
    assert len(s.eve_cells) == 2  # the zero-mass key is off the support
    assert [c.prob for c in s.eve_cells] == [0.5, 0.5]
    assert all(isinstance(c, Cell) and len(c.views) == 2 for c in s.eve_cells)


def test_from_json_rejects_a_descriptor_outside_the_cardinalities():
    s = build_two_hint(JointPmf.from_marginal(Pmf.uniform(4, exact=True)), 2, 2, 1)
    doc = s.to_json().replace('[[0, 0], [0, 0, 0]]', '[[0, 0], [0, 5, 0]]')
    assert doc != s.to_json()
    with pytest.raises(DomainError):
        TwoHintScheme.from_json(doc)


def test_to_json_refuses_a_law_with_several_realizations_of_one_cell():
    # a stochastic law has no descriptor per (x, y): writing one would drop realizations
    bit = JointPmf.from_marginal(Pmf.of([Fraction(1, 2)] * 2, exact=True))
    law = {(0, 0, 0, 0): Fraction(1, 4), (0, 0, 1, 1): Fraction(1, 4), (1, 0, 1, 0): Fraction(1, 2)}
    with pytest.raises(DomainError, match="several realizations"):
        oracles.scheme_from_law(bit, law, 2, 2).to_json()
    one_each = oracles.scheme_from_law(bit, {(0, 0, 0, 1): Fraction(1, 2), (1, 0, 1, 0): Fraction(1, 2)}, 2, 2)
    assert oracles.law_dict(TwoHintScheme.from_json(one_each.to_json()).law) == oracles.law_dict(one_each.law)
