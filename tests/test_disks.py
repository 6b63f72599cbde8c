import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hintlock.adversary import eve_bracket, eve_exact_enumeration
from hintlock.disks import (
    _int_to_symbols,
    bob_ambiguity_minmax,
    build_delta_scheme,
    check_eta_independence,
    check_reconstruction,
    choose_pr,
    disk_exponents,
    equal_size_envelope_rows,
    _eve_floor,
    eve_ambiguity_minmin,
    verify_disk_theorems,
    verify_unequal_converse,
)
from hintlock.gf import field_make, rs_generator
from hintlock.guessing import random_joint
from hintlock.prob import DomainError, JointPmf, Pmf, RenyiOrder, renyi_cond_entropy
from hintlock.report import all_passed

U16 = JointPmf.from_marginal(Pmf.of([Fraction(1, 16)] * 16, exact=True))
U4 = JointPmf.from_marginal(Pmf.of([Fraction(1, 4)] * 4, exact=True))


def test_acceptance_instance_structure():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    assert check_reconstruction(sch)
    assert check_eta_independence(sch)
    assert bob_ambiguity_minmax(sch, 1.0).value == pytest.approx(1.0)


def reference_law(sch):
    """The realized law with one encode per (x, y, pad), as the construction reads."""
    zero = np.zeros(sch.delta, dtype=np.int64)
    g_v = rs_generator(sch.nu, sch.delta, field_make(sch.p)) if sch.p else None
    g_uw = rs_generator(sch.nu, sch.delta, field_make(sch.r)) if sch.r else None
    n_pad = 1 << (sch.eta * sch.r)
    law = {}
    for x, y, prob in sch.joint.support_items():
        v_sym, w_sym = sch.descriptor[(x, y)]
        mp = g_v.encode(np.array(v_sym)) if g_v else zero
        for pad in range(n_pad):
            mr = g_uw.encode(np.array(_int_to_symbols(pad, sch.eta, sch.r) + w_sym)) if g_uw else zero
            law[(x, y, tuple(int(a) << sch.r | int(b) for a, b in zip(mp, mr)))] = prob / n_pad
    return law


@pytest.mark.parametrize(
    "joint, params",
    [
        (U16, (3, 2, 1, 4, 2, 2, "guessing")),
        (U16, (3, 2, 1, 4, 2, 2, "list")),
        (U4, (3, 2, 1, 2, 2, 0, "guessing")),
        (U4, (3, 2, 1, 2, 0, 2, "guessing")),
        (U4, (2, 2, 0, 1, 1, 0, "guessing")),
        (random_joint(np.random.default_rng(3), 6, 3), (4, 3, 2, 4, 2, 2, "guessing")),
    ],
)
def test_law_equals_per_realization_encode(joint, params):
    sch = build_delta_scheme(joint, *params)
    assert list(sch.law.items()) == list(reference_law(sch).items())


def test_eta_independence_exact_in_rational_mode():
    # moving 1e-15 of mass between two pad entries of one (x, y) leaves the
    # rational law non-uniform; the exact check must see it
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    law = dict(sch.law)
    first, second = [k for k in law if k[:2] == (0, 0)][:2]
    law[first] += Fraction(1, 10**15)
    law[second] -= Fraction(1, 10**15)
    assert not check_eta_independence(dataclasses.replace(sch, law=law))
    # float laws keep their tolerance
    floats = build_delta_scheme(JointPmf.from_marginal(Pmf.uniform(16)), 3, 2, 1, 4, 2, 2, "guessing")
    assert check_eta_independence(floats)


DISK_PARAMS = [(3, 2, 1, 4, 2, 2), (4, 2, 1, 4, 2, 2), (3, 2, 1, 2, 0, 2), (2, 2, 0, 1, 1, 0), (4, 3, 2, 4, 2, 2)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(DISK_PARAMS), st.booleans(), st.data())
def test_integer_checks_equal_fraction_reference(seed, params, exact, data):
    """The integer-coded checks give the Fraction reference's verdict, on
    built laws and on laws with one mass shifted or one hint tuple copied."""
    joint = random_joint(np.random.default_rng(seed), 4, 3, exact=exact, zeros=0.2)
    sch = build_delta_scheme(joint, *params, "guessing")
    law = dict(sch.law)
    keys = list(law)
    mutation = data.draw(st.sampled_from(["none", "shift", "copy"]))
    if mutation == "shift":
        k = data.draw(st.sampled_from(keys))
        law[k] += Fraction(1, 2**40) if exact else 2.0**-40
    elif mutation == "copy":  # realization b shows the hints of a, same y
        a = data.draw(st.sampled_from(keys))
        b = data.draw(st.sampled_from([k for k in keys if k[1] == a[1]]))
        law[(b[0], b[1], a[2])] = law.pop(b)
    sch = dataclasses.replace(sch, law=law)
    assert check_reconstruction(sch) == oracles.check_reconstruction(sch)
    assert check_eta_independence(sch) == oracles.check_eta_independence(sch)


def test_integer_check_mutations():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    # one rational pad mass off by 2^-40
    law = dict(sch.law)
    law[next(iter(law))] += Fraction(1, 2**40)
    assert not check_eta_independence(dataclasses.replace(sch, law=law))
    # two support cells shown the same hints with different descriptors
    law = dict(sch.law)
    first: dict = {}
    for key in law:
        first.setdefault(key[0], key)
    a, b = first[0], first[1]  # y = 0 for both
    assert sch.descriptor[a[:2]] != sch.descriptor[b[:2]]
    law[(b[0], b[1], a[2])] = law.pop(b)
    assert not check_reconstruction(dataclasses.replace(sch, law=law))


def test_eta_independence_with_huge_denominators():
    # numerators over 3^41 exceed int64: the check must stay exact
    tiny = Fraction(1, 3**41)
    joint = JointPmf.from_marginal(Pmf.of([tiny, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - tiny], exact=True))
    sch = build_delta_scheme(joint, 3, 2, 1, 4, 2, 2, "guessing")
    assert check_eta_independence(sch) and check_reconstruction(sch)
    law = dict(sch.law)
    law[next(iter(law))] += tiny
    assert not check_eta_independence(dataclasses.replace(sch, law=law))
    assert not oracles.check_eta_independence(dataclasses.replace(sch, law=law))


def test_admissibility_errors():
    with pytest.raises(DomainError):
        build_delta_scheme(U16, 3, 2, 1, 4, 3, 1, "guessing")  # r=1 < ceil(log2 3)
    with pytest.raises(DomainError):
        build_delta_scheme(U16, 3, 2, 1, 4, 1, 3, "guessing")  # p=1 < ceil(log2 3)
    with pytest.raises(DomainError):
        build_delta_scheme(U16, 3, 2, 2, 4, 2, 2, "guessing")  # eta >= nu
    with pytest.raises(DomainError):
        build_delta_scheme(U16, 3, 2, 1, 5, 2, 2, "guessing")  # p + r != s


def test_r_zero_no_secrecy_layer():
    sch = build_delta_scheme(U4, 3, 2, 1, 2, 2, 0, "guessing")
    assert check_reconstruction(sch)
    assert check_eta_independence(sch)  # vacuous: no padded part
    assert len(sch.law) == 4  # deterministic: no pad enumeration


def test_p_zero_single_hint_reveals_nothing():
    sch = build_delta_scheme(U4, 3, 2, 1, 2, 0, 2, "guessing")
    # each single hint's conditional law must not depend on (x, y)
    per_hint: dict = {}
    for (x, y, m), p in sch.law.items():
        for ell in range(3):
            per_hint.setdefault((ell, x), {})
            per_hint[(ell, x)][m[ell]] = per_hint[(ell, x)].get(m[ell], Fraction(0)) + p
    for ell in range(3):
        rows = [per_hint[(ell, x)] for x in range(4)]
        base = {k: v * 4 for k, v in rows[0].items()}
        for row in rows[1:]:
            assert {k: v * 4 for k, v in row.items()} == base


def test_eve_oracle_vs_enumeration_small():
    u2 = JointPmf.from_marginal(Pmf.of([Fraction(3, 4), Fraction(1, 4)], exact=True))
    sch = build_delta_scheme(u2, 3, 2, 1, 4, 2, 2, "guessing")
    res = eve_ambiguity_minmin(sch, 1.0)
    assert res.exact
    brute = eve_exact_enumeration(sch.eve_cells, 1.0, budget_bits=14)
    assert res.value == pytest.approx(brute, abs=1e-12)


def test_verify_theorems_acceptance_instance():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    for rho in (0.5, 1.0, 2.0):
        rows = verify_disk_theorems(sch, rho)
        assert all_passed(rows), [r for r in rows if not r.passed]
        assert all("bounds-only" not in r.note for r in rows)  # exact oracles here


def test_verify_theorems_list_version():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "list")
    rows = verify_disk_theorems(sch, 1.0)
    assert all_passed(rows), [r for r in rows if not r.passed]


def test_degenerate_full_visibility():
    # nu = delta, eta = 0: plain source coding, Bob sees everything
    sch = build_delta_scheme(U4, 2, 2, 0, 1, 1, 0, "guessing")
    bob = bob_ambiguity_minmax(sch, 1.0)
    assert bob.value == pytest.approx(1.0)
    eve = eve_ambiguity_minmin(sch, 1.0)
    assert eve.value == pytest.approx(2.5)  # empty subset: unconditional moment
    rows = verify_disk_theorems(sch, 1.0)
    assert all_passed(rows)


def test_eve_bounds_bracket_sound():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    exact = eve_ambiguity_minmin(sch, 1.0).value
    bracket = eve_bracket(sch.eve_cells, 1.0, _eve_floor(sch, 1.0))
    lo, hi = bracket.lower, bracket.upper
    assert lo - 1e-12 <= exact <= hi + 1e-12


def test_unequal_size_converse_random_sweep():
    rng = np.random.default_rng(50)
    sizes = (1, 2, 3)
    caps = [2**s for s in sizes]
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 5)), 1, exact=True)
        law = {}
        for i, x in enumerate(j.x_alphabet):
            p = j.table[i][0]
            if p <= 0:
                continue
            # a random deterministic encoder per symbol keeps the oracle cheap
            m = tuple(int(rng.integers(c)) for c in caps)
            law[(x, 0, m)] = p
        rows = verify_unequal_converse(j, law, sizes, nu=2, eta=1, rho=1.0)
        assert all_passed(rows), [r for r in rows if not r.passed]


def test_equal_size_envelope():
    for sizes in ((1, 2, 3), (2, 2, 2), (1, 1, 4), (3, 4, 5)):
        for h, nx in ((2.0, 4), (4.0, 16), (1.0, 2)):
            rows = equal_size_envelope_rows(sizes, nu=2, eta=1, rho=1.0, h=h, nx=nx)
            assert all_passed(rows), (sizes, h, [r for r in rows if not r.passed])


def test_choose_pr_examples():
    h = renyi_cond_entropy(U16, RenyiOrder.from_rho(1.0))
    # huge budget: everything padded
    p, r = choose_pr(1e9, 4, 2, 1, 3, h, 1.0)
    assert r == 4 and p == 0
    # budget at the Bob floor: no pad at all
    tight = 1 + 2 ** (1.0 * (h - 2 * 4 + 1))
    p, r = choose_pr(tight, 4, 2, 1, 3, h, 1.0)
    assert r == 0 and p == 4
    with pytest.raises(DomainError):
        choose_pr(1.0 + 1e-9, 4, 2, 1, 3, h, 1.0)


def test_choose_pr_mid_case_validated_by_sweep():
    h = renyi_cond_entropy(U16, RenyiOrder.from_rho(1.0))
    for u_bound in (1.25, 1.5, 2.0, 4.0):
        p, r = choose_pr(u_bound, 4, 2, 1, 3, h, 1.0)
        sch = build_delta_scheme(U16, 3, 2, 1, 4, p, r, "guessing")
        bob = bob_ambiguity_minmax(sch, 1.0)
        assert (bob.value if bob.exact else bob.upper) < u_bound
        # sweep: the rule's pad width is admissible and achieves the budget
        admissible = [
            (4 - rr, rr)
            for rr in (0, 2, 4)
            if 1 + 2 ** (1.0 * (h - 2 * 4 + 1 * rr + 1)) <= u_bound
        ]
        assert (p, r) in admissible or r == 0


def test_disk_exponent_examples():
    assert disk_exponents(2.0, 2, 1, 1.0, 2.0).value == pytest.approx(2.0)  # rho*H cap
    assert disk_exponents(0.5, 2, 1, 1.0, 1.2).value == -math.inf  # nu Rs < H
    assert disk_exponents(0.8, 2, 1, 1.0, 1.2).value == pytest.approx(0.8)
    assert disk_exponents(0.8, 2, 1, 1.0, 1.6).boundary  # nu Rs == H
    assert disk_exponents(0.5, 2, 1, 1.0, 1.2, e_bob=0.3).value == pytest.approx(0.8)


def test_share_blob_round_trip():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    for (x, y, m), p in list(sch.law.items())[:20]:
        blob = sch.share_blob(m)
        assert sch.unpack_blob(blob) == m
        for h in m:
            hi, lo = sch.split_hint(h)
            assert (hi << sch.r | lo) == h
