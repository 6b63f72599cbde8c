import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hintlock.bounds import bob_converse, bob_direct, eve_converse, eve_direct
from hintlock.disks import (
    build_delta_scheme,
    disk_sizes,
    check_eta_independence,
    check_reconstruction,
    choose_pr,
    disk_exponents,
    equal_size_envelope_rows,
    unequal_converse_rows,
    verify_disk_theorems,
)
from hintlock.gf import field_make, rs_generator
from hintlock.guessing import random_joint
from hintlock.prob import DomainError, JointPmf, Pmf, RenyiOrder, renyi_cond_entropy, replace
from hintlock.report import all_passed

U16 = JointPmf.from_marginal(Pmf.of([Fraction(1, 16)] * 16, exact=True))
U4 = JointPmf.from_marginal(Pmf.of([Fraction(1, 4)] * 4, exact=True))


def test_acceptance_instance_structure():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    assert check_reconstruction(sch)
    assert check_eta_independence(sch)
    assert sch.bob(1.0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "joint, params",
    [
        (U16, (3, 2, 1, 4, 2, 2, "guessing")),
        (U16, (3, 2, 1, 4, 2, 2, "list")),
        (U4, (3, 2, 1, 2, 2, 0, "guessing")),  # r = 0
        (U4, (3, 2, 1, 2, 0, 2, "guessing")),  # p = 0
        (U4, (2, 2, 0, 1, 1, 0, "guessing")),  # eta = 0
        (random_joint(np.random.default_rng(3), 6, 3), (4, 3, 2, 4, 2, 2, "guessing")),
        (random_joint(np.random.default_rng(5), 6, 3, exact=True, zeros=0.3), (4, 3, 0, 4, 2, 2, "list")),
    ],
)
def test_law_equals_per_realization_encode(joint, params):
    sch = build_delta_scheme(joint, *params)
    # the stored generators are the Reed-Solomon codes, and the law is the pad quotient
    for g, bits in ((sch.g_v, sch.p), (sch.g_uw, sch.r)):
        assert (g is None) == (bits == 0)
        assert g is None or (g.entries == rs_generator(sch.nu, sch.delta, field_make(bits)).entries).all()
    assert list(oracles.scheme_law(sch).items()) == list(oracles.delta_quotient(sch, public=False).items())
    # the full law, one encode per (x, y, pad), holds the quotient as its pad-0 realizations
    full, n_pad = oracles.delta_law(sch), 1 << (sch.eta * sch.r)
    assert len(full) == n_pad * len(sch.law) and list(full)[::n_pad] == list(oracles.scheme_law(sch))


def test_eta_independence_exact_in_rational_mode():
    # moving 1e-15 of mass between two pad entries of one (x, y) leaves the
    # rational full law non-uniform; the exact enumeration must see it
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    law = oracles.delta_law(sch)
    assert check_eta_independence(sch) and oracles.check_eta_independence(sch, law)
    first, second = [k for k in law if k[:2] == (0, 0)][:2]
    law[first] += Fraction(1, 10**15)
    law[second] -= Fraction(1, 10**15)
    assert not oracles.check_eta_independence(sch, law)
    # float laws keep their tolerance
    floats = build_delta_scheme(JointPmf.from_marginal(Pmf.uniform(16)), 3, 2, 1, 4, 2, 2, "guessing")
    assert check_eta_independence(floats) and oracles.check_eta_independence(floats)


DISK_PARAMS = [(3, 2, 1, 4, 2, 2), (4, 2, 1, 4, 2, 2), (3, 2, 1, 2, 0, 2), (2, 2, 0, 1, 1, 0), (4, 3, 2, 4, 2, 2)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(DISK_PARAMS), st.booleans(), st.sampled_from(["guessing", "list"]))
def test_generator_checks_equal_enumeration_on_the_full_law(seed, params, exact, version):
    """On built schemes, the verdicts by `gf.mds_check` are the Fraction
    enumeration's on the oracle's full law."""
    joint = random_joint(np.random.default_rng(seed), 4, 3, exact=exact, zeros=0.2)
    try:
        sch = build_delta_scheme(joint, *params, version)
    except DomainError:  # a list descriptor without room
        return
    law = oracles.delta_law(sch)
    assert check_reconstruction(sch) == oracles.check_reconstruction(sch, law)
    assert check_eta_independence(sch) == oracles.check_eta_independence(sch, law)


def planted(g, kind: str, j: int):
    """`g` with column j zeroed, or with column j evaluating at column j - 1's point."""
    entries = g.entries.copy()
    entries[:, j] = 0 if kind == "zero" else entries[:, j - 1]
    return replace(g, entries=entries)


PLANTED = [(3, 2, 1, 4, 2, 2), (3, 2, 1, 2, 0, 2), (3, 3, 2, 2, 0, 2), (3, 2, 1, 2, 2, 0), (2, 2, 0, 1, 1, 0)]


def test_planted_generators_are_rejected_by_both():
    """Generators that are not MDS, on a uniform source whose every descriptor
    occurs: both the algebra and the enumeration reject them."""
    for params in PLANTED:
        z_count = disk_sizes(*params[:4], params[-1])[0]
        joint = JointPmf.from_marginal(Pmf.uniform(z_count, exact=True))
        sch = build_delta_scheme(joint, *params)
        assert check_reconstruction(sch) and check_eta_independence(sch)
        for code in ("g_v", "g_uw"):
            if getattr(sch, code) is None:
                continue
            for kind in ("zero", "equal"):
                bad = replace(sch, **{code: planted(getattr(sch, code), kind, sch.delta - 1)})
                law = oracles.delta_law(bad)
                assert not check_reconstruction(bad) and not oracles.check_reconstruction(bad, law)
                # a pad column that is zero, or equal to another among eta >= 2 rows, leaks U
                leaks = code == "g_uw" and sch.eta > 0 and (kind == "zero" or sch.eta >= 2)
                assert check_eta_independence(bad) == oracles.check_eta_independence(bad, law) == (not leaks)


def test_eta_independence_with_huge_denominators():
    # numerators over 3^41 exceed int64: the enumeration must stay exact
    tiny = Fraction(1, 3**41)
    joint = JointPmf.from_marginal(Pmf.of([tiny, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - tiny], exact=True))
    sch = build_delta_scheme(joint, 3, 2, 1, 4, 2, 2, "guessing")
    assert check_eta_independence(sch) and check_reconstruction(sch)
    law = oracles.delta_law(sch)
    assert oracles.check_eta_independence(sch, law)
    law[next(iter(law))] += tiny
    assert not oracles.check_eta_independence(sch, law)


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
    # each single hint's conditional law in the full law must not depend on (x, y)
    per_hint: dict = {}
    for (x, y, m), p in oracles.delta_law(sch).items():
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
    brute = oracles.eve_exact_enumeration(sch.eve_cells, 1.0, budget_bits=14)
    assert sch.eve(1.0) == pytest.approx(brute, abs=1e-12)


def test_verify_theorems_acceptance_instance():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    for rho in (0.5, 1.0, 2.0):
        rows = verify_disk_theorems(sch, rho)
        assert all_passed(rows), [r for r in rows if not r.passed]
        assert not any(r.note for r in rows)


def test_verify_theorems_list_version():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "list")
    rows = verify_disk_theorems(sch, 1.0)
    assert all_passed(rows), [r for r in rows if not r.passed]


def test_degenerate_full_visibility():
    # nu = delta, eta = 0: plain source coding, Bob sees everything
    sch = build_delta_scheme(U4, 2, 2, 0, 1, 1, 0, "guessing")
    assert sch.bob(1.0) == pytest.approx(1.0)
    assert sch.eve(1.0) == pytest.approx(2.5)  # empty subset: unconditional moment
    rows = verify_disk_theorems(sch, 1.0)
    assert all_passed(rows)


def test_views_that_rank_a_cell_differently_are_rejected():
    # Bob's view (0, 1) ranks x = 1 second behind x = 0; view (0, 2) ranks it first
    sch = build_delta_scheme(U4, 3, 2, 1, 2, 2, 0)
    law = {(0, 0, (0, 0, 0)): Fraction(1, 2), (1, 0, (0, 0, 1)): Fraction(3, 10), (2, 0, (1, 1, 1)): Fraction(1, 5)}
    bad = replace(sch, law=oracles.coded(law))
    assert not oracles.ranks_alike(list(bad.bob_cells))
    with pytest.raises(DomainError, match="rank a cell differently"):
        bad.bob(1.0)
    assert bad.bob(1.0, "list") == oracles.support_moment(list(bad.bob_cells), 1.0)


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
        rows = unequal_converse_rows(j, oracles.coded(law), sizes, nu=2, eta=1, rho=1.0)
        assert all_passed(rows), [r for r in rows if not r.passed]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(DISK_PARAMS), st.booleans(), st.sampled_from([0.5, 1.0, 2.0]))
def test_unequal_converse_prices_a_built_scheme_as_its_full_law(seed, params, exact, rho):
    # Bob's fixed subsets and Eve on the scheme's own views (the pad quotient)
    # are their values on the full law; Eve on the quotient's whole hints would not be
    joint = random_joint(np.random.default_rng(seed), 4, 3, exact=exact, zeros=0.2)
    sch = build_delta_scheme(joint, *params)
    sizes = (sch.s,) * sch.delta
    own = unequal_converse_rows(joint, sch, sizes, sch.nu, sch.eta, rho)
    full = unequal_converse_rows(joint, oracles.coded(oracles.delta_law(sch)), sizes, sch.nu, sch.eta, rho)
    assert [r.check for r in own] == [r.check for r in full]
    for a, b in zip(own, full):
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12) and a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_unequal_eve_reads_the_public_parts_of_a_built_scheme():
    # the pad-0 quotient's whole hints show W in their r-parts: Eve read there would be understated
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2)
    values = [[r.lhs for r in unequal_converse_rows(U16, law, (4, 4, 4), 2, 1, 1.0)] for law in (sch, sch.law)]
    assert values == [[1.0, 1.4375], [1.0, 1.0]]


def test_equal_size_envelope():
    for sizes in ((1, 2, 3), (2, 2, 2), (1, 1, 4), (3, 4, 5)):
        for h, nx in ((2.0, 4), (4.0, 16), (1.0, 2)):
            rows = equal_size_envelope_rows(sizes, nu=2, eta=1, rho=1.0, h=h, nx=nx)
            assert all_passed(rows), (sizes, h, [r for r in rows if not r.passed])


def test_envelope_without_an_admissible_split_covers_nothing():
    # s-bar = 1 bit per disk: for delta = 4 each part must be 0 or at least 2 bits
    rows = equal_size_envelope_rows((1, 1, 1, 1), 2, 1, 1.0, 1.5, 4)
    assert [r.lhs for r in rows] == [0.0] * 5


@st.composite
def envelope_configs(draw):
    """Disks up to 64 bits: with every disk at most 12 bits no admissible split was seen to fail."""
    delta = draw(st.integers(1, 8))
    nu = draw(st.integers(1, delta))
    sizes = tuple(draw(st.lists(st.integers(0, 64), min_size=delta, max_size=delta)))
    nx = draw(st.integers(1, 2**20))
    eta, rho, h = draw(st.integers(0, nu - 1)), draw(st.floats(1e-3, 20.0)), draw(st.floats(0.0, math.log2(nx)))
    return sizes, nu, eta, rho, h, nx


@settings(max_examples=300, deadline=None)
@given(envelope_configs())
@example(((0, 28), 2, 1, 1.0, 0.0, 1))  # step 0: the widest split that fits Bob, r = 7, fails Eve
def test_envelope_rows_follow_their_definition(config):
    # a row covers its corner exactly when some admissible split meets both Bob's bound and Eve's floor
    sizes, nu, eta, rho, h, nx = config
    try:
        rows = equal_size_envelope_rows(sizes, nu, eta, rho, h, nx)
    except OverflowError:
        return
    delta, ssort = len(sizes), sorted(sizes)
    sbar = sum(sizes) // delta
    factor = (
        (2 * delta) ** (rho * eta)
        * (delta**eta * (1 + math.log(nx))) ** rho
        * 2 ** (rho * (nu + 2))
        * (1 + math.log(nx)) ** rho
    )
    b_floor = bob_converse(h, rho, 2 ** sum(ssort[:nu]), nx, "guessing")
    base = 2 ** (rho * (h - nu * sbar + 1))
    splits = [r for r in range(sbar + 1) if all(v == 0 or 2**v >= delta for v in (sbar - r, r))]
    assert len(rows) == 5
    for t, row in enumerate(rows):
        b = b_floor * 2 ** (rho * t)
        e = eve_converse(h, rho, 2 ** sum(ssort[: nu - eta]), b)

        def meets_both(r: int) -> bool:
            z, _, leak, _ = disk_sizes(delta, nu, eta, sbar, r)
            bob_fits = bob_direct(h, rho, z, nx, "guessing") <= 1 + factor * max(b - 1, base)
            return bob_fits and factor * eve_direct(h, rho, leak, nx) >= e

        assert row.lhs == (1.0 if any(map(meets_both, splits)) else 0.0), (t, row)


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
        assert sch.bob(1.0) < u_bound
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


def test_split_hint_round_trip():
    sch = build_delta_scheme(U16, 3, 2, 1, 4, 2, 2, "guessing")
    for (x, y, m), p in list(oracles.scheme_law(sch).items())[:20]:
        for h in m:
            hi, lo = sch.split_hint(h)
            assert (hi << sch.r | lo) == h
