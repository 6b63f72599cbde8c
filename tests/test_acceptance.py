"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
tolerances here are pinned; nothing is deferred to later calibration.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hintlock.adversary import eve_exact_enumeration
from hintlock.disks import (
    bob_ambiguity_minmax,
    build_delta_scheme,
    check_eta_independence,
    check_reconstruction,
    disk_exponents,
    eve_ambiguity_minmin,
    verify_disk_theorems,
)
from hintlock.distortion import (
    DistortionSpec,
    brute_optimal_distortion_guesser,
    _tuple_wrap,
)
from hintlock.exponents import (
    RdQuery,
    rd_exponent_functional,
    rd_function,
    rd_privacy_exponent,
)
from hintlock.guessing import (
    arikan_bounds,
    ceil_moment,
    encoder_guess_moment,
    grouped_moment,
    optimal_guess_moment,
    optimal_guesser,
    random_joint,
    side_info_encoder,
)
from hintlock.prob import JointPmf, Pmf, RenyiOrder, renyi_cond_entropy
from hintlock.report import all_passed
from hintlock.tasks import (
    decoding_lists,
    derandomize,
    encoder_from_guessing,
    guessing_from_lists,
    list_moment,
    random_stoch_encoder,
    s_alphabet_size,
)
from hintlock.twohint import (
    bob_ambiguity,
    build_eve_list_scheme,
    build_two_hint,
    eve_ambiguity_exact,
    eve_ambiguity_weak,
    eve_list_ambiguity,
    scheme_from_law,
    two_hint_exponents,
    verify_eve_list,
    verify_finite_blocklength,
)
from hintlock.guessing import guess_moment
from oracles import rd_function_grid_oracle


def report(num: int, name: str, ok: bool, elapsed: float, limit: float):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / limit {limit:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < limit, f"{line} exceeded its time budget"


def test_criterion_01_arikan_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        nx = int(rng.integers(2, 8))
        ny = int(rng.integers(1, 5))
        j = random_joint(rng, nx, ny)
        for rho in (0.5, 1.0, 2.0):
            lo, hi = arikan_bounds(j, rho)
            opt = optimal_guess_moment(j, rho)
            ok &= lo - 1e-9 <= opt <= hi + 1e-9
    report(1, "arikan-sandwich", ok, time.time() - t0, 5.0)


def test_criterion_02_remainder_encoder_equality_and_dominance():
    t0 = time.time()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(50):
        nx = int(rng.integers(2, 7))
        nc = int(rng.integers(1, 4))
        j = random_joint(rng, nx, nc)
        z = int(rng.integers(2, nx + 1))
        rho = float(rng.choice([0.5, 1.0, 2.0]))
        achieved = encoder_guess_moment(j, side_info_encoder(j, z), rho)
        target = ceil_moment(j, z, rho)
        ok &= abs(achieved - target) <= 1e-12
        # batch-evaluate 1000 random stochastic descriptor laws
        cols = np.array([[float(p) for p in j.y_column(c)] for c in range(nc)]).T  # (nx, nc)
        laws = rng.dirichlet(np.ones(z), size=(1000, nx, nc))  # (B, nx, nc, z)
        mass = cols[None, :, :, None] * laws  # (B, nx, nc, z)
        ranked = -np.sort(-mass, axis=1)
        ranks = (np.arange(1, nx + 1, dtype=float) ** rho)[None, :, None, None]
        moments = (ranked * ranks).sum(axis=(1, 2, 3))
        ok &= bool((moments >= achieved - 1e-9).all())
    report(2, "described-guessing-equality", ok, time.time() - t0, 30.0)


def test_criterion_03_conversion_theorems():
    t0 = time.time()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(100):
        nx = int(rng.integers(2, 8))
        nc = int(rng.integers(1, 3))
        j = random_joint(rng, nx, nc, exact=True, zeros=0.15)
        g = optimal_guesser(j)
        rho = float(rng.choice([0.5, 1.0, 2.0]))
        gm = guess_moment(g, j, rho)
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
            ok &= lm <= ceil_target + 1e-9  # part 2
            back = guessing_from_lists(lists, j)
            ok &= guess_moment(back, j, rho) <= z_count**rho * lm + 1e-9  # part 1
            if omega == 1:
                ok &= lm <= gm + 1e-9  # the omega = 1 corollary
        # best-list corollary at a workable description budget
        lx = 1 + math.floor(math.log2(nx))
        z_count = 2 * lx + 1
        if z_count / (1 + math.log2(nx)) > 1:
            omega = min(z_count // lx, nx)
            enc = encoder_from_guessing(g, omega, z_count)
            lm = list_moment(decoding_lists(enc, j), j, rho, enc)
            bound = 1 + 2**rho * gm * (z_count / (1 + math.log2(nx)) - 1) ** (-rho)
            ok &= lm <= bound + 1e-9
    report(3, "conversion-theorems", ok, time.time() - t0, 60.0)


def test_criterion_04_derandomization_dominance():
    t0 = time.time()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(200):
        nx, nc = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        j = random_joint(rng, nx, nc, exact=True)
        enc = random_stoch_encoder(rng, j, int(rng.integers(2, 6)))
        stoch = list_moment(decoding_lists(enc, j), j, 1.0, enc)
        det = derandomize(enc, j)
        ok &= list_moment(decoding_lists(det, j), j, 1.0, det) <= stoch + 1e-12
    report(4, "derandomization-dominance", ok, time.time() - t0, 10.0)


def _sweep_sources():
    rng = np.random.default_rng(505)
    uniform4 = JointPmf.from_marginal(Pmf.of([Fraction(1, 4)] * 4, exact=True))
    skew5 = JointPmf.from_marginal(
        Pmf.of([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 16)], exact=True)
    )
    rand6 = random_joint(rng, 6, 1, exact=True)
    return [("uniform4", uniform4), ("skew5", skew5), ("rand6", rand6)]


def test_criterion_05_two_hint_full_sweep():
    t0 = time.time()
    ok = True
    checked = 0
    for name, joint in _sweep_sources():
        nx = len(joint.x_alphabet)
        for cs in range(1, 5):
            for c1 in range(1, 4 // cs + 1):
                for c2 in range(1, 4 // cs + 1):
                    for version in ("guessing", "list"):
                        if version == "list" and not cs * c1 * c2 > math.log2(nx) + 2:
                            continue
                        s = build_two_hint(joint, cs, c1, c2, version, 4, 4)
                        rows = verify_finite_blocklength(s, 1.0, version, f"{name}")
                        ok &= all_passed(rows)
                        ok &= all("bounds-only" not in r.note for r in rows)
                        checked += len(rows)
    assert checked > 200
    report(5, "two-hint-full-sweep", ok, time.time() - t0, 300.0)


def test_criterion_06_secrecy_notion_separation():
    t0 = time.time()
    bit = JointPmf.from_marginal(Pmf.of([Fraction(1, 2), Fraction(1, 2)], exact=True))
    law1 = {}
    for x in (0, 1):
        law1[(x, 0, x, 2)] = Fraction(1, 4)
        law1[(x, 0, 2, x)] = Fraction(1, 4)
    reveal = scheme_from_law(bit, law1, 3, 3)
    otp = build_two_hint(bit, 2, 1, 1)
    ok = (
        eve_ambiguity_exact(reveal, 1.0) == 1.0
        and eve_ambiguity_weak(reveal, 1.0) == 1.25
        and eve_ambiguity_exact(otp, 1.0) == 1.0
        and eve_ambiguity_weak(otp, 1.0) == 1.5
    )
    report(6, "secrecy-notion-separation", ok, time.time() - t0, 1.0)


def test_criterion_07_eve_must_list():
    t0 = time.time()
    u4 = JointPmf.from_marginal(Pmf.of([Fraction(1, 4)] * 4, exact=True))
    sch = build_eve_list_scheme(u4, 4, 4, 20.0)
    rows = verify_eve_list(sch, 1.0)
    ok = all_passed(rows) and eve_list_ambiguity(sch, 1.0) == 4.0
    report(7, "eve-must-list", ok, time.time() - t0, 10.0)


def test_criterion_08_mds_generators():
    t0 = time.time()
    from hintlock.gf import field_make, mds_check, rs_generator

    ok = True
    for ell in (2, 3, 4):
        f = field_make(ell)
        for n in range(1, f.q + 1):
            for k in range(1, n + 1):
                g = rs_generator(k, n, f)
                ok &= mds_check(g)
                for kp in range(1, k):
                    top = g.first_rows(kp)
                    ok &= (top.entries == rs_generator(kp, n, f).entries).all()
                    ok &= mds_check(top)
    report(8, "mds-generators", ok, time.time() - t0, 60.0)


def test_criterion_09_delta_scheme():
    t0 = time.time()
    u16 = JointPmf.from_marginal(Pmf.of([Fraction(1, 16)] * 16, exact=True))
    sch = build_delta_scheme(u16, 3, 2, 1, 4, 2, 2, "guessing")
    ok = check_reconstruction(sch)
    ok &= check_eta_independence(sch)  # exact rational: total variation zero
    eve = eve_ambiguity_minmin(sch, 1.0)
    bob = bob_ambiguity_minmax(sch, 1.0)
    ok &= eve.exact and bob.exact
    for rho in (0.5, 1.0, 2.0):
        rows = verify_disk_theorems(sch, rho)
        ok &= all_passed(rows)
        ok &= all("bounds-only" not in r.note for r in rows)
    lst = build_delta_scheme(u16, 3, 2, 1, 4, 2, 2, "list")
    ok &= all_passed(verify_disk_theorems(lst, 1.0))
    report(9, "delta-disk-scheme", ok, time.time() - t0, 180.0)


def test_criterion_10_exponent_calculators_and_trend():
    t0 = time.time()
    ok = True
    # closed-form rows, exact equality
    ok &= two_hint_exponents(1.0, 1.0, 1.0, 1.5).value == 1.0
    ok &= two_hint_exponents(0.5, 0.9, 1.0, 1.5).value == -math.inf
    ok &= two_hint_exponents(0.4, 0.4, 1.0, 1.2, e_bob=0.5).value == 0.9
    ok &= disk_exponents(0.8, 2, 1, 1.0, 1.2).value == 0.8
    ok &= disk_exponents(0.5, 2, 1, 1.0, 1.2).value == -math.inf
    ok &= disk_exponents(1.0, 2, 1, 1.0, 1.0).value == 1.0  # Rs >= H/(nu-eta): rho*H
    ok &= rd_privacy_exponent(1.0, 1.0, 1.0, 1.5).value == 1.0
    ok &= rd_privacy_exponent(0.4, 0.4, 1.0, 1.5).value == -math.inf
    ok &= rd_privacy_exponent(0.4, 0.4, 1.0, 1.2, e_bob=0.5).value == 0.9
    # finite-n trend for the IID uniform bit at R1 = R2 = 1, rho = 1
    prev = math.inf
    floor8 = None
    for n in range(1, 9):
        nx = 2**n
        joint = JointPmf.from_marginal(Pmf.of([Fraction(1, nx)] * nx, exact=True))
        s = build_two_hint(joint, nx, 1, 1)
        b = bob_ambiguity(s, 1.0, "guessing")
        ok &= b <= prev + 1e-12
        prev = b
        if n == 8:
            z = s.cs * (s.c1 + s.c2)
            # optimal moment of the pair (X, U) given Y, U the uniform pad
            pair = grouped_moment(
                ((y, (x, m2 // s.c2), float(p)) for (x, y, _, m2), p in s.law.items() if p > 0), 1.0
            )
            floor8 = z ** (-1.0) * pair
    ok &= prev == 1.0
    ok &= abs(math.log2(floor8) / 8 - 1.0) <= 0.25
    report(10, "exponent-calculators", ok, time.time() - t0, 120.0)


def test_criterion_11_rd_numerics():
    t0 = time.time()
    ok = True

    def h2(p):
        return 0.0 if p in (0, 1) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)

    q = JointPmf.from_marginal(Pmf.of([0.3, 0.7]))
    spec = DistortionSpec.hamming((0, 1), 0.1)
    ba = rd_function(q, spec)
    oracle = rd_function_grid_oracle(q, spec)
    closed = h2(0.3) - h2(0.1)
    ok &= abs(ba - oracle) <= 1e-6
    ok &= abs(ba - closed) <= 1e-6
    # Delta = 0 functional vs closed-form entropy on 3-symbol sources
    controls = RdQuery(grid_points=200, polish_runs=5, polish_steps=40)
    for table in ([[0.5], [0.3], [0.2]], [[0.2, 0.1], [0.15, 0.25], [0.05, 0.25]]):
        j = JointPmf.of(table)
        spec0 = DistortionSpec.hamming(j.x_alphabet, 0.0)
        for rho in (0.5, 1.0, 2.0):
            res = rd_exponent_functional(j, spec0, rho, controls)
            h = renyi_cond_entropy(j, RenyiOrder.from_rho(rho))
            ok &= abs(res.value - h) <= 1e-3
    # Delta = 0 distortion guessing equals exact guessing
    j3 = JointPmf.from_marginal(Pmf.of([0.5, 0.3, 0.2]))
    spec00 = DistortionSpec.hamming((0, 1, 2), 0.0)
    _, opt = brute_optimal_distortion_guesser(spec00, j3, 1, 1.0)
    ok &= abs(opt - optimal_guess_moment(j3, 1.0)) <= 1e-12
    report(11, "rd-numerics", ok, time.time() - t0, 180.0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    from hintlock.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "source": {"uniform": 4},
                "rho": [0.5, 1.0],
                "scheme": {"kind": "two-hint", "cs": 2, "c1": 2, "c2": 1, "m1_size": 4, "m2_size": 4},
            }
        )
    )
    bodies = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["twohint", str(cfg), "--rational", "--seed", "11", "--out", str(out)]) == 0
        bodies.append(out.read_bytes())
    ok = bodies[0] == bodies[1]
    for name in ("va.csv", "vb.csv"):
        out = tmp_path / name
        assert main(["verify-all", "{}", "--seed", "11", "--out", str(out)]) == 0
        bodies.append(out.read_bytes())
    ok &= bodies[2] == bodies[3]
    report(12, "determinism", ok, time.time() - t0, 120.0)
