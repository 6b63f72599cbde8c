"""hintlock command line: build schemes, run verifier suites, emit reports.

One JSON config document drives each subcommand; outputs are RFC-4180 CSV
plus a markdown summary on stdout.  Runs are deterministic given --seed: no
timestamps ever enter the report body, and the seed is recorded in a column.
The process exits nonzero iff any checked inequality fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import disks as disks_mod
from . import twohint as twohint_mod
from .distortion import (
    DistortionSpec,
    brute_optimal_distortion_guesser,
    greedy_cover_guesser,
    tuple_product,
)
from .exponents import RdQuery, rd_exponent_functional, rd_privacy_exponent
from .guessing import arikan_bounds, ceil_moment, optimal_guess_moment, side_info_lower_bound
from .prob import JointPmf, Pmf, RenyiOrder, renyi_cond_entropy, validate
from .report import ReportRow, all_passed, fmt, rows_to_csv, rows_to_markdown
from .tasks import bunte_bounds, fact1_census


def _load_source(cfg: dict, rational: bool) -> JointPmf:
    src = cfg.get("source")
    if src is None:
        raise SystemExit("config error: missing 'source'")
    if isinstance(src, dict) and "path" in src:
        path = Path(src["path"])
        if not path.exists():
            raise SystemExit(f"config error: source file {path} does not exist")
        src = json.loads(path.read_text())
    if isinstance(src, dict) and "uniform" in src:
        n = int(src["uniform"])
        p = [Fraction(1, n)] * n if rational else [1.0 / n] * n
        return JointPmf.from_marginal(Pmf.of(p, exact=rational))
    issues = validate(src)
    if issues:
        raise SystemExit("config error in source: " + "; ".join(issues))
    if "y" not in src or src.get("y") in (None, []):
        probs = src["p"][0] if isinstance(src["p"][0], list) else src["p"]
        vals = [Fraction(str(v)) if rational else float(v) for v in probs]
        return JointPmf.from_marginal(Pmf.of(vals, symbols=src["x"], exact=rational))
    table = [
        [Fraction(str(v)) if rational else float(v) for v in row] for row in src["p"]
    ]
    return JointPmf.of(table, x_alphabet=src["x"], y_alphabet=src["y"], exact=rational)


def _rho_list(cfg: dict) -> list[float]:
    rho = cfg.get("rho", 1.0)
    return [float(r) for r in (rho if isinstance(rho, list) else [rho])]


def cmd_entropy(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg, args.rational)
    alphas = cfg.get("alpha", [0.0, 0.5, 1.0, 2.0, "inf"])
    rows = []
    for a in alphas:
        av = math.inf if a in ("inf", "Infinity") else float(a)
        h = renyi_cond_entropy(joint, av)
        rows.append(ReportRow("entropy", f"alpha={a}", "H_alpha(X|Y)", "==", h, h))
    for rho in _rho_list(cfg):
        h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
        rows.append(ReportRow("entropy", f"rho={fmt(rho)}", "H_{1/(1+rho)}(X|Y)", "==", h, h))
    return rows


def cmd_guess(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg, args.rational)
    z_count = int(cfg.get("z_count", 1))
    rows = []
    for rho in _rho_list(cfg):
        moment = optimal_guess_moment(joint, rho)
        lo, hi = arikan_bounds(joint, rho)
        inst = f"rho={fmt(rho)}"
        rows.append(ReportRow("guess", inst, "optimal-above-floor", ">=", moment, lo))
        rows.append(ReportRow("guess", inst, "optimal-below-ceiling", "<=", moment, hi))
        if z_count > 1:
            target = ceil_moment(joint, z_count, rho)
            floor = side_info_lower_bound(joint, z_count, rho)
            rows.append(
                ReportRow("guess", inst, f"described-moment-z{z_count}", ">=", target, floor)
            )
    return rows


def cmd_task(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg, args.rational)
    z_count = int(cfg.get("z_count", 4))
    rows = []
    for rho in _rho_list(cfg):
        inst = f"rho={fmt(rho)},z={z_count}"
        ach, conv = bunte_bounds(joint, z_count, rho)
        if ach is not None:
            rows.append(ReportRow("task", inst, "achievability-defined", ">=", ach, conv))
        else:
            rows.append(ReportRow("task", inst, "achievability-not-applicable", "==", 0.0, 0.0))
        k = int(cfg.get("census_k", 5))
        rows.append(ReportRow("task", inst, f"census-le-k({k})", "<=", fact1_census(k), k))
    return rows


def _build_scheme(cfg: dict, joint: JointPmf, version: str):
    sch = cfg.get("scheme", {})
    kind = sch.get("kind", "two-hint")
    if kind == "two-hint":
        return twohint_mod.build_two_hint(
            joint,
            int(sch["cs"]),
            int(sch["c1"]),
            int(sch["c2"]),
            version,
            sch.get("m1_size"),
            sch.get("m2_size"),
        )
    if kind == "secret-hint":
        return twohint_mod.build_secret_hint(
            joint, int(sch["c"]), int(sch["ms_size"]), version, sch.get("mp_size")
        )
    if kind == "secret-key":
        return twohint_mod.build_secret_key(
            joint, int(sch["c"]), int(sch["k_size"]), version, sch.get("m_size")
        )
    if kind == "eve-list":
        return twohint_mod.build_eve_list_scheme(
            joint, int(sch["m1_size"]), int(sch["m2_size"]), float(sch["epsilon"])
        )
    raise SystemExit(f"config error: unknown scheme kind {kind!r}")


def cmd_twohint(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg, args.rational)
    version = cfg.get("version", "guessing")
    scheme = _build_scheme(cfg, joint, version)
    rows = []
    for rho in _rho_list(cfg):
        inst = f"rho={fmt(rho)}"
        if isinstance(scheme, twohint_mod.TwoHintScheme):
            rows.extend(twohint_mod.verify_finite_blocklength(scheme, rho, version, inst))
        elif isinstance(scheme, twohint_mod.SecretHintScheme):
            rows.extend(twohint_mod.verify_secret_hint(scheme, rho, inst))
        elif isinstance(scheme, twohint_mod.SecretKeyScheme):
            rows.extend(twohint_mod.verify_secret_key(scheme, rho, inst))
        else:
            rows.extend(twohint_mod.verify_eve_list(scheme, rho, inst))
    return rows


def cmd_disks(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg, args.rational)
    version = cfg.get("version", "guessing")
    sch = cfg.get("scheme", {})
    scheme = disks_mod.build_delta_scheme(
        joint,
        int(sch["delta"]),
        int(sch["nu"]),
        int(sch["eta"]),
        int(sch["s"]),
        int(sch["p"]),
        int(sch["r"]),
        version,
        budget=args.budget,
    )
    rows = [
        ReportRow(
            "disks",
            "structure",
            "nu-subset-recovery",
            "==",
            1.0 if disks_mod.check_reconstruction(scheme) else 0.0,
            1.0,
        ),
        ReportRow(
            "disks",
            "structure",
            "eta-subset-independence",
            "==",
            1.0 if disks_mod.check_eta_independence(scheme) else 0.0,
            1.0,
        ),
    ]
    for rho in _rho_list(cfg):
        rows.extend(disks_mod.verify_disk_theorems(scheme, rho, version, f"rho={fmt(rho)}"))
    return rows


def cmd_distortion(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg, args.rational)
    dcfg = cfg.get("distortion", {"hamming": True, "delta": 0.0})
    if dcfg.get("hamming"):
        spec = DistortionSpec.hamming(joint.x_alphabet, float(dcfg.get("delta", 0.0)))
    else:
        spec = DistortionSpec(
            joint.x_alphabet, tuple(dcfg["xhat"]), dcfg["d"], float(dcfg.get("delta", 0.0))
        )
    n = int(cfg.get("n", 1))
    rows = []
    for rho in _rho_list(cfg):
        inst = f"rho={fmt(rho)},n={n}"
        _, opt = brute_optimal_distortion_guesser(spec, joint, n, rho)
        greedy = greedy_cover_guesser(spec, joint, n, rho)
        gval = greedy.moment(tuple_product(joint, n), rho)
        rows.append(ReportRow("distortion", inst, "greedy-above-oracle", ">=", gval, opt))
    return rows


def cmd_exponent(cfg: dict, args) -> list[ReportRow]:
    rows = []
    rates = cfg.get("rates", {})
    h = cfg.get("entropy_rate")
    for rho in _rho_list(cfg):
        inst = f"rho={fmt(rho)}"
        if "rate_s" in rates:
            out = disks_mod.disk_exponents(
                float(rates["rate_s"]),
                int(rates["nu"]),
                int(rates["eta"]),
                rho,
                float(h),
                rates.get("e_bob"),
            )
            rows.append(ReportRow("exponent", inst, "disk-exponent", "==", out.value, out.value))
        elif "r1" in rates:
            if cfg.get("distortion") is not None:
                joint = _load_source(cfg, args.rational)
                dcfg = cfg["distortion"]
                spec = (
                    DistortionSpec.hamming(joint.x_alphabet, float(dcfg.get("delta", 0.0)))
                    if dcfg.get("hamming")
                    else DistortionSpec(
                        joint.x_alphabet,
                        tuple(dcfg["xhat"]),
                        dcfg["d"],
                        float(dcfg.get("delta", 0.0)),
                    )
                )
                controls = RdQuery(grid_points=int(cfg.get("grid_points", 400)), seed=args.seed)
                func = rd_exponent_functional(joint, spec, rho, controls)
                out = rd_privacy_exponent(
                    float(rates["r1"]), float(rates["r2"]), rho, func.value, rates.get("e_bob")
                )
                rows.append(
                    ReportRow("exponent", inst, "rd-functional", "==", func.value, func.value)
                )
                if cfg.get("dump_witness"):
                    Path(cfg["dump_witness"]).write_text(func.witness.to_json())
            else:
                out = twohint_mod.two_hint_exponents(
                    float(rates["r1"]), float(rates["r2"]), rho, float(h), rates.get("e_bob")
                )
            label = "boundary-flagged" if getattr(out, "boundary", False) else "two-hint-exponent"
            rows.append(ReportRow("exponent", inst, label, "==", out.value, out.value))
        else:
            raise SystemExit("config error: 'rates' needs r1/r2 or rate_s")
    return rows


def cmd_verify_all(cfg: dict, args) -> list[ReportRow]:
    """A deterministic battery over the bundled desk-scale instances."""
    rho_list = _rho_list(cfg) or [1.0]
    uniform4 = JointPmf.from_marginal(Pmf.uniform(4, exact=True))
    skew = JointPmf.from_marginal(
        Pmf.of([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)], exact=True)
    )
    rows = []
    for rho in rho_list:
        for name, joint in (("uniform4", uniform4), ("skew4", skew)):
            for triple in ((1, 4, 4), (2, 2, 2), (4, 1, 1)):
                inst = f"{name},cs={triple[0]},c1={triple[1]},c2={triple[2]},rho={fmt(rho)}"
                for version in ("guessing", "list"):
                    size = triple[0] * triple[1] * triple[2]
                    if version == "list" and not size > math.log2(len(joint.x_alphabet)) + 2:
                        continue
                    scheme = twohint_mod.build_two_hint(joint, *triple, version, 4, 4)
                    rows.extend(twohint_mod.verify_finite_blocklength(scheme, rho, version, inst))
    for rho in rho_list:
        scheme = disks_mod.build_delta_scheme(uniform4, 3, 2, 1, 2, 2, 0, "guessing")
        rows.extend(disks_mod.verify_disk_theorems(scheme, rho, "guessing", f"delta,rho={fmt(rho)}"))
        sh = twohint_mod.build_secret_hint(uniform4, 2, 2, "guessing")
        rows.extend(twohint_mod.verify_secret_hint(sh, rho, f"rho={fmt(rho)}"))
        sk = twohint_mod.build_secret_key(uniform4, 2, 2, "guessing")
        rows.extend(twohint_mod.verify_secret_key(sk, rho, f"rho={fmt(rho)}"))
        el = twohint_mod.build_eve_list_scheme(uniform4, 4, 4, 20.0)
        rows.extend(twohint_mod.verify_eve_list(el, rho, f"rho={fmt(rho)}"))
    return rows


COMMANDS = {
    "entropy": cmd_entropy,
    "guess": cmd_guess,
    "task": cmd_task,
    "twohint": cmd_twohint,
    "disks": cmd_disks,
    "distortion": cmd_distortion,
    "exponent": cmd_exponent,
    "verify-all": cmd_verify_all,
}


def _read_config(arg: str) -> dict:
    """The JSON config in file `arg`, or `arg` itself as a literal document."""
    try:
        text, where = Path(arg).read_text(), f" in {arg}"
    except OSError:  # no such file, or too long to be a file name: a literal
        text, where = arg, ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemExit(f"config parse error{where}: line {e.lineno}, col {e.colno}: {e.msg}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hintlock", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", nargs="?", help="JSON config document (path or literal '-xxx')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=1 << 22)
    parser.add_argument("--rational", action="store_true", help="exact rational probabilities")
    parser.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    args = parser.parse_args(argv)

    cfg = {} if args.config is None else _read_config(args.config)
    rows = COMMANDS[args.command](cfg, args)
    rows = [
        ReportRow(r.suite, r.instance, r.check, r.relation, r.lhs, r.rhs, note=(r.note + f" seed={args.seed}").strip())
        for r in rows
    ]
    body = rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(body)
    else:
        sys.stdout.write(body)
    print(rows_to_markdown(rows), file=sys.stderr)
    return 0 if all_passed(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
