"""hintlock command line: build schemes, run verifier suites, emit reports.

One JSON config document drives each subcommand; outputs are RFC-4180 CSV
plus a markdown summary on stdout.  Runs are deterministic given --seed: no
timestamps ever enter the report body, and the seed is recorded in a column.
The process exits 1 iff any checked inequality fails, and 2 with a one-line
message on stderr when the config is malformed or a parameter inadmissible.
Each subcommand imports the modules it runs when it is dispatched, so a cold
`entropy`, `guess`, `task` or rates-only `exponent` never loads the scheme,
GF or rate-distortion code.  `entropy`, `task` and the rates-only `exponent`
run only `prob`, `bounds` and `report`, so they never load numpy either.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .prob import (
    BudgetExceededError,
    DomainError,
    JointPmf,
    NormalizationError,
    Pmf,
    RenyiOrder,
    renyi_cond_entropy,
    validate,
)
from .report import ReportRow, all_passed, fmt, rows_to_csv, rows_to_markdown


class ConfigError(Exception):
    """A malformed config: `main` prints the message as one line and exits 2."""


def _number(value, kind: type, key: str):
    """`value` read as `kind` (int or float); a bool, a value of another type,
    a fractional one read as int or a non-finite one read as float is a config error."""
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        number = kind(value)
        if kind is float and not math.isfinite(number):
            raise ValueError
        return number
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config error: {key!r} must be {what}, not {value!r}") from None


def _section(cfg: dict, key: str, default=None) -> dict:
    """The config section `key` (`default` when absent); a non-object is a config error."""
    section = cfg.get(key, {} if default is None else default)
    if not isinstance(section, dict):
        raise ConfigError(f"config error: {key!r} must be a JSON object, not {type(section).__name__}")
    return section


def _fields(section: dict, name: str, **kinds) -> list:
    """The values of the keys in `kinds` in a config section, each read as its
    kind (int, float, or None for as is); a missing key is a config error."""
    missing = [k for k in kinds if k not in section]
    if missing:
        raise ConfigError(f"config error: {name} needs {', '.join(map(repr, missing))}")
    return [section[k] if kind is None else _number(section[k], kind, k) for k, kind in kinds.items()]


def _optional(section: dict, key: str, kind: type, default=None, least=None):
    """The number `key` of a config section read as `kind`; `default` when absent
    or null.  A value below `least` is a config error."""
    value = section.get(key)
    value = default if value is None else _number(value, kind, key)
    if least is not None and value < least:
        raise ConfigError(f"config error: {key!r} must be at least {least}, got {value}")
    return value


def _check_writable(path: str) -> None:
    """A config error unless the file `path` could be written; creates nothing."""
    target = Path(path)
    if target.is_dir() or not os.access(target if target.exists() else target.parent, os.W_OK):
        raise ConfigError(f"config error: cannot write {path!r}")


def _write(path: str, text: str) -> None:
    """Write `text` to the file `path`; a path that cannot be written is a config error."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ConfigError(f"config error: cannot write {path!r}: {e.strerror}") from None


def _numbers(cfg: dict, key: str, default) -> list:
    """A number or a list of numbers under `key`, unconverted."""
    value = cfg.get(key, default)
    return value if isinstance(value, list) else [value]


def _load_source(cfg: dict, rational: bool) -> JointPmf:
    src = cfg.get("source")
    if src is None:
        raise ConfigError("config error: missing 'source'")
    if isinstance(src, dict) and "path" in src:
        path = src["path"]
        if not isinstance(path, str) or not Path(path).exists():
            raise ConfigError(f"config error: source file {path!r} does not exist")
        try:
            src = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:  # a directory, not text, or not JSON (with its line and column)
            raise ConfigError(f"config error: source file {path}: {e}") from None
    if not isinstance(src, dict):
        raise ConfigError(f"config error: 'source' must be a JSON object, not {type(src).__name__}")
    if "uniform" in src:
        n = _number(src["uniform"], int, "uniform")
        if n < 1:
            raise ConfigError(f"config error: a uniform source needs at least one symbol, got {n}")
        p = [Fraction(1, n)] * n if rational else [1.0 / n] * n
        return JointPmf.from_marginal(Pmf.of(p, exact=rational))
    issues = validate(src)
    if issues:
        raise ConfigError("config error in source: " + "; ".join(issues))
    if "y" not in src or src.get("y") in (None, []):
        probs = src["p"][0] if isinstance(src["p"][0], list) else src["p"]
        vals = [Fraction(str(v)) if rational else float(v) for v in probs]
        return JointPmf.from_marginal(Pmf.of(vals, symbols=src["x"], exact=rational))
    table = [
        [Fraction(str(v)) if rational else float(v) for v in row] for row in src["p"]
    ]
    return JointPmf.of(table, x_alphabet=src["x"], y_alphabet=src["y"], exact=rational)


def _rho_list(cfg: dict) -> list[float]:
    rhos = [_number(r, float, "rho") for r in _numbers(cfg, "rho", 1.0)]
    if not rhos:
        raise ConfigError("config error: 'rho' must list at least one value")
    return rhos


def _version(cfg: dict) -> str:
    """The config's 'version': "guessing" (also when absent or null) or "list"."""
    version = cfg.get("version")
    if version not in (None, "guessing", "list"):
        raise ConfigError(f"config error: 'version' must be 'guessing' or 'list', not {version!r}")
    return version or "guessing"


def cmd_entropy(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg, args.rational)
    rows = []
    for a in _numbers(cfg, "alpha", [0.0, 0.5, 1.0, 2.0, "inf"]):
        h = renyi_cond_entropy(joint, math.inf if a in ("inf", math.inf) else _number(a, float, "alpha"))
        rows.append(ReportRow("entropy", f"alpha={a}", "H_alpha(X|Y)", "==", h, h))
    for rho in _rho_list(cfg):
        h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
        rows.append(ReportRow("entropy", f"rho={fmt(rho)}", "H_{1/(1+rho)}(X|Y)", "==", h, h))
    return rows


def cmd_guess(cfg: dict, args) -> list[ReportRow]:
    from .guessing import arikan_bounds, ceil_moment, optimal_guess_moment, side_info_lower_bound

    joint = _load_source(cfg, args.rational)
    z_count = _optional(cfg, "z_count", int, 1, least=1)
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
    from .bounds import bunte_bounds, fact1_census

    joint = _load_source(cfg, args.rational)
    z_count = _optional(cfg, "z_count", int, 4, least=1)
    rows = []
    for rho in _rho_list(cfg):
        inst = f"rho={fmt(rho)},z={z_count}"
        ach, conv = bunte_bounds(joint, z_count, rho)
        if ach is not None:
            rows.append(ReportRow("task", inst, "achievability-defined", ">=", ach, conv))
        else:
            rows.append(ReportRow("task", inst, "achievability-not-applicable", "==", 0.0, 0.0))
        k = _optional(cfg, "census_k", int, 5)
        rows.append(ReportRow("task", inst, f"census-le-k({k})", "<=", fact1_census(k), k))
    return rows


def _build_scheme(cfg: dict, joint: JointPmf):
    from . import twohint as twohint_mod

    sch, version = _section(cfg, "scheme"), _version(cfg)
    kind = sch.get("kind", "two-hint")
    name = f"a {kind} scheme"
    if kind == "two-hint":
        cs, c1, c2 = _fields(sch, name, cs=int, c1=int, c2=int)
        m1, m2 = _optional(sch, "m1_size", int), _optional(sch, "m2_size", int)
        return twohint_mod.build_two_hint(joint, cs, c1, c2, version, m1, m2)
    if kind == "secret-hint":
        c, ms = _fields(sch, name, c=int, ms_size=int)
        return twohint_mod.build_secret_hint(joint, c, ms, version, _optional(sch, "mp_size", int))
    if kind == "secret-key":
        c, k = _fields(sch, name, c=int, k_size=int)
        return twohint_mod.build_secret_key(joint, c, k, version, _optional(sch, "m_size", int))
    if kind == "eve-list":
        m1, m2, eps = _fields(sch, name, m1_size=int, m2_size=int, epsilon=float)
        return twohint_mod.build_eve_list_scheme(joint, m1, m2, eps)
    raise ConfigError(f"config error: unknown scheme kind {kind!r}")


def cmd_twohint(cfg: dict, args) -> list[ReportRow]:
    scheme = _build_scheme(cfg, _load_source(cfg, args.rational))
    return [row for rho in _rho_list(cfg) for row in scheme.rows(rho, instance=f"rho={fmt(rho)}")]


def cmd_disks(cfg: dict, args) -> list[ReportRow]:
    from . import disks as disks_mod

    joint = _load_source(cfg, args.rational)
    params = _fields(_section(cfg, "scheme"), "a disk scheme", delta=int, nu=int, eta=int, s=int, p=int, r=int)
    scheme = disks_mod.build_delta_scheme(joint, *params, _version(cfg), budget=args.budget)
    delta, nu, eta, s = params[:4]
    sizes = _unequal_sizes(cfg, delta, s)
    structure = {"nu-subset-recovery": disks_mod.check_reconstruction(scheme)}
    structure["eta-subset-independence"] = disks_mod.check_eta_independence(scheme)
    rows = [ReportRow("disks", "structure", name, "==", 1.0 if ok else 0.0, 1.0) for name, ok in structure.items()]
    for rho in _rho_list(cfg):
        rows.extend(scheme.rows(rho, instance=f"rho={fmt(rho)}"))
        if sizes is not None:
            inst = f"sizes={sizes},rho={fmt(rho)}"
            rows.extend(disks_mod.unequal_converse_rows(joint, scheme.law, sizes, nu, eta, rho, inst))
            h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
            rows.extend(disks_mod.equal_size_envelope_rows(sizes, nu, eta, rho, h, len(joint.x_alphabet)))
    return rows


def _unequal_sizes(cfg: dict, delta: int, s: int) -> tuple | None:
    """Opt-in disk sizes in bits, one per disk, for the unequal-disk converse and
    envelope rows; each must hold the scheme's s-bit hints."""
    sizes = cfg.get("unequal_sizes")
    if sizes is None:
        return None
    if not isinstance(sizes, list) or len(sizes) != delta or min(_number(v, int, "unequal_sizes") for v in sizes) < s:
        raise ConfigError(f"config error: 'unequal_sizes' must list {delta} disk sizes of at least s = {s} bits")
    return tuple(int(v) for v in sizes)


def _distortion_spec(joint: JointPmf, dcfg: dict) -> DistortionSpec:
    from .distortion import DistortionSpec

    delta = _optional(dcfg, "delta", float, 0.0)
    if dcfg.get("hamming"):
        return DistortionSpec.hamming(joint.x_alphabet, delta)
    xhat, d = _fields(dcfg, "a non-Hamming 'distortion'", xhat=None, d=None)
    table = isinstance(d, list) and all(
        isinstance(row, list) and all(isinstance(v, (int, float)) and math.isfinite(v) for v in row) for row in d
    )
    if not isinstance(xhat, list) or not table:
        what = "a list 'xhat' and a table 'd' of finite numbers"
        raise ConfigError(f"config error: a non-Hamming 'distortion' needs {what}")
    return DistortionSpec(joint.x_alphabet, tuple(xhat), d, delta)


def cmd_distortion(cfg: dict, args) -> list[ReportRow]:
    from .distortion import brute_optimal_distortion_guessers, greedy_cover_guesser, tuple_product

    joint = _load_source(cfg, args.rational)
    spec = _distortion_spec(joint, _section(cfg, "distortion", {"hamming": True, "delta": 0.0}))
    n = _optional(cfg, "n", int, 1, least=1)
    rhos = _rho_list(cfg)
    oracle = brute_optimal_distortion_guessers(spec, joint, n, rhos)  # one search over the orders for every rho
    greedy, big = greedy_cover_guesser(spec, joint, n), tuple_product(joint, n)
    rows = []
    for rho, (_, opt) in zip(rhos, oracle):
        gval = greedy.moment(big, rho)
        rows.append(ReportRow("distortion", f"rho={fmt(rho)},n={n}", "greedy-above-oracle", ">=", gval, opt))
    return rows


def cmd_exponent(cfg: dict, args) -> list[ReportRow]:
    from .bounds import disk_exponents, two_hint_exponents

    rows = []
    rates = _section(cfg, "rates")
    if "rate_s" not in rates and "r1" not in rates:
        raise ConfigError("config error: 'rates' needs r1/r2 or rate_s")
    h = _optional(cfg, "entropy_rate", float)
    if h is None and ("rate_s" in rates or cfg.get("distortion") is None):
        raise ConfigError("config error: missing 'entropy_rate'")
    e_bob = _optional(rates, "e_bob", float)
    rhos = _rho_list(cfg)
    if dump := cfg.get("dump_witness"):
        if "rate_s" in rates or cfg.get("distortion") is None:
            raise ConfigError("config error: only a 'distortion' section's functional has a witness for 'dump_witness'")
        if not isinstance(dump, str):
            raise ConfigError(f"config error: 'dump_witness' must be a file name, not {dump!r}")
        if len(rhos) > 1:
            raise ConfigError("config error: 'dump_witness' holds the witness of one rho; give one 'rho'")
        _check_writable(dump)
    for rho in rhos:
        inst = f"rho={fmt(rho)}"
        if "rate_s" in rates:
            rate_s, nu, eta = _fields(rates, "'rates'", rate_s=float, nu=int, eta=int)
            out = disk_exponents(rate_s, nu, eta, rho, h, e_bob)
            rows.append(ReportRow("exponent", inst, "disk-exponent", "==", out.value, out.value))
        else:
            r1, r2 = _fields(rates, "'rates'", r1=float, r2=float)
            if cfg.get("distortion") is not None:
                from .exponents import RdQuery, rd_exponent_functional, rd_privacy_exponent

                joint = _load_source(cfg, args.rational)
                spec = _distortion_spec(joint, _section(cfg, "distortion"))
                controls = RdQuery(grid_points=_optional(cfg, "grid_points", int, 400), seed=args.seed)
                func = rd_exponent_functional(joint, spec, rho, controls)
                out = rd_privacy_exponent(r1, r2, rho, func.value, e_bob)
                rows.append(
                    ReportRow("exponent", inst, "rd-functional", "==", func.value, func.value)
                )
                if dump:
                    _write(dump, func.witness.to_json())
            else:
                out = two_hint_exponents(r1, r2, rho, h, e_bob)
            label = "boundary-flagged" if out.boundary else "two-hint-exponent"
            rows.append(ReportRow("exponent", inst, label, "==", out.value, out.value))
    return rows


def cmd_battery(cfg: dict, args) -> list[ReportRow]:
    """A deterministic battery over the bundled desk-scale instances."""
    from . import disks as disks_mod, twohint as twohint_mod
    from .bounds import list_room

    rho_list = _rho_list(cfg)
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
                    if version == "list" and not list_room(math.prod(triple), len(joint.x_alphabet)):
                        continue
                    rows.extend(twohint_mod.build_two_hint(joint, *triple, version, 4, 4).rows(rho, instance=inst))
    schemes = [  # (instance prefix, scheme)
        ("delta,", disks_mod.build_delta_scheme(uniform4, 3, 2, 1, 2, 2, 0)),
        ("", twohint_mod.build_secret_hint(uniform4, 2, 2)),
        ("", twohint_mod.build_secret_key(uniform4, 2, 2)),
        ("", twohint_mod.build_eve_list_scheme(uniform4, 4, 4, 20.0)),
    ]
    for rho in rho_list:
        for prefix, scheme in schemes:
            rows.extend(scheme.rows(rho, instance=f"{prefix}rho={fmt(rho)}"))
    return rows


COMMANDS = {
    "entropy": cmd_entropy,
    "guess": cmd_guess,
    "task": cmd_task,
    "twohint": cmd_twohint,
    "disks": cmd_disks,
    "distortion": cmd_distortion,
    "exponent": cmd_exponent,
    "verify-all": cmd_battery,
}


def _read_config(arg: str) -> dict:
    """The JSON config in file `arg`, or `arg` itself as a literal document."""
    try:
        text, where = Path(arg).read_text(), f" in {arg}"
    except OSError:  # no such file, or too long to be a file name: a literal
        text, where = arg, ""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error{where}: line {e.lineno}, col {e.colno}: {e.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config error{where}: the config must be a JSON object, not {type(cfg).__name__}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hintlock", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", nargs="?", help="JSON config document (path or literal '-xxx')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=1 << 22)
    parser.add_argument("--rational", action="store_true", help="exact rational probabilities")
    parser.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    args = parser.parse_args(argv)

    try:
        cfg = {} if args.config is None else _read_config(args.config)
        rows = [replace(r, note=(r.note + f" seed={args.seed}").strip()) for r in COMMANDS[args.command](cfg, args)]
        body = rows_to_csv(rows)
        if args.out:
            _write(args.out, body)
    except (ConfigError, DomainError, NormalizationError, BudgetExceededError) as e:
        print(e if isinstance(e, ConfigError) else f"config error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:  # a parameter too large for float arithmetic, such as rho = 800
        print(f"config error: a parameter is out of floating-point range: {e}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(body)
    print(rows_to_markdown(rows), file=sys.stderr)
    return 0 if all_passed(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
