"""hintlock command line: build schemes, run verifier suites, emit reports.

One JSON config document drives each subcommand; outputs are RFC-4180 CSV
plus a markdown summary on stdout.  Runs are deterministic given --seed: no
timestamps ever enter the report body, and the seed is recorded in a column.
The process exits 1 iff any checked inequality fails, and 2 with a one-line
message on stderr when the config is malformed or a parameter inadmissible.

`_read` reads every key by its table in `KEYS` or `SCHEMES`; an absent and a
null key both mean the default.  Before anything is built, `--budget` bounds
every count a config sets: a `uniform` source's symbols; a scheme's realized
rows (per support (x, y), one in a pad quotient, c1*c2 in eve-list's;
`disks`: times its C(delta, nu) + C(delta, eta) views, which also bound the
eliminations of its structure checks; and its nu*delta generator cells; a
rational eve-list: times epsilon's bits); the envelope's r-range;
`distortion`'s n-tuples, and its order search's 2^m * m steps per context
tuple (m = |Xhat|^n); and the functional's starts.

Each subcommand imports the modules it runs when it is dispatched, so a cold
`entropy`, `guess`, `task` or rates-only `exponent` never loads the scheme,
GF or rate-distortion code.  `entropy`, `task` and the rates-only `exponent`
run only `prob`, `bounds` and `report`; `guess` adds `guessing`, and
`distortion` adds `guessing`, `tasks` and `distortion`, which run on Python
floats.  So none of these six loads numpy; `twohint`, `disks`, `verify-all`
and an `exponent` with a `distortion` section do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
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
    replace,
    validate,
)
from .report import ReportRow, all_passed, fmt, rows_to_csv, rows_to_markdown


class ConfigError(Exception):
    """A malformed config: `main` prints the message as one line and exits 2."""


# A key's entry is (kind, default, least).  A kind is int or float, [int] or [float]
# (a number or a non-empty list of them), a tuple of choices, dict (a JSON object,
# read by its own table) or None (as is); REQUIRED marks a key without a default.
REQUIRED = ...
AS_IS, SOURCE, FLOAT, NUMBER = (None, None, None), (None, REQUIRED, None), (float, None, None), (float, REQUIRED, None)
POSITIVE, SIZE, SECTION = (int, REQUIRED, 1), (int, None, 1), (dict, {}, None)
RHO, VERSION = ([float], [1.0], None), (("guessing", "list"), "guessing", None)
KEYS = {
    "entropy": {"source": SOURCE, "rho": RHO, "alpha": (None, [0.0, 0.5, 1.0, 2.0, "inf"], None)},
    "guess": {"source": SOURCE, "rho": RHO, "z_count": (int, 1, 1)},
    "task": {"source": SOURCE, "rho": RHO, "z_count": (int, 4, 1), "census_k": (int, 5, 1)},
    "twohint": {"source": SOURCE, "rho": RHO, "version": VERSION, "scheme": SECTION},
    "disks": {"source": SOURCE, "rho": RHO, "version": VERSION, "scheme": SECTION,
              "unequal_sizes": ([int], None, None)},
    "distortion": {"source": SOURCE, "rho": RHO, "n": (int, 1, 1), "distortion": (dict, {"hamming": True}, None)},
    "exponent": {"source": AS_IS, "rho": RHO, "entropy_rate": FLOAT, "rates": SECTION, "distortion": (dict, None, None),
                 "grid_points": (int, 400, 1), "dump_witness": AS_IS},
    "verify-all": {"rho": RHO},
}
# the sections: a disks 'scheme', a 'distortion', and 'rates' of each exponent
DISK = {"delta": POSITIVE, "nu": POSITIVE, **dict.fromkeys(("eta", "s", "p", "r"), (int, REQUIRED, 0))}
DISTORTION = {"hamming": AS_IS, "delta": (float, 0.0, None), "xhat": AS_IS, "d": AS_IS}
RATES = {"r1": NUMBER, "r2": NUMBER, "e_bob": FLOAT}
DISK_RATES = {"rate_s": NUMBER, "nu": (int, REQUIRED, None), "eta": (int, REQUIRED, None), "e_bob": FLOAT}
# twohint scheme kind -> (its builder in `twohint`, its keys, its realized rows per (x, y) given them and |X|)
SCHEMES = {
    "two-hint": ("build_two_hint", {**dict.fromkeys(("cs", "c1", "c2"), POSITIVE), "m1_size": SIZE, "m2_size": SIZE},
                 lambda k, nx: 1),
    "secret-hint": ("build_secret_hint", {"c": POSITIVE, "ms_size": POSITIVE, "mp_size": SIZE}, lambda k, nx: 1),
    "secret-key": ("build_secret_key", {"c": POSITIVE, "k_size": POSITIVE, "m_size": SIZE}, lambda k, nx: 1),
    "eve-list": ("build_eve_list_scheme", {"m1_size": POSITIVE, "m2_size": POSITIVE, "epsilon": NUMBER},
                 lambda k, nx: (k["m1_size"] // nx.bit_length()) * (k["m2_size"] // nx.bit_length())),
}


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


def _read(section: dict, where: str, keys: dict) -> dict:
    """The value of each key in `keys` in a config section, read by its (kind,
    default, least) entry; an absent or null key takes the default."""
    values = {}
    for key, (kind, default, least) in keys.items():
        value = section.get(key)
        if value is None and default is REQUIRED:
            raise ConfigError(f"config error: {where} needs {key!r}")
        if value is None:
            value = default
        elif isinstance(kind, list):
            value = [_number(v, kind[0], key) for v in (value if isinstance(value, list) else [value])]
            if not value:
                raise ConfigError(f"config error: {key!r} must list at least one value")
        elif isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError(f"config error: {key!r} must be {' or '.join(map(repr, kind))}, not {value!r}")
        elif kind is dict:
            if not isinstance(value, dict):
                raise ConfigError(f"config error: {key!r} must be a JSON object, not {type(value).__name__}")
        elif kind is not None:
            value = _number(value, kind, key)
            if least is not None and value < least:
                raise ConfigError(f"config error: {key!r} must be at least {least}, got {value}")
        values[key] = value
    return values


def _gate(args, what: str, count: int) -> None:
    """A budget error when `count`, a size the config sets, exceeds --budget."""
    if count > args.budget:
        raise BudgetExceededError(f"{what} exceed the --budget of {args.budget}")


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


def _load_source(src, args) -> JointPmf:
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
        n = _read(src, "a uniform 'source'", {"uniform": POSITIVE})["uniform"]
        _gate(args, "the symbols of a uniform source", n)
        p = [Fraction(1, n)] * n if args.rational else [1.0 / n] * n
        return JointPmf.from_marginal(Pmf.of(p, exact=args.rational))
    issues = validate(src)
    if issues:
        raise ConfigError("config error in source: " + "; ".join(issues))
    mass = (lambda v: Fraction(str(v))) if args.rational else (lambda v: float(Fraction(str(v))))  # "1/4" in both
    if "y" not in src or src.get("y") in (None, []):
        probs = src["p"][0] if isinstance(src["p"][0], list) else src["p"]
        return JointPmf.from_marginal(Pmf.of(list(map(mass, probs)), symbols=src["x"], exact=args.rational))
    table = [list(map(mass, row)) for row in src["p"]]
    return JointPmf.of(table, x_alphabet=src["x"], y_alphabet=src["y"], exact=args.rational)


def cmd_entropy(cfg: dict, args) -> list[ReportRow]:
    joint = _load_source(cfg["source"], args)
    rows = []
    for a in cfg["alpha"] if isinstance(cfg["alpha"], list) else [cfg["alpha"]]:
        h = renyi_cond_entropy(joint, math.inf if a in ("inf", math.inf) else _number(a, float, "alpha"))
        rows.append(ReportRow("entropy", f"alpha={a}", "H_alpha(X|Y)", "==", h, h))
    for rho in cfg["rho"]:
        h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
        rows.append(ReportRow("entropy", f"rho={fmt(rho)}", "H_{1/(1+rho)}(X|Y)", "==", h, h))
    return rows


def cmd_guess(cfg: dict, args) -> list[ReportRow]:
    from .guessing import arikan_bounds, ceil_moment, optimal_guess_moment, side_info_lower_bound

    joint = _load_source(cfg["source"], args)
    z_count = cfg["z_count"]
    rows = []
    for rho in cfg["rho"]:
        moment = optimal_guess_moment(joint, rho)
        lo, hi = arikan_bounds(joint, rho)
        inst = f"rho={fmt(rho)}"
        rows.append(ReportRow("guess", inst, "optimal-above-floor", ">=", moment, lo))
        rows.append(ReportRow("guess", inst, "optimal-below-ceiling", "<=", moment, hi))
        if z_count > 1:
            target = ceil_moment(joint, z_count, rho)
            floor = side_info_lower_bound(joint, z_count, rho)
            rows.append(ReportRow("guess", inst, f"described-moment-z{z_count}", ">=", target, floor))
    return rows


def cmd_task(cfg: dict, args) -> list[ReportRow]:
    from .bounds import bunte_bounds, fact1_census

    joint = _load_source(cfg["source"], args)
    z_count, k = cfg["z_count"], cfg["census_k"]
    rows = []
    for rho in cfg["rho"]:
        inst = f"rho={fmt(rho)},z={z_count}"
        ach, conv = bunte_bounds(joint, z_count, rho)
        if ach is not None:
            rows.append(ReportRow("task", inst, "achievability-defined", ">=", ach, conv))
        else:
            rows.append(ReportRow("task", inst, "achievability-not-applicable", "==", 0.0, 0.0))
        rows.append(ReportRow("task", inst, f"census-le-k({k})", "<=", fact1_census(k), k))
    return rows


def cmd_twohint(cfg: dict, args) -> list[ReportRow]:
    from . import twohint as twohint_mod

    joint = _load_source(cfg["source"], args)
    kind = _read(cfg["scheme"], "'scheme'", {"kind": (tuple(SCHEMES), "two-hint", None)})["kind"]
    builder, keys, per_xy = SCHEMES[kind]
    params = _read(cfg["scheme"], f"a {kind} scheme", keys)
    what, count = f"the realized rows of the {kind} scheme", len(joint.support[0])
    count *= per_xy(params, len(joint.x_alphabet))
    if kind == "eve-list" and args.rational:  # an integer epsilon is exact: 2^-epsilon's numerators carry its bits
        what, count = f"{what} times epsilon's bits", count * max(1, int(params["epsilon"]))
    _gate(args, what, count)
    if kind != "eve-list":  # an eve-list scheme is always the list version
        params["version"] = cfg["version"]
    scheme = getattr(twohint_mod, builder)(joint, **params)
    return [row for rho in cfg["rho"] for row in scheme.rows(rho, instance=f"rho={fmt(rho)}")]


def cmd_disks(cfg: dict, args) -> list[ReportRow]:
    from . import disks as disks_mod

    joint = _load_source(cfg["source"], args)
    params = _read(cfg["scheme"], "a disk scheme", DISK)
    delta, nu, eta, s = params["delta"], params["nu"], params["eta"], params["s"]
    sizes = cfg["unequal_sizes"]
    if sizes is not None:  # opt-in disk sizes in bits, each holding the scheme's s-bit hints
        if len(sizes) != delta or min(sizes) < s:
            raise ConfigError(f"config error: 'unequal_sizes' must list {delta} disk sizes of at least s = {s} bits")
        _gate(args, "the equal-size envelope's r values", sum(sizes) // delta)
        sizes = tuple(sizes)
    _gate(args, "the generator cells nu*delta of a disk scheme", nu * delta)
    bits = args.budget.bit_length()  # C(delta, k) >= 2^min(k, delta - k): no math.comb on a large one
    views = sum(math.comb(delta, k) if min(k, delta - k) < bits else 1 << bits for k in (nu, eta))
    count = len(joint.support[0]) * views
    _gate(args, "the realized rows times the C(delta, nu) + C(delta, eta) views of a disk scheme", count)
    scheme = disks_mod.build_delta_scheme(joint, **params, version=cfg["version"])
    structure = {"nu-subset-recovery": disks_mod.check_reconstruction(scheme)}
    structure["eta-subset-independence"] = disks_mod.check_eta_independence(scheme)
    rows = [ReportRow("disks", "structure", name, "==", 1.0 if ok else 0.0, 1.0) for name, ok in structure.items()]
    for rho in cfg["rho"]:
        rows.extend(scheme.rows(rho, instance=f"rho={fmt(rho)}"))
        if sizes is not None:
            inst = f"sizes={sizes},rho={fmt(rho)}"
            rows.extend(disks_mod.unequal_converse_rows(joint, scheme, sizes, nu, eta, rho, inst))
            h = renyi_cond_entropy(joint, RenyiOrder.from_rho(rho))
            rows.extend(disks_mod.equal_size_envelope_rows(sizes, nu, eta, rho, h, len(joint.x_alphabet)))
    return rows


def _distortion_spec(joint: JointPmf, section: dict) -> DistortionSpec:
    from .distortion import DistortionSpec

    spec = _read(section, "'distortion'", DISTORTION)
    if spec["hamming"]:
        return DistortionSpec.hamming(joint.x_alphabet, spec["delta"])
    xhat, d = spec["xhat"], spec["d"]
    table = isinstance(d, list) and all(isinstance(r, list) and all(isinstance(v, (int, float)) for v in r) for r in d)
    if not isinstance(xhat, list) or not table:  # the spec refuses a non-finite or negative entry
        raise ConfigError("config error: a non-Hamming 'distortion' needs a list 'xhat' and a table 'd' of numbers")
    return DistortionSpec(joint.x_alphabet, tuple(xhat), d, spec["delta"])


def cmd_distortion(cfg: dict, args) -> list[ReportRow]:
    from .distortion import (
        brute_optimal_distortion_guessers,
        greedy_cover_guesser,
        order_search_steps,
        tuple_product,
    )

    joint = _load_source(cfg["source"], args)
    spec = _distortion_spec(joint, cfg["distortion"])
    n, rhos, bits = cfg["n"], cfg["rho"], args.budget.bit_length()  # k^n >= 2^n for k >= 2: no power of a large n
    tuples = sum(k ** min(n, bits) for k in (len(joint.x_alphabet) * len(joint.y_alphabet), len(spec.xhat_alphabet)))
    _gate(args, "the symbols in the n-tuples of X x Y and Xhat", n * tuples)
    steps = order_search_steps(len(joint.y_alphabet) ** n, len(spec.xhat_alphabet) ** n, args.budget)
    _gate(args, "the order search's 2^m*m steps per context tuple, m = |Xhat|^n,", steps)
    oracle = brute_optimal_distortion_guessers(spec, joint, n, rhos, args.budget)  # one call for every rho
    greedy, big = greedy_cover_guesser(spec, joint, n), tuple_product(joint, n)
    rows = []
    for rho, (_, opt) in zip(rhos, oracle):
        gval = greedy.moment(big, rho)
        rows.append(ReportRow("distortion", f"rho={fmt(rho)},n={n}", "greedy-above-oracle", ">=", gval, opt))
    return rows


def cmd_exponent(cfg: dict, args) -> list[ReportRow]:
    from .bounds import disk_exponents, two_hint_exponents

    disk = cfg["rates"].get("rate_s") is not None
    rates = _read(cfg["rates"], "'rates'", DISK_RATES if disk else RATES)
    functional = not disk and cfg["distortion"] is not None
    h, rhos, dump = cfg["entropy_rate"], cfg["rho"], cfg["dump_witness"]
    if h is None and not functional:
        raise ConfigError("config error: missing 'entropy_rate'")
    if dump:
        if not functional:
            raise ConfigError("config error: only a 'distortion' section's functional has a witness for 'dump_witness'")
        if not isinstance(dump, str):
            raise ConfigError(f"config error: 'dump_witness' must be a file name, not {dump!r}")
        if len(rhos) > 1:
            raise ConfigError("config error: 'dump_witness' holds the witness of one rho; give one 'rho'")
        _check_writable(dump)
    if functional:
        from .exponents import RdQuery, rd_exponent_functional, rd_privacy_exponent

        joint = _load_source(cfg["source"], args)
        spec = _distortion_spec(joint, cfg["distortion"])
        starts = cfg["grid_points"] * len(joint.x_alphabet) * len(joint.y_alphabet)
        _gate(args, "the functional's starts grid_points*|X||Y|", starts)
        controls = RdQuery(grid_points=cfg["grid_points"], seed=args.seed)
    rows = []
    for rho in rhos:
        inst = f"rho={fmt(rho)}"
        if disk:
            out = disk_exponents(rates["rate_s"], rates["nu"], rates["eta"], rho, h, rates["e_bob"])
            rows.append(ReportRow("exponent", inst, "disk-exponent", "==", out.value, out.value))
            continue
        if functional:
            func = rd_exponent_functional(joint, spec, rho, controls)
            rows.append(ReportRow("exponent", inst, "rd-functional", "==", func.value, func.value))
            if dump:
                _write(dump, func.witness.to_json())
        exponent, value = (rd_privacy_exponent, func.value) if functional else (two_hint_exponents, h)
        out = exponent(rates["r1"], rates["r2"], rho, value, rates["e_bob"])
        label = "boundary-flagged" if out.boundary else "two-hint-exponent"
        rows.append(ReportRow("exponent", inst, label, "==", out.value, out.value))
    return rows


def cmd_battery(cfg: dict, args) -> list[ReportRow]:
    """A deterministic battery over the bundled desk-scale instances."""
    from . import disks as disks_mod, twohint as twohint_mod
    from .bounds import list_room

    uniform4 = JointPmf.from_marginal(Pmf.uniform(4, exact=True))
    skew = JointPmf.from_marginal(Pmf.of([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)], exact=True))
    rows = []
    for rho in cfg["rho"]:
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
    for rho in cfg["rho"]:
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
    parser.add_argument("--budget", type=int, default=1 << 22, help="bound on every count a config sets (see above)")
    parser.add_argument("--rational", action="store_true", help="exact rational probabilities")
    parser.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    args = parser.parse_args(argv)

    try:
        cfg = _read({} if args.config is None else _read_config(args.config), "the config", KEYS[args.command])
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
