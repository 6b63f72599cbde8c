"""Span tracing around hintlock's public functions, installed from outside the package.

`Tracer.install()` replaces each target function by a wrapper in every
`hintlock` module namespace that holds it (methods are replaced on their
class), and `Tracer.uninstall()` puts every original binding back.  A target
that no longer exists is recorded in `Tracer.absent` and skipped, so the
harness keeps working when a refactor deletes or renames a function.

Spans (name, start, end, parent) are kept in memory; per-layer statistics
are derived from them afterwards.  Untraced benchmark runs never create a
Tracer, so they run the program's own bindings.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (module, qualified name) under `hintlock`, grouped by layer.
TARGETS = (
    ("adversary", "eve_exact_matching"),
    ("adversary", "bob_minmax_bracket"),
    ("adversary", "moment_for_assignment"),
    ("adversary", "eve_exact_enumeration"),
    ("adversary", "eve_local_search"),
    ("twohint", "build_two_hint"),
    ("twohint", "build_secret_hint"),
    ("twohint", "build_secret_key"),
    ("twohint", "build_eve_list_scheme"),
    ("twohint", "verify_finite_blocklength"),
    ("twohint", "verify_secret_hint"),
    ("twohint", "verify_secret_key"),
    ("twohint", "verify_eve_list"),
    ("twohint", "bob_ambiguity"),
    ("twohint", "eve_ambiguity_exact"),
    ("twohint", "eve_ambiguity_weak"),
    ("disks", "build_delta_scheme"),
    ("disks", "check_reconstruction"),
    ("disks", "check_eta_independence"),
    ("disks", "bob_ambiguity_minmax"),
    ("disks", "eve_ambiguity_minmin"),
    ("disks", "verify_disk_theorems"),
    ("gf", "GenMatrix.encode"),
    ("gf", "rs_generator"),
    ("prob", "renyi_cond_entropy"),
    ("prob", "kl_divergence"),
    ("guessing", "optimal_guesser"),
    ("exponents", "rd_function"),
    ("exponents", "rd_exponent_functional"),
    ("cli", "main"),
    ("report", "rows_to_csv"),
    ("tasks", "bunte_bounds"),
    ("distortion", "brute_optimal_distortion_guesser"),
    ("distortion", "greedy_cover_guesser"),
)

# Fallback oracles: only their call count matters (0 while the exact oracles hold).
CALLS_ONLY = frozenset({"adversary.eve_exact_enumeration", "adversary.eve_local_search"})
MATCHING = "adversary.eve_exact_matching"
BUILDERS = frozenset(
    {
        "twohint.build_two_hint",
        "twohint.build_secret_hint",
        "twohint.build_secret_key",
        "twohint.build_eve_list_scheme",
        "disks.build_delta_scheme",
    }
)
IMPORT_METRICS = ("import.hintlock_s", "import.scipy_s", "import.numpy_s")
OVERHEAD = "trace.overhead_s"


def target_names() -> list[str]:
    return [f"{module}.{qualname}" for module, qualname in TARGETS]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in report order."""
    units: dict[str, str] = {}
    for name in target_names():
        units[f"{name}.calls"] = "count"
        if name in CALLS_ONLY:
            continue
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name == MATCHING:
            units[f"{name}.cells"] = "count"
            units[f"{name}.largest_component_cells"] = "count"
        if name in BUILDERS:
            units[f"{name}.law_cells"] = "count"
    for name in IMPORT_METRICS:
        units[name] = "s"
    units[OVERHEAD] = "s"
    return units


def _component_sizes(cells) -> list[int]:
    """Sizes of the connected components of cells that share a context."""
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict = {}
    for i, cell in enumerate(cells):
        for ctx in cell.views:
            j = owner.setdefault(ctx, i)
            if j != i:
                parent[find(i)] = find(j)
    sizes: dict = {}
    for i in range(len(cells)):
        root = find(i)
        sizes[root] = sizes.get(root, 0) + 1
    return list(sizes.values())


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        importlib.import_module("hintlock")
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            try:
                mod = importlib.import_module(f"hintlock.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, namespace in list(sys.modules.items()):
                if namespace is None or not (mod_name == "hintlock" or mod_name.startswith("hintlock.")):
                    continue
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._rebind(namespace, key, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_cells = name == MATCHING
        count_law = name in BUILDERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_cells:
                self._count_cells(args[0] if args else kwargs.get("cells"))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if count_law:
                self._count_law(name, result)
            return result

        return wrapper

    def _count_cells(self, cells) -> None:
        try:
            sizes = _component_sizes(cells)
        except (AttributeError, TypeError):
            return
        self._add(f"{MATCHING}.cells", len(cells))
        key = f"{MATCHING}.largest_component_cells"
        self.maxima[key] = max(self.maxima.get(key, 0), max(sizes, default=0))

    def _count_law(self, name: str, scheme) -> None:
        try:
            self._add(f"{name}.law_cells", len(scheme.law))
        except (AttributeError, TypeError):
            pass

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- spans from other processes -----------------------------------------

    def dump(self) -> str:
        return json.dumps({"spans": self.spans, "counters": self.counters, "maxima": self.maxima})

    def merge(self, text: str) -> None:
        doc = json.loads(text)
        offset = len(self.spans)
        for name, start, end, parent in doc["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
        for key, value in doc["counters"].items():
            self._add(key, value)
        for key, value in doc["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    # -- statistics ---------------------------------------------------------

    def layer_stats(self, batches: int) -> dict[str, float]:
        """Per-batch calls, total and self time of every target, plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child_time[i])
        per = max(batches, 1)
        out: dict[str, float] = {}
        for name in target_names():
            out[f"{name}.calls"] = calls.get(name, 0) / per
            if name in CALLS_ONLY:
                continue
            out[f"{name}.total_s"] = total.get(name, 0.0) / per
            out[f"{name}.self_s"] = own.get(name, 0.0) / per
            if name == MATCHING:
                out[f"{name}.cells"] = self.counters.get(f"{name}.cells", 0) / per
                key = f"{name}.largest_component_cells"
                out[key] = self.maxima.get(key, 0)
            if name in BUILDERS:
                out[f"{name}.law_cells"] = self.counters.get(f"{name}.law_cells", 0) / per
        return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds from `python -X importtime` output.

    hintlock: cumulative time of the top-level package (numpy and scipy
    included).  scipy / numpy: summed self time of their own modules.
    """
    out = {name: 0.0 for name in IMPORT_METRICS}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        self_us, cumulative_us, module = int(fields[0]), int(fields[1]), fields[2].strip()
        if module == "hintlock":
            out["import.hintlock_s"] = cumulative_us / 1e6
        root = module.split(".")[0]
        if root in ("scipy", "numpy"):
            out[f"import.{root}_s"] += self_us / 1e6
    return out


def median_imports(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in IMPORT_METRICS}
