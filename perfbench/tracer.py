"""Per-layer tracing of the kleppner package, installed from outside it.

`Tracer.install` replaces every public function of every `kleppner.*` module
with a wrapper that records a span (calls and self time), wherever a
`kleppner.*` module binds that function, plus a few methods that hold the
measured hot spots.  `Tracer.uninstall` puts every original binding back.
The program itself is never edited; an untraced run calls the originals and
`assert_untraced` proves it.

Self time of a span is its duration minus the time covered by its child
spans.  Counts that the program does not expose are read from its results
(`ValidationResult.checks`, the strategy labels in `TriBool.notes`, the rule
that closes a `Verdict` chain).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter, defaultdict

import kleppner
from kleppner.groups.abelian import FreeAbelian
from kleppner.groups.finite import FiniteTable
from kleppner.tribool import UNKNOWN

# Attribute set on every wrapper; `assert_untraced` looks for it.
MARK = "_perfbench_original"

# (module, class, method, span name): methods traced as spans.
METHOD_SPANS = (
    ("kleppner.groups.finite", "FiniteTable", "all_subgroups", "groups.all_subgroups"),
    ("kleppner.intlinalg", "RowLattice", "small_nonzero", "intlinalg.small_nonzero"),
)
# Constructors counted without a span: they are too hot for one.
COUNTED_INITS = (("kleppner.phases", "Phase", "phases.Phase.constructed"),)

STRATEGIES = "abcdxe"
RULES = (
    "normality-gate", "finite-exact-kleppner", "abelian-exact-kleppner",
    "csimple-twisted-centralizer", "prime-fch-twisted-centralizer",
    "prime-twisted-centralizer", "untwisted-irreducible-lifts",
    "fch-or-csimple-relative-kleppner", "simple-plus-relative-kleppner",
    "kleppner-center", "untwisted-cstar-simple", "kleppner-necessary",
    "none", "other",
)


def kleppner_modules() -> list:
    """Every module of the package, imported."""
    for info in pkgutil.walk_packages(kleppner.__path__, "kleppner."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "kleppner" or name.startswith("kleppner.")]


def _public_functions(module) -> list:
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def strategy_labels(G, H, result) -> tuple[str, str]:
    """(tried, decided) strategy letters of one relative_kleppner result.

    The deciding strategy is the label that opens the first note, or the
    reason of an unknown.  The strategies tried before it follow from the
    chain order documented in `kleppner.regularity`: (a) alone on finite
    tables; otherwise (b), then (c) when H is not all of G, then (d) on free
    abelian groups, then (x), then (e).  (x) counts as tried on an undecided
    result only when a note names it.
    """
    text = result.notes[0] if result.notes else result.reason
    label = text[1] if text[:1] == "(" and text[2:3] == ")" else "e"
    if isinstance(G, FiniteTable):
        return "a", ("a" if result.status != UNKNOWN else "")
    chain = "b" + ("" if H.is_full() else "c") + ("d" if isinstance(G, FreeAbelian) else "")
    if label == "e":
        return chain + ("x" if "(x)" in result.reason else "") + "e", ""
    chain += "x"
    tried = chain[:chain.index(label) + 1] if label in chain else chain
    return tried, (label if result.status != UNKNOWN else "")


class Tracer:
    """Spans and counters for one traced run.  Records only while `active`."""

    def __init__(self) -> None:
        self.active = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn, after=None):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.self_s[name] += dt - stack.pop()
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                tracer.active = False
                try:
                    after(args, kwargs, result)
                finally:
                    tracer.active = True
            return result

        setattr(functools.wraps(fn)(wrapper), MARK, fn)
        return wrapper

    def _counter(self, name: str, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        setattr(functools.wraps(fn)(wrapper), MARK, fn)
        return wrapper

    # -- result readers -------------------------------------------------------
    def _after_validation(self, args, kwargs, result) -> None:
        self.counts["cocycles.triples"] += result.triples
        self.counts["cocycles.checks"] += result.checks

    def _after_relative_kleppner(self, args, kwargs, result) -> None:
        G = args[0] if args else kwargs["G"]
        H = args[1] if len(args) > 1 else kwargs["H"]
        tried, decided = strategy_labels(G, H, result)
        for s in tried:
            self.counts[f"regularity.strategy.{s}.tried"] += 1
        if decided:
            self.counts[f"regularity.strategy.{decided}.decided"] += 1

    def _after_verdict(self, args, kwargs, result) -> None:
        rule = result.chain[-1].rule if result.chain else "none"
        self.counts[f"verdicts.rule.{rule if rule in RULES else 'other'}"] += 1

    # -- install / uninstall ----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "cocycles.validate_cocycle": self._after_validation,
            "cocycles.check_twist_identities": self._after_validation,
            "regularity.relative_kleppner": self._after_relative_kleppner,
            "verdicts.cstar_irreducible": self._after_verdict,
            "verdicts.twisted_simplicity": self._after_verdict,
        }
        modules = kleppner_modules()
        wrappers = {}
        for module in modules:
            short = module.__name__.removeprefix("kleppner.")
            for name, fn in _public_functions(module):
                span = f"{short}.{name}"
                wrappers[fn] = self._span(span, fn, after.get(span))
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, name, wrappers[value])
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self._span(span, vars(cls)[meth]))
        for mod_name, cls_name, count in COUNTED_INITS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, "__init__", self._counter(count, vars(cls)["__init__"]))

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(wrapper, MARK)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- readout ---------------------------------------------------------------
    def flat(self) -> dict[str, float]:
        """Every span's self time and call count, and every counter."""
        out: dict[str, float] = dict(self.counts)
        for name, value in self.self_s.items():
            out[f"{name}.self_s"] = value
        for name, value in self.calls.items():
            out[f"{name}.calls"] = value
        return out


def assert_untraced() -> None:
    """Raise unless every kleppner function and traced method is an original."""
    wrapped = []
    for module in kleppner_modules():
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, MARK):
                wrapped.append(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        wrapped.append(f"{module.__name__}.{name}.{attr}")
    if wrapped:
        raise AssertionError(f"tracing wrappers left installed: {wrapped[:5]}")


def layer_metrics(flat: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from a flat readout."""

    def get(key: str) -> float:
        return flat.get(key, 0)

    out = {
        "config.parse_config.self_s": get("config.parse_config.self_s"),
        "cocycles.validate_cocycle.self_s": get("cocycles.validate_cocycle.self_s"),
        "cocycles.check_twist_identities.self_s": get("cocycles.check_twist_identities.self_s"),
        "cocycles.triples": get("cocycles.triples"),
        "cocycles.checks": get("cocycles.checks"),
        "cocycles.commutation_phase.calls": get("cocycles.commutation_phase.calls"),
        "phases.Phase.constructed": get("phases.Phase.constructed"),
        "randomized.random_table_cocycle.self_s": get("randomized.random_table_cocycle.self_s"),
        "groups.all_subgroups.self_s": get("groups.all_subgroups.self_s"),
        "oracle.build_regular_rep.self_s": get("oracle.build_regular_rep.self_s"),
        "oracle.relative_commutant_dim.self_s": get("oracle.relative_commutant_dim.self_s"),
        "oracle.instances": get("oracle.relative_commutant_dim.calls"),
        "regularity.relative_kleppner.self_s": get("regularity.relative_kleppner.self_s"),
        "regularity.kleppner.self_s": get("regularity.kleppner.self_s"),
        "regularity.sigma_centralizer.self_s": get("regularity.sigma_centralizer.self_s"),
        "groups.structure.self_s": sum(v for k, v in flat.items()
                                       if k.startswith("groups.structure.")
                                       and k.endswith(".self_s")),
        "intlinalg.small_nonzero.self_s": get("intlinalg.small_nonzero.self_s"),
        "intlinalg.small_nonzero.calls": get("intlinalg.small_nonzero.calls"),
        "intlinalg.smith_normal_form.calls": get("intlinalg.smith_normal_form.calls"),
        "verdicts.cstar_irreducible.self_s": get("verdicts.cstar_irreducible.self_s"),
        "verdicts.intermediate_lattice.self_s": get("verdicts.intermediate_lattice.self_s"),
    }
    tried = decided = 0
    for s in STRATEGIES:
        out[f"regularity.strategy.{s}.decided"] = get(f"regularity.strategy.{s}.decided")
        out[f"regularity.strategy.{s}.tried"] = get(f"regularity.strategy.{s}.tried")
        tried += out[f"regularity.strategy.{s}.tried"]
        decided += out[f"regularity.strategy.{s}.decided"]
    out["regularity.decided_per_tried"] = decided / tried if tried else 0.0
    for rule in RULES:
        out[f"verdicts.rule.{rule}"] = get(f"verdicts.rule.{rule}")
    return out
