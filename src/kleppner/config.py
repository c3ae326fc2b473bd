"""Instance configs: a small sectioned key=value dialect with exact diagnostics.

Grammar (one file = one instance):

    [basis]                 # optional
    symbols = theta beta1   # whitespace/comma separated names

    [params]                # optional named phases (dependent parameters)
    theta1 = 1/3 + (2)theta3

    [group]
    kind = free_abelian | free | heisenberg | finite | product
    rank = 2                # free_abelian (at most RANK_CAP), free
    name = "Z_4"            # finite builtin, or table = [[...], ...]
    [group.left] / [group.right]   # factors of a product

    [subgroup]
    kind = full | trivial | sublattice | coordinate_zero | congruence |
           finite_subset | generated | product
    columns = [[1,0],[0,3]] ; coords = [0] ; modulus = 3 ;
    elements = ["0","2"]    ; generators = ["ab", "b^2"]
    [subgroup.left] / [subgroup.right]

    [cocycle]
    kind = trivial | bicharacter | rotation | three_torus | heisenberg |
           f2z2 | table | product | similarity
    matrix = [["0","(1/2)theta"],["-(1/2)theta","0"]]  # phase strings
    theta = theta ; gamma = 0 ; thetas = [...] ; j = 1 ; table = [[...]]
    beta = seeded ; beta_seed = 1 ; beta_denominator = 8   # similarity
    [cocycle.base] / [cocycle.left] / [cocycle.right]

    [run]
    analyses = validate kleppner relative-kleppner centralizers verdict lattice oracle
    seed = 0 ; max_lattice = 8   # seed is only recorded; max_lattice <= LATTICE_CAP

Values are bare words, quoted strings, or JSON arrays.  Unknown keys and kinds
are rejected with the offending line.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from .cocycles import (BicharacterCocycle, Cocycle, F2Z2Cocycle, HeisenbergCocycle,
                       PhaseTableCocycle, ProductCocycle, SeededBeta,
                       TrivialCocycle, rotation_cocycle, similarity_transform,
                       three_torus_cocycle)
from .groups.abelian import FreeAbelian
from .groups.base import Group, GroupError
from .groups.finite import FiniteTable, from_name
from .groups.free import FreeGroup
from .groups.heisenberg import Heisenberg
from .groups.product import DirectProduct
from .groups.subgroups import Subgroup
from .oracle import ORDER_CAP
from .phases import EMPTY_BASIS, IrrationalBasis, Phase, PhaseParseError, parse_phase

# the largest free abelian rank a config may ask for: the engine's work grows
# steeply with the rank (rank 256 takes seconds to validate and decide)
RANK_CAP = 64

# the most intermediate-lattice entries a config may ask for: each entry is a
# subgroup in the report, so the report and memory grow linearly with it
LATTICE_CAP = 1000

ANALYSES = ("validate", "kleppner", "relative-kleppner", "centralizers",
            "verdict", "lattice", "oracle")


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass
class _Entry:
    value: str
    line: int


@dataclass
class _Sections:
    data: dict[str, dict[str, _Entry]] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)

    def section(self, name: str) -> Optional[dict[str, _Entry]]:
        return self.data.get(name)


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.-]+)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.*)$")


def _tokenize(text: str) -> _Sections:
    out = _Sections()
    current: Optional[str] = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        raw = lines[i]
        i += 1
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            current = m.group(1).lower()
            if current in out.data:
                raise ConfigError(f"duplicate section [{current}]", lineno)
            out.data[current] = {}
            out.lines[current] = lineno
            continue
        m = _KEY_RE.match(line.strip())
        if not m:
            col = len(raw) - len(raw.lstrip()) + 1
            raise ConfigError(f"expected 'key = value' or '[section]', got {line.strip()!r}",
                              lineno, col)
        if current is None:
            raise ConfigError("key outside any section", lineno)
        key = m.group(1).lower()
        if key in out.data[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        value = m.group(2).strip()
        # bracketed values may continue over several lines
        while value.count("[") > value.count("]"):
            if i >= len(lines):
                raise ConfigError(f"unterminated bracket in value of {key!r}", lineno)
            value += " " + lines[i].split("#", 1)[0].strip()
            i += 1
        out.data[current][key] = _Entry(value, lineno)
    return out


def _unquote(v: str) -> str:
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "'\"":
        return v[1:-1]
    return v


class _SectionView:
    def __init__(self, name: str, entries: dict[str, _Entry]) -> None:
        self.name = name
        self.entries = entries
        self.used: set[str] = set()

    def get(self, key: str, default: str | None = None) -> str | None:
        self.used.add(key)
        e = self.entries.get(key)
        return _unquote(e.value) if e else default

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None:
            raise ConfigError(f"missing key {key!r} in [{self.name}]")
        return v

    def get_int(self, key: str, default: int | None = None) -> int | None:
        v = self.get(key)
        if v is None:
            return default
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {v!r}",
                              self.entries[key].line) from None

    def get_json(self, key: str) -> Any:
        v = self.get(key)
        if v is None:
            return None
        try:
            return json.loads(v)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{key} is not valid JSON: {exc.msg}",
                              self.entries[key].line, exc.colno) from None

    def get_list(self, key: str, rows: bool = False, ints: bool = False) -> list | None:
        """The JSON array under ``key`` (None when absent): an array of arrays
        when ``rows``, with integer entries when ``ints``."""
        v = self.get_json(key)
        if v is None:
            return None
        ok = isinstance(v, list) and (not rows or all(isinstance(r, list) for r in v))
        if ok and ints:
            ok = all(type(x) is int for x in (itertools.chain(*v) if rows else v))
        if not ok:
            shape = ("list of lists" if rows else "list") + (" of integers" if ints else "")
            raise ConfigError(f"{key} in [{self.name}] must be a JSON {shape}",
                              self.entries[key].line)
        return v

    def line_of(self, key: str) -> int | None:
        e = self.entries.get(key)
        return e.line if e else None

    def check_unknown(self) -> None:
        stray = set(self.entries) - self.used
        if stray:
            key = sorted(stray)[0]
            raise ConfigError(f"unknown key {key!r} in [{self.name}]",
                              self.entries[key].line)


@dataclass
class InstanceConfig:
    basis: IrrationalBasis
    params: dict[str, Phase]
    group: Group
    subgroup: Subgroup
    cocycle: Cocycle
    analyses: tuple[str, ...]
    seed: int
    max_lattice: int
    name: str = "instance"


def parse_config(text: str, name: str = "instance") -> InstanceConfig:
    sections = _tokenize(text)
    known_roots = {"basis", "params", "group", "subgroup", "cocycle", "run"}
    for sec in sections.data:
        root = sec.split(".", 1)[0]
        if root not in known_roots:
            raise ConfigError(f"unknown section [{sec}]", sections.lines[sec])

    basis = _parse_basis(sections)
    params = _parse_params(sections, basis)
    group = _parse_group(sections, "group")
    subgroup = _parse_subgroup(sections, "subgroup", group)
    cocycle = _parse_cocycle(sections, "cocycle", group, basis, params)
    run = sections.section("run")
    analyses: tuple[str, ...] = ("validate", "verdict")
    seed, max_lattice = 0, 8
    if run is not None:
        view = _SectionView("run", run)
        analyses_line = view.line_of("analyses")
        raw = view.get("analyses")
        if raw is not None:
            parts = tuple(p for p in re.split(r"[,\s]+", raw) if p)
            for p in parts:
                if p not in ANALYSES:
                    raise ConfigError(f"unknown analysis {p!r} (choose from {', '.join(ANALYSES)})",
                                      analyses_line)
            analyses = parts
        seed = view.get_int("seed", seed)
        max_lattice = view.get_int("max_lattice", max_lattice)
        if max_lattice < 1:
            raise ConfigError("max_lattice must be at least 1", view.line_of("max_lattice"))
        if max_lattice > LATTICE_CAP:
            raise ConfigError(f"max_lattice {max_lattice} exceeds the lattice cap {LATTICE_CAP}",
                              view.line_of("max_lattice"))
        view.check_unknown()
        if "oracle" in analyses:
            _check_oracle(group, analyses_line)
    return InstanceConfig(basis, params, group, subgroup, cocycle, analyses,
                          seed, max_lattice, name)


def _check_oracle(group: Group, line: int | None) -> None:
    """Refuse an oracle run that the oracle would refuse, before any analysis."""
    if not group.is_finite:
        raise ConfigError("the oracle analysis needs a finite group", line)
    if not isinstance(group, FiniteTable):
        raise ConfigError("the oracle analysis needs a finite table group, not a product", line)
    if group.order > ORDER_CAP:
        raise ConfigError(f"order {group.order} exceeds the oracle cap {ORDER_CAP}", line)


def _parse_basis(sections: _Sections) -> IrrationalBasis:
    sec = sections.section("basis")
    if sec is None:
        return EMPTY_BASIS
    view = _SectionView("basis", sec)
    raw = view.get("symbols", "")
    view.check_unknown()
    symbols = tuple(s for s in re.split(r"[,\s]+", raw) if s)
    try:
        return IrrationalBasis(symbols)
    except ValueError as exc:
        raise ConfigError(str(exc), view.line_of("symbols")) from None


def _parse_params(sections: _Sections, basis: IrrationalBasis) -> dict[str, Phase]:
    sec = sections.section("params")
    if sec is None:
        return {}
    out: dict[str, Phase] = {}
    for key, entry in sec.items():
        if key in basis:
            raise ConfigError(f"{key!r} is declared both as a basis symbol and as a "
                              "parameter value", entry.line)
        try:
            out[key] = parse_phase(_unquote(entry.value), basis, out)
        except PhaseParseError as exc:
            raise ConfigError(str(exc), entry.line) from None
    return out


def _parse_group(sections: _Sections, path: str) -> Group:
    sec = sections.section(path)
    if sec is None:
        raise ConfigError(f"missing [{path}] section")
    view = _SectionView(path, sec)
    kind = view.require("kind").lower()
    try:
        if kind == "free_abelian":
            rank = view.get_int("rank", 2)
            if rank > RANK_CAP:
                raise ConfigError(f"free_abelian rank {rank} exceeds the rank cap {RANK_CAP}",
                                  view.line_of("rank"))
            g: Group = FreeAbelian(rank)
        elif kind == "free":
            g = FreeGroup(view.get_int("rank", 2))
        elif kind == "heisenberg":
            g = Heisenberg()
        elif kind == "finite":
            name = view.get("name")
            table = view.get_list("table", rows=True, ints=True)
            if (name is None) == (table is None):
                raise ConfigError(f"finite group needs exactly one of name/table in [{path}]",
                                  sections.lines[path])
            if table is not None and any(len(row) != len(table) for row in table):
                raise ConfigError(f"table in [{path}] must be square", view.line_of("table"))
            g = from_name(name) if name else FiniteTable(table, name="custom")
        elif kind == "product":
            g = DirectProduct(_parse_group(sections, path + ".left"),
                              _parse_group(sections, path + ".right"))
        else:
            raise ConfigError(f"unknown group kind {kind!r}", view.line_of("kind"))
    except GroupError as exc:
        raise ConfigError(str(exc), sections.lines.get(path)) from None
    view.check_unknown()
    return g


def _parse_subgroup(sections: _Sections, path: str, group: Group) -> Subgroup:
    sec = sections.section(path)
    if sec is None:
        return Subgroup.full(group)
    view = _SectionView(path, sec)
    kind = view.require("kind").lower()
    try:
        if kind == "full":
            sub = Subgroup.full(group)
        elif kind == "trivial":
            sub = Subgroup.trivial(group)
        elif kind == "sublattice":
            cols = view.get_list("columns", rows=True, ints=True)
            if cols is None:
                raise ConfigError(f"sublattice needs columns = [[...]] in [{path}]",
                                  sections.lines[path])
            sub = Subgroup.sublattice(group, [tuple(c) for c in cols])
        elif kind == "coordinate_zero":
            coords = view.get_list("coords", ints=True)
            if coords is None:
                raise ConfigError(f"coordinate_zero needs coords = [...] in [{path}]",
                                  sections.lines[path])
            sub = Subgroup.coordinate_zero(group, set(coords))
        elif kind == "congruence":
            sub = Subgroup.heis_congruence(group, view.get_int("modulus", 1))
        elif kind == "finite_subset":
            elems = view.get_list("elements")
            if elems is None:
                raise ConfigError(f"finite_subset needs elements = [...] in [{path}]",
                                  sections.lines[path])
            sub = Subgroup.finite_subset(group, [group.parse_element(str(e)) for e in elems])
        elif kind == "generated":
            gens = view.get_list("generators")
            if gens is None:
                raise ConfigError(f"generated needs generators = [...] in [{path}]",
                                  sections.lines[path])
            sub = Subgroup.generated(group, [group.parse_element(str(g)) for g in gens])
        elif kind == "product":
            if not isinstance(group, DirectProduct):
                raise ConfigError("product subgroup needs a product group",
                                  sections.lines[path])
            sub = Subgroup.product(group,
                                   _parse_subgroup(sections, path + ".left", group.left),
                                   _parse_subgroup(sections, path + ".right", group.right))
        else:
            raise ConfigError(f"unknown subgroup kind {kind!r}", view.line_of("kind"))
    except GroupError as exc:
        raise ConfigError(str(exc), sections.lines.get(path)) from None
    view.check_unknown()
    return sub


def _phase(view: _SectionView, key: str, basis: IrrationalBasis,
           params: dict[str, Phase], default: str | None = None) -> Phase:
    raw = view.get(key, default)
    if raw is None:
        raise ConfigError(f"missing phase {key!r} in [{view.name}]")
    try:
        return parse_phase(raw, basis, params)
    except PhaseParseError as exc:
        raise ConfigError(str(exc), view.line_of(key)) from None


def _parse_cocycle(sections: _Sections, path: str, group: Group,
                   basis: IrrationalBasis, params: dict[str, Phase]) -> Cocycle:
    sec = sections.section(path)
    if sec is None:
        return TrivialCocycle(group, basis)
    view = _SectionView(path, sec)
    kind = view.require("kind").lower()
    try:
        if kind == "trivial":
            c: Cocycle = TrivialCocycle(group, basis)
        elif kind == "bicharacter":
            rows = view.get_list("matrix", rows=True)
            if rows is None:
                raise ConfigError(f"bicharacter needs matrix = [[...]] in [{path}]",
                                  sections.lines[path])
            mat = [[parse_phase(str(x), basis, params) for x in row] for row in rows]
            c = BicharacterCocycle(group, mat)
        elif kind == "rotation":
            c = rotation_cocycle(group, _phase(view, "theta", basis, params))
        elif kind == "three_torus":
            raw = view.get_list("thetas")
            if raw is None or len(raw) != 3:
                raise ConfigError(f"three_torus needs thetas = [t1, t2, t3] in [{path}]",
                                  sections.lines[path])
            c = three_torus_cocycle(group, [parse_phase(str(x), basis, params) for x in raw])
        elif kind == "heisenberg":
            c = HeisenbergCocycle(group, _phase(view, "gamma", basis, params, "0"),
                                  _phase(view, "theta", basis, params, "0"))
        elif kind == "f2z2":
            c = F2Z2Cocycle(group, view.get_int("j", 1))
        elif kind == "table":
            rows = view.get_list("table", rows=True)
            if rows is None:
                raise ConfigError(f"table cocycle needs table = [[...]] in [{path}]",
                                  sections.lines[path])
            mat = [[parse_phase(str(x), basis, params) for x in row] for row in rows]
            c = PhaseTableCocycle(group, mat)
        elif kind == "product":
            if not isinstance(group, DirectProduct):
                raise ConfigError("product cocycle needs a product group",
                                  sections.lines[path])
            c = ProductCocycle(group,
                               _parse_cocycle(sections, path + ".left", group.left, basis, params),
                               _parse_cocycle(sections, path + ".right", group.right, basis, params))
        elif kind == "similarity":
            base = _parse_cocycle(sections, path + ".base", group, basis, params)
            style = view.get("beta", "seeded").lower()
            if style != "seeded":
                raise ConfigError(f"unknown beta style {style!r} (only 'seeded' is file-"
                                  "representable)", view.line_of("beta"))
            beta = SeededBeta(group, view.get_int("beta_seed", 0),
                              view.get_int("beta_denominator", 8), base.basis)
            c = similarity_transform(base, beta)
        else:
            raise ConfigError(f"unknown cocycle kind {kind!r}", view.line_of("kind"))
    except (GroupError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), sections.lines.get(path)) from None
    view.check_unknown()
    return c
