import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from references import reference_twist_scan
from test_cocycles import (TWIST_FAILURES, reference_validate, symmetric_non_cocycle,
                           twist_failure_table)
from test_verdicts import _restriction_instances

import kleppner.report as report_mod
from kleppner.cli import main
from kleppner.cocycles import (CocycleError, PhaseTableCocycle, ProductCocycle, SeededBeta,
                               SimilarityCocycle, TrivialCocycle, transport, validate_cocycle)
from kleppner.config import (ANALYSES, LATTICE_CAP, RANK_CAP, ConfigError, InstanceConfig,
                             parse_config)
from kleppner.groups import DirectProduct, from_name, is_normal
from kleppner.groups.subgroups import Classification
from kleppner.report import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.tomlish"))
GOLDEN = Path(__file__).resolve().parent / "golden"
# documented verdicts of the shipped fixtures
CONCLUSIONS = {"nct_pq": "holds", "nct_three_torus": "holds",
               "nct_three_torus_dependent": "fails", "heisenberg": "holds",
               "heisenberg_rational": "fails", "f2z2_sigma": "holds"}


def test_fixture_dir_is_populated():
    names = {p.name for p in ALL_FIXTURES}
    assert {"nct_pq.tomlish", "nct_three_torus.tomlish", "heisenberg.tomlish",
            "f2z2_sigma.tomlish", "z2z2_oracle.tomlish"} <= names


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixtures_parse_and_run(path):
    config = parse_config(path.read_text(), name=path.stem)
    report = run(config)
    payload = report.to_dict(include_timing=False)
    assert payload["instance"] == path.stem
    if "validate" in config.analyses:
        assert payload["validate"]["passed"]
    if "oracle" in config.analyses:
        assert payload["oracle"]["route_a"] == payload["oracle"]["route_b"]
    if path.stem in CONCLUSIONS:
        assert payload["verdict"]["conclusion"] == CONCLUSIONS[path.stem]
    # the whole report, timing aside, is pinned byte for byte
    golden = (GOLDEN / f"{path.stem}.json").read_text()
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == golden


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_subgroup_simplicity_notes_name_elements_of_g(path):
    # (H, sigma|_H) is decided inside G, so an element a note names is an
    # element of G, never a coordinate vector of H's own
    config = parse_config(path.read_text(), name=path.stem)
    payload = run(config).to_dict(include_timing=False)
    notes = payload.get("subgroup-simplicity", {}).get("notes", [])
    named = [m for note in notes for m in re.findall(r"contains (\(.*\))$", note)]
    for text in named:
        config.group.parse_element(text)
    assert named or path.stem != "heisenberg_rational"


# one non-normal H in each group kind whose is_normal gives a pair (s, h)
NON_NORMAL = {
    "S_3": '[group]\nkind = finite\nname = S_3\n\n'
           '[subgroup]\nkind = finite_subset\nelements = ["0","1"]\n',
    "F_2": '[group]\nkind = free\nrank = 2\n\n'
           '[subgroup]\nkind = generated\ngenerators = ["a"]\n',
    "Heisenberg": '[group]\nkind = heisenberg\n\n'
                  '[subgroup]\nkind = coordinate_zero\ncoords = [1, 2]\n',
    "F_2 x Z_2": '[group]\nkind = product\n\n[group.left]\nkind = free\nrank = 2\n\n'
                 '[group.right]\nkind = finite\nname = Z_2\n\n[subgroup]\nkind = product\n\n'
                 '[subgroup.left]\nkind = generated\ngenerators = ["a"]\n\n'
                 '[subgroup.right]\nkind = full\n',
}


@pytest.mark.parametrize("name", NON_NORMAL)
def test_normality_witness_is_a_pair_of_elements_of_g(name, tmp_path, capsys):
    """A non-normal H reports the pair (s, h) of G whose conjugate s h s^-1
    leaves H, each written as an element of G; on a product the factor's
    pair is lifted into G."""
    text = NON_NORMAL[name] + "\n[run]\nanalyses = validate verdict\n"
    path = tmp_path / "non_normal.tomlish"
    path.write_text(text)
    assert main(["--input", str(path), "--format", "json"]) == 0
    normal = json.loads(capsys.readouterr().out)["normal"]
    config = parse_config(text)
    G, H = config.group, config.subgroup
    engine = is_normal(H)
    assert engine.fails and normal["status"] == "fails"
    s, h = engine.witness
    assert normal["witness"] == [G.element_str(s), G.element_str(h)]
    assert H.contains(h) is True and H.contains(G.conj(s, h)) is False


def test_every_other_report_witness_is_an_element_or_a_class(monkeypatch):
    """Apart from normality's pair, every witness the report writes is an
    element of G or a Classification, over the fixtures, the non-normal
    probes, the in-place restriction instances and one pass of the decide
    workload."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    seen = {"element": 0, "class": 0}
    written = report_mod._witness_str

    def checked(G, witness):
        if isinstance(witness, Classification):
            seen["class"] += 1
        elif witness is not None:
            assert G.contains(witness), witness
            seen["element"] += 1
        return written(G, witness)

    monkeypatch.setattr(report_mod, "_witness_str", checked)
    analyses = ("centralizers", "kleppner", "relative-kleppner", "verdict", "lattice")
    configs = [parse_config(path.read_text()) for path in ALL_FIXTURES]
    configs += [parse_config(text) for text in NON_NORMAL.values()]
    instances = [(c.group, c.subgroup, c.cocycle) for c in configs]
    instances += list(_restriction_instances(workloads))
    instances += [(it.G, it.H, it.sigma) for it in workloads.Decide(FIXTURES.parent, 1).items]
    for G, H, sigma in instances:
        run(InstanceConfig(None, {}, G, H, sigma, analyses, 0, 6))
    assert min(seen.values()) > 500, seen


def test_empty_config_reports_missing_group():
    with pytest.raises(ConfigError, match="missing \\[group\\] section"):
        parse_config("")


def test_symbol_conflict_rejected():
    text = """
[basis]
symbols = theta

[params]
theta = 1/2

[group]
kind = free_abelian
rank = 2
"""
    with pytest.raises(ConfigError, match="both as a basis symbol"):
        parse_config(text)


def test_parse_diagnostics_carry_line_numbers():
    text = "[group]\nkind = free_abelian\nrank = 2\nbogus line here\n"
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(text)


def test_unknown_keys_and_kinds_rejected():
    with pytest.raises(ConfigError, match="unknown group kind"):
        parse_config("[group]\nkind = banach\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[group]\nkind = heisenberg\nflavor = blue\n")
    with pytest.raises(ConfigError, match="unknown analysis"):
        parse_config("[group]\nkind = heisenberg\n[run]\nanalyses = frobnicate\n")


def test_oracle_requires_finite_group():
    text = "[group]\nkind = free_abelian\nrank = 2\n[run]\nanalyses = oracle\n"
    with pytest.raises(ConfigError, match="finite group"):
        parse_config(text)


def test_undeclared_symbol_in_phase():
    text = """
[group]
kind = free_abelian
rank = 2

[cocycle]
kind = rotation
theta = zeta
"""
    with pytest.raises(ConfigError, match="zeta"):
        parse_config(text)


def test_params_resolve_dependent_values():
    text = """
[basis]
symbols = t3

[params]
t1 = 1/3 + (2)t3

[group]
kind = free_abelian
rank = 2

[cocycle]
kind = rotation
theta = t1
"""
    config = parse_config(text)
    val = config.cocycle((1, 0), (0, 1))
    from fractions import Fraction
    assert val.rational == Fraction(1, 6)
    assert dict(val.coeffs)["t3"] == 1


def test_json_report_round_trips():
    config = parse_config((FIXTURES / "nct_pq.tomlish").read_text(), name="nct_pq")
    report = run(config)
    blob = report.to_json()
    parsed = json.loads(blob)
    assert parsed == report.to_dict()
    assert parsed["schema"] == 1


def test_reports_deterministic_modulo_timing():
    text = (FIXTURES / "heisenberg.tomlish").read_text()
    r1 = run(parse_config(text, name="x")).to_dict(include_timing=False)
    r2 = run(parse_config(text, name="x")).to_dict(include_timing=False)
    assert r1 == r2


def test_cli_exit_codes(tmp_path, capsys):
    ok = main(["--input", str(FIXTURES / "z2z2_oracle.tomlish")])
    assert ok == 0
    out = capsys.readouterr().out
    assert "route A dim = 1" in out

    bad = tmp_path / "broken.tomlish"
    bad.write_text("[group]\nkind = nonsense\n")
    assert main(["--input", str(bad)]) == 1
    assert main(["--input", str(tmp_path / "missing.tomlish")]) == 1


def test_cli_json_format(capsys):
    assert main(["--input", str(FIXTURES / "f2z2_sigma.tomlish"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["conclusion"] == "holds"
    assert payload["centralizers"]["trivial"]["status"] == "holds"


def test_cli_seed_and_cap_override(capsys):
    assert main(["--input", str(FIXTURES / "nct_pq.tomlish"), "--seed", "42",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 42
    # there is no search-cap option: argparse rejects it as a usage error
    assert main(["--input", str(FIXTURES / "nct_pq.tomlish"), "--cap", "5"]) == 1


def test_cli_oracle_mismatch_exit_code(monkeypatch, capsys):
    import kleppner.oracle as oracle_mod
    from kleppner.cocycles import TrivialCocycle
    from kleppner.groups import Subgroup, from_name

    def broken_route_b(rep, helems):
        return 999, []

    monkeypatch.setattr(oracle_mod, "_route_b", broken_route_b)
    z2 = from_name("Z_2")
    with pytest.raises(oracle_mod.OracleMismatchError):
        oracle_mod.relative_commutant_dim(z2, Subgroup.full(z2), TrivialCocycle(z2))
    code = main(["--input", str(FIXTURES / "z2z2_oracle.tomlish")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ORACLE MISMATCH: ")


def test_explicit_finite_table_config():
    text = """
[group]
kind = finite
table = [[0,1],[1,0]]

[cocycle]
kind = table
table = [["0","0"],["0","1/2"]]

[run]
analyses = validate kleppner oracle
"""
    config = parse_config(text)
    report = run(config)
    assert report.payload["validate"]["passed"]
    # sigma(1,1) = -1 on Z_2 is a coboundary: the nontrivial class stays
    # regular, Kleppner fails, and the commutant is two-dimensional
    assert report.payload["kleppner"]["status"] == "fails"
    assert report.payload["oracle"]["route_a"] == 2
    assert report.payload["oracle"]["route_b"] == 2


def test_cli_rejects_malformed_finite_table(tmp_path, capsys):
    bad = tmp_path / "table5.tomlish"
    bad.write_text("[group]\nkind = finite\ntable = 5\n")
    assert main(["--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 3" in err
    ragged = tmp_path / "ragged.tomlish"
    ragged.write_text("[group]\nkind = finite\ntable = [[0, 1], [1]]\n")
    assert main(["--input", str(ragged)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    cocycle = tmp_path / "cocycle5.tomlish"
    cocycle.write_text('[group]\nkind = finite\nname = "Z_2"\n\n[cocycle]\nkind = table\ntable = 5\n')
    assert main(["--input", str(cocycle)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 7" in err


def test_cli_reports_oracle_cap_in_one_line(tmp_path, capsys):
    big = tmp_path / "s5.tomlish"
    big.write_text('[group]\nkind = finite\nname = "S_5"\n\n[run]\nanalyses = oracle\n')
    assert main(["--input", str(big)]) == 1
    # refused when the config is parsed, at the line that asks for the oracle
    assert capsys.readouterr().err == (
        "config error: order 120 exceeds the oracle cap 64 (line 6)\n")


_Z2 = "[group]\nkind = free_abelian\nrank = 2\n"
_HEIS = "[group]\nkind = heisenberg\n"
# malformed values (most of which once escaped the front door as a Python traceback)
MALFORMED = {
    "columns-not-list": _Z2 + "[subgroup]\nkind = sublattice\ncolumns = 5\n",
    "columns-not-int": _Z2 + '[subgroup]\nkind = sublattice\ncolumns = [["a","b"]]\n',
    "elements-not-list": '[group]\nkind = finite\nname = "Z_4"\n'
                         "[subgroup]\nkind = finite_subset\nelements = 3\n",
    "coords-not-list": _HEIS + "[subgroup]\nkind = coordinate_zero\ncoords = 5\n",
    "thetas-not-list": "[group]\nkind = free_abelian\nrank = 3\n"
                       "[cocycle]\nkind = three_torus\nthetas = 3\n",
    "matrix-not-list": _Z2 + "[cocycle]\nkind = bicharacter\nmatrix = 3\n",
    "matrix-flat": _Z2 + "[cocycle]\nkind = bicharacter\nmatrix = [1, 2]\n",
    "generator-bad-int": _Z2 + '[subgroup]\nkind = generated\ngenerators = ["(1+, 2)"]\n',
    "element-bad-int": _HEIS + '[subgroup]\nkind = finite_subset\nelements = ["(--1, 0, 0)"]\n',
    "theta-zero-den": _Z2 + "[cocycle]\nkind = rotation\ntheta = 1/0\n",
    "param-zero-den": "[params]\nt = 1/0\n" + _Z2,
    "matrix-zero-den": _Z2 + '[cocycle]\nkind = bicharacter\nmatrix = [["0","1/0"],["0","0"]]\n',
    "table-zero-den": '[group]\nkind = finite\nname = "Z_2"\n'
                      '[cocycle]\nkind = table\ntable = [["0","0"],["0","1/0"]]\n',
    "beta-den-zero": _Z2 + "[cocycle]\nkind = similarity\nbeta_denominator = 0\n"
                     "[cocycle.base]\nkind = trivial\n",
    # no computation reads a search cap, so `cap` is not a [run] key
    "run-cap": _Z2 + "[run]\ncap = 5\n",
    # max_lattice caps the listed entries of an infinite chain; it is at least 1
    "max-lattice-zero": _Z2 + "[run]\nanalyses = lattice\nmax_lattice = 0\n",
    # the oracle's caps are checked before any analysis runs
    "oracle-over-cap": '[group]\nkind = finite\nname = "Z_66"\n'
                       "[run]\nanalyses = validate oracle\n",
    "oracle-on-product": '[group]\nkind = product\n[group.left]\nkind = finite\nname = "Z_2"\n'
                         '[group.right]\nkind = finite\nname = "Z_2"\n[run]\nanalyses = oracle\n',
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_cli_rejects_malformed_value_in_one_line(tmp_path, capsys, case):
    bad = tmp_path / f"{case}.tomlish"
    bad.write_text(MALFORMED[case])
    assert main(["--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "line " in err
    assert err.startswith("config error: ")


@pytest.mark.parametrize("value", ["2000", "0"])
def test_budget_is_not_a_run_key(tmp_path, capsys, value):
    """Every validation route is exact and draws no sample, so `budget` is an
    unknown [run] key: exit 1, one config error line at its line, no
    traceback, whatever its value."""
    path = tmp_path / "budget.tomlish"
    path.write_text(f"[group]\nkind = free_abelian\nrank = 2\n\n[run]\nbudget = {value}\n")
    assert main(["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: unknown key 'budget' in [run] (line 6)\n"


_NON_COCYCLE_Z3 = """
[group]
kind = finite
name = "Z_3"

[cocycle]
kind = table
table = [["0","0","0"],["0","0","0"],["0","2/3","0"]]
"""


def test_report_flags_non_cocycle_table():
    """The default analyses (validate verdict) on a non-cocycle: the verdict
    assumes a 2-cocycle, so run refuses with the validation's witness."""
    with pytest.raises(CocycleError, match=r"^sigma is not a 2-cocycle: cocycle identity fails at "):
        run(parse_config(_NON_COCYCLE_Z3))


def test_report_flags_non_cocycle_table_under_validate_alone():
    config = parse_config(_NON_COCYCLE_Z3 + "\n[run]\nanalyses = validate\n")
    payload = run(config).payload
    assert payload["validate"]["passed"] is False
    names = {config.group.element_str(x) for x in config.group.elements()}
    witness = payload["validate"]["witness"]
    assert len(witness) == 3 and set(witness) <= names
    assert payload["identities"] == NOT_CHECKED


# the z2z2_oracle fixture with entry (1, 2) set to 1/3: the identity fails at
# ((0,1), (0,1), (1,0)), and every analysis but validate assumes a cocycle
_PROBE = (FIXTURES / "z2z2_oracle.tomlish").read_text().replace(
    '["0","0","1/2","1/2"],', '["0","0","1/3","1/2"],', 1)
PROBE_ERROR = ("error: sigma is not a 2-cocycle: cocycle identity fails at "
               "(0,1), (0,1), (1,0)\n")
NOT_CHECKED = {"passed": False, "mode": "not-checked", "checks": 0, "witness": None,
               "detail": "sigma is not a 2-cocycle"}


def _probe(analyses):
    return re.sub(r"(?m)^analyses = .*$", f"analyses = {analyses}", _PROBE)


@pytest.mark.parametrize("analyses", ["validate kleppner verdict", "validate oracle"])
def test_a_non_cocycle_decides_nothing(analyses, tmp_path, capsys):
    """A decision or the oracle on a non-cocycle is exit 1 with one error
    line naming the failing triple, and nothing on standard output."""
    path = tmp_path / "probe.tomlish"
    path.write_text(_probe(analyses))
    assert main(["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == PROBE_ERROR


def test_a_non_cocycle_under_validate_alone_reports_its_witness(tmp_path, capsys):
    path = tmp_path / "probe.tomlish"
    path.write_text(_probe("validate"))
    assert main(["--input", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["validate"] == {"passed": False, "mode": "exhaustive", "checks": 23,
                                   "witness": ["(0,1)", "(0,1)", "(1,0)"],
                                   "detail": "cocycle identity fails"}
    assert payload["identities"] == NOT_CHECKED


def test_text_report_says_identities_of_a_non_cocycle_were_not_checked(tmp_path, capsys):
    """The text report shows the validation failure, and the twist
    identities as not checked rather than as a second failure."""
    path = tmp_path / "probe.tomlish"
    path.write_text(_probe("validate"))
    assert main(["--input", str(path), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "validate: FAIL (exhaustive, 23 checks) witness=['(0,1)', '(0,1)', '(1,0)']" in lines
    assert "identities: not checked (sigma is not a 2-cocycle)" in lines
    assert not any(line.startswith("identities: FAIL") for line in lines)


def _table_config(name, den, ints, analyses=None):
    """A config of the integer table ints over den on the named group."""
    rows = ", ".join("[" + ", ".join(f'"{v}/{den}"' for v in row) + "]" for row in ints)
    text = f'[group]\nkind = finite\nname = "{name}"\n\n[cocycle]\nkind = table\ntable = [{rows}]\n'
    return text + (f"\n[run]\nanalyses = {analyses}\n" if analyses else "")


@pytest.mark.parametrize("name, sigma", [
    *((name, twist_failure_table(name, entries)) for name, entries, _ in TWIST_FAILURES),
    ("Z_2 x Z_4", symmetric_non_cocycle(from_name("Z_2 x Z_4"), random.Random(12), 5)),
], ids=[name for name, _, _ in TWIST_FAILURES] + ["symmetric Z_2 x Z_4"])
def test_non_cocycle_tables_exit_1(name, sigma, tmp_path, capsys):
    """Each table that fails a twist identity, and a symmetric one that
    passes every twist identity, fails validation: the default analyses
    exit 1 with one error line."""
    path = tmp_path / "table.tomlish"
    path.write_text(_table_config(name, sigma.den, sigma.ints))
    assert main(["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: sigma is not a 2-cocycle: cocycle identity fails at ")


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_run_validates_once(path, monkeypatch):
    """report.run validates sigma once, whether or not validate is asked for,
    and the identities block of a cocycle is its validation."""
    calls = []

    def counted(sigma):
        calls.append(sigma)
        return validate_cocycle(sigma)

    monkeypatch.setattr(report_mod, "validate_cocycle", counted)
    config = parse_config(path.read_text(), name=path.stem)
    payload = run(config).payload
    assert len(calls) == 1
    assert payload["identities"] == payload["validate"]
    decisions = tuple(a for a in config.analyses if a != "validate")
    run(parse_config(re.sub(r"(?m)^analyses = .*$", "analyses = " + " ".join(decisions),
                            path.read_text())))
    assert len(calls) == 2


FUZZ_GROUPS = ("Z_2", "Z_3", "Z_2 x Z_2", "S_3")


@st.composite
def fuzz_tables(draw):
    """A rational table on a small finite group, normalized or not, and a
    nonempty list of analyses."""
    name = draw(st.sampled_from(FUZZ_GROUPS))
    G = from_name(name)
    e = G.identity()
    den = draw(st.integers(1, 12))
    normalized = draw(st.booleans())
    ints = [[0 if normalized and e in (g, h) else draw(st.integers(0, den - 1))
             for h in G.elements()] for g in G.elements()]
    analyses = draw(st.lists(st.sampled_from(ANALYSES), min_size=1, max_size=4, unique=True))
    return name, den, ints, analyses


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=fuzz_tables())
def test_fuzzed_tables_exit_0_or_1_in_one_line(case, tmp_path_factory):
    """Every drawn table config ends in exit 0 or 1 with at most one line on
    stderr and no traceback: exit 1 on a table that is not normalized, and
    otherwise exit 0 with a decision analysis requested exactly when the
    table is a 2-cocycle by the Phase reference."""
    name, den, ints, analyses = case
    path = tmp_path_factory.mktemp("fuzz") / "table.tomlish"
    path.write_text(_table_config(name, den, ints, " ".join(analyses)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--input", str(path), "--format", "json"])
    assert code in (0, 1)
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
    G = from_name(name)
    e = G.identity()
    if any(ints[e][g] or ints[g][e] for g in G.elements()):
        assert code == 1 and err.getvalue().startswith("config error: phase table is not normalized")
        return
    cocycle = reference_validate(PhaseTableCocycle.from_ints(G, den, ints)).passed
    # exit 0 with a decision requested only on a cocycle, and every cocycle decided
    assert code == (0 if cocycle or set(analyses) == {"validate"} else 1), err.getvalue()


# F_2 x 1 is F_2, which is C*-simple, and its centralizer in itself is trivial
_F2_TIMES = "[group]\nkind = product\n[group.left]\nkind = free\nrank = 2\n"
TRIVIAL_FACTORS = {"z0": "[group.right]\nkind = free_abelian\nrank = 0\n",
                   "table": "[group.right]\nkind = finite\ntable = [[0]]\n"}


@pytest.mark.parametrize("case", list(TRIVIAL_FACTORS))
def test_cli_product_with_trivial_factor(tmp_path, capsys, case):
    path = tmp_path / f"{case}.tomlish"
    path.write_text(_F2_TIMES + TRIVIAL_FACTORS[case] + "[run]\nanalyses = centralizers verdict\n")
    assert main(["--input", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["centralizers"]["trivial"]["status"] == "holds"
    assert payload["verdict"]["conclusion"] == "holds"
    assert [s["rule"] for s in payload["verdict"]["chain"]] == ["csimple-twisted-centralizer"]


def test_cli_closed_stdout_ends_in_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    try:
        proc = subprocess.run([sys.executable, "-m", "kleppner.cli", "--input",
                               str(FIXTURES / "nct_pq.tomlish")],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: standard output was closed")
    assert "Traceback" not in proc.stderr


def _rank_config(rank):
    return f"[group]\nkind = free_abelian\nrank = {rank}\n\n[run]\nanalyses = validate verdict\n"


def test_free_abelian_rank_at_the_cap_runs():
    config = parse_config(_rank_config(RANK_CAP))
    assert config.group.rank == RANK_CAP
    payload = run(config).payload
    assert payload["validate"]["passed"] and payload["identities"]["passed"]


def test_free_abelian_rank_above_the_cap_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "rank.tomlish"
    path.write_text(_rank_config(RANK_CAP + 1))
    assert main(["--input", str(path)]) == 1
    # refused at the rank line before any analysis runs
    assert capsys.readouterr().err == (
        f"config error: free_abelian rank {RANK_CAP + 1} exceeds the rank cap {RANK_CAP} (line 3)\n")


def test_max_lattice_above_the_cap_is_a_config_error(tmp_path, capsys):
    text = (FIXTURES / "heisenberg.tomlish").read_text()
    assert "max_lattice = 5\n" in text
    path = tmp_path / "lattice.tomlish"
    path.write_text(text.replace("max_lattice = 5\n", f"max_lattice = {LATTICE_CAP + 1}\n"))
    line = text.splitlines().index("max_lattice = 5") + 1
    assert main(["--input", str(path)]) == 1
    # refused at the max_lattice line before any analysis runs
    assert capsys.readouterr().err == (f"config error: max_lattice {LATTICE_CAP + 1} exceeds "
                                       f"the lattice cap {LATTICE_CAP} (line {line})\n")
    path.write_text(text.replace("max_lattice = 5\n", f"max_lattice = {LATTICE_CAP}\n"))
    assert parse_config(path.read_text()).max_lattice == LATTICE_CAP


# restriction is not a cocycle kind: sigma restricted to H is decided inside G
# (H's classes and Z(H) = C_G(H) ∩ H), and transport pulls sigma back to H
RESTRICTIONS = {
    "alone": """
[group]
kind = heisenberg

[cocycle]
kind = restriction

[cocycle.base]
kind = heisenberg
theta = 1/3

[cocycle.subgroup]
kind = coordinate_zero
coords = [0]
""",
    "similarity-of-restriction": """
[group]
kind = heisenberg

[cocycle]
kind = similarity
beta_seed = 3

[cocycle.base]
kind = restriction

[cocycle.base.base]
kind = heisenberg
gamma = 1/2
theta = 1/3

[cocycle.base.subgroup]
kind = coordinate_zero
coords = [0]

[run]
analyses = validate
""",
    "product-with-restricted-factor": """
[group]
kind = product

[group.left]
kind = finite
name = "Z_4"

[group.right]
kind = finite
name = "Z_2"

[cocycle]
kind = product

[cocycle.left]
kind = restriction

[cocycle.left.base]
kind = trivial

[cocycle.left.subgroup]
kind = finite_subset
elements = ["0", "2"]

[cocycle.right]
kind = trivial

[run]
analyses = validate
"""}


@pytest.mark.parametrize("case", list(RESTRICTIONS))
def test_restriction_cocycle_kind_is_a_config_error(case, tmp_path, capsys):
    """kind = restriction, alone or inside a wrapper, is one config error at
    its own kind line, whatever the analyses."""
    text = RESTRICTIONS[case]
    path = tmp_path / f"{case}.tomlish"
    path.write_text(text)
    assert main(["--input", str(path)]) == 1
    line = text.splitlines().index("kind = restriction") + 1
    err = capsys.readouterr().err
    assert err == f"config error: unknown cocycle kind 'restriction' (line {line})\n"
    assert "Traceback" not in err


# the wrapped restrictions above, built the one way sigma|_H is built now:
# transport(sigma, H) pulls sigma back to H's own group, and the wrapper goes
# on that pullback
RESTRICTED_BASES = {
    "similarity-of-restriction": """
[group]
kind = heisenberg

[subgroup]
kind = coordinate_zero
coords = [0]

[cocycle]
kind = heisenberg
gamma = 1/2
theta = 1/3
""",
    "product-with-restricted-factor": """
[group]
kind = finite
name = "Z_4"

[subgroup]
kind = finite_subset
elements = ["0", "2"]
"""}


def _wrapped_restriction(case):
    cfg = parse_config(RESTRICTED_BASES[case], name=case)
    restricted, asg = transport(cfg.cocycle, cfg.subgroup)
    if case.startswith("similarity"):
        return SimilarityCocycle(restricted, SeededBeta(asg.group, 3, 8, restricted.basis))
    right = from_name("Z_2")
    return ProductCocycle(DirectProduct(asg.group, right), restricted, TrivialCocycle(right))


@pytest.mark.parametrize("case", list(RESTRICTED_BASES))
def test_wrapped_restriction_validates_on_its_subgroup(case):
    sigma = _wrapped_restriction(case)
    result = validate_cocycle(sigma)
    assert result.passed and reference_twist_scan(sigma).passed
    if case.startswith("product"):
        # the pullback to {0, 2} on its every triple, then the trivial factor
        assert result.mode == "product(exhaustive, trivial)"
        assert result.checks == 2 ** 3


@pytest.mark.parametrize("case", list(RESTRICTED_BASES))
def test_decisions_on_a_restricted_cocycle_are_a_config_error(case, tmp_path, capsys):
    """A decision on sigma|_H is made inside G, on the config's [subgroup]; a
    config that asks one of a restriction cocycle is refused at its kind line
    before any analysis runs, with the decision analyses or the default ones."""
    text = RESTRICTIONS[case]
    decisions = text.replace("analyses = validate",
                             "analyses = validate kleppner relative-kleppner centralizers "
                             "verdict lattice")
    line = text.splitlines().index("kind = restriction") + 1
    path = tmp_path / "restricted.tomlish"
    for body in (decisions, text.split("[run]")[0]):
        path.write_text(body)
        assert main(["--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: unknown cocycle kind 'restriction' (line {line})\n")
