import json
from pathlib import Path

import pytest

from kleppner.cli import main
from kleppner.config import ConfigError, parse_config
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
    assert val.coeff("t3") == 1


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


def test_cli_oracle_mismatch_exit_code(monkeypatch, capsys):
    import kleppner.oracle as oracle_mod

    def broken_route_b(rep, helems):
        return 999, []

    monkeypatch.setattr(oracle_mod, "_route_b", broken_route_b)
    code = main(["--input", str(FIXTURES / "z2z2_oracle.tomlish")])
    assert code == 2
    assert "ORACLE MISMATCH" in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "oracle cap" in err


_Z2 = "[group]\nkind = free_abelian\nrank = 2\n"
_HEIS = "[group]\nkind = heisenberg\n"
# malformed values that once escaped the front door as a Python traceback
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
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_cli_rejects_malformed_value_in_one_line(tmp_path, capsys, case):
    bad = tmp_path / f"{case}.tomlish"
    bad.write_text(MALFORMED[case])
    assert main(["--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "line " in err


def test_report_flags_non_cocycle_table():
    text = """
[group]
kind = finite
name = "Z_3"

[cocycle]
kind = table
table = [["0","0","0"],["0","0","0"],["0","2/3","0"]]
"""
    config = parse_config(text)
    payload = run(config).payload
    assert payload["validate"]["passed"] is False
    names = {config.group.element_str(x) for x in config.group.elements()}
    witness = payload["validate"]["witness"]
    assert len(witness) == 3 and set(witness) <= names
