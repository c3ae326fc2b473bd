"""Run the analyses requested by a config and assemble a report.

Reports are deterministic given (config, seed) in every field except the
informational "timing" block.  Exit-code contract for the CLI: 0 = all
requested analyses completed (whatever the verdicts), 1 = usage or config
error, or a sigma that fails validation with any analysis besides
``validate`` requested, 2 = internal oracle mismatch.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from .cocycles import CocycleError, validate_cocycle
from .config import InstanceConfig
from .groups.base import Group
from .groups.structure import is_normal
from .groups.subgroups import INFINITE, Classification
from .oracle import relative_commutant_dim
from .regularity import kleppner, relative_kleppner, sigma_centralizer
from .tribool import TriBool
from .verdicts import (LatticeResult, Verdict, cstar_irreducible, intermediate_lattice,
                       twisted_simplicity)

SCHEMA_VERSION = 1


def _witness_str(G: Group, witness: Any) -> Any:
    if witness is None:
        return None
    if isinstance(witness, Classification):
        if witness.finite:
            return {"class": [G.element_str(x) for x in witness.elements]}
        return {"certificate": witness.certificate or witness.reason}
    try:
        return G.element_str(witness)
    except Exception:
        return str(witness)


def _tribool_dict(G: Group, t: TriBool) -> dict:
    out = {"status": t.status}
    if t.witness is not None:
        out["witness"] = _witness_str(G, t.witness)
    if t.reason:
        out["reason"] = t.reason
    if t.notes:
        out["notes"] = list(t.notes)
    return out


def _verdict_dict(G: Group, v: Verdict) -> dict:
    return {
        "conclusion": v.conclusion,
        "chain": [{"rule": s.rule, "statement": s.statement,
                   "premises": [{"fact": p[0], "outcome": p[1]} for p in s.premises]}
                  for s in v.chain],
        "witness": _witness_str(G, v.witness),
        "notes": list(v.notes),
    }


def _lattice_dict(res: LatticeResult) -> dict:
    return {
        "status": res.status,
        "count": res.count,
        "entries": [{"label": e.label,
                     "subgroup": e.subgroup.describe_desc() if e.subgroup else None,
                     "index": (None if e.index_in_g is None
                               else "infinite" if e.index_in_g is INFINITE
                               else e.index_in_g)}
                    for e in res.entries],
        "note": res.note,
    }


@dataclass
class Report:
    config_name: str
    seed: int
    payload: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {"schema": SCHEMA_VERSION, "instance": self.config_name, "seed": self.seed}
        out.update(self.payload)
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"instance: {self.config_name}", f"seed: {self.seed}"]
        p = self.payload
        lines.append(f"group: {p['group']}")
        lines.append(f"subgroup: {p['subgroup']}")
        lines.append(f"cocycle: {p['cocycle']}")
        for name in ("validate", "identities"):
            if name in p:
                r = p[name]
                lines.append(f"{name}: {'pass' if r['passed'] else 'FAIL'} "
                             f"({r['mode']}, {r['checks']} checks)"
                             + (f" witness={r['witness']}" if r.get("witness") else ""))
        if "centralizers" in p:
            c = p["centralizers"]
            lines.append(f"centralizer C_G(H): {c['plain']}")
            lines.append(f"twisted centralizer: {c['twisted']} "
                         f"(trivial: {c['trivial']['status']})")
        for name in ("kleppner", "relative-kleppner"):
            if name in p:
                t = p[name]
                extra = ""
                if t.get("witness") is not None:
                    extra = f"  witness: {t['witness']}"
                lines.append(f"{name}: {t['status']}{extra}")
                for note in t.get("notes", []):
                    lines.append(f"    - {note}")
        if "verdict" in p:
            v = p["verdict"]
            lines.append(f"verdict (inclusion is C*-irreducible): {v['conclusion']}")
            for s in v["chain"]:
                prem = ", ".join(f"{q['fact']}={q['outcome']}" for q in s["premises"])
                lines.append(f"    rule {s['rule']}: {prem}")
            if v.get("witness") is not None:
                lines.append(f"    witness: {v['witness']}")
            for note in v.get("notes", []):
                lines.append(f"    note: {note}")
        if "subgroup-simplicity" in p:
            v = p["subgroup-simplicity"]
            lines.append(f"twisted algebra of (H, sigma|_H) simple: {v['conclusion']}")
        if "lattice" in p:
            la = p["lattice"]
            lines.append(f"intermediate lattice: {la['status']}"
                         + (f" ({la['count']} algebras)" if la["count"] is not None else ""))
            for e in la["entries"]:
                idx = f", index {e['index']}" if e["index"] is not None else ""
                lines.append(f"    {e['label']}: {e['subgroup']}{idx}")
            if la["note"]:
                lines.append(f"    note: {la['note']}")
        if "oracle" in p:
            o = p["oracle"]
            lines.append(f"oracle: route A dim = {o['route_a']}, route B count = {o['route_b']}"
                         f" (center dim of H-side: {o.get('center_dim_h', '-')})")
        lines.append("timing: " + ", ".join(f"{k}={v:.3f}s" for k, v in self.timing.items()))
        return "\n".join(lines)


def run(config: InstanceConfig) -> Report:
    """Execute the requested analyses in dependency order, after one
    validation of sigma.  Every analysis but ``validate`` assumes a
    2-cocycle, so a sigma that fails validation with any of them requested
    is a CocycleError naming the failure and its witness."""
    G = config.group
    H = config.subgroup
    sigma = config.cocycle
    report = Report(config.name, config.seed)
    p = report.payload
    p["group"] = G.describe()
    p["subgroup"] = H.describe_desc()
    p["cocycle"] = sigma.describe()
    p["analyses"] = list(config.analyses)

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        report.timing[name] = time.perf_counter() - t0
        return out

    if config.analyses:
        res = timed("validate", lambda: validate_cocycle(sigma))
        witness = res.witness and [G.element_str(x) for x in res.witness]
        if not res.passed and set(config.analyses) != {"validate"}:
            raise CocycleError(f"sigma is not a 2-cocycle: {res.detail} at {', '.join(witness)}")
    if "validate" in config.analyses:
        p["validate"] = {"passed": res.passed, "mode": res.mode, "checks": res.checks,
                         "witness": witness, "detail": res.detail}
        # a 2-cocycle satisfies the conjugation-twist identities (each twist
        # residual is a signed sum of cocycle-identity defects), so they are
        # read off its validation; a non-cocycle may satisfy them all, so its
        # are reported as not checked rather than failed
        p["identities"] = (dict(p["validate"]) if res.passed else
                           {"passed": False, "mode": "not-checked", "checks": 0,
                            "witness": None, "detail": "sigma is not a 2-cocycle"})

    if "centralizers" in config.analyses:
        tw = timed("centralizers", lambda: sigma_centralizer(G, H, sigma))
        plain = tw.plain_centralizer
        p["centralizers"] = {
            "plain": plain.describe_desc() if plain else "unknown",
            "twisted": tw.description.describe_desc() if tw.description else "unknown",
            "trivial": _tribool_dict(G, tw.is_trivial),
        }

    if "kleppner" in config.analyses:
        t = timed("kleppner", lambda: kleppner(G, sigma))
        p["kleppner"] = _tribool_dict(G, t)

    if "relative-kleppner" in config.analyses:
        t = timed("relative-kleppner", lambda: relative_kleppner(G, H, sigma))
        p["relative-kleppner"] = _tribool_dict(G, t)

    verdict = None
    if "verdict" in config.analyses or "lattice" in config.analyses:
        verdict = timed("verdict", lambda: cstar_irreducible(G, H, sigma))
    if "verdict" in config.analyses:
        p["verdict"] = _verdict_dict(G, verdict)
        p["normal"] = _tribool_dict(G, is_normal(H))
        ts = twisted_simplicity(G, sigma, H)
        p["subgroup-simplicity"] = _verdict_dict(G, ts)

    if "lattice" in config.analyses:
        res = timed("lattice", lambda: intermediate_lattice(
            G, H, sigma, max_entries=config.max_lattice, verdict=verdict))
        p["lattice"] = _lattice_dict(res)

    if "oracle" in config.analyses:
        rep = timed("oracle", lambda: relative_commutant_dim(G, H, sigma, verify=True))
        p["oracle"] = {"route_a": rep.dim_route_a, "route_b": rep.dim_route_b,
                       "regular_classes": [[G.element_str(x) for x in cls]
                                           for cls in rep.regular_classes]}

    return report
