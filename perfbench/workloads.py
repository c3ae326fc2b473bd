"""The benchmark's three workloads.

Each workload builds its inputs from the seed in its constructor (that is the
set-up the benchmark times) and then offers a fixed list of items.  For each
item it has four methods:

* `run(item)`: the timed call into kleppner; returns the raw results;
* `canon(item, raw)`: a canonical string of every output, with timing
  removed; passes after the first must reproduce it exactly, and the
  fingerprint hashes it;
* `check(index, item, raw, canons)`: problems found by an independent
  reference, as a list of strings (empty when the item is correct);
* `queries(item, raw)`: (decided, asked) decision queries, where decided
  means `holds` or `fails`.

kleppner is always called through its module attributes (`regularity.kleppner`,
not a name imported into this file), so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from kleppner import cli, cocycles, config, oracle, randomized, regularity, verdicts
from kleppner.groups import finite, structure
from kleppner.groups.abelian import FreeAbelian
from kleppner.groups.free import FreeGroup
from kleppner.groups.heisenberg import Heisenberg
from kleppner.groups.product import DirectProduct
from kleppner.groups.subgroups import Classification, Subgroup
from kleppner.phases import IrrationalBasis, Phase

DECIDED = ("holds", "fails")


def _get(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


# ---------------------------------------------------------------------------
# fixtures: the batch user's path, `kleppner --input f --format json --seed s`
# ---------------------------------------------------------------------------

class Fixtures:
    """The seven shipped fixtures through `kleppner.cli.main`, in-process.

    The expected outcomes are the ones documented in each fixture's header
    comment and in the worked examples of the README and the paper.
    """

    EXPECT = {
        # "H = F_2 x {0} is C*-simple and the twisted centralizer is trivial"
        "f2z2_sigma": {"verdict.conclusion": "holds", "centralizers.trivial.status": "holds"},
        # worked example: the Heisenberg inclusion holds iff theta is formal
        "heisenberg": {"verdict.conclusion": "holds"},
        # "the twisted centralizer of H is nontrivial and the inclusion fails"
        "heisenberg_rational": {"verdict.conclusion": "fails",
                                "centralizers.trivial.status": "fails"},
        # rotation algebra at a formal angle: H_{2,3} gives an irreducible inclusion
        "nct_pq": {"verdict.conclusion": "holds"},
        # "three independent formal angles": the worked 3-torus inclusion holds
        "nct_three_torus": {"verdict.conclusion": "holds"},
        # "the inclusion fails to be irreducible"
        "nct_three_torus_dependent": {"verdict.conclusion": "fails"},
        # "the twisted algebra is a full matrix algebra, so both oracle routes
        # give dimension 1" (so it is simple: Kleppner's condition holds)
        "z2z2_oracle": {"oracle.route_a": 1, "oracle.route_b": 1, "kleppner.status": "holds"},
    }
    QUERIES = ("kleppner.status", "relative-kleppner.status", "centralizers.trivial.status",
               "normal.status", "verdict.conclusion", "subgroup-simplicity.conclusion")

    def __init__(self, root: Path, seed: int) -> None:
        paths = sorted((root / "fixtures").glob("*.tomlish"))
        if sorted(p.stem for p in paths) != sorted(self.EXPECT):
            raise FileNotFoundError(f"expected the fixtures {sorted(self.EXPECT)} "
                                    f"under {root / 'fixtures'}")
        rng = random.Random(seed)
        self.items = []
        for p in paths:
            config.parse_config(p.read_text(encoding="utf-8"), name=p.stem)
            self.items.append((p.stem, str(p), rng.randrange(1, 2**31)))

    def run(self, item):
        _stem, path, s = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--input", path, "--format", "json", "--seed", str(s)])
        return code, out.getvalue()

    def canon(self, item, raw) -> str:
        code, text = raw
        if code != 0:
            return f"exit {code}"
        report = json.loads(text)
        report.pop("timing", None)
        return json.dumps(report, sort_keys=True)

    def check(self, index, item, raw, canons) -> list[str]:
        stem, _path, s = item
        code, text = raw
        if code != 0:
            return [f"{stem}: exit code {code}"]
        report = json.loads(text)
        problems = []
        if report.get("instance") != stem or report.get("seed") != s:
            problems.append(f"{stem}: report names instance {report.get('instance')!r}, "
                            f"seed {report.get('seed')!r}")
        for name in ("validate", "identities"):
            if name in report and not report[name]["passed"]:
                problems.append(f"{stem}: {name} did not pass")
        for path, want in self.EXPECT[stem].items():
            got = _get(report, path)
            if got != want:
                problems.append(f"{stem}: {path} = {got!r}, documented {want!r}")
        return problems

    def queries(self, item, raw) -> tuple[int, int]:
        code, text = raw
        if code != 0:
            return 0, 1
        report = json.loads(text)
        answers = [a for a in (_get(report, q) for q in self.QUERIES) if a is not None]
        return sum(a in DECIDED for a in answers), len(answers)


# ---------------------------------------------------------------------------
# sweep: finite groups against the oracle
# ---------------------------------------------------------------------------

def sweep_group_names() -> list[str]:
    """The acceptance sweep's groups, plus S_4 and D_8 (orders 24 and 16)."""
    names = [f"Z_{n}" for n in range(1, 17)]
    names += [f"Z_{m} x Z_{n}" for m in range(2, 5) for n in range(m, 9) if m * n <= 16]
    return names + ["D_4", "Q8", "S_3", "S_4", "D_8"]


class Sweep:
    """Seeded random table cocycles on finite groups, every subgroup each.

    Per draw: validate the cocycle, build the regular representation, take the
    center and every relative commutant by both oracle routes, and decide
    Kleppner and relative Kleppner.  On a subsample, also the irreducibility
    verdict and the twisted centralizer: draw d takes the subgroups whose index
    is d modulo DRAWS, so each subgroup is covered once per group and the
    draws of a group cost about the same.
    """

    DRAWS = 20

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.groups = []
        for name in sweep_group_names():
            G = finite.from_name(name)
            subs = [Subgroup.finite_subset(G, s) for s in G.all_subgroups()]
            self.groups.append((name, G, Subgroup.full(G), subs))
        self.items = [(g, d) for g in range(len(self.groups)) for d in range(self.DRAWS)]

    def run(self, item):
        name, G, full, subs = self.groups[item[0]]
        draw = item[1]
        rng = random.Random(f"{self.seed}|{name}|{draw}")
        sigma = randomized.random_table_cocycle(G, rng)
        valid = cocycles.validate_cocycle(sigma)
        rep = oracle.build_regular_rep(G, sigma, verify_pairs=False)
        center = oracle.relative_commutant_dim(G, full, sigma, rep=rep)
        klep = regularity.kleppner(G, sigma)
        per_sub = []
        for j, H in enumerate(subs):
            comm = oracle.relative_commutant_dim(G, H, sigma, rep=rep)
            rel = regularity.relative_kleppner(G, H, sigma)
            extra = None
            if j % self.DRAWS == draw:
                verdict = verdicts.cstar_irreducible(G, H, sigma)
                restricted, asg = cocycles.transport(sigma, H)
                center_h = oracle.center_dim(asg.group, restricted)
                twisted = regularity.sigma_centralizer(G, H, sigma)
                extra = (verdict, center_h, twisted)
            per_sub.append((comm, rel, extra))
        return valid, center, klep, per_sub

    def canon(self, item, raw) -> str:
        valid, center, klep, per_sub = raw
        subs = []
        for comm, rel, extra in per_sub:
            row = (comm.dim_route_a, comm.dim_route_b, rel.status, repr(rel.witness))
            if extra is not None:
                verdict, center_h, twisted = extra
                row += (verdict.conclusion, tuple(s.rule for s in verdict.chain),
                        repr(verdict.witness), center_h,
                        twisted.description.describe_desc(), twisted.is_trivial.status,
                        repr(twisted.is_trivial.witness))
            subs.append(row)
        name = self.groups[item[0]][0]
        return repr((name, item[1], valid.passed, valid.checks, center.dim_route_a,
                     center.dim_route_b, klep.status, repr(klep.witness), tuple(subs)))

    def check(self, index, item, raw, canons) -> list[str]:
        valid, center, klep, per_sub = raw
        name, G, _full, subs = self.groups[item[0]]
        where = f"{name} draw {item[1]}"
        problems = []
        if not valid.passed:
            problems.append(f"{where}: drawn cocycle fails validation")
        if center.dim_route_a != center.dim_route_b:
            problems.append(f"{where}: center routes disagree")
        if klep.holds != (center.dimension == 1) or not klep.decided:
            problems.append(f"{where}: kleppner {klep.status}, center dimension "
                            f"{center.dimension}")
        for H, (comm, rel, extra) in zip(subs, per_sub):
            label = f"{where}, H = {H.describe_desc()}"
            if comm.dim_route_a != comm.dim_route_b:
                problems.append(f"{label}: oracle routes disagree")
            if rel.holds != (comm.dimension == 1) or not rel.decided:
                problems.append(f"{label}: relative kleppner {rel.status}, "
                                f"oracle dimension {comm.dimension}")
            if extra is None:
                continue
            verdict, center_h, twisted = extra
            # the engine refuses non-normal H by design; normality read off the table
            hset = set(H.enumerate_elements())
            normal = all(G.conj(g, h) in hset for g in G.elements() for h in hset)
            if (verdict.holds != (comm.dimension == 1 and center_h == 1)
                    or verdict.inconclusive == normal):
                problems.append(f"{label}: verdict {verdict.conclusion}, oracle dimensions "
                                f"{comm.dimension} and {center_h}, normal {normal}")
            # the twisted centralizer is the union of the regular singleton H-classes
            singletons = {c[0] for c in comm.regular_classes if len(c) == 1}
            kept = set(twisted.description.enumerate_elements())
            if kept != singletons or twisted.is_trivial.holds != (kept == {G.identity()}):
                problems.append(f"{label}: twisted centralizer {sorted(kept)}, oracle "
                                f"regular singletons {sorted(singletons)}")
        return problems

    def queries(self, item, raw) -> tuple[int, int]:
        _valid, _center, klep, per_sub = raw
        answers = [klep.status]
        for _comm, rel, extra in per_sub:
            answers.append(rel.status)
            if extra is not None:
                answers += [extra[0].conclusion, extra[2].is_trivial.status]
        return sum(a in DECIDED for a in answers), len(answers)


# ---------------------------------------------------------------------------
# decide: the decision engine on infinite groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    label: str
    G: object
    H: Subgroup
    sigma: object
    twin_of: int | None = None  # index of the base instance of a similarity transform


DENOMINATORS = (1, 2, 3, 4, 6)


def _rational(rng: random.Random) -> Fraction:
    d = rng.choice(DENOMINATORS)
    return Fraction(rng.randrange(d), d)


def _sublattice(rng: random.Random, G: FreeAbelian, kind: int) -> Subgroup:
    """kind 0: full rank, index 2..6; kind 1: corank 1, quotient Z;
    kind 2: corank 1 with torsion in the quotient."""
    r = G.rank
    j = rng.randrange(r)
    cols = [tuple((1 if k == i else 0) + (rng.randint(-2, 2) if k == j else 0)
                  for k in range(r)) for i in range(r) if i != j]
    if kind == 0:
        cols.append(tuple(rng.choice((2, 3, 4, 6)) if k == j else 0 for k in range(r)))
    elif kind == 2:
        cols[0] = tuple(2 * x for x in cols[0])
    return Subgroup.sublattice(G, cols)


def _zr(rng: random.Random, r: int, nsym: int, kind: int) -> tuple:
    """Z^r with a random antisymmetric bicharacter: rational parts plus
    `nsym` formal symbols with small integer coefficients."""
    basis = IrrationalBasis([f"t{i}" for i in range(1, nsym + 1)])
    G = FreeAbelian(r)
    m = [[basis.zero()] * r for _ in range(r)]
    for j in range(r):
        for k in range(j + 1, r):
            p = Phase(_rational(rng), {s: rng.choice((-2, -1, 1, 2)) for s in basis.symbols},
                      basis)
            m[j][k], m[k][j] = p, -p
    return G, _sublattice(rng, G, kind), cocycles.BicharacterCocycle(G, m)


def _heisenberg(rng: random.Random, kind: int, theta_formal: bool, gamma_formal: bool) -> tuple:
    G = Heisenberg()
    basis = IrrationalBasis([s for s, formal in (("gamma", gamma_formal),
                                                  ("theta", theta_formal)) if formal])

    def param(name: str, formal: bool) -> Phase:
        value = basis.rational(_rational(rng))
        return value + basis.symbol(name, rng.choice((-1, 1, 2))) if formal else value

    gamma = param("gamma", gamma_formal)
    theta = param("theta", theta_formal)
    H = (Subgroup.coordinate_zero(G, {0}), Subgroup.coordinate_zero(G, {1}),
         Subgroup.coordinate_zero(G, {0, 1}),
         Subgroup.heis_congruence(G, rng.randint(2, 5)), Subgroup.full(G))[kind]
    return G, H, cocycles.HeisenbergCocycle(G, gamma, theta)


def _f2z2(j: int, h_full: bool) -> tuple:
    G = DirectProduct(FreeGroup(2), finite.from_name("Z_2"))
    sigma = cocycles.F2Z2Cocycle(G, j) if j else cocycles.TrivialCocycle(G)
    H = (Subgroup.full(G) if h_full else
         Subgroup.product(G, Subgroup.full(G.left), Subgroup.trivial(G.right)))
    return G, H, sigma


class Decide:
    """Seeded instances on Z^r (r = 2..5), the Heisenberg group and F_2 x Z_2.

    The categorical shape of every instance (family, rank, number of formal
    symbols, subgroup kind) is fixed; the seed draws the numbers.  That keeps
    the expensive cases, above all the rank-5 rational bicharacter whose
    witness search enumerates 7^5 lattice combinations, at a fixed count per
    pass, so the work per pass does not swing with the seed.  The shape is
    laid out ROUNDS times with fresh numbers, which fills in the middle of the
    latency distribution so that its median is steady.  Every base instance
    is followed by a twin wrapped in a `SeededBeta` similarity transform,
    which must give the same answers and witnesses.
    """

    ROUNDS = 3
    # (rank, formal symbols) cells for Z^r; one rank-5 rational cell per round
    # keeps the exponential search in at a fixed weight
    ZR_CELLS = [(r, nsym) for r in (2, 3, 4, 5) for nsym in (0, 1, 2)
                for _ in range(1 if (r, nsym) == (5, 0) else 2)]

    def __init__(self, root: Path, seed: int) -> None:
        rng = random.Random(seed)
        bases = []
        for _round in range(self.ROUNDS):
            for i, (r, nsym) in enumerate(self.ZR_CELLS):
                bases.append((f"Z^{r} symbols={nsym}", _zr(rng, r, nsym, i % 3)))
            for kind in range(5):
                for theta_formal in (False, True):
                    bases.append((f"Heisenberg H{kind} theta_formal={theta_formal}",
                                  _heisenberg(rng, kind, theta_formal, kind % 2 == 1)))
            for j in range(4):
                for h_full in (False, True):
                    bases.append((f"F_2 x Z_2 j={j} H_full={h_full}", _f2z2(j, h_full)))
        self.items = []
        for label, (G, H, sigma) in bases:
            beta = cocycles.SeededBeta(G, rng.randrange(10**6), rng.choice((4, 6, 8, 12)),
                                       basis=sigma.basis)
            self.items.append(Instance(label, G, H, sigma))
            self.items.append(Instance(label, G, H, cocycles.similarity_transform(sigma, beta),
                                       twin_of=len(self.items) - 1))

    def run(self, item: Instance):
        G, H, sigma = item.G, item.H, item.sigma
        cent = structure.centralizer_of_subgroup(G, H)
        normal = structure.is_normal(H)
        fc = structure.fc_centralizer(G, H)
        klep = regularity.kleppner(G, sigma)
        rel = regularity.relative_kleppner(G, H, sigma)
        twisted = regularity.sigma_centralizer(G, H, sigma)
        verdict = verdicts.cstar_irreducible(G, H, sigma)
        lattice = verdicts.intermediate_lattice(G, H, sigma, max_entries=6, verdict=verdict)
        return cent, normal, fc, klep, rel, twisted, verdict, lattice

    def canon(self, item: Instance, raw) -> str:
        cent, normal, fc, klep, rel, twisted, verdict, lattice = raw

        def desc(sub):
            return None if sub is None else sub.describe_desc()

        return repr((
            item.label, desc(cent), normal.status, repr(normal.witness),
            desc(fc.subgroup), fc.central,
            klep.status, repr(klep.witness), rel.status, repr(rel.witness),
            desc(twisted.description), twisted.is_trivial.status,
            repr(twisted.is_trivial.witness),
            verdict.conclusion, tuple(s.rule for s in verdict.chain), repr(verdict.witness),
            lattice.status, tuple((e.label, desc(e.subgroup), repr(e.index_in_g))
                                  for e in lattice.entries)))

    @staticmethod
    def _replays(G, H: Subgroup, sigma, witness) -> bool:
        """A `fails` witness is a nontrivial element (or finite class of them)
        that is regular for sigma against H."""
        if isinstance(witness, Classification):
            if not witness.finite or not witness.elements:
                return False
            elements = witness.elements
        else:
            elements = (witness,)
        return all(w is not None and w != G.identity()
                   and regularity.is_sigma_regular(w, H, sigma).holds for w in elements)

    def check(self, index, item: Instance, raw, canons) -> list[str]:
        _cent, _normal, _fc, klep, rel, twisted, verdict, _lattice = raw
        G, H, sigma = item.G, item.H, item.sigma
        problems = []
        for name, failed, witness, sub in (
                ("kleppner", klep.fails, klep.witness, Subgroup.full(G)),
                ("relative kleppner", rel.fails, rel.witness, H),
                ("twisted centralizer", twisted.is_trivial.fails, twisted.is_trivial.witness, H),
                ("verdict", verdict.fails, verdict.witness, H)):
            if failed and not self._replays(G, sub, sigma, witness):
                problems.append(f"{item.label}: {name} witness {witness!r} does not replay")
        if item.twin_of is not None and canons[index] != canons[item.twin_of]:
            problems.append(f"{item.label}: the similarity transform changed an answer "
                            "or a witness")
        return problems

    def queries(self, item: Instance, raw) -> tuple[int, int]:
        _cent, normal, _fc, klep, rel, twisted, verdict, _lattice = raw
        answers = (normal.status, klep.status, rel.status, twisted.is_trivial.status,
                   verdict.conclusion)
        return sum(a in DECIDED for a in answers), len(answers)


WORKLOADS = {"fixtures": Fixtures, "sweep": Sweep, "decide": Decide}
