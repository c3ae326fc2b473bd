import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from kleppner.phases import (BasisMismatchError, IrrationalBasis, Phase, PhaseParseError,
                             parse_phase, qdim)

B = IrrationalBasis(["theta"])
B3 = IrrationalBasis(["t1", "t2", "t3"])


def rand_phase(rng, basis):
    coeffs = {s: Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for s in basis.symbols}
    return Phase(Fraction(rng.randint(-12, 12), rng.randint(1, 9)), coeffs, basis)


def test_construction_reduces_mod_one():
    p = Phase(Fraction(7, 4))
    assert p.rational == Fraction(3, 4)
    q = Phase(Fraction(-1, 3))
    assert q.rational == Fraction(2, 3)
    assert Phase(5).rational == 0


def test_zero_coefficients_dropped():
    p = Phase(0, {"theta": 0}, B)
    assert p.coeffs == ()
    assert p == B.zero()


def test_add_examples():
    assert Phase(Fraction(1, 2)) + Phase(Fraction(1, 2)) == Phase(0)
    assert B.symbol("theta") + B.symbol("theta", -1) == B.zero()
    p = Phase(Fraction(3, 4), {"theta": Fraction(1, 2)}, B)
    q = Phase(Fraction(1, 2), {"theta": Fraction(1, 2)}, B)
    assert p + q == Phase(Fraction(1, 4), {"theta": 1}, B)


def test_is_one_examples():
    assert Phase(0).is_one()
    assert not B.symbol("theta").is_one()
    assert not Phase(Fraction(1, 3)).is_one()


def test_basis_mismatch_rejected():
    with pytest.raises(BasisMismatchError):
        B.symbol("theta") + B3.symbol("t1")


def test_group_laws_random():
    rng = random.Random(11)
    for _ in range(300):
        p, q, r = (rand_phase(rng, B3) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p + B3.zero() == p
        assert (p + (-p)).is_one()


def test_scalar_mult():
    p = Phase(Fraction(1, 3), {"theta": Fraction(1, 2)}, B)
    assert p * 2 == Phase(Fraction(2, 3), {"theta": 1}, B)
    assert p * 0 == B.zero()
    assert 3 * p == p + p + p


def test_floats_are_refused():
    # 0.1 is the binary fraction 3602879701896397/2**55, not 1/10
    for build in (lambda: Phase(0.1), lambda: Phase(0, {"theta": 0.5}, B),
                  lambda: B.symbol("theta") * 0.1, lambda: 0.5 * B.symbol("theta")):
        with pytest.raises(TypeError):
            build()
    assert Phase("1/10") == Phase(Fraction(1, 10))


def test_str_and_parse_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        p = rand_phase(rng, B3)
        assert parse_phase(str(p), B3) == p
    assert str(Phase(0)) == "0"
    assert str(B.symbol("theta")) == "theta"
    assert str(Phase(Fraction(1, 2), {"theta": Fraction(-1, 3)}, B)) == "1/2 + (-1/3)theta"


def test_parse_variants():
    assert parse_phase("1/2", B) == Phase(Fraction(1, 2), {}, B)
    assert parse_phase("-(1/2)theta + 1/3", B) == Phase(Fraction(1, 3), {"theta": Fraction(-1, 2)}, B)
    assert parse_phase("theta", B) == B.symbol("theta")
    assert parse_phase("2theta", B) == B.symbol("theta", 2)
    with pytest.raises(PhaseParseError):
        parse_phase("zeta", B)
    with pytest.raises(PhaseParseError):
        parse_phase("", B)


def test_parse_substitutions():
    t3 = IrrationalBasis(["t3"])
    subs = {"t1": parse_phase("1/3 + (2)t3", t3)}
    got = parse_phase("(3)t1 + 1/3", t3, subs)
    assert got == Phase(Fraction(4, 3), {"t3": 6}, t3)


def test_qdim_examples():
    assert qdim([B3.symbol("t1"), B3.symbol("t2"), B3.symbol("t3")]) == 4
    assert qdim([]) == 1
    th = B.symbol("theta")
    assert qdim([th, th * 2, B.rational(Fraction(1, 2))]) == 2


def _rank_by_minors(rows):
    # independent rank oracle: largest k with a nonzero k x k minor
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        out = 0
        for j in range(len(mat)):
            minor = [r[:j] + r[j + 1:] for r in mat[1:]]
            out += (-1) ** j * mat[0][j] * det(minor)
        return out

    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    return k
    return 0


def test_qdim_against_minor_rank():
    rng = random.Random(23)
    for _ in range(60):
        nvals = rng.randint(0, 4)
        vals = []
        rows = []
        for _ in range(nvals):
            coeffs = {s: Fraction(rng.randint(-3, 3)) for s in B3.symbols}
            vals.append(Phase(Fraction(rng.randint(0, 5), rng.randint(1, 4)), coeffs, B3))
            rows.append([coeffs[s] for s in B3.symbols])
        assert qdim(vals) == 1 + _rank_by_minors(rows)


def test_qdim_invariances():
    rng = random.Random(31)
    vals = [rand_phase(rng, B3) for _ in range(4)]
    base = qdim(vals)
    shuffled = vals[::-1]
    assert qdim(shuffled) == base
    scaled = [v * Fraction(3, 7) for v in vals]
    assert qdim(scaled) == base


# -- property tests against a (Fraction, {symbol: Fraction}) reference model ---

BASES = [IrrationalBasis(()), IrrationalBasis(["a"]), IrrationalBasis(["a", "b"]),
         IrrationalBasis(["b", "a", "c"])]
FRACS = st.fractions(min_value=-7, max_value=7, max_denominator=12)
SCALARS = st.one_of(st.integers(-9, 9), FRACS)


def ref_of(rational, coeffs):
    """The reference value: rational part mod 1, zero coefficients dropped."""
    r = Fraction(rational)
    return r - (r.numerator // r.denominator), {s: Fraction(c) for s, c in coeffs.items() if c}


def ref_add(x, y):
    r, c = x[0] + y[0], dict(x[1])
    for s, v in y[1].items():
        c[s] = c.get(s, 0) + v
    return ref_of(r, c)


def ref_scale(x, k):
    return ref_of(x[0] * k, {s: v * k for s, v in x[1].items()})


def ref_str(x):
    r, c = x
    parts = [str(r)] if r != 0 or not c else []
    parts += [s if v == 1 else f"({v}){s}" for s, v in sorted(c.items())]
    return " + ".join(parts)


@st.composite
def phase_pairs(draw, basis=None):
    """(Phase, reference) over ``basis`` or a drawn one."""
    basis = basis if basis is not None else draw(st.sampled_from(BASES))
    rational = draw(FRACS)
    coeffs = {s: draw(FRACS) for s in basis.symbols}
    return Phase(rational, coeffs, basis), ref_of(rational, coeffs)


def assert_matches(p, ref):
    r, c = ref
    assert p.rational == r and 0 <= p.rational < 1
    assert p.coeffs == tuple(sorted(c.items()))
    assert hash(p) == hash((r, tuple(sorted(c.items()))))
    assert str(p) == ref_str(ref)
    assert p.is_one() == (r == 0 and not c)


@settings(deadline=None)
@given(st.data())
def test_phase_matches_reference_model(data):
    basis = data.draw(st.sampled_from(BASES))
    (p, rp), (q, rq) = data.draw(phase_pairs(basis)), data.draw(phase_pairs(basis))
    k = data.draw(SCALARS)
    assert_matches(p, rp)
    assert_matches(p + q, ref_add(rp, rq))
    assert_matches(p - q, ref_add(rp, ref_scale(rq, -1)))
    assert_matches(-p, ref_scale(rp, -1))
    assert_matches(p * k, ref_scale(rp, k))
    assert_matches(k * p, ref_scale(rp, k))
    assert (p == q) == (rp == rq)
    assert (p != q) == (rp != rq)


@settings(deadline=None)
@given(phase_pairs(), st.sampled_from(BASES))
def test_phase_equality_and_with_basis_across_bases(pair, other_basis):
    p, (r, c) = pair
    q = Phase(r, c, other_basis) if set(c) <= set(other_basis.symbols) else None
    if q is None:
        with pytest.raises(ValueError):
            p.with_basis(other_basis)
        return
    moved = p.with_basis(other_basis)
    assert moved.basis == other_basis
    assert moved == q and moved == p and q == p
    assert hash(moved) == hash(p)
    assert_matches(moved, (r, c))
