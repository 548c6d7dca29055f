import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from kaccycles import melnikov
from kaccycles.errors import DomainError, EscapeError, NoReturnError
from kaccycles.melnikov import (MelnikovPoly, PerturbedSystem, build_melnikov,
                                count_bifurcating_cycles,
                                melnikov_flux_quadrature, poincare_return,
                                verify_cycles_ode)
from kaccycles.rootcount import Interval, count_in_interval
from kaccycles.sampler import (NoiseDistribution, PerturbationCoefficients,
                               SeedSpec)

G = NoiseDistribution.GAUSSIAN
TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def van_der_pol(eps=1e-3) -> PerturbedSystem:
    # p(x) = x^3/3 - x under the 1/(2 sqrt pi) normalization:
    # alpha_1 = -2 sqrt(pi), alpha_3 = 2 sqrt(pi)/3
    pc = PerturbationCoefficients.lienard(
        np.array([-TWO_SQRT_PI, 0.0, TWO_SQRT_PI / 3.0]))
    return PerturbedSystem("lienard", pc, epsilon=eps)


# ---------------------------------------------------------------------------
# Melnikov polynomial
# ---------------------------------------------------------------------------

def test_van_der_pol_melnikov_closed_form():
    # integral cos^4 = 3 pi/4, integral cos^2 = pi:
    # M(r) = pi r^4/4 - pi r^2, i.e. f(x) = -pi + (pi/4) x, zero at x = 4
    mp = build_melnikov(van_der_pol())
    assert np.allclose(mp.fn_coeffs, [-math.pi, math.pi / 4.0], rtol=1e-14)
    assert abs(mp.value(2.0)) < 1e-12
    assert abs(mp.value(1.0) - (math.pi / 4.0 - math.pi)) < 1e-14


def test_pure_damping_has_no_cycles():
    # p(x) proportional to x: f_0 = sqrt(pi)/2 > 0, no positive zero
    pc = PerturbationCoefficients.lienard(np.array([1.0]))
    rep = count_bifurcating_cycles(PerturbedSystem("lienard", pc))
    assert rep.count == 0 and not rep.zero_polynomial


def test_zero_perturbation_flagged():
    pc = PerturbationCoefficients.lienard(np.zeros(5))
    rep = count_bifurcating_cycles(PerturbedSystem("lienard", pc))
    assert rep.count == 0 and rep.zero_polynomial


def test_van_der_pol_cycle_count_and_radius():
    rep = count_bifurcating_cycles(van_der_pol())
    assert rep.count == 1
    assert abs(rep.radii[0] - 2.0) <= 1e-9
    assert rep.nondegenerate[0]


def test_count_bijection_with_rootcount():
    for trial in range(30):
        pc = PerturbationCoefficients.sample_full(11, G, SeedSpec(88, trial=trial))
        sysm = PerturbedSystem("center", pc)
        rep = count_bifurcating_cycles(sysm)
        mp = build_melnikov(sysm)
        want = count_in_interval(mp.fn_coeffs, Interval(0.0, math.inf)).count
        assert rep.count == want


def _companion_cycles(sysm):
    # the companion oracle: the positive roots of f_n, nondegenerate where
    # simple and |M'(r)| > 1e-8 prefactor ||f_n||_2, the rule the cycle count
    # used before it read the sweep
    mp = build_melnikov(sysm)
    rep = count_in_interval(mp.fn_coeffs, Interval(0.0, math.inf))
    x, c = rep.roots, mp.fn_coeffs
    dm = mp.prefactor * 2.0 * np.sqrt(x) * (P.polyval(x, c) + x * P.polyval(x, P.polyder(c)))
    nd = (rep.multiplicities == 1) & (np.abs(dm) > 1e-8 * mp.prefactor * np.linalg.norm(c))
    return rep.count, np.sqrt(x), nd


@pytest.mark.parametrize("kind", ["center", "lienard"])
@pytest.mark.parametrize("dist", list(NoiseDistribution), ids=lambda d: d.value)
def test_cycles_match_the_companion(kind, dist):
    # counts, radii and nondegenerate flags from the certified sweep against
    # the companion eigenvalues, degree 1 to 201
    found = 0
    for trial, d in enumerate((1, 2, 3, 4, 5, 6, 7, 9, 11, 14, 17, 21, 26, 33, 41,
                               52, 65, 81, 101, 127, 160, 201)):
        seed = SeedSpec(4242, trial=trial)
        pc = (PerturbationCoefficients.sample_full(d, dist, seed) if kind == "center"
              else PerturbationCoefficients.sample_lienard(d, dist, seed))
        sysm = PerturbedSystem(kind, pc)
        rep = count_bifurcating_cycles(sysm)
        count, radii, nd = _companion_cycles(sysm)
        assert rep.count == count == len(radii), d
        assert np.allclose(rep.radii, radii, rtol=1e-10, atol=0.0), d
        assert np.array_equal(rep.nondegenerate, nd), d
        found += count
    assert found >= 10


def test_cycle_count_at_degree_2001_raises_no_warning():
    pc = PerturbationCoefficients.sample_full(2001, G, SeedSpec(3, trial=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = count_bifurcating_cycles(PerturbedSystem("center", pc))
    assert rep.count == len(rep.radii) >= 1 and rep.nondegenerate.all()


def test_polyval_matches_horner_loop_bitwise(rng):
    # f goes through numpy's polyval: the same Horner operations in the same
    # order as an explicit loop, so every bit agrees
    def horner(coeffs, x):
        acc = 0.0
        for c in coeffs[::-1]:
            acc = acc * x + c
        return acc

    def bits(v, shape):
        return np.broadcast_to(np.asarray(v, dtype=float), shape).view(np.uint64)

    for n in (0, 1, 4, 17):
        c = rng.standard_normal(n + 1)
        mp = MelnikovPoly(c, 1.0, 1.0)
        xs = rng.uniform(-3.0, 3.0, 25)
        for x in xs:
            assert bits(mp.f(x), ()) == bits(horner(c, x), ())
        assert np.array_equal(bits(mp.f(xs), xs.shape), bits(horner(c, xs), xs.shape))


def test_lienard_flux_matches_horner_loop_bitwise(rng):
    for d in (1, 6, 11):
        pc = PerturbationCoefficients.lienard(rng.standard_normal(d))
        s = PerturbedSystem("lienard", pc)
        for r in (0.3, 1.7):
            th = np.linspace(0.0, 2.0 * math.pi, 4 * d + 8, endpoint=False)
            x = r * np.cos(th)
            px = np.zeros_like(x)
            for c in pc.alpha[::-1]:
                px = px * x + c
            px *= x / (2.0 * math.sqrt(math.pi))
            want = float((px * x).mean() * 2.0 * math.pi)
            assert melnikov_flux_quadrature(s, r) == want


def test_system_validation():
    pc = PerturbationCoefficients.lienard(np.ones(3))
    with pytest.raises(DomainError):
        PerturbedSystem("center", pc)
    with pytest.raises(DomainError):
        PerturbedSystem("lienard", pc, epsilon=0.0)
    with pytest.raises(DomainError):
        PerturbedSystem("spiral", pc)


# ---------------------------------------------------------------------------
# flux quadrature
# ---------------------------------------------------------------------------

def test_flux_zero_perturbation():
    pc = PerturbationCoefficients.from_maps(3, {}, {})
    s = PerturbedSystem("center", pc)
    for r in (0.3, 1.0, 2.5):
        assert melnikov_flux_quadrature(s, r) == 0.0


def test_van_der_pol_flux_at_limit_cycle():
    assert abs(melnikov_flux_quadrature(van_der_pol(), 2.0)) <= 1e-10


def test_flux_identity_random_center_systems(rng):
    for trial in range(8):
        d = int(rng.integers(1, 22))
        pc = PerturbationCoefficients.sample_full(d, G, SeedSpec(500, trial=trial))
        s = PerturbedSystem("center", pc)
        mp = build_melnikov(s)
        for r in np.linspace(0.1, 3.0, 5):
            want = mp.value(float(r))
            got = melnikov_flux_quadrature(s, float(r))
            assert abs(got - want) <= 1e-8 * max(1e-12, abs(want)), (trial, r)


def test_flux_identity_lienard(rng):
    for trial in range(5):
        pc = PerturbationCoefficients.sample_lienard(9, G, SeedSpec(911, trial=trial))
        s = PerturbedSystem("lienard", pc)
        mp = build_melnikov(s)
        for r in (0.2, 0.8, 1.9):
            want = mp.value(r)
            got = melnikov_flux_quadrature(s, r)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Poincare return map
# ---------------------------------------------------------------------------

def test_unperturbed_orbits_close():
    # zero perturbation: circles, P(r0) = r0 (epsilon value irrelevant)
    pc = PerturbationCoefficients.from_maps(1, {}, {})
    s = PerturbedSystem("center", pc, epsilon=1e-6)
    for r0 in (0.5, 1.5, 3.0):
        assert abs(poincare_return(s, r0) - r0) <= 1e-9 * max(1.0, r0)


def test_van_der_pol_displacement_near_cycle():
    # at the cycle radius the first-order displacement vanishes
    s = van_der_pol(1e-3)
    assert abs(poincare_return(s, 2.0) - 2.0) <= 5.0 * (1e-3) ** 2


def test_van_der_pol_displacement_matches_melnikov():
    s = van_der_pol(1e-3)
    mp = build_melnikov(s)
    got = poincare_return(s, 1.0) - 1.0
    want = s.epsilon * mp.ode_sign * mp.value(1.0) / 1.0
    assert want > 0  # spirals outward toward the stable cycle
    assert abs(got / want - 1.0) <= 0.2


def test_displacement_scaling_richardson(rng):
    # (P(r) - r)/eps -> s M(r)/r; Richardson over eps in {1e-2, 1e-3}
    for trial in range(2):
        pc = PerturbationCoefficients.sample_full(5, G, SeedSpec(606, trial=trial))
        s = PerturbedSystem("center", pc)
        mp = build_melnikov(s)
        for r in (0.6, 1.1, 1.7):
            d = {}
            for eps in (1e-2, 1e-3):
                ret = poincare_return(replace(s, epsilon=eps), r)
                d[eps] = (ret - r) / eps
            extrap = d[1e-3] + (d[1e-3] - d[1e-2]) * (1e-3 / (1e-2 - 1e-3))
            want = mp.ode_sign * mp.value(r) / r
            assert abs(extrap - want) <= 0.02 * max(0.05, abs(want)), (trial, r)


def _scalar_or_nan(s, r):
    try:
        return poincare_return(s, r)
    except (EscapeError, NoReturnError):
        return math.nan


@pytest.mark.parametrize("kind,d,trial", [("center", 7, 8), ("center", 5, 2),
                                          ("lienard", 7, 1), ("lienard", 5, 3)])
def test_batched_lanes_match_one_lane_calls(kind, d, trial):
    seed = SeedSpec(70812, trial=trial)
    pc = (PerturbationCoefficients.sample_full(d, G, seed) if kind == "center"
          else PerturbationCoefficients.sample_lienard(d, G, seed))
    s = PerturbedSystem(kind, pc, epsilon=1e-2)
    rs = np.linspace(0.1, 6.0, 40)
    got, _fate = melnikov._returns(melnikov._PolarField(s), s.epsilon, rs)
    want = np.array([_scalar_or_nan(s, r) for r in rs])
    # a lane is NaN exactly where the one-lane call raises
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.maximum(1.0, rs[ok]))


def test_escape_and_no_return_raise():
    # p(x) = -2x at eps = 1/2: phi' stays positive and r passes 10 r0 in one turn
    s = PerturbedSystem("lienard", PerturbationCoefficients.lienard(
        np.array([-2.0 * TWO_SQRT_PI])), epsilon=0.5)
    with pytest.raises(EscapeError):
        poincare_return(s, 1.0)
    # at r = 6 the degree-7 center field turns phi' negative before one turn
    pc = PerturbationCoefficients.sample_full(7, G, SeedSpec(70812, trial=8))
    s = PerturbedSystem("center", pc, epsilon=1e-2)
    with pytest.raises(NoReturnError):
        poincare_return(s, 6.0)


def test_unperturbed_lanes_return_exactly():
    for pc in (PerturbationCoefficients.from_maps(3, {}, {}),
               PerturbationCoefficients.lienard(np.zeros(4))):
        s = PerturbedSystem("center" if pc.kind == "full" else "lienard", pc,
                            epsilon=1e-2)
        rs = np.linspace(0.05, 8.0, 33)
        got, fate = melnikov._returns(melnikov._PolarField(s), s.epsilon, rs)
        assert np.array_equal(got, rs) and not fate.any()


def test_lanes_of_two_eps_levels_match_scalar_calls():
    # acceptance-12 trial 4 (center, d = 5) has returning, escaping and
    # non-returning lanes at both levels when r runs up to 6
    field = melnikov._PolarField(_acceptance_12_system(4))
    rs = np.linspace(0.1, 6.0, 40)
    levels = (1e-2, 5e-3)
    got, fate = melnikov._returns(field, np.tile(levels, rs.size), np.repeat(rs, 2))
    for k, eps in enumerate(levels):
        want, want_fate = melnikov._returns(field, eps, rs)
        assert set(want_fate.tolist()) == {melnikov._RETURNED, melnikov._ESCAPED,
                                           melnikov._NO_RETURN}
        assert got[k::2].tobytes() == want.tobytes()
        assert np.array_equal(fate[k::2], want_fate)


def test_poincare_rejects_bad_radius():
    s = van_der_pol()
    with pytest.raises(DomainError):
        poincare_return(s, 0.0)


# ---------------------------------------------------------------------------
# ODE cross-validation
# ---------------------------------------------------------------------------

def test_van_der_pol_ode_verification():
    rep = verify_cycles_ode(van_der_pol(1e-3))
    assert rep.count == 1
    assert abs(rep.radii[0] - 2.0) <= 0.05


def test_pure_damping_ode_verification():
    pc = PerturbationCoefficients.lienard(np.array([1.0]))
    rep = verify_cycles_ode(PerturbedSystem("lienard", pc))
    assert rep.count == 0


@pytest.mark.parametrize("eps_start", [0.0, -1.0, math.nan, 1.0, 2.0, 1.99e-5])
def test_ode_verification_rejects_eps_start(eps_start):
    # the schedule needs eps_start in (0, 1) and two levels at or above 1e-5
    with pytest.raises(DomainError):
        verify_cycles_ode(van_der_pol(), eps_start=eps_start)


def test_ode_verification_runs_with_two_levels():
    rep = verify_cycles_ode(van_der_pol(), eps_start=2e-5)
    assert rep.count == 1 and abs(rep.radii[0] - 2.0) <= 0.05


def test_acceptance_12_trial_8_counts_one_cycle():
    # seed 70812, trial 8: center, d = 7, one Melnikov radius at 2.07
    pc = PerturbationCoefficients.sample_full(7, G, SeedSpec(70812, trial=8))
    s = PerturbedSystem("center", pc)
    assert count_bifurcating_cycles(s).count == 1
    rep = verify_cycles_ode(s)
    assert rep.count == 1 and abs(rep.radii[0] - 2.07) <= 0.05


def _acceptance_12_system(trial):
    d = (3, 5, 7)[trial % 3]
    seed = SeedSpec(70812, trial=trial)
    if trial % 2 == 0:
        return PerturbedSystem("center", PerturbationCoefficients.sample_full(d, G, seed))
    return PerturbedSystem("lienard", PerturbationCoefficients.sample_lienard(d, G, seed))


def _record_levels(monkeypatch):
    """Patch replace, called once per eps level read, to record each eps0."""
    levels = []
    replace_ = melnikov.replace

    def counted(sys, **changes):
        levels.append(changes["epsilon"])
        return replace_(sys, **changes)

    monkeypatch.setattr(melnikov, "replace", counted)
    return levels


# trial None is van der Pol; acceptance-12 trial 0 has no cycle, 2 one, 4
# two (0.598 and 4.445), 8 one at 2.07, 17 two (0.934 and 1.111), 22 one at
# 3.888 and 32 one at 2.374.  Every case reads two eps levels.
@pytest.mark.parametrize("trial", [None, 0, 2, 4, 8, 17, 22, 32])
def test_ode_counts_and_radii_match_melnikov(monkeypatch, trial):
    s = van_der_pol() if trial is None else _acceptance_12_system(trial)
    mel = count_bifurcating_cycles(s)
    read = _record_levels(monkeypatch)
    rep = verify_cycles_ode(s)
    assert rep.count == mel.count
    assert np.all(np.abs(rep.radii - mel.radii) <= 0.05)
    assert len(read) == 2


# trial None is van der Pol (d = 3); acceptance-12 trials 4 and 22 have
# d = 5, trial 8 has d = 7
@pytest.mark.parametrize("trial", [None, 4, 8, 22])
def test_scaled_displacement_matches_melnikov(trial):
    # (P(r) - r) / eps(r) = s M(r) / r + O(eps0) with eps(r) = eps0
    # max(r, 1)^(1-d); the O(eps0) term grows like max(r, 1)^d, as M(r) / r
    s = van_der_pol() if trial is None else _acceptance_12_system(trial)
    mp = build_melnikov(s)
    r = np.array([0.5, 1.0, 2.0, 3.0, 4.5])
    got = melnikov._displacement(melnikov._PolarField(s), 1e-4, r)
    want = mp.ode_sign * np.array([mp.value(x) for x in r]) / r
    assert np.all(np.abs(got - want) <= 1e-2 * (np.abs(want) + np.maximum(1.0, r) ** s.pc.d))


def test_brackets_in_adjacent_cells_report_two_radii(monkeypatch):
    # g = (r - 1.49)(r - 1.51), the same at every eps, changes sign in the
    # adjacent cells [1.4, 1.5] and [1.5, 1.6]
    def g(r):
        return (r - 1.49) * (r - 1.51)

    rs = np.linspace(1.0, 2.0, 11)
    assert np.flatnonzero(melnikov._brackets(g(rs))).tolist() == [4, 5]
    monkeypatch.setattr(melnikov, "_ode_grid", lambda s: rs)
    monkeypatch.setattr(melnikov, "_displacement", lambda field, eps0, r: g(r))
    rep = verify_cycles_ode(van_der_pol())
    assert rep.count == 2
    assert np.all(np.abs(rep.radii - [1.49, 1.51]) <= 1e-10 * 1.51)


# trial None is van der Pol; count is what verify_cycles_ode reports
@pytest.mark.parametrize("trial,count", [
    (None, 1), (1, 1), (2, 1), (4, 2), (17, 2), (22, 1)])
def test_reported_radii_are_sign_changes_of_g(monkeypatch, trial, count):
    s = van_der_pol() if trial is None else _acceptance_12_system(trial)
    levels = _record_levels(monkeypatch)
    rep = verify_cycles_ode(s)
    assert rep.count == count
    # the scaled displacement of the reported level, the last one read,
    # changes sign across the stop width around each radius
    w = 1e-10 * np.maximum(1.0, rep.radii)
    r = np.concatenate([rep.radii - w, rep.radii + w])
    g = melnikov._displacement(melnikov._PolarField(s), levels[-1], r)
    below, above = np.split(g, 2)
    assert np.all(below * above <= 0.0)


def test_van_der_pol_refines_only_the_reported_level(monkeypatch):
    calls = []
    fixed_points = melnikov._fixed_points

    def counted(*args):
        calls.append(args[0])
        return fixed_points(*args)

    monkeypatch.setattr(melnikov, "_fixed_points", counted)
    levels = _record_levels(monkeypatch)
    s = van_der_pol()
    rep = verify_cycles_ode(s)
    # two levels (1e-3, 5e-4); one refinement, of the second, reported one
    assert rep.count == 1 and levels == [1e-3, 5e-4] and len(calls) == 1
    r = np.array([1.5, 2.0, 2.5])
    want = melnikov._displacement(melnikov._PolarField(s), 5e-4, r)
    assert calls[0](r).tobytes() == want.tobytes()


def _kinked(z):
    """Piecewise-linear g on [1, 2] through (1, -1), (z, 0) and (2, 3)."""
    return lambda r: np.where(r < z, (r - z) / (z - 1.0), 3.0 * (r - z) / (2.0 - z))


def _nan_on(g, lo, hi):
    return lambda r: np.where((r > lo) & (r < hi), np.nan, g(r))


def _refine_analytic(g, rs):
    """(_fixed_points on the brackets of g over rs, number of calls of g)."""
    calls = []

    def counted(r):
        calls.append(np.size(r))
        return (r + g(r)) - r    # the arithmetic of P(r) - r

    return melnikov._fixed_points(counted, rs, g(rs)), len(calls)


# On [1, 2] with g(1) = -1 and g(2) = 3 and no grid point beside them, the
# first center is the regula falsi point 1.25, the ladder around it spans
# 256 times a fifth of the stop width (1e-8), and the quarter points of the
# bracket are probes: 1.75 is one.
_QUARTER_PROBE = 1.75
_ONE_TO_TWO = np.array([1.0, 2.0])


# max_calls: the calls of g in this refinement; rounds of the Illinois
# point with two guard probes took 1, 14, 23, 6 and 7, and one-point
# Illinois rounds 1, 15, 24, 8 and 12
@pytest.mark.parametrize("g,rs,roots,max_calls", [
    (lambda r: 0.3 - 0.25 * r, _ONE_TO_TWO, [1.2], 1),
    (lambda r: 40.0 * (r - 1.03) ** 3 + 0.02 * (r - 1.03), np.array([1.0, 1.5]),
     [1.03], 3),
    (lambda r: (r - 1.3) ** 3 + 1e-6 * (r - 1.3), _ONE_TO_TWO, [1.3], 3),
    (lambda r: (r - 1.23) * (r - 1.57) * (r - 1.91), np.linspace(1.0, 2.0, 11),
     [1.23, 1.57, 1.91], 3),
    (_nan_on(_kinked(1.24), 1.26, 1.3), _ONE_TO_TWO, [1.24], 5),
], ids=["linear", "steep-cubic", "flat-cubic", "three-brackets", "nan-at-probe"])
def test_probe_refinement_of_analytic_brackets(g, rs, roots, max_calls):
    got, calls = _refine_analytic(g, rs)
    want = np.array(roots)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, want))
    assert calls <= max_calls


def test_probe_refinement_reports_an_exact_zero_at_a_probe():
    # one round finds g = 0 at the probe 1.75; one-point Illinois took 15
    got, calls = _refine_analytic(_kinked(_QUARTER_PROBE), _ONE_TO_TWO)
    assert got.tolist() == [_QUARTER_PROBE] and calls == 1


def test_probe_refinement_stops_where_nan_hides_the_sign_change():
    # every probe of the first round (1.25 -+ 1e-8, 1.5, 1.75) falls in the
    # NaN band around the root at 1.24: no interval of the sorted points
    # changes sign, so the bracket reports its midpoint, as one-point
    # Illinois did at a NaN
    got, calls = _refine_analytic(_nan_on(_kinked(1.24), 1.2, 1.8), _ONE_TO_TWO)
    assert got.tolist() == [1.5] and calls == 1


def test_brackets_keep_the_nan_and_zero_rule(rng):
    def old_mask(gv):
        ga, gb = gv[:-1], gv[1:]
        with np.errstate(invalid="ignore"):
            return ~np.isnan(ga) & ~np.isnan(gb) & (ga != 0.0) & ~(ga * gb > 0.0)

    gv = np.array([1.0, np.nan, -1.0, 0.0, -2.0, 3.0, 0.0, 0.0, 1.0, -1.0,
                   np.nan, np.nan, 2.0, -0.0, 5.0, np.inf, -3.0])
    assert melnikov._brackets(gv).tolist() == old_mask(gv).tolist()
    # exact zeros: bracketed once, from the left
    assert melnikov._brackets(np.array([1.0, 0.0, -1.0])).tolist() == [True, False]
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf])
    for _ in range(200):
        gv = rng.choice(values, size=12)
        assert np.array_equal(melnikov._brackets(gv), old_mask(gv))


def _split_field(field, phi, r, eps):
    """_PolarField.__call__ with the Vandermonde rows taken by np.split."""
    c, s = np.cos(phi), np.sin(phi)
    x, y = r * c, -r * s
    if field.pq is not None:
        d1 = field.pq.shape[0]
        xp, yp = np.split(np.vander(np.concatenate([x, y]), d1, increasing=True), 2)
        p, q = np.einsum("lkj,lj->kl", (xp @ field.pq).reshape(len(r), 2, d1), yp)
    else:
        p = -x * np.polynomial.polynomial.polyval(x, field.a)
        q = 0.0
    phidot = 1.0 - eps * (c * q + s * p) / r
    rate = eps * (c * p - s * q) / phidot
    return rate, (phidot > 0.0) & (r > 0.0) & np.isfinite(rate)


@pytest.mark.parametrize("kind,d", [("center", 7), ("lienard", 5)])
@pytest.mark.parametrize("lanes", [1, 48])
def test_field_slices_match_split_bitwise(rng, kind, d, lanes):
    seed = SeedSpec(70812, trial=lanes + d)
    pc = (PerturbationCoefficients.sample_full(d, G, seed) if kind == "center"
          else PerturbationCoefficients.sample_lienard(d, G, seed))
    field = melnikov._PolarField(PerturbedSystem(kind, pc))
    phi = rng.uniform(0.0, 2.0 * math.pi, lanes)
    r = rng.uniform(0.05, 5.0, lanes)
    with np.errstate(all="ignore"):
        got, got_ok = field(phi, r, 1e-2)
        want, want_ok = _split_field(field, phi, r, 1e-2)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_ok, want_ok)
