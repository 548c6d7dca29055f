import math
from dataclasses import replace

import numpy as np
import pytest

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


def test_polyval_matches_horner_loop_bitwise(rng):
    # f and f' go through numpy's polyval: the same Horner operations in the
    # same order as an explicit loop, so every bit agrees
    def horner(coeffs, x):
        acc = 0.0
        for c in coeffs[::-1]:
            acc = acc * x + c
        return acc

    def bits(v, shape):
        return np.broadcast_to(np.asarray(v, dtype=float), shape).view(np.uint64)

    for n in (0, 1, 4, 17):
        c = rng.standard_normal(n + 1)
        mp = MelnikovPoly(c, n, 1.0, 1.0)
        xs = rng.uniform(-3.0, 3.0, 25)
        deriv = np.arange(1, n + 1) * c[1:]
        for x in xs:
            assert bits(mp.f(x), ()) == bits(horner(c, x), ())
            assert bits(mp.f_prime(x), ()) == bits(horner(deriv, x), ())
        assert np.array_equal(bits(mp.f(xs), xs.shape), bits(horner(c, xs), xs.shape))
        assert np.array_equal(bits(mp.f_prime(xs), xs.shape),
                              bits(horner(deriv, xs), xs.shape))


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


def test_acceptance_12_trial_8_counts_one_cycle():
    # seed 70812, trial 8: center, d = 7, one Melnikov radius at 2.07
    pc = PerturbationCoefficients.sample_full(7, G, SeedSpec(70812, trial=8))
    s = PerturbedSystem("center", pc)
    assert count_bifurcating_cycles(s).count == 1
    assert verify_cycles_ode(s).count == 1
