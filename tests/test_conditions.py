"""Condition certification and the exact moment-lemma checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclt_lab as m
from mclt_lab import corpus
from mclt_lab.conditions import minimal_delta, minimal_epsilon, verify_moment_lemmas
from mclt_lab.kernels import StepDistribution, TableKernel, rademacher_two_point


def test_rademacher_epsilon_is_inverse_sqrt_n():
    for n in (4, 16, 64):
        k = m.make_kernel("iid_rademacher", n=n)
        for rho in (0.5, 1.0, 2.0):
            report = minimal_epsilon(k, rho)
            assert report.mode == "certified"
            assert report.epsilon == pytest.approx(n**-0.5, rel=1e-12)


def test_degenerate_step_contributes_zero_ratio():
    zero = StepDistribution(values=(0.0,), probs=(1.0,))
    kernel = TableKernel([zero, rademacher_two_point(0.25)])
    report = minimal_epsilon(kernel, 1.0)
    assert report.per_step[0]["epsilon"] == 0.0
    assert report.epsilon == pytest.approx(0.25, rel=1e-12)


def test_three_point_epsilon_equals_jump_size():
    n, b = 25, 0.2
    q = 1.0 / (n * b * b)
    k = m.make_kernel("three_point", n=n, b=b, q=q)
    report = minimal_epsilon(k, 1.0)
    assert report.epsilon == pytest.approx(b, rel=1e-12)


def test_closed_forms_match_walker():
    k = m.make_kernel("variance_drift", n=10, d=0.3)
    for rho in (0.5, 1.0):
        assert k.certified_epsilon(rho) == pytest.approx(
            minimal_epsilon(k, rho).epsilon, rel=1e-12
        )
    assert k.certified_delta() == pytest.approx(minimal_delta(k).delta, rel=1e-12)


def test_delta_examples():
    assert minimal_delta(m.make_kernel("iid_rademacher", n=8)).delta == 0.0
    # variance drift: sup |<X>_n - 1| = d, attained on one-sided paths
    for n in (6, 12):
        k = m.make_kernel("variance_drift", n=n, d=0.2)
        assert minimal_delta(k).delta == pytest.approx(math.sqrt(0.2), rel=1e-12)
    # constant terminal variance 1.04 -> delta = 0.2
    k104 = TableKernel([rademacher_two_point(math.sqrt(1.04 / 4))] * 4)
    assert minimal_delta(k104).delta == pytest.approx(0.2, rel=1e-9)


def test_reports_are_reproducible_and_serializable():
    k = m.make_kernel("variance_drift", n=12, d=0.25)
    a = minimal_epsilon(k, 1.0)
    b = minimal_epsilon(k, 1.0)
    assert a.epsilon == b.epsilon
    doc = json.loads(a.to_json())
    assert set(doc) >= {"rho", "epsilon", "delta", "mode", "per_step"}
    assert doc["mode"] == "certified"
    assert len(doc["per_step"]) == 12


def test_out_of_range_flag():
    k = m.make_kernel("two_point", n=2, a=0.8)
    report = minimal_epsilon(k, 1.0)
    assert report.epsilon == pytest.approx(0.8, rel=1e-12)
    assert report.out_of_range
    assert any("range" in note for note in report.notes)


def test_two_point_epsilon_constant_in_rho():
    # at rho = 400 and 2000, a^(2+rho) leaves the float range on one side or
    # the other, and at a = 1e-200 and 1e200 so does a^2: eps then comes from
    # log space
    for a in (0.22, 2.0, 1e-200, 1e200):
        k = m.make_kernel("two_point", n=3, a=a)
        for rho in (0.25, 0.5, 1.0, 1.7, 3.0, 400.0, 2000.0):
            assert minimal_epsilon(k, rho).epsilon == pytest.approx(a, rel=1e-12), (a, rho)
            assert k.certified_epsilon(rho) == pytest.approx(a, rel=1e-12), (a, rho)


def test_epsilon_nondecreasing_in_rho_and_capped_by_the_largest_atom():
    # eps(rho) is the L^rho norm of |xi| under the law reweighted by xi^2:
    # nondecreasing in rho, and never above the largest |atom|
    rhos = np.geomspace(0.25, 5000.0, 64).tolist()
    for i in range(300):
        dist = corpus.random_mean_zero_distribution(13, i)
        top = max(abs(v) for v, p in zip(dist.values, dist.probs) if p > 0.0)
        eps = [dist.epsilon(rho) for rho in rhos]
        assert all(math.isfinite(e) for e in eps), f"corpus item {i}"
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(eps, eps[1:])), f"corpus item {i}"
        assert max(eps) <= top * (1.0 + 1e-12), f"corpus item {i}"


def test_gaussian_epsilon_finite_and_nondecreasing_in_rho():
    # the declared moment of Gamma form overflows from rho = 340 or so at
    # n = 64; past it the moment, and past the float range eps, come from
    # log space
    kernel = m.make_kernel("iid_gaussian", n=64)
    sigma = 0.125
    assert kernel.certified_epsilon(1.0) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi) * sigma,
                                                          rel=1e-14)
    assert math.isfinite(kernel.certified_epsilon(400.0))
    rhos = np.geomspace(0.25, 1e5, 200).tolist() + np.linspace(330.0, 350.0, 201).tolist()
    eps = [kernel.certified_epsilon(rho) for rho in sorted(rhos)]
    assert all(math.isfinite(e) for e in eps)
    assert all(b >= a * (1.0 - 1e-12) for a, b in zip(eps, eps[1:]))
    # E|Z|^(2+rho) ~ (rho/e)^(rho/2) sqrt(2): eps grows like sigma sqrt(rho/e)
    assert kernel.certified_epsilon(1e5) == pytest.approx(sigma * math.sqrt(1e5 / math.e), rel=1e-3)


def test_gaussian_log_moment_agrees_with_the_gamma_form():
    dist = m.make_kernel("iid_gaussian", n=64).dist
    for t in (3.0, 4.5, 10.0, 100.0, 300.0):
        assert math.exp(dist.declared_log_moment(t)) == pytest.approx(dist.moment(t), rel=1e-12)
    assert dist.moment(2.0) == 0.125**2
    assert dist.moment(1000.0) == math.inf  # past the float range, from log space


@pytest.mark.parametrize("rho", [1e-300, 1e-17, 1e-12, 1e-6, 2.0**-12 * (1 - 2.0**-53)])
def test_single_magnitude_epsilon_at_small_rho(rho):
    # (m_{2+rho} / m_2)^(1/rho) rounds the ratio before the 1/rho power:
    # two_point a = 0.5 gave 1.0 at rho = 1e-17 and 0.49996 at 1e-12
    laws = [rademacher_two_point(a) for a in (0.5, 3.0, 7.0**-0.5, 1e-200, 1e200)]
    laws.append(StepDistribution(values=(-2.0, 0.0, 2.0), probs=(0.05, 0.9, 0.05)))
    for law in laws:
        magnitude = max(abs(v) for v in law.values)
        assert abs(law.epsilon(rho) - magnitude) <= 2.0 * math.ulp(magnitude), (law, rho)


def _decimal_epsilon(dist, rho):
    """eps(rho) = (E_Q |xi|^rho)^(1/rho) in 400-digit decimal arithmetic."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 400
        rho = Decimal(rho)
        weights = [(Decimal(p) * Decimal(v) ** 2, abs(Decimal(v)))
                   for v, p in zip(dist.values, dist.probs) if p > 0.0 and v != 0.0]
        total = sum(q for q, _ in weights)
        mean = sum(q * (rho * a.ln()).exp() for q, a in weights) / total
        return float((mean.ln() / rho).exp())


def test_epsilon_at_small_rho_against_decimal_arithmetic():
    dist = StepDistribution(values=(-1.5, -0.25, 0.5, 1.5), probs=(0.2, 0.4, 0.2, 0.2))
    assert dist.check() is None
    for rho in (1e-300, 1e-17, 1e-12, 1e-6, 1e-4, 0.5, 1.0):
        assert dist.epsilon(rho) == pytest.approx(_decimal_epsilon(dist, rho), rel=1e-13), rho


# ---------------------------------------------------------------------------
# moment lemmas


def test_interpolation_equality_for_single_magnitude():
    dist = rademacher_two_point(0.3)
    report = verify_moment_lemmas(dist, s=4.0, t_grid=[3.0])
    assert report.epsilon == pytest.approx(0.3, rel=1e-12)
    row = report.interpolation[0]
    assert row["holds"]
    assert row["moment"] == pytest.approx(row["bound"], rel=1e-12)
    assert report.variance_cap["holds"]


def test_interpolation_equality_when_single_magnitude():
    # a zero atom keeps the nonzero support at one magnitude: equality case
    dist = StepDistribution(values=(-2.0, 0.0, 2.0), probs=(0.05, 0.9, 0.05))
    report = verify_moment_lemmas(dist, s=4.0, t_grid=[2.5, 3.0, 3.5])
    assert report.all_hold
    for row in report.interpolation:
        assert row["moment"] == pytest.approx(row["bound"], rel=1e-12)


def test_interpolation_strict_for_multi_magnitude():
    dist = StepDistribution(values=(-2.0, -0.5, 0.5, 2.0), probs=(0.25,) * 4)
    report = verify_moment_lemmas(dist, s=4.0, t_grid=[2.5, 3.0, 3.5])
    assert report.all_hold
    for row in report.interpolation:
        assert row["moment"] < row["bound"] * (1.0 - 1e-9)


def test_vacuous_pass_for_point_mass():
    dist = StepDistribution(values=(0.0,), probs=(1.0,))
    report = verify_moment_lemmas(dist, s=4.0, t_grid=[3.0])
    assert report.vacuous and report.all_hold


def test_user_supplied_epsilon_weakens_conclusions():
    dist = rademacher_two_point(0.3)
    report = verify_moment_lemmas(dist, s=4.0, t_grid=[3.0], epsilon=0.4)
    assert report.all_hold  # larger eps only loosens every bound


def test_moment_lemmas_on_random_corpus():
    for i in range(100):
        dist = corpus.random_mean_zero_distribution(99, i)
        assert dist.check() is None
        report = verify_moment_lemmas(dist, s=4.0, t_grid=[2.25, 2.5, 3.0, 3.5])
        assert report.all_hold, f"corpus item {i}"


@settings(max_examples=40)
@given(
    a=st.floats(min_value=0.05, max_value=2.0),
    s=st.floats(min_value=2.5, max_value=6.0),
    t=st.floats(min_value=2.0, max_value=5.9),
)
def test_interpolation_property_two_point(a, s, t):
    if t >= s:
        t = 2.0 + (t - 2.0) * (s - 2.0) / 4.0  # fold into [2, s)
    dist = rademacher_two_point(a)
    report = verify_moment_lemmas(dist, s=s, t_grid=[t])
    assert report.all_hold


def test_nonfinite_moment_rejected():
    k = m.make_kernel("iid_gaussian", n=4)
    with pytest.raises(Exception):
        minimal_epsilon(k, 1.0)  # sampled-mode kernels cannot be certified
