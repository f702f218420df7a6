"""Kolmogorov distance estimators and rate fitting."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from mclt_lab import distance, lipschitz, rng
from mclt_lab.distance import (
    KolmogorovEstimate,
    dkw_halfwidth,
    exact_kolmogorov_discrete,
    fit_rate,
    kolmogorov_distance,
    standard_normal_cdf,
)

PHI_1 = 0.8413447460685429  # Phi(1)


def test_normal_cdf_against_mpmath():
    import mpmath

    mpmath.mp.dps = 30
    for x in (-8.0, -3.5, -1.0, -0.1, 0.0, 0.1, 1.0, 2.5, 6.0, 8.5):
        exact = float(mpmath.ncdf(x))
        assert abs(float(standard_normal_cdf(x)) - exact) < 1e-15


def test_point_mass_at_zero():
    assert kolmogorov_distance([0.0]).d_hat == pytest.approx(0.5, abs=1e-15)
    assert exact_kolmogorov_discrete([0.0], [1.0]) == pytest.approx(0.5, abs=1e-15)


def test_two_point_sample():
    est = kolmogorov_distance([-1.0, 1.0])
    assert est.d_hat == pytest.approx(PHI_1 - 0.5, abs=1e-15)
    assert exact_kolmogorov_discrete([-1.0, 1.0], [0.5, 0.5]) == pytest.approx(
        PHI_1 - 0.5, abs=1e-15
    )


def test_shrinking_two_point_approaches_half():
    d = exact_kolmogorov_discrete([-1e-8, 1e-8], [0.5, 0.5])
    assert d == pytest.approx(0.5, abs=1e-6)


def test_dkw_band_formula():
    est = KolmogorovEstimate(d_hat=0.1, count=400, alpha=0.05)
    assert est.dkw_band == pytest.approx(math.sqrt(math.log(40.0) / 800.0), rel=1e-14)
    # 2/alpha overflows at alpha = 1e-308 (a rates config wrote an infinite
    # band into manifest.json); the band stays finite
    for alpha in (1e-308, 5e-324):
        want = math.sqrt((math.log(2.0) - math.log(alpha)) / 800.0)
        assert dkw_halfwidth(400, alpha) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        dkw_halfwidth(0, 0.05)
    with pytest.raises(ValueError):
        dkw_halfwidth(10, 1.5)


def test_nonfinite_samples_rejected():
    with pytest.raises(ValueError):
        kolmogorov_distance([0.0, float("nan")])
    with pytest.raises(ValueError):
        kolmogorov_distance([float("inf")])


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.lists(
        st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-60, 1e-17, 0.1, 1.0 / 3.0, 1.0]),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=1, max_size=12),
    blocks=st.integers(min_value=0, max_value=3),
    extra=st.integers(min_value=0, max_value=5),
)
def test_discrete_law_total_is_the_correctly_rounded_sum(pattern, blocks, extra):
    # the total runs over blocks of atoms, across block boundaries too; it
    # must be math.fsum of every atom, which the rejection message shows
    p = np.resize(np.array(pattern), blocks * distance._FSUM_BLOCK + extra + 1)
    for probs in (p, p / math.fsum(p.tolist()) if p.any() else p):
        want = math.fsum(probs.tolist())
        if abs(want - 1.0) > 1e-12:
            with pytest.raises(ValueError, match=re.escape(f"sum to {want!r}, not 1")):
                exact_kolmogorov_discrete(np.zeros(probs.size), probs)
        else:
            exact_kolmogorov_discrete(np.zeros(probs.size), probs)


def test_discrete_law_total_holds_no_float_per_atom():
    # rejecting a law of 2^19 atoms (total 1.5 + 2^-30) runs the checks
    # alone: the sign check's 1 B per atom, and a total that holds one block
    # of Python floats (0.5 MB), not 16 MB of them
    probs = np.full(1 << 19, 2.0**-20)
    probs[0] += 1.0 + 2.0**-30
    support = np.zeros(probs.size)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"sum to {1.5 + 2.0**-30!r}")):
            exact_kolmogorov_discrete(support, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def _sorted_scan_reference(support, probs) -> float:
    """The earlier ``exact_kolmogorov_discrete``: a stable argsort, sorted
    copies of support and probabilities, np.add.at over the duplicate runs."""
    v = np.asarray(support, dtype=float).ravel()
    p = np.asarray(probs, dtype=float).ravel()
    if v.size != p.size or v.size == 0:
        raise ValueError("support and probabilities must be equal-length and non-empty")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
        raise ValueError("non-finite support value or probability")
    if np.any(p < 0.0):
        raise ValueError("negative probabilities")
    total = math.fsum(p.tolist())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    order = np.argsort(v, kind="stable")
    v = v[order]
    p = p[order]
    keep = np.concatenate([[True], np.diff(v) != 0.0])
    idx = np.cumsum(keep) - 1
    merged_v = v[keep]
    merged_p = np.zeros(merged_v.size)
    np.add.at(merged_p, idx, p)
    cdf = np.cumsum(merged_p)
    phi = ndtr(merged_v)
    left = np.concatenate([[0.0], cdf[:-1]])
    d = max(np.max(np.abs(cdf - phi)), np.max(np.abs(left - phi)))
    return float(min(max(d, 0.0), 1.0))


@settings(max_examples=200, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -1.0, 1.0, 0.25, 1.0 / 3.0]),
                      st.floats(min_value=-6.0, max_value=6.0)),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1, max_size=40,
    ),
)
def test_sort_and_bin_equals_sorted_scan(atoms):
    # unsorted supports with repeated values, both signed zeros, a single
    # atom and zero-probability atoms: every bit of the distance is kept
    support = np.array([v for v, _ in atoms])
    weights = np.array([float(w) for _, w in atoms])
    if not weights.any():
        weights[-1] = 1.0
    probs = weights / weights.sum()
    want = _sorted_scan_reference(support, probs)
    assert exact_kolmogorov_discrete(support, probs).hex() == want.hex()


_ATOMS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -1.0, 1.0, 0.25, 1.0 / 3.0]),
                   st.floats(min_value=-6.0, max_value=6.0))


@st.composite
def _padded_stacks(draw):
    """Laws as (support, probs) rows of one width: each row is padded with
    zero-mass copies of one of its own atoms; one row may have 2^12 atoms."""
    laws = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        atoms = draw(st.lists(st.tuples(_ATOMS, st.integers(min_value=0, max_value=7)),
                              min_size=1, max_size=12))
        support = np.array([v for v, _ in atoms])
        weights = np.array([float(w) for _, w in atoms])
        if not weights.any():
            weights[-1] = 1.0
        laws.append((support, weights / weights.sum()))
    if draw(st.booleans()):
        rs = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        support = np.round(rs.normal(size=1 << 12) * 4.0) / 4.0  # many ties
        support[rs.random(support.size) < 0.05] = -0.0
        weights = rs.random(support.size)
        weights[rs.random(support.size) < 0.2] = 0.0
        laws.insert(draw(st.integers(min_value=0, max_value=len(laws))),
                    (support, weights / math.fsum(weights.tolist())))
    width = max(v.size for v, _ in laws)
    support = np.empty((len(laws), width))
    probs = np.zeros((len(laws), width))
    for row, (v, p) in enumerate(laws):
        pad = v[draw(st.integers(min_value=0, max_value=v.size - 1))]
        support[row] = np.concatenate([v, np.full(width - v.size, pad)])
        probs[row, : v.size] = p
    return laws, support, probs


@settings(max_examples=100, deadline=None)
@given(stack=_padded_stacks())
def test_stacked_distance_equals_the_one_law_call(stack):
    # row by row and bit for bit, with or without the row's padding
    laws, support, probs = stack
    got = exact_kolmogorov_discrete(support, probs)
    assert got.shape == (len(laws),)
    for d, (v, p), row_v, row_p in zip(got.tolist(), laws, support, probs):
        assert d.hex() == exact_kolmogorov_discrete(v, p).hex()
        assert d.hex() == exact_kolmogorov_discrete(row_v, row_p).hex()
        assert d.hex() == _sorted_scan_reference(v, p).hex()


def test_stacked_distance_refuses_its_first_invalid_row():
    # each row is checked as the one-law call checks it, in row order
    good = [0.5, 0.5]
    for bad_rows, message in (
        ([[0.7, 0.4], [-0.1, 1.1]], f"probabilities sum to {0.7 + 0.4!r}, not 1"),
        ([[-0.1, 1.1], [math.nan, 0.5]], "negative probabilities"),
        ([[math.nan, 0.5], [0.7, 0.4]], "non-finite support value or probability"),
    ):
        probs = np.array([good, *bad_rows, good])
        with pytest.raises(ValueError, match=re.escape(message)):
            exact_kolmogorov_discrete(np.zeros(probs.shape), probs)
    with pytest.raises(ValueError, match="equal-length"):
        exact_kolmogorov_discrete(np.zeros((2, 3)), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="non-empty"):
        exact_kolmogorov_discrete(np.zeros((2, 0)), np.zeros((2, 0)))


@pytest.mark.parametrize("size", [2, 1000, 1 << 17])
@pytest.mark.parametrize("offset, accepted", [
    (0.9e-12, True), (-0.9e-12, True), (1.1e-12, False), (-1.1e-12, False),
])
def test_total_near_the_tolerance(size, offset, accepted):
    # numpy's pairwise total only settles totals well inside the tolerance;
    # the rest take the correctly rounded sum, and its message
    probs = np.full(size, 1.0 / size)
    probs[size // 2] += offset
    total = math.fsum(probs.tolist())
    support = np.linspace(-1.0, 1.0, size)
    if accepted:
        want = _sorted_scan_reference(support, probs)
        assert exact_kolmogorov_discrete(support, probs).hex() == want.hex()
    else:
        with pytest.raises(ValueError, match=re.escape(f"probabilities sum to {total!r}, not 1")):
            exact_kolmogorov_discrete(support, probs)


def test_exact_distance_peak_per_atom():
    # the 2^20-atom law of rademacher_average at n=20 (51 distinct values):
    # the values sort and its change marks (9 B per atom) are freed before
    # the group index (8 B) is made, and the merge copies no weights
    model = lipschitz.model_from_config({"name": "rademacher_average", "params": {"n": 20}})
    support, probs = lipschitz.exact_distribution(model)
    assert not probs.flags.writeable
    tracemalloc.start()
    try:
        d = exact_kolmogorov_discrete(support, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == _sorted_scan_reference(support, probs)
    assert peak <= 10 * support.size


def test_exact_distance_merges_read_only_weights_in_place():
    # np.bincount copies read-only weights (8 B per atom); the merge must
    # not, and must add each group in input order as np.add.at does
    rs = np.random.default_rng(3)
    size = 1 << 18
    support = rs.integers(-20, 21, size).astype(float) / 7.0
    probs = rs.random(size)
    probs /= math.fsum(probs.tolist())
    probs.flags.writeable = False
    tracemalloc.start()
    try:
        d = exact_kolmogorov_discrete(support, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.hex() == _sorted_scan_reference(support, probs).hex()
    assert peak <= 10 * size


def test_invalid_discrete_laws_rejected():
    with pytest.raises(ValueError):
        exact_kolmogorov_discrete([0.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        exact_kolmogorov_discrete([0.0, 1.0], [0.7, 0.6])
    with pytest.raises(ValueError):
        exact_kolmogorov_discrete([0.0, 1.0], [-0.1, 1.1])


@pytest.mark.parametrize("support, probs", [
    ([0.0, 1.0], [math.nan, 0.5]),  # the sign and total checks pass NaN
    ([math.nan, 1.0], [0.5, 0.5]),
    ([0.0, math.inf], [0.5, 0.5]),  # an atom at +inf read as D = 0.5
    ([-math.inf, 0.0], [0.5, 0.5]),
    ([0.0, 1.0], [math.inf, -math.inf]),
])
def test_non_finite_discrete_laws_rejected(support, probs):
    with pytest.raises(ValueError, match="non-finite"):
        exact_kolmogorov_discrete(support, probs)


def test_empirical_equals_exact_on_expanded_law():
    # integer multiplicities M*p_i turn the discrete law into a sample whose
    # empirical CDF is the law itself
    support = [-1.0, 0.0, 1.5]
    probs = [0.25, 0.5, 0.25]
    samples = [-1.0] + [0.0, 0.0] + [1.5]
    assert kolmogorov_distance(samples).d_hat == pytest.approx(
        exact_kolmogorov_discrete(support, probs), abs=1e-15
    )


def test_million_standard_normals_within_dkw():
    # inverse-CDF normals, offset half a grid step so every uniform lies in (0, 1)
    z = ndtri(rng.uniforms(rng.stream_key(2024), np.arange(1_000_000), 0) + 2.0**-54)
    est = kolmogorov_distance(z, alpha=0.01)
    assert est.d_hat <= 0.0017  # dkw band at alpha=0.01 is ~0.00163


def test_dkw_coverage_sanity():
    exceed = 0
    reps, m = 200, 10_000
    band = dkw_halfwidth(m, 0.1)
    key = rng.stream_key(515)
    for r in range(reps):
        z = ndtri(rng.uniforms(key, np.arange(r * m, (r + 1) * m), 1) + 2.0**-54)
        if kolmogorov_distance(z).d_hat > band:
            exceed += 1
    assert exceed / reps <= 0.15


def test_permutation_invariance_and_tail_perturbation():
    u = rng.uniforms(rng.stream_key(8), np.arange(500), 0)
    samples = 2.0 * u - 1.0
    base = kolmogorov_distance(samples).d_hat
    assert kolmogorov_distance(samples[::-1]).d_hat == base
    with_extreme = np.concatenate([samples, [1e9]])
    assert abs(kolmogorov_distance(with_extreme).d_hat - base) <= 1.0 / len(samples)


@settings(max_examples=40)
@given(
    data=st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_distance_properties(data, seed):
    arr = np.asarray(data)
    est = kolmogorov_distance(arr)
    assert 0.0 <= est.d_hat <= 1.0
    perm = np.random.default_rng(seed).permutation(arr)
    assert kolmogorov_distance(perm).d_hat == est.d_hat
    bigger = kolmogorov_distance(np.concatenate([arr, [1e9]])).d_hat
    assert abs(bigger - est.d_hat) <= 1.0 / len(arr) + 1e-12


def test_fit_rate_exact_power_law():
    xs = [1.0, 2.0, 4.0, 8.0]
    pts = [(x, KolmogorovEstimate(0.01 * x**0.5, 10**9, 0.05)) for x in xs]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_reference_ratio_spread_one():
    xs = [0.3, 0.2, 0.1, 0.05]
    pts = [(x, KolmogorovEstimate(x * abs(math.log(x)), 10**9, 0.05)) for x in xs]
    fit = fit_rate(pts, reference=lambda e: e * abs(math.log(e)))
    assert fit.ratio_spread == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_fit_rate_spread_is_nan_on_a_reference_outside_zero_to_infinity(bad):
    # C2 is 0.0 where eps^(2p) underflows and <X>_n is 1 exactly; d_hat / 0.0
    # must not end the run
    pts = [(x, KolmogorovEstimate(0.01 * x, 10**9, 0.05)) for x in (1.0, 2.0, 4.0)]
    fit = fit_rate(pts, reference=[1.0, bad, 1.0])
    assert math.isnan(fit.ratio_spread)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_exclusions():
    pts = [
        (1.0, KolmogorovEstimate(0.5, 10**6, 0.05)),
        (2.0, KolmogorovEstimate(0.0, 10**6, 0.05)),  # log undefined
        (4.0, KolmogorovEstimate(0.25, 10**6, 0.05)),
        (8.0, KolmogorovEstimate(1e-9, 10**6, 0.05)),  # band swamps estimate
    ]
    fit = fit_rate(pts)
    assert len(fit.points) == 2
    assert len(fit.excluded) == 2
    assert any("d_hat = 0" in reason for reason in fit.excluded)
    assert any("DKW band" in reason for reason in fit.excluded)
    with pytest.raises(ValueError):
        fit_rate(pts[:2])
