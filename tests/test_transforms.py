"""Unit-variance padding and stopping-rule constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclt_lab as m
from mclt_lab import kernels, rng
from mclt_lab.kernels import PathCollection, sample_paths
from mclt_lab.transforms import (
    INF_GE_1,
    RATIO_TOL,
    SUP_LE_1,
    pad_collection,
    padding_ratio_report,
    restrict_to_v,
)


def _paths_from_variances(variances, increments=None):
    """A collection with one row per variance path (one row for a 1-d
    sequence); by default every row steps up by +sigma."""
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    if increments is None:
        increments = np.sqrt(np.diff(variances, axis=1))
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    sums = np.concatenate([np.zeros((len(increments), 1)), np.cumsum(increments, axis=1)], axis=1)
    return PathCollection(increments=increments, sums=sums, variances=variances)


def test_pad_worked_example():
    # variance 0.9 after three steps, eps = 0.2: two eps pads plus a residual
    p = pad_collection(_paths_from_variances([0.0, 0.3, 0.6, 0.9]), epsilon=0.2, seed=5)
    assert p.tau[0] == 3
    assert p.pad_count[0] == 2
    assert p.residual[0] == pytest.approx(math.sqrt(0.02), abs=1e-12)
    assert p.residual[0] == pytest.approx(0.141421, abs=1e-6)
    assert abs(p.terminal_variances[0] - 1.0) <= 1e-9
    assert p.increments.shape == (1, 3 + math.floor(1.0 / 0.2**2) + 1)


def test_pad_already_normalized_path_is_identity_plus_zeros():
    k = m.make_kernel("iid_rademacher", n=16)
    paths = sample_paths(k, seed=2, count=5)
    p = pad_collection(paths, epsilon=0.25, seed=9)
    assert np.all(p.tau == 16)
    assert np.all(p.pad_count == 0)
    assert np.all(p.residual == 0.0)
    assert np.array_equal(p.increments[:, :16], paths.increments)
    assert np.all(p.increments[:, 16:] == 0.0)
    assert np.array_equal(np.sum(p.increments, axis=1), paths.sums[:, -1])
    assert np.all(np.abs(p.terminal_variances - 1.0) <= 1e-12)


def test_padding_epsilon_range_enforced():
    paths = _paths_from_variances([0.0, 0.5])
    for eps in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            pad_collection(paths, epsilon=eps, seed=1)


def test_residual_stays_below_epsilon():
    p = pad_collection(_paths_from_variances([0.0, 0.37, 0.81]), epsilon=0.17, seed=3)
    assert 0.0 <= p.residual[0] <= 0.17
    assert abs(p.terminal_variances[0] - 1.0) <= 1e-9


def test_padded_ratio_equality_and_slack():
    d, n = 0.2, 64
    k = m.make_kernel("variance_drift", n=n, d=d)
    eps = k.certified_epsilon(1.0)
    paths = sample_paths(k, seed=13, count=50)
    padded = pad_collection(paths, eps, seed=13)
    report = padding_ratio_report(padded, rho=1.0)
    assert report["holds"].all()
    # the kept high-variance steps and the eps pads sit exactly at the bound
    assert np.all(report["worst_ratio"] <= 1.0 + 1e-12)
    assert np.all(report["equality_steps"] >= padded.pad_count)


def test_padding_ratio_flags_undersized_epsilon():
    paths = _paths_from_variances([0.0, 0.3, 0.6, 0.9])  # step std ~ 0.55
    report = padding_ratio_report(pad_collection(paths, epsilon=0.2, seed=5), rho=1.0)
    assert not report["holds"][0]


def test_padding_ratio_when_eps_to_the_rho_underflows():
    # 0.3**1000 and 0.2**600 are 0.0 in floats, and so are the powers of
    # the high steps of size sqrt(1.2 / 16) = 0.274
    paths = sample_paths(m.make_kernel("variance_drift", n=16, d=0.2), seed=3, count=50)
    padded = pad_collection(paths, epsilon=0.3, seed=3)
    report = padding_ratio_report(padded, rho=1000.0)
    # every step is at most eps, and the eps-sized pads are at it
    assert report["holds"].all()
    assert np.max(report["worst_ratio"]) == 1.0
    assert np.all(report["equality_steps"] == padded.pad_count)
    # step 1 is high and kept on every path, above eps = 0.2
    report = padding_ratio_report(pad_collection(paths, epsilon=0.2, seed=3), rho=600.0)
    assert not report["holds"].any()
    assert report["worst_ratio"] == pytest.approx(np.full(50, (math.sqrt(1.2 / 16) / 0.2) ** 600))


def test_padding_signs_are_mean_zero():
    # r = 12 pads at eps = 0.25 on every row; row j reads padding stream j
    paths = _paths_from_variances(np.tile([0.0, 0.25], (4000, 1)))
    values = pad_collection(paths, epsilon=0.25, seed=77).increments[:, 1]
    mean = np.mean(values)
    assert abs(mean) < 4 * 0.25 / math.sqrt(len(values))


def test_terminal_unchanged_when_variance_complete():
    # <X>_n = 1 exactly: X'_N = X_n because padding contributes literal zeros
    k = m.make_kernel("iid_rademacher", n=64)
    paths = sample_paths(k, seed=5, count=10)
    p = pad_collection(paths, epsilon=0.125, seed=1)
    assert np.array_equal(np.sum(p.increments, axis=1), paths.sums[:, -1])


@settings(max_examples=40)
@given(
    steps=st.lists(st.floats(min_value=1e-4, max_value=0.2), min_size=1, max_size=30),
    eps100=st.integers(min_value=5, max_value=50),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_padding_invariants_random_variance_paths(steps, eps100, seed):
    eps = eps100 / 100.0
    variances = np.concatenate([[0.0], np.cumsum(steps)])
    p = pad_collection(_paths_from_variances(variances), epsilon=eps, seed=seed)
    assert abs(p.terminal_variances[0] - 1.0) <= 1e-9
    assert 0.0 <= p.residual[0] <= eps
    assert p.pad_count[0] <= math.floor(1.0 / eps**2)
    assert p.increments.shape[1] == len(steps) + math.floor(1.0 / eps**2) + 1
    # increments beyond tau + r + 1 are literal zeros
    assert np.all(p.increments[0, p.tau[0] + p.pad_count[0] + 1 :] == 0.0)


def _reference_pad(increments, variances, epsilon, seed, path_index):
    """One path padded step by step: the reference the matrix padding must equal."""
    n = len(increments)
    eps2 = epsilon * epsilon
    budget = math.floor(1.0 / eps2)
    tau = int(np.flatnonzero(variances <= 1.0)[-1])
    v_tau = float(variances[tau])
    r = math.floor((1.0 - v_tau) / eps2)
    residual = math.sqrt(max(1.0 - v_tau - r * eps2, 0.0))
    key = rng.stream_key(seed, rng.STREAM_PADDING)
    signs = np.where(rng.uniforms(key, path_index, np.arange(r + 1)) < 0.5, -1.0, 1.0)
    padded = np.zeros(n + budget + 1)
    padded[:tau] = increments[:tau]
    padded[tau : tau + r] = epsilon * signs[:r]
    padded[tau + r] = residual * signs[r]
    scales = np.zeros(n + budget + 1)
    scales[:tau] = np.sqrt(np.diff(variances[: tau + 1]))
    scales[tau : tau + r] = epsilon
    scales[tau + r] = residual
    terminal_variance = 0.0
    for s in scales.tolist():
        terminal_variance += s * s
    return {
        "tau": tau,
        "pad_count": r,
        "residual": residual,
        "increments": padded,
        "step_scales": scales,
        "original_terminal": float(np.sum(increments)),
        "terminal_variance": terminal_variance,
    }


def _reference_ratio(step_scales, epsilon, rho):
    """The per-step moment-ratio loop: (holds, worst_ratio, equality_steps)."""
    eps_rho = epsilon**rho
    worst, equality_steps, holds = 0.0, 0, True
    for m in step_scales:
        if m == 0.0:
            continue
        ratio = m**rho
        if ratio > eps_rho * (1.0 + RATIO_TOL):
            holds = False
        if ratio == eps_rho:
            equality_steps += 1
        worst = max(worst, ratio / eps_rho)
    return holds, worst, equality_steps


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_padding_matches_reference(paths, epsilon, seed, rhos):
    padded = pad_collection(paths, epsilon, seed)
    assert len(padded) == len(paths)
    reports = {rho: padding_ratio_report(padded, rho) for rho in rhos}
    totals = padded.terminal_variances
    for i in range(len(paths)):
        ref = _reference_pad(paths.increments[i], paths.variances[i], epsilon, seed, i)
        assert (padded.tau[i], padded.pad_count[i]) == (ref["tau"], ref["pad_count"])
        assert _bits(padded.residual[i]) == _bits(ref["residual"])
        assert _bits(padded.increments[i]) == _bits(ref["increments"])
        assert _bits(padded.step_scales[i]) == _bits(ref["step_scales"])
        assert _bits(padded.original_terminal[i]) == _bits(ref["original_terminal"])
        assert _bits(totals[i]) == _bits(ref["terminal_variance"])
        for rho, report in reports.items():
            holds, worst, equality_steps = _reference_ratio(ref["step_scales"], epsilon, rho)
            assert report["holds"][i] == holds
            assert _bits(report["worst_ratio"][i]) == _bits(worst)
            assert report["equality_steps"][i] == equality_steps
    return padded, reports


_DRIFT = m.make_kernel("variance_drift", n=64, d=0.2)
_TABLE = m.make_kernel("table", steps=[
    {"values": [-0.6, 0.6], "probs": [0.5, 0.5]},
    {"values": [-0.5, 0.0, 0.5], "probs": [0.2, 0.6, 0.2]},
    {"values": [-0.7, 0.7], "probs": [0.5, 0.5]},
    {"values": [-0.2, 0.4], "probs": [2.0 / 3.0, 1.0 / 3.0]},
])


@pytest.mark.parametrize("kernel, epsilon, all_hold", [
    (_DRIFT, _DRIFT.certified_epsilon(1.0), True),
    (_DRIFT, 0.8 * _DRIFT.certified_epsilon(1.0), False),  # kept steps exceed eps
    (m.make_kernel("iid_rademacher", n=16), 0.25, True),  # <X>_n = 1 exactly: no pads
    (m.make_kernel("three_point", n=10, b=0.4, q=0.3), 0.4, True),
    (_TABLE, 0.2, False),
], ids=["drift", "drift_undersized", "rademacher", "three_point", "table"])
def test_matrix_padding_matches_per_path_reference(kernel, epsilon, all_hold):
    paths = sample_paths(kernel, seed=31, count=300)
    padded, reports = _assert_padding_matches_reference(paths, epsilon, 31, (1.0, 1.5, 0.7))
    if kernel.label.startswith("iid_rademacher"):
        assert not padded.pad_count.any()
    for report in reports.values():
        assert report["holds"].all() == all_hold
    # a block [s, s + k) pads to rows s..s+k-1 of the whole collection
    for start, size in ((0, 1), (0, 299), (1, 7), (150, 13), (293, 7), (299, 1)):
        block = pad_collection(sample_paths(kernel, seed=31, count=size, first=start),
                               epsilon, 31, start)
        rows = slice(start, start + size)
        for field in ("increments", "step_scales", "tau", "pad_count", "residual"):
            assert _bits(getattr(block, field)) == _bits(getattr(padded, field)[rows]), \
                (field, start, size)
    with pytest.raises(ValueError, match="first"):
        pad_collection(paths, epsilon, 31, -1)


@settings(max_examples=40)
@given(
    rows=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=25),
    eps100=st.integers(min_value=5, max_value=50),
    rho=st.one_of(st.sampled_from([1.0, 1.5, 0.7]), st.floats(min_value=0.05, max_value=3.0)),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_matrix_padding_matches_reference_on_random_variance_paths(rows, n, eps100, rho, seed, data):
    # steps of 1/16 and 1/4 land <X> exactly on 1 and put kept scales at eps
    step = st.one_of(st.floats(min_value=0.0, max_value=0.2), st.sampled_from([0.0, 0.0625, 0.25]))
    variances = np.cumsum(
        [[0.0] + data.draw(st.lists(step, min_size=n, max_size=n)) for _ in range(rows)], axis=1
    )
    signs = np.where(np.arange(rows * n).reshape(rows, n) % 3 == 0, -1.0, 1.0)
    increments = signs * np.sqrt(np.diff(variances, axis=1))
    sums = np.concatenate([np.zeros((rows, 1)), np.cumsum(increments, axis=1)], axis=1)
    paths = PathCollection(increments=increments, sums=sums, variances=variances)
    _assert_padding_matches_reference(paths, eps100 / 100.0, seed, (rho,))


def test_padding_with_a_variance_dip_matches_reference():
    # a dip of 4e-13 is accepted; its kept step scale is NaN and the ratio
    # check skips it, as the per-step loop does
    variances = np.array([[0.0, 0.5, 0.5 - 4e-13, 0.8], [0.0, 0.2, 0.4, 0.6]])
    increments = np.diff(variances, axis=1)
    paths = PathCollection(increments=increments, sums=np.cumsum(variances, axis=1),
                           variances=variances)
    with np.errstate(invalid="ignore"):
        padded, reports = _assert_padding_matches_reference(paths, 0.25, 4, (1.0, 0.7))
    assert np.isnan(padded.step_scales[0, 1])
    assert reports[1.0]["worst_ratio"][0] > 0.0


def _stop_index(variances, variant):
    """v(n) of one variance path, stopped as a one-row collection."""
    paths = _paths_from_variances(variances, increments=np.diff(variances))
    return int(restrict_to_v(paths, variant).indices[0])


def test_stop_time_examples():
    assert _stop_index([0.0, 0.4, 0.8, 1.2], SUP_LE_1) == 2
    assert _stop_index([0.0, 0.4, 0.8, 1.2], INF_GE_1) == 3
    n = 10
    linear = np.arange(n + 1) / n
    assert _stop_index(linear, SUP_LE_1) == n
    assert _stop_index(linear, INF_GE_1) == n
    below = np.arange(n + 1) / (2 * n)
    assert _stop_index(below, SUP_LE_1) == n  # never exceeds 1
    assert _stop_index(below, INF_GE_1) == n  # boundary convention
    # an accepted dip below 1: four entries are <= 1, the last is index 4
    dip = [0.0, 0.5, 1.0 + 4e-13, 1.0 - 4e-13, 1.0, 1.2]
    assert _stop_index(dip, SUP_LE_1) == 4
    assert _stop_index(dip, INF_GE_1) == 2
    with pytest.raises(ValueError):
        _stop_index([0.0, 0.5, 0.4], SUP_LE_1)
    with pytest.raises(ValueError):
        _stop_index([0.0, 0.5, 1.0], "nope")


def test_restrict_rademacher_is_identity():
    k = m.make_kernel("iid_rademacher", n=64)
    paths = sample_paths(k, seed=21, count=100)
    for variant in (SUP_LE_1, INF_GE_1):
        stopped = restrict_to_v(paths, variant)
        assert np.all(stopped.indices == 64)
        assert np.array_equal(stopped.terminal, paths.sums[:, -1])
        assert np.all(stopped.residuals == 0.0)
        assert not np.any(stopped.out_of_hypothesis)


def test_restrict_variance_drift_residual_bound():
    d, n = 0.2, 64
    k = m.make_kernel("variance_drift", n=n, d=d)
    paths = sample_paths(k, seed=3, count=400)
    eps_sq = k.certified_epsilon(1.0) ** 2  # equals the largest step variance
    for variant in (SUP_LE_1, INF_GE_1):
        stopped = restrict_to_v(paths, variant)
        flagged = stopped.out_of_hypothesis
        assert np.array_equal(flagged, paths.variances[:, -1] < 1.0)
        kept = stopped.residuals[~flagged]
        assert np.all(kept <= eps_sq + 1e-15)


def test_pad_collection_checks_padded_length_before_allocating(monkeypatch):
    paths = sample_paths(m.make_kernel("iid_rademacher", n=16), seed=1, count=10)
    # 16 + 400 + 1 steps per path: fits the draw budget, not a 4000-cell guard
    monkeypatch.setattr(kernels, "BUNDLE_CELL_GUARD", 4000)
    with pytest.raises(ValueError, match="memory guard"):
        pad_collection(paths, epsilon=0.05, seed=1)
    assert len(pad_collection(paths, epsilon=0.25, seed=1)) == 10
    monkeypatch.undo()
    # the per-path draw budget: N = 16 + 1234567 + 1
    with pytest.raises(ValueError, match="draw budget"):
        pad_collection(paths, epsilon=0.0009, seed=1)
    with pytest.raises(ValueError, match="epsilon"):
        pad_collection(paths, epsilon=0.6, seed=1)


def _reference_stop_index(row, variant):
    """Per-path definition: last index <= 1, or first index >= 1 (else n)."""
    if variant == SUP_LE_1:
        le = np.flatnonzero(row <= 1.0)
        return int(le[-1]) if le.size else 0
    ge = np.flatnonzero(row >= 1.0)
    return int(ge[0]) if ge.size else row.size - 1


# a move either adds variance or lands within 1e-12 of 1; landing may dip by
# less than the 1e-12 the monotonicity check forgives
_MOVES = st.one_of(
    st.floats(min_value=0.0, max_value=0.45),
    st.sampled_from([-9e-13, -4e-13, 0.0, 4e-13, 9e-13]).map(lambda t: ("near_one", t)),
)


def _variance_row(moves):
    row = [0.0]
    for move in moves:
        if isinstance(move, tuple):
            row.append(max(1.0 + move[1], row[-1] - 9e-13))
        else:
            row.append(row[-1] + move)
    return row


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=12),
    count=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_restrict_matches_per_path_stop_time(n, count, data):
    rows = [
        _variance_row(data.draw(st.lists(_MOVES, min_size=n, max_size=n)))
        for _ in range(count)
    ]
    variances = np.asarray(rows)
    sums = np.cumsum(np.arange(count * (n + 1), dtype=float).reshape(count, n + 1), axis=1)
    paths = PathCollection(increments=np.diff(sums, axis=1), sums=sums, variances=variances)
    for variant in (SUP_LE_1, INF_GE_1):
        stopped = restrict_to_v(paths, variant)
        for i, row in enumerate(variances):
            expected = _reference_stop_index(row, variant)
            assert stopped.indices[i] == _stop_index(row, variant) == expected
            assert stopped.terminal[i] == sums[i, expected]
            assert stopped.residuals[i] == abs(row[expected] - 1.0)
