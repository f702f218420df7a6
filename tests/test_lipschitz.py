"""Doob decomposition, normalization pair, and the variance sandwich."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclt_lab import lipschitz
from mclt_lab.distance import exact_kolmogorov_discrete
from mclt_lab.lipschitz import (
    CoordinateDistribution,
    DegenerateMetricError,
    EnumerationGuardExceeded,
    LipschitzModel,
    abs_metric,
    discrete_metric,
    doob_decompose,
    epsilon_delta_n,
    exact_distribution,
    functional_sum,
    make_model,
    model_from_config,
    variance_sandwich,
    verify_a1_lipschitz,
    zero_metric,
)

RADEMACHER = CoordinateDistribution(values=(-1.0, 1.0), probs=(0.5, 0.5))


def _linear_model(n, scale=1.0, rho=1.0):
    metric = abs_metric(scale)
    return LipschitzModel(
        coords=(RADEMACHER,) * n,
        f=functional_sum([scale] * n),
        d1=(metric,) * n,
        d2=(metric,) * n,
        rho=rho,
    )


def test_linear_functional_increments_are_coordinates():
    model = _linear_model(3)
    for realization in ((1.0, -1.0, 1.0), (-1.0, -1.0, -1.0)):
        dec = doob_decompose(model, realization)
        assert dec.increments == pytest.approx(realization, abs=1e-15)
        assert dec.telescoping_defect <= 1e-12
        assert dec.conditional_values[0] == pytest.approx(0.0, abs=1e-15)


def test_max_of_bits_worked_example():
    model = make_model("max_of_bits", n=2)
    dec0 = doob_decompose(model, (0.0, 1.0))
    assert dec0.conditional_values[0] == pytest.approx(0.75, abs=1e-15)  # E f
    assert dec0.conditional_values[1] == pytest.approx(0.5, abs=1e-15)  # g1(0)
    assert dec0.increments[0] == pytest.approx(-0.25, abs=1e-15)
    assert dec0.increments[1] == pytest.approx(0.5, abs=1e-15)  # eta2 - 1/2
    dec1 = doob_decompose(model, (1.0, 0.0))
    assert dec1.conditional_values[1] == pytest.approx(1.0, abs=1e-15)  # g1(1)
    assert dec1.increments[0] == pytest.approx(0.25, abs=1e-15)
    assert dec1.increments[1] == pytest.approx(0.0, abs=1e-15)


def test_max_of_bits_variance():
    sandwich = variance_sandwich(make_model("max_of_bits", n=2))
    assert sandwich.variance == pytest.approx(3.0 / 16.0, abs=1e-12)
    assert sandwich.lower == 0.0
    assert sandwich.upper == pytest.approx(0.5, abs=1e-12)
    assert sandwich.upper_holds and sandwich.lower_holds


def test_rademacher_average_normalization():
    for n in (2, 4, 8, 16):
        pair = epsilon_delta_n(make_model("rademacher_average", n=n))
        assert pair.delta_n == 0.0
        assert pair.epsilon_n == pytest.approx(n**-0.5, rel=1e-12)
        assert pair.epsilon_n * math.sqrt(n) == pytest.approx(1.0, rel=1e-12)


def test_two_coordinate_sum_normalization():
    model = _linear_model(2)
    pair = epsilon_delta_n(model)
    assert pair.epsilon_n == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert pair.delta_n == 0.0


def test_doubled_upper_metric_gives_delta_three():
    metric1 = abs_metric(1.0)
    metric2 = abs_metric(2.0)
    model = LipschitzModel(
        coords=(RADEMACHER,) * 2,
        f=functional_sum(),
        d1=(metric1,) * 2,
        d2=(metric2,) * 2,
    )
    pair = epsilon_delta_n(model)
    assert pair.delta_n == pytest.approx(3.0, rel=1e-12)


def test_degenerate_lower_metric_reported():
    model = make_model("max_of_bits", n=2)
    with pytest.raises(DegenerateMetricError):
        epsilon_delta_n(model)


@pytest.mark.parametrize("values, probs", [
    ((-1.0, 1.0), (math.nan, 0.5)),
    ((0.0, math.inf), (0.5, 0.5)),
    ((-1.0, math.nan), (0.5, 0.5)),
    ((-1.0, 1.0), (-math.inf, math.inf)),
], ids=["nan-prob", "infinite-value", "nan-value", "infinite-probs"])
def test_non_finite_coordinate_law_is_refused(values, probs):
    # NaN fails every comparison, so the sign and sum checks alone let it pass
    with pytest.raises(ValueError, match="non-finite"):
        CoordinateDistribution(values=values, probs=probs).validate()


def test_linear_sandwich_is_tight():
    sandwich = variance_sandwich(_linear_model(2))
    assert sandwich.lower == pytest.approx(2.0, rel=1e-12)
    assert sandwich.variance == pytest.approx(2.0, rel=1e-12)
    assert sandwich.upper == pytest.approx(2.0, rel=1e-12)


def test_uniform_triple_breaks_lower_sandwich():
    sandwich = variance_sandwich(make_model("uniform_triple_sum", n=2))
    assert sandwich.lower == pytest.approx(2.0 * 22.0 / 27.0, rel=1e-12)
    assert sandwich.variance == pytest.approx(2.0 * 2.0 / 3.0, rel=1e-12)
    assert not sandwich.lower_holds  # documented counterexample, diagnostic
    assert sandwich.upper_holds


def test_a1_transfer_reports():
    linear = verify_a1_lipschitz(_linear_model(3))
    assert all(row["holds"] for row in linear)
    assert all(row["equality"] for row in linear)  # single-magnitude increments
    maxbits = verify_a1_lipschitz(make_model("max_of_bits", n=2))
    assert all(row["holds"] for row in maxbits)
    assert not maxbits[0]["equality"]  # strict at the first bit
    # a deterministic coordinate contributes a vacuous step
    det = CoordinateDistribution(values=(0.5,), probs=(1.0,))
    model = LipschitzModel(
        coords=(det, RADEMACHER),
        f=functional_sum(),
        d1=(abs_metric(), abs_metric()),
        d2=(abs_metric(), abs_metric()),
    )
    rows = verify_a1_lipschitz(model)
    assert rows[0]["vacuous"] and rows[0]["holds"]


def _metric_sandwich_holds(model):
    """d1 <= |change of f| <= d2 on every swap of two support points of one
    coordinate, the others held fixed, over the model's whole product space."""
    f_values = lipschitz._enumeration(model).f_values
    for i, coord in enumerate(model.coords):
        k = len(coord.values)
        # rows fix every coordinate but i; along a row f varies only through i
        moved = np.moveaxis(f_values, i, -1).reshape(-1, k)
        for a in range(k):
            for b in range(a + 1, k):
                diff = np.abs(moved[:, a] - moved[:, b])
                lo = model.d1[i](coord.values[a], coord.values[b])
                hi = model.d2[i](coord.values[a], coord.values[b])
                if np.any(diff < lo - lipschitz.TOL) or np.any(diff > hi + lipschitz.TOL):
                    return False
    return True


def test_metric_sandwich_spot_check():
    assert _metric_sandwich_holds(make_model("max_of_bits", n=3))
    assert _metric_sandwich_holds(_linear_model(4))
    bad = LipschitzModel(
        coords=(RADEMACHER,) * 2,
        f=functional_sum(),
        d1=(abs_metric(),) * 2,
        d2=(zero_metric(),) * 2,  # upper metric smaller than the true change
    )
    assert not _metric_sandwich_holds(bad)


def _enumerate_exact(model):
    """Independent oracle: increments for every outcome via nested loops."""
    coords = model.coords
    n = len(coords)
    outcomes = [[]]
    for c in coords:
        outcomes = [o + [v] for o in outcomes for v in c.values]
    probs = []
    for o in outcomes:
        pr = Fraction(1)
        for value, c in zip(o, coords):
            pr *= Fraction(c.probs[c.values.index(value)])
        probs.append(float(pr))
    return outcomes, probs


def test_martingale_orthogonality_and_telescoping():
    model = make_model("max_of_bits", n=3)
    outcomes, probs = _enumerate_exact(model)
    rows = [doob_decompose(model, o).increments for o in outcomes]
    inc = np.asarray(rows)
    w = np.asarray(probs)
    # increments are mean zero and mutually orthogonal under the product law
    for k in range(3):
        assert abs(np.sum(w * inc[:, k])) < 1e-12
    for j in range(3):
        for k in range(j + 1, 3):
            assert abs(np.sum(w * inc[:, j] * inc[:, k])) < 1e-12
    var_from_increments = sum(np.sum(w * inc[:, k] ** 2) for k in range(3))
    assert var_from_increments == pytest.approx(
        variance_sandwich(model).variance, abs=1e-12
    )


@settings(max_examples=25)
@given(data=st.data())
def test_random_table_functionals_are_martingales(data):
    # arbitrary tabulated f over small product spaces
    n = data.draw(st.integers(min_value=1, max_value=3))
    sizes = [data.draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    coords = []
    for size in sizes:
        values = sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=-2, max_value=2),
                    min_size=size, max_size=size, unique=True,
                )
            )
        )
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0), min_size=size, max_size=size
            )
        )
        total = math.fsum(raw)
        coords.append(
            CoordinateDistribution(
                values=tuple(values), probs=tuple(r / total for r in raw)
            )
        )
    table_shape = tuple(sizes)
    table = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=-5, max_value=5),
                min_size=int(np.prod(table_shape)),
                max_size=int(np.prod(table_shape)),
            )
        )
    ).reshape(table_shape)

    def f(grid):
        idx = []
        for j, c in enumerate(coords):
            vals = np.asarray(c.values)
            idx.append(np.searchsorted(vals, grid[..., j]))
        return table[tuple(idx)]

    # an off-diagonal constant of the table's full spread always dominates
    spread = float(table.max() - table.min())
    model = LipschitzModel(
        coords=tuple(coords), f=f,
        d1=(zero_metric(),) * n, d2=(discrete_metric(spread + 1.0),) * n,
    )
    outcomes, probs = _enumerate_exact(model)
    rows = np.asarray([doob_decompose(model, o).increments for o in outcomes])
    w = np.asarray(probs)
    for k in range(n):
        assert abs(np.sum(w * rows[:, k])) < 1e-10
    for o in outcomes:
        dec = doob_decompose(model, o)
        assert dec.telescoping_defect <= 1e-10
    assert _metric_sandwich_holds(model)
    assert variance_sandwich(model).upper_holds


def test_enumeration_guard_names_the_way_out():
    # 2^24 outcomes: refused before any array is built
    with pytest.raises(EnumerationGuardExceeded, match="fewer coordinates or smaller supports"):
        doob_decompose(make_model("rademacher_average", n=24), (1.0,) * 24)


def _binomial_average_law(n):
    """Exact law of sum(eta_i)/sqrt(n) for Rademacher eta, via binomial pmf."""
    from scipy.stats import binom

    k = np.arange(n + 1)
    support = (2.0 * k - n) / math.sqrt(n)
    probs = binom.pmf(k, n, 0.5)
    return support, probs / probs.sum()


def test_normalized_distribution_and_clt_ratio():
    # exact distance of the normalized coordinate average decays like the
    # eps_n |ln eps_n| functional (ratio bounded on a dyadic grid); small n
    # uses the model enumeration, large n the independent binomial oracle
    ratios = []
    previous = None
    for n in (4, 16, 64, 256):
        model = make_model("rademacher_average", n=n)
        if n <= 16:
            support, probs = exact_distribution(model)
        else:
            support, probs = _binomial_average_law(n)
        d = exact_kolmogorov_discrete(support, probs)
        pair = epsilon_delta_n(model)
        functional = pair.epsilon_n * abs(math.log(pair.epsilon_n)) + pair.delta_n
        ratios.append(d / functional)
        if previous is not None:
            assert d < previous  # distances decay along the grid
        previous = d
    assert max(ratios) / min(ratios) <= 5.0
    assert max(ratios) < 1.0


def test_enumeration_agrees_with_binomial_oracle():
    model = make_model("rademacher_average", n=12)
    support, probs = exact_distribution(model)
    d_model = exact_kolmogorov_discrete(support, probs)
    d_binom = exact_kolmogorov_discrete(*_binomial_average_law(12))
    assert d_model == pytest.approx(d_binom, abs=1e-12)


def test_one_evaluation_of_f_per_model():
    calls = []
    weighted = functional_sum([0.5, -1.0, 2.0])

    def f(grid):
        calls.append(grid.shape)
        return weighted(grid)

    metric = abs_metric(2.0)
    model = LipschitzModel(
        coords=(RADEMACHER,) * 3, f=f, d1=(metric,) * 3, d2=(metric,) * 3
    )
    support, probs = exact_distribution(model)
    sandwich = variance_sandwich(model)
    assert calls == [(8, 3)]
    assert sandwich.variance == pytest.approx(0.25 + 1.0 + 4.0, rel=1e-12)
    assert math.fsum(probs * support**2) == pytest.approx(1.0, rel=1e-12)
    # every caller shares the cached arrays, so none may write to them
    with pytest.raises(ValueError):
        probs[0] = 1.0


def test_model_from_config_expression_form():
    ref = {
        "coords": [
            {"values": [-1.0, 1.0], "probs": [0.5, 0.5]},
            {"values": [-1.0, 1.0], "probs": [0.5, 0.5]},
        ],
        "f": {"kind": "weighted_sum", "weights": [0.5, 0.5]},
        "metrics": {"d2": {"kind": "abs_diff", "scale": 0.5}},
        "rho": 1.0,
    }
    model = model_from_config(ref)
    pair = epsilon_delta_n(model)
    assert pair.delta_n == 0.0
    assert pair.epsilon_n == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    registry = model_from_config({"name": "rademacher_average", "params": {"n": 4}})
    assert registry.n == 4
    maxconf = model_from_config(
        {
            "coords": [{"values": [0.0, 1.0], "probs": [0.5, 0.5]}] * 2,
            "f": {"kind": "max"},
            "metrics": {"d1": {"kind": "zero"}, "d2": {"kind": "abs_diff"}},
        }
    )
    assert variance_sandwich(maxconf).variance == pytest.approx(3.0 / 16.0, abs=1e-12)


def _full_matrix_f_values(model):
    """f in one call on the full (k^n, n) outcome matrix: the reference that
    the blocked evaluation must equal bit for bit."""
    axes = [np.asarray(c.values, dtype=float) for c in model.coords]
    outcomes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.n)
    return np.asarray(model.f(outcomes), dtype=float).reshape([len(a) for a in axes])


def _block_calls(model):
    """The row counts of the calls of f that the enumeration of ``model`` makes."""
    rows = []

    def f(grid):
        rows.append(len(grid))
        return model.f(grid)

    lipschitz._enumeration(LipschitzModel(model.coords, f, model.d1, model.d2))
    return rows


@pytest.mark.parametrize(
    ("name", "n"),
    [("rademacher_average", 3), ("rademacher_average", 14), ("rademacher_average", 17),
     ("max_of_bits", 5), ("max_of_bits", 14), ("max_of_bits", 16),
     ("uniform_triple_sum", 4), ("uniform_triple_sum", 9), ("uniform_triple_sum", 11)],
)
def test_blocked_f_values_equal_full_matrix_registry(name, n):
    model = make_model(name, n=n)
    enum = lipschitz._enumeration(model)
    assert np.array_equal(enum.f_values.view(np.uint64), _full_matrix_f_values(model).view(np.uint64))
    assert enum.variance == _plain_variance(enum)


def _plain_variance(enum):
    """Var f as one expression of temporaries, the reference for the
    enumeration's in-place form."""
    return float(np.sum(enum.probs * (enum.f_values - enum.mean) ** 2))


def _config_model(kind, sizes, seed):
    draw = np.random.default_rng(seed)
    coords = []
    for k in sizes:
        probs = draw.random(k) + 0.1
        coords.append({"values": np.round(draw.normal(size=k), 3).tolist(),
                       "probs": (probs / probs.sum()).tolist()})
    f = {"kind": kind}
    if kind == "weighted_sum":
        f["weights"] = draw.normal(size=len(sizes)).tolist()
    return model_from_config({"coords": coords, "f": f})


@pytest.mark.parametrize("model", [
    make_model("max_of_bits", n=20),
    _config_model("sum", [3] * 12, 4),
    _config_model("sum", [2, 5, 1, 3, 4], 8),
    _config_model("sum", [7], 9),
], ids=["fair-bits-20", "three-atoms-12", "mixed", "one-coordinate"])
def test_outcome_weights_equal_the_outer_product(model):
    # column by column, left to right: the bits of reduce(np.multiply.outer)
    enum = lipschitz._enumeration(model)
    want = functools.reduce(np.multiply.outer, enum.weights)
    assert enum.probs.shape == want.shape
    assert np.array_equal(enum.probs.view(np.uint64), want.view(np.uint64))


# support products below one block, exactly one block (2^14 outcomes), many
# blocks whose row count is not a power of two, whole blocks of 2^14 rows,
# and a last coordinate wider than a block
CONFIG_SIZES = [
    [2, 3, 5],
    [5, 3, 2, 2, 5, 3, 2],
    [2] * 14,
    [3, 5, 2, 3, 5, 2, 3, 5, 2, 3],
    [5, 3] + [2] * 14,
    [3, 20_000],
]


@pytest.mark.parametrize("kind", ["sum", "weighted_sum", "max", "min"])
def test_blocked_f_values_equal_full_matrix_config(kind):
    for seed, sizes in enumerate(CONFIG_SIZES):
        model = _config_model(kind, sizes, seed)
        enum = lipschitz._enumeration(model)
        assert np.array_equal(enum.f_values.view(np.uint64),
                              _full_matrix_f_values(model).view(np.uint64))
        assert enum.variance == _plain_variance(enum)


def test_blocks_tile_the_product_space():
    # many blocks of at most 2^14 rows, then one block per leading outcome
    # when the last coordinate alone is wider than a block
    assert _block_calls(make_model("max_of_bits", n=17)) == [1 << 14] * 8
    assert _block_calls(make_model("uniform_triple_sum", n=10)) == [3**8] * 9
    assert _block_calls(make_model("rademacher_average", n=3)) == [8]
    assert _block_calls(_config_model("sum", [3, 20_000], 0)) == [20_000] * 3


@pytest.mark.parametrize("name", ["rademacher_average", "max_of_bits"])
def test_enumeration_memory_per_outcome(name):
    # f runs on blocks of rows and no (k^n, n) outcome matrix is built, so
    # the peak per outcome does not grow with n: f, the product weights and
    # the g tensors (about 24 B), one buffer for Var f (8 B), and the block
    # of rows no longer
    model = make_model(name, n=18)
    lipschitz._enumeration.cache_clear()
    tracemalloc.start()
    try:
        enum = lipschitz._enumeration(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34 * enum.f_values.size


def _reduction_reference(grid, largest):
    """``np.max`` or ``np.min`` along each row, with a zero result signed by
    the rule of the column-wise functionals: +0.0 is the larger zero, so a
    row's max is +0.0 if it holds one and its min -0.0 if it holds one.
    numpy picks that sign by its SIMD reduction order."""
    out = (np.max if largest else np.min)(grid, axis=-1)
    zero = out == 0.0
    held = ((grid == 0.0) & (np.signbit(grid) != largest)).any(axis=-1)
    out[zero] = np.where(held[zero], 0.0 if largest else -0.0, -0.0 if largest else 0.0)
    return out


@pytest.mark.parametrize("cols", [1, 2, 7, 8, 9, 20, 33])
def test_columnwise_max_min_equal_numpy_reductions(cols):
    draw = np.random.default_rng(cols)
    grid = draw.normal(size=(3000, cols))
    grid[draw.random(grid.shape) < 0.3] = 0.5  # ties of equal values
    grid[draw.random(grid.shape) < 0.05] = 0.0  # zeros of one sign
    for f, reduce in ((lipschitz.functional_max(), np.max), (lipschitz.functional_min(), np.min)):
        assert np.array_equal(f(grid).view(np.uint64), reduce(grid, axis=-1).view(np.uint64))


@pytest.mark.parametrize("cols", [1, 2, 9, 20])
def test_columnwise_max_min_sign_signed_zero_ties(cols):
    draw = np.random.default_rng(cols)
    grid = draw.choice([0.0, -0.0, 1.0, -1.0], size=(4000, cols))
    for f, largest in ((lipschitz.functional_max(), True), (lipschitz.functional_min(), False)):
        got = f(grid)
        assert np.array_equal(got, (np.max if largest else np.min)(grid, axis=-1))  # as values
        assert np.array_equal(got.view(np.uint64), _reduction_reference(grid, largest).view(np.uint64))
        # so the sign does not depend on the order of the coordinates
        reordered = f(np.ascontiguousarray(grid[:, ::-1]))
        assert np.array_equal(reordered.view(np.uint64), got.view(np.uint64))


@pytest.mark.parametrize("kind", ["max", "min"])
def test_enumerated_max_min_equal_numpy_reductions(kind):
    # one block, many blocks, and a last coordinate wider than a block
    for seed, sizes in enumerate(CONFIG_SIZES):
        model = _config_model(kind, sizes, seed)
        axes = [np.asarray(c.values, dtype=float) for c in model.coords]
        outcomes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.n)
        want = _reduction_reference(outcomes, kind == "max").reshape(lipschitz._enumeration(model).dims)
        assert np.array_equal(lipschitz._enumeration(model).f_values.view(np.uint64), want.view(np.uint64))
