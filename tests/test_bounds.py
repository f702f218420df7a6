"""Rate functional formulas, dominance comparisons, smoothing inequality."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclt_lab import bounds, corpus
from mclt_lab.distance import exact_kolmogorov_discrete
from mclt_lab.bounds import (
    BOUNDS,
    BoundParameterError,
    JointLaw,
    compare_table,
    evaluate_rate,
    evaluation_notes,
    verify_smoothing_lemma,
)


def test_t1_rho_one():
    value = evaluate_rate("T1", {"rho": 1.0, "epsilon": 0.25, "delta": 0.0})
    assert value == pytest.approx(0.25 * math.log(4.0), rel=1e-14)


def test_t1_small_rho_vanishes():
    assert evaluate_rate("T1", {"rho": 0.5, "epsilon": 1e-12, "delta": 0.0}) < 2e-6


def test_c2_formula():
    value = evaluate_rate("C2", {"epsilon": 0.1, "p": 1.0, "var_dev_p": 0.02})
    assert value == pytest.approx(0.03 ** (1.0 / 3.0), rel=1e-14)


def test_renz_branches():
    assert evaluate_rate("RENZ", {"rho": 0.5, "n": 100}) == pytest.approx(
        100.0**-0.25, rel=1e-14
    )
    assert evaluate_rate("RENZ", {"rho": 1.0, "n": 100}) == pytest.approx(
        math.log(100.0) / 10.0, rel=1e-14
    )
    with pytest.raises(BoundParameterError):
        evaluate_rate("RENZ", {"rho": 1.5, "n": 100})


def test_bolt_b_uses_corrected_l1_branch():
    params = {"epsilon": 0.1, "n": 100, "var_dev_l1": 1e-6, "var_dev_linf": 4.0}
    value = evaluate_rate("BOLT_B", params)
    tail = 1e-6 ** (1.0 / 3.0) + 0.1 ** (2.0 / 3.0)  # corrected branch wins the min
    assert value == pytest.approx(0.001 * 100 * math.log(100) + tail, rel=1e-12)


def test_eo_and_mourrat_formulas():
    assert evaluate_rate("EO", {"epsilon": 0.05, "n": 64, "var_dev_linf": 0.04}) == pytest.approx(
        0.05 * math.log(64) + 0.2, rel=1e-14
    )
    p = 2.0
    value = evaluate_rate(
        "MOURRAT", {"epsilon": 0.05, "n": 64, "p": p, "var_dev_p": 1e-4}
    )
    expected = 0.05**3 * 64 * math.log(64) + 0.05 ** (4.0 / 5.0) + 1e-4 ** (1.0 / 5.0)
    assert value == pytest.approx(expected, rel=1e-14)


def test_hb_formula_and_extension_flag():
    value = evaluate_rate("HB", {"p": 2.0, "var_dev_p": 0.01, "sum_inc_2p": 0.02})
    assert value == pytest.approx(0.03 ** (1.0 / 5.0), rel=1e-14)
    assert evaluation_notes("HB", {"p": 2.0}) == ()
    notes = evaluation_notes("HB", {"p": 3.0})
    assert notes and "extension" in notes[0]


def test_parameter_validation():
    with pytest.raises(BoundParameterError):
        evaluate_rate("T1", {"rho": 1.0, "epsilon": 0.25})  # delta missing
    with pytest.raises(BoundParameterError):
        evaluate_rate("T1", {"rho": 1.0, "epsilon": 0.6, "delta": 0.0})  # eps range
    with pytest.raises(BoundParameterError):
        evaluate_rate("T1", {"rho": -1.0, "epsilon": 0.25, "delta": 0.0})
    with pytest.raises(BoundParameterError):
        evaluate_rate("C2", {"epsilon": 0.1, "p": 0.5, "var_dev_p": 0.0})
    with pytest.raises(BoundParameterError):
        evaluate_rate("NOPE", {})
    # prior bounds accept epsilon beyond 1/2 (their statements do not cap it)
    evaluate_rate("BOLT_A", {"epsilon": 0.75, "n": 10})


def test_t1_ignores_moment_statistics():
    base = {"rho": 1.0, "epsilon": 0.2, "delta": 0.0}
    with_stats = dict(base, var_dev_p=0.5, max_inc_2p=0.5)
    assert evaluate_rate("T1", base) == evaluate_rate("T1", with_stats)


def test_dominance_at_cube_root_scaling():
    eps, n = 1e-2, 1e6  # eps = n^(-1/3)
    t1 = evaluate_rate("T1", {"rho": 1.0, "epsilon": eps, "delta": 0.0})
    bolt = evaluate_rate("BOLT_A", {"epsilon": eps, "n": n})
    assert bolt / t1 >= 50.0
    assert t1 == pytest.approx(eps * math.log(1.0 / eps), rel=1e-14)
    assert bolt == pytest.approx(math.log(n), rel=1e-14)


def test_dominance_at_constraint_boundary():
    # terminal variance near 1 forces eps >= sqrt(3/(4n)); at that boundary
    # the eps^3 n ln n functional still dominates (3/4) eps |ln eps|
    for n in (3, 10, 100, 10_000, 10**6):
        eps = math.sqrt(3.0 / (4.0 * n))
        lhs = evaluate_rate("BOLT_A", {"epsilon": eps, "n": n})
        rhs = 0.75 * evaluate_rate("C1", {"rho": 1.0, "epsilon": eps})
        assert lhs >= rhs


def test_compare_table_layout_and_csv():
    grid = [
        {"rho": 1.0, "epsilon": 0.1, "delta": 0.0, "n": 1000},
        {"rho": 1.0, "epsilon": 0.2, "delta": 0.1, "n": 4000},
    ]
    table = compare_table(["T1", "BOLT_A"], grid)
    assert len(table.values) == 2 and len(table.values[0]) == 2
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("# log_convention=natural")
    assert lines[1].split(",")[-2:] == ["T1", "BOLT_A"]
    assert len(lines) == 4


def test_compare_table_propagates_errors():
    with pytest.raises(BoundParameterError):
        compare_table(["T1"], [{"rho": 1.0, "epsilon": 0.1}])


@settings(max_examples=30)
@given(
    eps=st.floats(min_value=0.01, max_value=0.5),
    bump=st.floats(min_value=0.0, max_value=0.2),
    dev=st.floats(min_value=0.0, max_value=0.5),
    p=st.floats(min_value=1.0, max_value=4.0),
)
def test_monotonicity_in_epsilon_and_moments(eps, bump, dev, p):
    eps_hi = min(0.5, eps + bump)
    base = {
        "rho": 0.7, "p": p, "n": 500.0, "epsilon": eps, "delta": dev,
        "var_dev_p": dev, "max_inc_2p": dev, "sum_inc_2p": dev,
        "var_dev_l1": dev, "var_dev_linf": dev,
    }
    richer = dict(base, epsilon=eps_hi, var_dev_p=dev + bump, delta=dev + bump,
                  max_inc_2p=dev + bump, sum_inc_2p=dev + bump,
                  var_dev_l1=dev + bump, var_dev_linf=dev + bump)
    for bound_id in BOUNDS:
        if bound_id == "RENZ":
            continue  # consumes neither epsilon nor moment statistics
        lo = evaluate_rate(bound_id, base)
        hi = evaluate_rate(bound_id, richer)
        assert hi >= lo - 1e-12


@pytest.mark.parametrize("eps,delta", [(0.05, 0.3), (0.05, 0.2), (0.1, 0.3)])
def test_t2_approaches_t1_as_p_grows(eps, delta):
    # with var_dev_p = delta^(2p) and max_inc_2p = eps^(2p), T2 at rho < 1
    # converges to the T1 value eps^rho + delta; within 10% by p = 16
    t1 = evaluate_rate("T1", {"rho": 0.5, "epsilon": eps, "delta": delta})
    prev = None
    for p in (1, 2, 4, 8, 16):
        t2 = evaluate_rate(
            "T2",
            {
                "rho": 0.5, "epsilon": eps, "p": p,
                "var_dev_p": delta ** (2 * p), "max_inc_2p": eps ** (2 * p),
            },
        )
        rel = abs(t2 / t1 - 1.0)
        if prev is not None:
            assert rel <= prev + 1e-12
        prev = rel
    assert prev <= 0.10


def test_smoothing_trivial_cases():
    # Y identically 0: lhs = D(X) <= 2 D(X) = rhs
    law = JointLaw(x=(-1.0, 1.0), y=(0.0, 0.0), probs=(0.5, 0.5))
    check = verify_smoothing_lemma(law, p=1.0)
    assert check.lhs == pytest.approx(check.rhs / 2.0, rel=1e-12)
    assert check.margin == pytest.approx(check.lhs, rel=1e-12)
    # X = Y = 0: lhs = 0.5, rhs = 2*0.5 + 0 = 1.0
    degenerate = JointLaw(x=(0.0,), y=(0.0,), probs=(1.0,))
    check = verify_smoothing_lemma(degenerate, p=1.0)
    assert check.lhs == pytest.approx(0.5, abs=1e-15)
    assert check.rhs == pytest.approx(1.0, abs=1e-15)
    assert check.margin == pytest.approx(0.5, abs=1e-15)


def test_smoothing_moment_past_float_range_holds_vacuously():
    # E|Y|^(2p) = 0.5 * 2^(2^65) overflows a float: the right side is +inf
    law = JointLaw(x=(-1.0, 1.0), y=(2.0, -2.0), probs=(0.5, 0.5))
    check = verify_smoothing_lemma(law, p=2.0**64)
    assert check.rhs == math.inf and check.margin == math.inf


def test_smoothing_on_random_corpus():
    for i in range(100):
        law = corpus.random_joint_law(11, i)
        for p in (1.0, 2.0):
            check = verify_smoothing_lemma(law, p)
            assert check.margin >= -1e-12, f"law {i}, p={p}"


def test_smoothing_rejects_invalid_joint():
    with pytest.raises(ValueError):
        verify_smoothing_lemma(JointLaw(x=(0.0,), y=(0.0,), probs=(0.7,)), 1.0)
    with pytest.raises(ValueError):
        verify_smoothing_lemma(
            JointLaw(x=(0.0, 1.0), y=(0.0, 0.0), probs=(1.2, -0.2)), 1.0
        )


@pytest.mark.parametrize("law", [
    # with a NaN the masses sum to NaN, which the tolerance check lets pass
    JointLaw(x=(-1.0, 1.0), y=(0.0, 0.0), probs=(math.nan, 1.0)),
    JointLaw(x=(-1.0, math.inf), y=(0.0, 0.0), probs=(0.5, 0.5)),
    JointLaw(x=(-1.0, 1.0), y=(math.nan, 0.0), probs=(0.5, 0.5)),
], ids=["nan_prob", "inf_x", "nan_y"])
def test_joint_law_refuses_non_finite_entries(law):
    with pytest.raises(ValueError, match="non-finite"):
        law.validate()
    with pytest.raises(ValueError, match="non-finite"):
        verify_smoothing_lemma(law, 1.0)


def _smoothing_reference(law, p):
    """The per-law, per-p smoothing check: the law validated, then its two
    one-law distances and the moment in Python floats."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    law.validate()
    sums = [a + b for a, b in zip(law.x, law.y)]
    d_x = exact_kolmogorov_discrete(law.x, law.probs)
    d_sum = exact_kolmogorov_discrete(sums, law.probs)
    try:
        moment = math.fsum(pr * abs(b) ** (2.0 * p) for b, pr in zip(law.y, law.probs))
    except OverflowError:
        moment = math.inf
    return bounds.SmoothingCheck(lhs=d_sum, rhs=2.0 * d_x + 3.0 * moment ** (1.0 / (2.0 * p + 1.0)),
                                 p=float(p))


def _bits(check):
    return (check.lhs.hex(), check.rhs.hex(), check.p.hex())


def test_smoothing_distances_once_per_stack(monkeypatch):
    calls = []
    original = bounds.exact_kolmogorov_discrete

    def counting(support, probs):
        calls.append(support.shape)
        return original(support, probs)

    monkeypatch.setattr(bounds, "exact_kolmogorov_discrete", counting)
    laws = corpus.random_joint_laws(23, 40)
    checks = verify_smoothing_lemma(laws, [1.0, 2.0, 3.5])
    # D(X) and D(X + Y) of all 40 laws in one call, not once more per p
    assert calls == [(80, max(len(law.probs) for law in laws))]
    assert [len(row) for row in checks] == [3] * 40


def test_stacked_smoothing_equals_the_per_law_check():
    laws = corpus.random_joint_laws(5, 300)
    laws.append(JointLaw(x=(-1.0, 1.0), y=(2.0, -2.0), probs=(0.5, 0.5)))  # moment past float range
    laws.append(JointLaw(x=(0.0,), y=(0.0,), probs=(1.0,)))  # one atom
    p_values = [1.0, 1.5, 2.0, 2.0**64]
    stacked = verify_smoothing_lemma(laws, p_values)
    assert len(stacked) == len(laws)
    for law, row in zip(laws, stacked):
        want = [_smoothing_reference(law, p) for p in p_values]
        assert [_bits(c) for c in row] == [_bits(c) for c in want]
        assert _bits(verify_smoothing_lemma(law, p_values[1])) == _bits(want[1])


def test_stacked_smoothing_refuses_the_first_invalid_law():
    good = corpus.random_joint_law(3, 0)
    negative = JointLaw(x=(0.0, 1.0), y=(0.0, 0.0), probs=(1.2, -0.2))
    nan = JointLaw(x=(-1.0, 1.0), y=(math.nan, 0.0), probs=(0.5, 0.5))
    ragged = JointLaw(x=(0.0, 1.0), y=(0.0,), probs=(0.5, 0.5))
    for stack, message in (([good, negative, nan], "negative joint probabilities"),
                           ([good, nan, negative], "non-finite joint law value"),
                           ([good, ragged, nan], "equal-length and non-empty")):
        with pytest.raises(ValueError, match=message):
            verify_smoothing_lemma(stack, [1.0])
    with pytest.raises(ValueError, match="p must be >= 1"):
        verify_smoothing_lemma([good], [1.0, 0.5])
    assert verify_smoothing_lemma([], [1.0]) == []


def test_smoothing_laws_equal_up_to_signed_zeros():
    # laws that differ only in the sign of a zero give the same distances,
    # one law at a time and stacked together
    plus = JointLaw(x=(0.0, 0.0, 1.0), y=(0.0, 0.5, -0.0), probs=(0.25, 0.25, 0.5))
    minus = JointLaw(x=(-0.0, 0.0, 1.0), y=(-0.0, 0.5, 0.0), probs=(0.25, 0.25, 0.5))
    assert plus == minus
    margins = [verify_smoothing_lemma(law, 1.5).margin for law in (plus, minus)]
    margins += [row[0].margin for row in verify_smoothing_lemma([plus, minus], [1.5])]
    assert [m.hex() for m in margins] == [margins[0].hex()] * 4


def _merged_marginal(values, probs):
    """Equal atoms merged by a dict, each group summed in input order from
    0.0, then sorted: the merge the smoothing check once did itself."""
    agg = {}
    for v, p in zip(values, probs):
        agg[v] = agg.get(v, 0.0) + p
    support = sorted(agg)
    return support, [agg[v] for v in support]


# few distinct atoms, signed zeros among them, so that X and X + Y repeat atoms
_ATOMS = st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])


@st.composite
def _joint_laws(draw):
    if draw(st.booleans()):
        return corpus.random_joint_law(draw(st.sampled_from([0, 1, 7, 12345])),
                                       draw(st.integers(min_value=0, max_value=999)))
    k = draw(st.integers(min_value=1, max_value=12))
    x = draw(st.lists(_ATOMS, min_size=k, max_size=k))
    y = draw(st.lists(_ATOMS, min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k))
    total = math.fsum(raw)
    return JointLaw(x=tuple(x), y=tuple(y), probs=tuple(r / total for r in raw))


@settings(max_examples=80)
@given(law=_joint_laws(), p=st.sampled_from([1.0, 1.5, 2.0]))
def test_smoothing_distances_equal_those_of_merged_marginals(law, p):
    # the distance merges atoms itself, to the same bits as merging first
    d_x = exact_kolmogorov_discrete(*_merged_marginal(law.x, law.probs))
    sums = [a + b for a, b in zip(law.x, law.y)]
    d_sum = exact_kolmogorov_discrete(*_merged_marginal(sums, law.probs))
    check = verify_smoothing_lemma(law, p)
    moment = math.fsum(pr * abs(b) ** (2.0 * p) for b, pr in zip(law.y, law.probs))
    margin = 2.0 * d_x + 3.0 * moment ** (1.0 / (2.0 * p + 1.0)) - d_sum
    assert check.lhs.hex() == d_sum.hex()
    assert check.margin.hex() == margin.hex()


@settings(max_examples=40)
@given(laws=st.lists(_joint_laws(), min_size=1, max_size=6),
       p_values=st.lists(st.sampled_from([1.0, 1.5, 2.0, 7.0]), min_size=1, max_size=3))
def test_stacked_smoothing_on_drawn_laws(laws, p_values):
    stacked = verify_smoothing_lemma(laws, p_values)
    for law, row in zip(laws, stacked):
        assert [_bits(c) for c in row] == [_bits(_smoothing_reference(law, p)) for p in p_values]
