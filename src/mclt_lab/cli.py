"""Reproducible experiment harness.

One JSON config describes one experiment; running it writes a ``manifest.json``
(config echo plus every computed number) and a ``series.csv`` into the output
directory, atomically: outputs are staged under temporary names and renamed
only after the run succeeds, so failures leave no partial files.

Subcommands
-----------
``rates``            simulate a kernel over a grid, estimate D, fit the decay
``bounds``           evaluate rate functionals on a parameter grid
``lipschitz``        exact distances and normalization pair for models
``verify``           lemma-suite / transforms-check verification runs
``plot-data``        turn a manifest into log-log plot columns

Exit codes: 0 success, 1 invariant violation (an asserted property failed),
2 config error.  ``--seed`` overrides the config seed; ``--threads`` (or the
``MCLT_LAB_THREADS`` environment variable) caps simulation workers without
changing any output byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, corpus, rng
from .bounds import (
    LOG_CONVENTION,
    BoundParameterError,
    BOUNDS,
    compare_table,
    evaluate_rate,
    evaluation_notes,
    verify_smoothing_lemma,
)
from .conditions import WalkGuardExceeded, minimal_delta, minimal_epsilon, verify_moment_lemmas
from .distance import KolmogorovEstimate, exact_kolmogorov_discrete, fit_rate, kolmogorov_distance
from .kernels import (
    KernelError,
    make_kernel,
    sample_paths,
    # unused here; perfbench's tracer wraps this binding and its self-test
    # asserts that it does
    sample_terminal,
    sample_terminals,
)
from .lipschitz import (
    DegenerateFunctionalError,
    DegenerateMetricError,
    EnumerationGuardExceeded,
    check_enumeration,
    epsilon_delta_n,
    exact_distribution,
    model_from_config,
    variance_sandwich,
)
from .transforms import (
    INF_GE_1,
    SUP_LE_1,
    check_padding,
    pad_collection,
    padding_ratio_report,
    restrict_to_v,
)

KINDS = ("rates", "bounds-table", "lemma-suite", "lipschitz", "transforms-check")
#: The ``series.csv`` columns of ``rates`` and ``lipschitz`` runs, before one
#: per bound id, shared on purpose: a row is one distance, estimated or exact.
#: A ``lipschitz`` row writes the support size as M and d_exact as d_hat,
#: dkw_lo and dkw_hi.
_DISTANCE_COLUMNS = ["grid_point", "M", "d_hat", "dkw_lo", "dkw_hi", "epsilon", "delta"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    """An asserted property failed during a run; named in the message."""


@dataclass
class ExperimentConfig:
    """What the runners read; ``raw`` is only the manifest's config echo.

    ``points``: rates (entry, kernel, M, abscissa), lipschitz (entry, model,
    abscissa), bounds-table the grid.  ``settings``: transforms-check (kernel,
    count, the padding epsilon), lemma-suite (corpus_size, s, t_grid, p_values).
    """

    kind: str
    raw: dict
    seed: int
    rho: float = 1.0
    p: float = 1.0
    alpha: float = 0.05
    bounds: tuple[str, ...] = ()
    out: str | None = None
    points: list = field(default_factory=list)
    settings: tuple = ()


def _non_finite(doc) -> str | None:
    """The path of the first non-finite number in a JSON document, if any:
    Python's ``json`` reads ``NaN``, ``Infinity`` and ``1e999``, and the
    manifest echoes the config, so one in a key nothing reads would still
    make the manifest invalid JSON."""
    stack = [("", doc)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, float) and not math.isfinite(node):
            return path or "the document"
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        stack.extend((f"{path}[{key!r}]", child) for key, child in reversed(list(items)))
    return None


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    where = _non_finite(doc)
    if where is not None:
        raise ConfigError(f"non-finite number at {where}: JSON numbers must be finite")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if "seed" not in doc:
        raise ConfigError("seed is mandatory (no wall-clock seeding)")
    grid = doc.get("grid", [])
    if not isinstance(grid, list) or not all(isinstance(g, dict) for g in grid):
        raise ConfigError("grid must be a list of objects")
    if kind in ("rates", "bounds-table", "lipschitz") and not grid:
        raise ConfigError(f"{kind} experiments need a non-empty grid")
    bounds = doc.get("bounds", ())
    if not isinstance(bounds, (list, tuple)) or not all(isinstance(b, str) for b in bounds):
        raise ConfigError(f"bounds must be a list of bound ids, got {bounds!r}")
    for bound_id in bounds:
        if bound_id not in BOUNDS:
            raise ConfigError(f"unknown bound id {bound_id!r}")
    cfg = ExperimentConfig(
        kind=kind,
        raw=doc,
        seed=_config_value(doc, "seed", None, _integer),
        rho=_config_value(doc, "rho", 1.0),
        p=_config_value(doc, "p", 1.0),
        alpha=_config_value(doc, "alpha", 0.05),
        bounds=tuple(bounds),
        out=doc.get("out"),
    )
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError(f"out must be a directory path string, got {cfg.out!r}")
    if cfg.rho <= 0.0:
        raise ConfigError("rho must be positive")
    if cfg.p < 1.0:
        raise ConfigError("p must be >= 1")
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    ref = {"rates": "kernel", "transforms-check": "kernel", "lipschitz": "model"}.get(kind)
    if ref is not None and doc.get(ref) is None:
        raise ConfigError(f"{kind} experiments need a {ref} reference")
    if kind == "rates":
        for entry in grid:
            if "n" not in entry or "M" not in entry:
                raise ConfigError("rates grid entries need 'n' and 'M'")
            m = _config_value(entry, "M", None, _integer)
            if m < 1000:
                raise ConfigError("rate experiments require M >= 1000")
            # the fit abscissa: epsilon when the entry names one, else n
            abscissa = _config_value(entry, "epsilon" if "epsilon" in entry else "n", None, _positive)
            cfg.points.append((entry, _kernel_for_entry(doc["kernel"], entry), m, abscissa))
    if kind == "bounds-table":
        cfg.bounds = cfg.bounds or tuple(BOUNDS)
        cfg.points = _bounds_grid(cfg.bounds, grid)
    if kind == "lipschitz":
        for entry in grid:
            model = _model_for_entry(doc, entry, cfg.rho)
            cfg.points.append((entry, model, _config_value(entry, "n", model.n, _positive)))
    if kind == "lemma-suite":
        cfg.settings = _lemma_settings(doc)
    if kind == "transforms-check":
        if not grid and "n" not in doc:
            raise ConfigError("transforms-check needs a grid entry or a top-level 'n'")
        kernel = _kernel_for_entry(doc["kernel"], grid[0] if grid else {"n": doc["n"]})
        # padding_ratio_report reads a kept step's ratio off its conditional std
        for step in range(1, kernel.n + 1):
            if any(len({abs(v) for v in dist.values}) != 1 for dist in kernel.step_regimes(step)):
                raise ConfigError(f"kernel reference invalid: a law of step {step} has "
                                  "atoms of more than one |value|, or none")
        # the padding eps: the config's, else the certified one
        eps = doc.get("epsilon")
        if eps is None:
            eps = _certified_epsilon(kernel, cfg.rho)
        try:
            count = _integer(doc.get("count", 1000))
            eps = _finite(eps)
            check_padding(kernel.n, count, eps)
        except (TypeError, ValueError, OverflowError) as exc:  # KernelError is a ValueError
            raise ConfigError(f"transforms-check count or padding invalid: {exc}") from None
        cfg.settings = (kernel, count, eps)
    return cfg


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None


def _finite(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not finite")
    return number


def _integer(value) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _positive(value) -> float:
    number = _finite(value)
    if number <= 0.0:
        raise ValueError("not positive")
    return number


def _finite_list(values) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise TypeError("not a list")
    return [_finite(v) for v in values]


def _config_value(doc: dict, key: str, default, convert=_finite):
    """``convert`` applied to ``doc[key]`` (or to the default); a value it
    cannot convert is a config error."""
    value = doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} has an invalid value {value!r}") from None


def _kernel_for_entry(ref, entry: dict):
    """The kernel of one grid entry; one that cannot be built or simulated is a config error."""
    if not isinstance(ref, dict) or "name" not in ref:
        raise ConfigError("kernel reference must be an object with a 'name' field")
    try:
        params = dict(ref.get("params", {}))
        params.update(entry.get("kernel_params", {}))
        if "n" in entry:
            params["n"] = _integer(entry["n"])
        kernel = make_kernel(ref["name"], **params)
    # KernelError, a parameter of the wrong form, or one the family does not take
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"kernel reference invalid: {exc}") from None
    if kernel.n >= rng.MAX_DRAWS_PER_PATH:
        raise ConfigError(f"kernel reference invalid: n={kernel.n} exceeds the per-path draw budget")
    # a law past float range would overflow the simulated sums; a NaN is
    # left for the run, which names the invalid law and its step
    seen: set[int] = set()
    for step in range(1, kernel.n + 1):
        for dist in kernel.step_regimes(step):
            if id(dist) not in seen:
                seen.add(id(dist))
                if dist.moment(2) == math.inf:
                    raise ConfigError(f"kernel reference invalid: E xi^2 of step {step} "
                                      "is not a finite float")
    return kernel


def _model_for_entry(doc: dict, entry: dict, rho: float):
    """The model of one grid entry; one that cannot be built is a config error.

    A registry family takes the entry's keys but ``M`` as params, over the
    reference's own; the expression form ignores the entry.
    """
    if not isinstance(doc["model"], dict):
        raise ConfigError("model reference must be an object")
    ref = dict(doc["model"])
    try:
        if "name" in ref:
            params = dict(ref.get("params", {}))
            params.update({k: v for k, v in entry.items() if k != "M"})
            params.setdefault("rho", rho)
            ref["params"] = params
        model = model_from_config(ref)
        check_enumeration(model)
        epsilon_delta_n(model)  # validates; refuses a metric moment, eps_n or delta_n past float range
    except DegenerateMetricError:
        pass  # the run notes it
    except KeyError as exc:
        raise ConfigError(f"model reference invalid: missing field {exc}") from None
    # an unknown family, functional or metric kind, a field or parameter of
    # the wrong form or one the family does not take, an invalid coordinate
    # law, or a product space over the enumeration guard
    except (AttributeError, TypeError, ValueError, ArithmeticError,
            EnumerationGuardExceeded) as exc:
        raise ConfigError(f"model reference invalid: {exc}") from None
    return model


def _lemma_settings(doc: dict) -> tuple[int, float, list[float], list[float]]:
    """corpus_size, s, t_grid and p_values of a lemma-suite config; values
    outside the lemmas' hypotheses are config errors."""
    size = _config_value(doc, "corpus_size", 100, _integer)
    s = _config_value(doc, "s", 4.0)
    t_grid = _config_value(doc, "t_grid", (2.25, 2.5, 3.0, 3.5), _finite_list)
    p_values = _config_value(doc, "p_values", (1.0, 2.0), _finite_list)
    if size < 1:
        raise ConfigError(f"corpus_size must be >= 1, got {size!r}")
    if s <= 2.0:
        raise ConfigError(f"s must exceed 2, got {s!r}")
    if any(t < 2.0 or t >= s for t in t_grid):
        raise ConfigError(f"t_grid entries must lie in [2, s) = [2, {s!r}), got {t_grid!r}")
    if any(p < 1.0 for p in p_values):
        raise ConfigError(f"p_values entries must be >= 1, got {p_values!r}")
    return size, s, t_grid, p_values


def _bounds_grid(ids: tuple[str, ...], grid: list[dict]) -> list[dict]:
    """``grid``, once every functional in ``ids`` accepts each point and every value is a number."""
    for entry in grid:
        for bound_id in ids:
            try:
                evaluate_rate(bound_id, entry)
            except (TypeError, ValueError, ArithmeticError) as exc:  # BoundParameterError too
                raise ConfigError(f"{bound_id} at grid point {entry}: {exc}") from None
        for key in entry:
            _config_value(entry, key, None)
    return grid


# ---------------------------------------------------------------------------
# output staging


class OutputStager:
    """Stage output files, then publish them together or remove them.

    An output directory that does not exist yet is staged whole in a hidden
    sibling directory, and ``commit`` publishes it with one ``os.replace``,
    so a run killed mid-commit leaves either no output directory or a
    complete one.  In a directory that exists already each file is staged
    beside its final name and renamed over it one at a time.
    """

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._stage: Path | None = None  # the sibling directory, for a new out_dir
        if not self.out_dir.exists():
            self.out_dir.parent.mkdir(parents=True, exist_ok=True)
            self._stage = self.out_dir.with_name(f".tmp-{self.out_dir.name}-{os.urandom(6).hex()}")
            self._stage.mkdir()
        self._staged: list[tuple[Path, Path]] = []

    def write_text(self, name: str, text: str) -> None:
        if self._stage is not None:
            (self._stage / name).write_text(text, encoding="utf-8", newline="")
            return
        tmp = self.out_dir / f".tmp-{name}"
        tmp.write_text(text, encoding="utf-8", newline="")
        self._staged.append((tmp, self.out_dir / name))

    def commit(self) -> None:
        if self._stage is not None:
            os.replace(self._stage, self.out_dir)
            self._stage = None
        for tmp, final in self._staged:
            os.replace(tmp, final)
        self._staged.clear()

    def abort(self) -> None:
        if self._stage is not None:
            shutil.rmtree(self._stage, ignore_errors=True)
            self._stage = None
        for tmp, _ in self._staged:
            tmp.unlink(missing_ok=True)
        self._staged.clear()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: list[str], rows: list[list], comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _manifest(cfg: ExperimentConfig, records: list[dict], fit: dict | None, notes: list[str]) -> dict:
    echo = dict(cfg.raw)
    echo["seed"] = cfg.seed  # effective seed after any --seed override
    return {
        "tool": "mclt-lab",
        "version": __version__,
        "log_convention": LOG_CONVENTION,
        "kind": cfg.kind,
        "config": echo,
        "records": records,
        "fit": fit,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# condition columns


def _certified_epsilon(kernel, rho: float) -> float:
    """The family's closed form, else the history walk; a walk over the node
    guard raises ``WalkGuardExceeded``, which ends the run with exit 1."""
    eps = kernel.certified_epsilon(rho)
    return minimal_epsilon(kernel, rho).epsilon if eps is None else eps


def _bound_columns(cfg, entry, kernel, stats, eps, delta, notes):
    params = {
        "rho": cfg.rho,
        "p": cfg.p,
        "n": float(kernel.n),
        "epsilon": eps,
        "delta": delta,
        "var_dev_p": stats.mean_var_dev_p,
        "max_inc_2p": stats.mean_max_inc_2p,
        "sum_inc_2p": stats.mean_total_inc_2p,
        "var_dev_linf": stats.max_var_dev,
    }
    if cfg.p == 1.0:
        params["var_dev_l1"] = stats.mean_var_dev_p
    values = {}
    for bound_id in cfg.bounds:
        try:
            values[bound_id] = evaluate_rate(bound_id, params)
            for note in evaluation_notes(bound_id, params):
                if note not in notes:
                    notes.append(note)
        except (BoundParameterError, ArithmeticError) as exc:  # a value past float range
            values[bound_id] = None
            notes.append(f"{bound_id} at grid point {entry}: {exc}")
    return values


# ---------------------------------------------------------------------------
# runners


#: Terminal cells (paths times grid points) that one group of a ``rates``
#: grid may hold at once: 2**23 float64 cells, 64 MiB.  A single point over
#: it forms a group of its own.
GROUP_CELLS = 1 << 23


def _rate_groups(points: list) -> list[list]:
    """The rates grid points in order, cut into runs of consecutive points
    with equal ``M`` and at most ``GROUP_CELLS`` terminal cells each."""
    groups: list[list] = []
    for point in points:
        m = point[2]
        group = groups[-1] if groups else None
        if group is None or group[0][2] != m or (len(group) + 1) * m > GROUP_CELLS:
            groups.append([point])
        else:
            group.append(point)
    return groups


def _run_rates(cfg: ExperimentConfig, stager: OutputStager, threads: int) -> dict:
    notes: list[str] = []
    records: list[dict] = []
    rows: list[list] = []
    need_sum_inc = "HB" in cfg.bounds
    for group in _rate_groups(cfg.points):
        # every point reads the config seed's counter streams, so the group
        # draws each step's words once for all of its points
        group_stats = sample_terminals([kernel for _, kernel, _, _ in group], cfg.seed,
                                       group[0][2], p=cfg.p, with_sum_inc=need_sum_inc,
                                       threads=threads)
        for entry, kernel, m, abscissa in group:
            stats = group_stats.pop(0)  # a point's terminals go once its record is made
            eps = _certified_epsilon(kernel, cfg.rho)
            delta = kernel.certified_delta()
            if delta is None:  # as for epsilon: the closed form, else the walk
                delta = minimal_delta(kernel).delta
            record = {
                "grid_point": abscissa,
                "n": kernel.n,
                "M": m,
                "epsilon": eps,
                "epsilon_mode": "certified",
                "delta": delta,
                "delta_mode": "certified",
                "kernel": kernel.label,
                "terminal_mean": float(np.mean(stats.terminal)),
                "terminal_var": float(np.var(stats.terminal)),
                "var_dev_p": stats.mean_var_dev_p,
                "max_inc_2p": stats.mean_max_inc_2p,
                "sum_inc_2p": stats.mean_total_inc_2p if need_sum_inc else None,
                "var_dev_sup": stats.max_var_dev,
            }
            est = kolmogorov_distance(stats.terminal, alpha=cfg.alpha)
            record.update(d_hat=est.d_hat, dkw_band=est.dkw_band, dkw_lo=est.lower, dkw_hi=est.upper)
            record["bounds"] = bound_values = _bound_columns(cfg, entry, kernel, stats, eps, delta, notes)
            records.append(record)
            rows.append([abscissa, m, est.d_hat, est.lower, est.upper, eps, delta]
                        + [bound_values[b] for b in cfg.bounds])
    fit = None
    if len(records) >= 3:
        points = [
            (r["grid_point"], KolmogorovEstimate(r["d_hat"], r["M"], cfg.alpha))
            for r in records
        ]
        reference = None
        if cfg.bounds and all(r["bounds"].get(cfg.bounds[0]) is not None for r in records):
            reference = [r["bounds"][cfg.bounds[0]] for r in records]
        try:
            rate = fit_rate(points, reference)
            fit = {
                "slope": rate.slope,
                "intercept": rate.intercept,
                "r_squared": rate.r_squared,
                "ratio_spread": rate.ratio_spread,
                "reference": cfg.bounds[0] if reference is not None else None,
                "excluded": list(rate.excluded),
            }
        except ValueError as exc:
            notes.append(f"rate fit skipped: {exc}")
    header = _DISTANCE_COLUMNS + list(cfg.bounds)
    stager.write_text("series.csv", _csv(header, rows, comment=f"log_convention={LOG_CONVENTION}"))
    return _manifest(cfg, records, fit, notes)


def _run_bounds_table(cfg: ExperimentConfig, stager: OutputStager) -> dict:
    table = compare_table(cfg.bounds, cfg.points)
    stager.write_text("series.csv", table.to_csv())
    records = [
        {"grid_point": dict(point), "bounds": dict(zip(table.ids, row))}
        for point, row in zip(table.grid, table.values)
    ]
    return _manifest(cfg, records, None, list(table.notes))


def _run_lemma_suite(cfg: ExperimentConfig, stager: OutputStager) -> dict:
    size, s, t_grid, p_values = cfg.settings
    rows: list[list] = []
    records: list[dict] = []
    failures = []
    for i in range(size):
        dist = corpus.random_mean_zero_distribution(cfg.seed, i)
        report = verify_moment_lemmas(dist, s, t_grid)
        ok = report.all_hold
        rows.append(["moment_interpolation_and_cap", i, "pass" if ok else "FAIL", report.epsilon])
        if not ok:
            failures.append(f"moment lemma failed on corpus distribution {i}")
    for i in range(size):
        law = corpus.random_joint_law(cfg.seed, i)
        for p in p_values:
            check = verify_smoothing_lemma(law, p)
            ok = check.margin >= -1e-12
            rows.append(["smoothing", f"{i}/p={p}", "pass" if ok else "FAIL", check.margin])
            if not ok:
                failures.append(f"smoothing inequality failed on joint law {i} at p={p}")
    records.append({"corpus_size": size, "s": s, "t_grid": t_grid, "p_values": p_values,
                    "failures": failures})
    stager.write_text(
        "series.csv", _csv(["check", "case", "status", "value"], rows)
    )
    if failures:
        raise InvariantViolation("; ".join(failures))
    return _manifest(cfg, records, None, [])


def _run_transforms_check(cfg: ExperimentConfig, stager: OutputStager, threads: int) -> dict:
    notes: list[str] = []
    kernel, count, eps = cfg.settings
    paths = sample_paths(kernel, cfg.seed, count, threads=threads)
    padded = pad_collection(paths, eps, cfg.seed)
    worst_unit = float(np.max(np.abs(padded.terminal_variances - 1.0)))
    if worst_unit > 1e-9:
        raise InvariantViolation(
            f"padded terminal variance missed 1 by {worst_unit} (> 1e-9)"
        )
    report = padding_ratio_report(padded, cfg.rho)
    failing = np.flatnonzero(~report["holds"])
    if failing.size:
        raise InvariantViolation(
            "padded step violated the moment-domination ratio at eps="
            f"{eps} (worst ratio {report['worst_ratio'][failing[0]]})"
        )
    worst_ratio = np.max(report["worst_ratio"])
    rows = [["padding_unit_variance", count, "pass", worst_unit],
            ["padding_moment_ratio", count, "pass", worst_ratio]]
    stopped_summary = {}
    for variant in (SUP_LE_1, INF_GE_1):
        stopped = restrict_to_v(paths, variant)
        in_hyp = int(np.sum(~stopped.out_of_hypothesis))
        worst_resid = stopped.max_residual_in_hypothesis
        if in_hyp and worst_resid > eps * eps * (1.0 + 1e-12):
            raise InvariantViolation(
                f"stopped-variance residual {worst_resid} exceeded eps^2={eps*eps} "
                f"({variant})"
            )
        rows.append([f"stopped_residual_{variant}", in_hyp, "pass", worst_resid])
        stopped_summary[variant] = {
            "in_hypothesis": in_hyp,
            "flagged_out_of_hypothesis": int(np.sum(stopped.out_of_hypothesis)),
            "max_residual_in_hypothesis": worst_resid,
        }
    records = [{
        "kernel": kernel.label,
        "count": count,
        "epsilon": eps,
        "max_unit_variance_error": worst_unit,
        "worst_ratio": worst_ratio,
        "stopped": stopped_summary,
    }]
    stager.write_text("series.csv", _csv(["check", "cases", "status", "value"], rows))
    return _manifest(cfg, records, None, notes)


def _run_lipschitz(cfg: ExperimentConfig, stager: OutputStager) -> dict:
    notes: list[str] = []
    records: list[dict] = []
    rows: list[list] = []
    for entry, model, abscissa in cfg.points:
        support, probs = exact_distribution(model)
        d_exact = exact_kolmogorov_discrete(support, probs)
        try:
            pair = epsilon_delta_n(model)
            eps_n, delta_n = pair.epsilon_n, pair.delta_n
        except DegenerateMetricError:
            eps_n, delta_n = None, None
            notes.append(f"{model.label}: lower metrics identically zero (degenerate)")
        sandwich = variance_sandwich(model)
        if not sandwich.upper_holds:
            raise InvariantViolation(
                f"variance exceeded the upper metric sum on {model.label}"
            )
        if not sandwich.lower_holds:
            notes.append(
                f"{model.label}: lower sandwich failed (diagnostic, not asserted): "
                f"lower={sandwich.lower} > var={sandwich.variance}"
            )
        bound_values = {}
        for bound_id in cfg.bounds:
            params_b = {"rho": cfg.rho, "epsilon": eps_n, "delta": delta_n}
            try:
                if eps_n is None:
                    raise BoundParameterError("epsilon_n unavailable (degenerate metrics)")
                bound_values[bound_id] = evaluate_rate(bound_id, params_b)
            except BoundParameterError as exc:
                bound_values[bound_id] = None
                notes.append(f"{bound_id} at {entry}: {exc}")
        records.append({
            "grid_point": abscissa,
            "model": model.label,
            "support_size": int(len(support)),
            "d_exact": d_exact,
            "epsilon_n": eps_n,
            "delta_n": delta_n,
            "variance": sandwich.variance,
            "sandwich_lower": sandwich.lower,
            "sandwich_upper": sandwich.upper,
            "lower_holds": sandwich.lower_holds,
            "bounds": bound_values,
        })
        rows.append(
            [abscissa, len(support), d_exact, d_exact, d_exact, eps_n, delta_n]
            + [bound_values[b] for b in cfg.bounds]
        )
    header = _DISTANCE_COLUMNS + list(cfg.bounds)
    stager.write_text("series.csv", _csv(header, rows, comment=f"log_convention={LOG_CONVENTION}"))
    return _manifest(cfg, records, None, notes)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1) -> dict:
    """Run one experiment; write manifest.json and series.csv atomically."""
    stager = OutputStager(out_dir)
    try:
        if cfg.kind == "rates":
            manifest = _run_rates(cfg, stager, threads)
        elif cfg.kind == "bounds-table":
            manifest = _run_bounds_table(cfg, stager)
        elif cfg.kind == "lemma-suite":
            manifest = _run_lemma_suite(cfg, stager)
        elif cfg.kind == "transforms-check":
            manifest = _run_transforms_check(cfg, stager, threads)
        elif cfg.kind == "lipschitz":
            manifest = _run_lipschitz(cfg, stager)
        else:  # pragma: no cover - parse_config guards this
            raise ConfigError(f"unhandled kind {cfg.kind!r}")
        stager.write_text("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        stager.commit()
        return manifest
    except BaseException:
        stager.abort()
        raise


# ---------------------------------------------------------------------------
# plot data


def _record_number(i: int, name: str, value, convert=_finite):
    try:
        return None if value is None else convert(value)
    except (TypeError, ValueError, OverflowError):
        what = "a finite positive" if convert is _positive else "a finite"
        raise ConfigError(f"record {i}: {name} {value!r} is not {what} number") from None


def emit_plot_data(manifest: dict, references: list[str] | None = None) -> str:
    """Log-log plot columns from a manifest (natural logs, sorted abscissae).

    Comparison-table manifests have no distance series; they pass through as
    the ``bounds`` table of their config echo, parsed as ``bounds`` parses it.
    """
    if not isinstance(manifest, dict):
        raise ConfigError("manifest must be a JSON object")
    records = manifest.get("records", [])
    if not records or not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ConfigError("manifest has no record series")
    if manifest.get("kind") == "bounds-table":
        cfg = parse_config(manifest.get("config"))
        if cfg.kind != "bounds-table":
            raise ConfigError(f"a bounds-table manifest echoes a {cfg.kind} config")
        return compare_table(cfg.bounds, cfg.points).to_csv()
    usable = []
    for i, r in enumerate(records):
        if r.get("grid_point") is None or isinstance(r["grid_point"], dict):
            continue
        bounds = r.get("bounds") or {}
        if not isinstance(bounds, dict):
            raise ConfigError(f"record {i}: bounds {bounds!r} is not an object")
        d_key = "d_hat" if "d_hat" in r else "d_exact"
        usable.append((_record_number(i, "grid_point", r["grid_point"], _positive),
                       _record_number(i, d_key, r.get(d_key)),
                       {b: _record_number(i, f"bound {b}", v) for b, v in bounds.items()}))
    if not usable:
        raise ConfigError("manifest records carry no scalar grid points")
    if references is None:
        references = sorted({b for _, _, bounds in usable for b in bounds})
    header = ["log_abscissa", "log_d_hat"] + [f"log_{b}" for b in references] + ["warning"]
    rows = []
    for abscissa, d_hat, bounds in sorted(usable, key=lambda point: point[0]):
        cells: list = [math.log(abscissa)]
        if d_hat is None or d_hat <= 0.0:
            cells += [None] + [None] * len(references) + ["excluded: d_hat = 0"]
        else:
            cells.append(math.log(d_hat))
            warn = ""
            for b in references:
                value = bounds.get(b)
                if value is None or value <= 0.0:
                    cells.append(None)
                    warn = f"missing reference {b}"
                else:
                    cells.append(math.log(value))
            cells.append(warn)
        rows.append(cells)
    return _csv(header, rows, comment=f"log_convention={LOG_CONVENTION}")


# ---------------------------------------------------------------------------
# entry point


def _threads_from(args) -> int:
    if args.threads is not None:
        return max(1, int(args.threads))
    env = os.environ.get("MCLT_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("MCLT_LAB_THREADS must be an integer") from None
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclt-lab",
        description="martingale CLT rate laboratory",
    )
    parser.add_argument("--version", action="version", version=f"mclt-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("rates", "simulate, estimate distances, and fit the decay rate"),
        ("bounds", "evaluate bound functionals on a parameter grid"),
        ("lipschitz", "exact distances and normalization pair for models"),
        ("verify", "run a lemma-suite or transforms-check config"),
        ("plot-data", "emit log-log plot columns from a manifest"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the JSON config (or manifest for plot-data)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker thread cap")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "plot-data":
            p.add_argument("--reference", action="append", default=None,
                           help="bound id column to include (repeatable)")
    return parser


_COMMAND_KINDS = {
    "rates": ("rates",),
    "bounds": ("bounds-table",),
    "lipschitz": ("lipschitz",),
    "verify": ("lemma-suite", "transforms-check"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot-data":
            text = emit_plot_data(_read_json(args.config, "manifest"), args.reference)
            if args.out:
                stager = OutputStager(args.out)
                stager.write_text("plot.csv", text)
                stager.commit()
            else:
                sys.stdout.write(text)
            return EXIT_OK
        cfg = parse_config(_read_json(args.config, "config"))
        if cfg.kind not in _COMMAND_KINDS[args.command]:
            raise ConfigError(
                f"subcommand {args.command!r} cannot run configs of kind {cfg.kind!r}"
            )
        if args.seed is not None:
            cfg.seed = int(args.seed)
        out_dir = args.out or cfg.out
        if not out_dir:
            raise ConfigError("no output directory: pass --out or set 'out' in the config")
        run_experiment(cfg, out_dir, threads=_threads_from(args))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvariantViolation, KernelError, WalkGuardExceeded, EnumerationGuardExceeded,
            DegenerateFunctionalError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
