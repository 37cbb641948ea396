"""Bivariate interval DGP and the Monte Carlo accuracy study.

Two series share smooth mean curves on t_i = 2*pi*i/n plus (possibly
correlated) Gaussian endpoint noise.  The study fits each method, measures
the Hausdorff distance between reconstructed and true mean intervals, and
records the component count chosen by the whiteness criterion.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import (
    IntervalSeries,
    IvssaError,
    ParameterError,
    ShapeError,
    _integer,
    phi_arrays,
)
from .decomposition import Decomposition, decompose, decompose_stacked
from .embedding import StackingMode
from .parallel import run_tasks
from .spectral import ks_critical_value, select_from_decomposition

#: Method labels: separate univariate fits, vertical stack, horizontal stack.
METHODS = ("ivssa", "v-mivssa", "h-mivssa")

GENERATOR = "pcg64"


@dataclass(frozen=True)
class ScenarioConfig:
    """Noise settings for one simulated bivariate interval sample."""

    n: int
    rho: float
    sigma2: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 4))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        if self.sigma2 < 0.0:
            raise ParameterError(f"sigma2 must be >= 0, got {self.sigma2}")
        if abs(self.rho) > self.sigma2:
            # covariance [[s2, rho], [rho, s2]] must stay PSD
            raise ParameterError(
                f"|rho| = {abs(self.rho)} exceeds sigma2 = {self.sigma2}"
            )

    @classmethod
    def scenario_a(cls, n: int, seed: int) -> "ScenarioConfig":
        """Independent endpoint noise: rho = 0, sigma2 = 1."""
        return cls(n=n, rho=0.0, sigma2=1.0, seed=seed)

    @classmethod
    def scenario_b(cls, n: int, seed: int) -> "ScenarioConfig":
        """Cross-correlated endpoint noise: rho = 1/2, sigma2 = 1."""
        return cls(n=n, rho=0.5, sigma2=1.0, seed=seed)

    @classmethod
    def from_name(cls, name: str, n: int, seed: int) -> "ScenarioConfig":
        key = name.strip().upper()
        if key == "A":
            return cls.scenario_a(n, seed)
        if key == "B":
            return cls.scenario_b(n, seed)
        raise ParameterError(f"unknown scenario {name!r}; expected A or B")


@dataclass(frozen=True)
class ScenarioData:
    """One simulated draw plus the noise-free mean intervals."""

    x: IntervalSeries
    y: IntervalSeries
    x_mean: IntervalSeries
    y_mean: IntervalSeries
    config: ScenarioConfig


def _mean_curves(n: int) -> tuple[np.ndarray, np.ndarray]:
    t = 2.0 * np.pi * np.arange(1, n + 1) / n
    mu_x = 8.0 + t + np.sin(np.pi * t)
    mu_y = np.sqrt(t) + np.cos(np.pi * t / 2.0)
    return mu_x, mu_y


def simulate_scenario(config: ScenarioConfig) -> ScenarioData:
    """Draw one bivariate interval sample.

    x_t = [mu_x + e_x, mu_x + 2 + e_x] and y_t = [mu_y + e_y,
    2(mu_y + 1) + e_y]; one noise draw per series shifts both endpoints, so
    widths are noise-free.  (e_x, e_y) has variance sigma2 and covariance
    rho, drawn from a fresh PCG64 stream at the configured seed.
    """
    n = config.n
    mu_x, mu_y = _mean_curves(n)
    if config.sigma2 > 0.0:
        sigma = math.sqrt(config.sigma2)
        chol = np.array(
            [
                [sigma, 0.0],
                [config.rho / sigma, math.sqrt(config.sigma2 - config.rho**2 / config.sigma2)],
            ]
        )
        z = np.random.Generator(np.random.PCG64(config.seed)).standard_normal((n, 2))
        eps = z @ chol.T
        e_x, e_y = eps[:, 0], eps[:, 1]
    else:
        e_x = np.zeros(n)
        e_y = np.zeros(n)
    x = IntervalSeries(mu_x + e_x, mu_x + 2.0 + e_x)
    y = IntervalSeries(mu_y + e_y, 2.0 * (mu_y + 1.0) + e_y)
    x_mean = IntervalSeries(mu_x, mu_x + 2.0)
    y_mean = IntervalSeries(mu_y, 2.0 * (mu_y + 1.0))
    return ScenarioData(x=x, y=y, x_mean=x_mean, y_mean=y_mean, config=config)


def hausdorff_residual_mean(truth: IntervalSeries, estimate: IntervalSeries) -> float:
    """Mean over time of the Hausdorff distance between paired intervals."""
    if len(truth) != len(estimate):
        raise ShapeError(
            f"series lengths differ: {len(truth)} vs {len(estimate)}"
        )
    gaps = np.maximum(
        np.abs(truth.lo - estimate.lo), np.abs(truth.hi - estimate.hi)
    )
    return float(gaps.mean())


def _prefix_hr(
    dec: Decomposition, series_index: int, truth: IntervalSeries, m_top: int
) -> list[float]:
    """HR of the leading-m trendlines of one series for m = 1..m_top, from
    one prefix sum of the components and no series object per m."""
    ca, cb = dec.component_channels(range(1, m_top + 1), series_index)
    lo, hi = phi_arrays(np.cumsum(ca, axis=0), np.cumsum(cb, axis=0))
    gaps = np.maximum(np.abs(truth.lo - lo), np.abs(truth.hi - hi))
    return [float(g.mean()) for g in gaps]


@dataclass(frozen=True)
class McRow:
    """HR of one (method, m) cell in one replication; None marks a failed fit."""

    scenario: str
    n: int
    method: str
    m: int
    rep: int
    seed: int
    hr_x: float | None
    hr_y: float | None


@dataclass(frozen=True)
class McSelectionRow:
    """Component count chosen by the whiteness test in one replication."""

    scenario: str
    n: int
    method: str
    series: str
    rep: int
    seed: int
    m: int | None
    converged: bool


def _fits(method: str, data: ScenarioData) -> list[tuple[Decomposition, int]]:
    """(decomposition, series index) of x and of y for one method: two
    univariate fits for ivssa, one stacked fit read twice otherwise."""
    if method == "ivssa":
        return [(decompose(data.x), 1), (decompose(data.y), 1)]
    mode = StackingMode.VERTICAL if method == "v-mivssa" else StackingMode.HORIZONTAL
    dec = decompose_stacked([data.x, data.y], mode=mode)
    return [(dec, 1), (dec, 2)]


def _mc_replication(args) -> tuple[list[McRow], list[McSelectionRow]]:
    scenario, n, rep, seed, m_list, methods, alpha, max_m = args
    data = simulate_scenario(ScenarioConfig.from_name(scenario, n, seed))
    streams = (("x", data.x, data.x_mean), ("y", data.y, data.y_mean))
    cell = dict(scenario=scenario, n=n, rep=rep, seed=seed)
    rows: list[McRow] = []
    selections: list[McSelectionRow] = []
    for method in methods:
        try:
            fits = _fits(method, data)
        except (IvssaError, np.linalg.LinAlgError):
            fits = []
        # a row's HRs need m within the rank of every fit of the method
        m_top = max(
            (m for m in m_list if fits and all(f.eig.within_rank(m) for f, _ in fits)),
            default=0,
        )
        hrs = [
            _prefix_hr(dec, s, truth, m_top) if m_top else []
            for (dec, s), (_, _, truth) in zip(fits, streams)
        ]
        for m in m_list:
            hr_x, hr_y = (hrs[0][m - 1], hrs[1][m - 1]) if m <= m_top else (None, None)
            rows.append(McRow(method=method, m=m, hr_x=hr_x, hr_y=hr_y, **cell))
        for j, (series, raw, _) in enumerate(streams):
            m, conv = None, False
            if fits:
                dec, s = fits[j]
                try:
                    sel = select_from_decomposition(
                        dec, raw, series_index=s, alpha=alpha, max_m=max_m
                    )
                    m, conv = sel.m, sel.converged
                except (IvssaError, np.linalg.LinAlgError):
                    pass
            selections.append(
                McSelectionRow(method=method, series=series, m=m, converged=conv, **cell)
            )
    return rows, selections


def _distinct(name: str, values: tuple) -> None:
    """Raise unless values is nonempty and has no repeats: a repeat would
    duplicate every summary record of its cells."""
    if not values:
        raise ParameterError(f"{name} must not be empty")
    if len(set(values)) != len(values):
        raise ParameterError(f"{name} must not repeat, got {values}")


def _hr_stats(values: np.ndarray) -> dict[str, float | None]:
    """Mean, sd and quartiles of one cell's HRs; all None when it has none."""
    if not values.size:
        return dict.fromkeys(("mean", "sd", "q25", "q50", "q75"))
    qs = np.quantile(values, [0.25, 0.5, 0.75])
    return {
        "mean": float(values.mean()),
        "sd": float(values.std(ddof=1)) if values.size > 1 else 0.0,
        "q25": float(qs[0]),
        "q50": float(qs[1]),
        "q75": float(qs[2]),
    }


@dataclass(frozen=True)
class McReport:
    """Replication-level results of one Monte Carlo study."""

    scenarios: tuple[str, ...]
    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    methods: tuple[str, ...]
    reps: int
    base_seed: int
    alpha: float
    generator: str
    hr_rows: tuple[McRow, ...]
    selection_rows: tuple[McSelectionRow, ...]

    def hr_summary(self) -> list[dict]:
        """One summary record per (scenario, n, method, m) cell.  Every
        record has the same keys; the statistics of a cell with no HR are
        None."""
        cells: dict[tuple, list[float]] = {}  # successful HRs, in row order
        for r in self.hr_rows:
            for series, v in (("x", r.hr_x), ("y", r.hr_y)):
                if v is not None:
                    cells.setdefault((r.scenario, r.n, r.method, r.m, series), []).append(v)
        out = []
        for cell in product(self.scenarios, self.n_list, self.methods, self.m_list):
            rec: dict = dict(zip(("scenario", "n", "method", "m"), cell))
            for series in ("x", "y"):
                vals = np.asarray(cells.get((*cell, series), []), dtype=float)
                for stat, v in _hr_stats(vals).items():
                    rec[f"hr_{series}_{stat}"] = v
                rec[f"hr_{series}_failed"] = self.reps - int(vals.size)
            out.append(rec)
        return out

    def selection_summary(self) -> list[dict]:
        """Histogram and mode of selected m per (scenario, n, method,
        series).  Failed selections are left out; the mode's ties go to the
        smaller m, and an empty histogram's mode is None."""
        cells: dict[tuple, dict[int, int]] = {}
        for r in self.selection_rows:
            if r.m is not None:
                hist = cells.setdefault((r.scenario, r.n, r.method, r.series), {})
                hist[r.m] = hist.get(r.m, 0) + 1
        out = []
        for cell in product(self.scenarios, self.n_list, self.methods, ("x", "y")):
            hist = dict(sorted(cells.get(cell, {}).items()))
            mode = min(hist, key=lambda m: (-hist[m], m)) if hist else None
            rec = dict(zip(("scenario", "n", "method", "series"), cell))
            out.append({**rec, "histogram": hist, "mode": mode})
        return out

    def to_dict(self) -> dict:
        return {
            "config": {
                "scenarios": list(self.scenarios),
                "n_list": list(self.n_list),
                "m_list": list(self.m_list),
                "methods": list(self.methods),
                "reps": self.reps,
                "base_seed": self.base_seed,
                "alpha": self.alpha,
                "generator": self.generator,
            },
            "hr_rows": [asdict(r) for r in self.hr_rows],
            "selection_rows": [asdict(r) for r in self.selection_rows],
            "hr_summary": self.hr_summary(),
            "selection_summary": self.selection_summary(),
        }


def run_monte_carlo(
    scenarios: str | Sequence[str] = ("A", "B"),
    n_list: Sequence[int] = (100, 250),
    m_list: Sequence[int] = tuple(range(1, 9)),
    methods: Sequence[str] = METHODS,
    reps: int = 200,
    base_seed: int = 1729,
    alpha: float = 0.05,
    max_m: int | None = None,
) -> McReport:
    """Replicate every (scenario, n) cell and collect HR and selection rows.

    Replication r (0-based) draws from seed base_seed + r; the same seeds
    recur across cells so methods face identical noise.  Replications run
    in order, in this process.
    """
    if isinstance(scenarios, str):
        scenarios = (scenarios,)
    scenarios = tuple(s.strip().upper() for s in scenarios)
    _distinct("scenarios", scenarios)
    for s in scenarios:
        if s not in ("A", "B"):
            raise ParameterError(f"unknown scenario {s!r}; expected A or B")
    reps = _integer(reps, "reps", 1)
    base_seed = _integer(base_seed, "base_seed", 0)
    if max_m is not None:
        max_m = _integer(max_m, "max_m", 1)
    ks_critical_value(alpha)  # raises for alpha outside (0, 1), nan included
    methods = tuple(methods)
    _distinct("methods", methods)
    for method in methods:
        if method not in METHODS:
            raise ParameterError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
    n_list = tuple(_integer(n, "an n list entry", 4) for n in n_list)
    _distinct("n list", n_list)
    m_list = tuple(sorted({_integer(m, "an m list entry", 1) for m in m_list}))
    if not m_list:
        raise ParameterError("m list must not be empty")
    tasks = [
        (scenario, n, rep, base_seed + rep, m_list, methods, alpha, max_m)
        for scenario in scenarios
        for n in n_list
        for rep in range(reps)
    ]
    results = run_tasks(_mc_replication, tasks)
    hr_rows: list[McRow] = []
    selection_rows: list[McSelectionRow] = []
    for rows, sels in results:
        hr_rows.extend(rows)
        selection_rows.extend(sels)
    return McReport(
        scenarios=scenarios,
        n_list=n_list,
        m_list=m_list,
        methods=methods,
        reps=reps,
        base_seed=base_seed,
        alpha=alpha,
        generator=GENERATOR,
        hr_rows=tuple(hr_rows),
        selection_rows=tuple(selection_rows),
    )
