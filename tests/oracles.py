"""Independent reference implementations used to cross-check the library.

Everything here is coded from the definitions with plain loops (or a
different numerical route, e.g. SVD instead of a symmetric eigensolver) so
that agreement with the library is meaningful.
"""

from __future__ import annotations

import json
import math

import numpy as np


# classical (real-valued) SSA, used against degenerate interval series


def ssa_trajectory(x: np.ndarray, window: int) -> np.ndarray:
    n = x.size
    k = n - window + 1
    return np.column_stack([x[j : j + window] for j in range(k)])


def ssa_decompose(x: np.ndarray, window: int):
    """SVD route: eigenvalues of the Gram matrix are squared singular values."""
    traj = ssa_trajectory(x, window)
    u, s, vt = np.linalg.svd(traj, full_matrices=False)
    return traj, u, s, vt


def diag_avg_loop(mat: np.ndarray) -> np.ndarray:
    rows, cols = mat.shape
    n = rows + cols - 1
    out = np.empty(n)
    for t in range(n):
        lo = max(0, t - cols + 1)
        hi = min(rows, t + 1)
        vals = [mat[i, t - i] for i in range(lo, hi)]
        out[t] = sum(vals) / len(vals)
    return out


def hankelize(mat: np.ndarray) -> np.ndarray:
    """Hankel matrix of the antidiagonal means of ``mat``, same shape."""
    rows, cols = mat.shape
    return diag_avg_loop(mat)[np.arange(rows)[:, None] + np.arange(cols)[None, :]]


def c_norm(a: np.ndarray, b: np.ndarray) -> float:
    """C-norm of the pair matrix with grids a and b: sqrt(sum(a^2 + b^2) / 2).

    Equals the Frobenius norm of a when a == b.
    """
    return math.sqrt(0.5 * float(np.sum(a * a) + np.sum(b * b)))


def ssa_erc(u: np.ndarray, s: np.ndarray, vt: np.ndarray, i: int) -> np.ndarray:
    return diag_avg_loop(s[i] * np.outer(u[:, i], vt[i]))


def ssa_reconstruct(u, s, vt, indices) -> np.ndarray:
    total = None
    for i in indices:
        part = ssa_erc(u, s, vt, i)
        total = part if total is None else total + part
    return total


def ssa_lrr(u: np.ndarray, indices) -> np.ndarray:
    """Recurrence weights from the selected left singular vectors."""
    cols = u[:, list(indices)]
    pi1 = cols[-1, :]
    nu2 = float(pi1 @ pi1)
    if nu2 >= 1.0:
        raise ValueError("vertical eigenspace")
    return (cols[:-1, :] @ pi1)[::-1] / (1.0 - nu2)


def ssa_forecast(history: np.ndarray, alpha: np.ndarray, horizon: int) -> np.ndarray:
    vals = list(history)
    order = alpha.size
    out = []
    for _ in range(horizon):
        window = vals[-order:]
        nxt = sum(alpha[j] * window[order - 1 - j] for j in range(order))
        out.append(nxt)
        vals.append(nxt)
    return np.asarray(out)


# interval-side brute-force references


def phi_scalar(x: float, y: float) -> tuple[float, float]:
    """The map phi on one pair: the interval [min(x, y), max(x, y)]."""
    return (min(x, y), max(x, y))


def symbolic_cross_cov_loop(
    xa: np.ndarray, xb: np.ndarray, ya: np.ndarray, yb: np.ndarray
) -> np.ndarray:
    rows_x, cols = xa.shape
    rows_y = ya.shape[0]
    s = np.empty((rows_x, rows_y))
    for i in range(rows_x):
        for j in range(rows_y):
            acc = 0.0
            for t in range(cols):
                acc += (
                    2.0 * xa[i, t] * ya[j, t]
                    + xa[i, t] * yb[j, t]
                    + xb[i, t] * ya[j, t]
                    + 2.0 * xb[i, t] * yb[j, t]
                )
            s[i, j] = acc / 6.0
    return s


def symbolic_cov_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return symbolic_cross_cov_loop(a, b, a, b)


def autocov_loop(lo: np.ndarray, hi: np.ndarray, h: int) -> float:
    n = lo.size
    acc = 0.0
    for t in range(n - h):
        acc += (
            2.0 * lo[t] * lo[t + h]
            + lo[t] * hi[t + h]
            + hi[t] * lo[t + h]
            + 2.0 * hi[t] * hi[t + h]
        )
    return acc / (6.0 * n)


def periodogram_loop(lo: np.ndarray, hi: np.ndarray):
    """Returns (frequencies, ordinates, cumulative, ks_stat) by plain loops."""
    n = lo.size
    gammas = [autocov_loop(lo, hi, h) for h in range(n)]
    j_count = (n - 1) // 2
    freqs = []
    ords = []
    for j in range(1, j_count + 1):
        w = 2.0 * math.pi * j / n
        f = gammas[0]
        for h in range(1, n):
            f += 2.0 * gammas[h] * math.cos(h * w)
        f /= 2.0 * math.pi
        freqs.append(w)
        ords.append(max(f, 0.0))
    total = sum(ords)
    cumulative = []
    running = 0.0
    for f in ords:
        running += f
        cumulative.append(running / total)
    ks = max(
        abs(cumulative[j - 1] - j / j_count) for j in range(1, j_count + 1)
    ) * math.sqrt(j_count)
    return np.asarray(freqs), np.asarray(ords), np.asarray(cumulative), ks


def hausdorff_mean_loop(t_lo, t_hi, e_lo, e_hi) -> float:
    n = len(t_lo)
    acc = 0.0
    for t in range(n):
        acc += max(abs(t_lo[t] - e_lo[t]), abs(t_hi[t] - e_hi[t]))
    return acc / n


def forecast_loop(
    trend_lo: np.ndarray, trend_hi: np.ndarray, alpha: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar recurrent forecast, one step and one endpoint channel at a time.

    alpha[j-1] multiplies lag j; each step orders the two channel
    predictions into an interval and feeds the ordered endpoints back.
    """
    order = alpha.size
    ar = alpha[::-1]
    state_a = trend_lo[-order:].copy()
    state_b = trend_hi[-order:].copy()
    out_lo = np.empty(horizon)
    out_hi = np.empty(horizon)
    for t in range(horizon):
        xa = float(ar @ state_a)
        xb = float(ar @ state_b)
        lo, hi = (xa, xb) if xa <= xb else (xb, xa)
        out_lo[t] = lo
        out_hi[t] = hi
        state_a[:-1] = state_a[1:]
        state_a[-1] = lo
        state_b[:-1] = state_b[1:]
        state_b[-1] = hi
    return out_lo, out_hi


def oos_objective_loop(y, l_grid, m_grid, w0, p, stride):
    """Nested-loop out-of-sample objective table over (l, m) cells.

    Recomputes everything per cell through the public API, accumulating
    windows in ascending order; failed cells become inf.
    """
    import ivssa

    n = len(y)
    table: dict[tuple[int, int], float] = {}
    for window in l_grid:
        for m in m_grid:
            total = 0.0
            ok = True
            for w in range(w0, n - p + 1, stride):
                sub = ivssa.IntervalSeries(y.lo[:w], y.hi[:w])
                dec = ivssa.decompose(sub, window)
                if m > dec.d:
                    ok = False
                    break
                try:
                    coef = ivssa.recurrence_coefficients(
                        dec.eig, ivssa.Grouping.leading(m)
                    )
                except ivssa.VerticalityError:
                    ok = False
                    break
                trend = ivssa.trendline(dec, ivssa.Grouping.leading(m))[0]
                fc = ivssa.forecast_recurrent(trend, coef, p)
                for t in range(p):
                    total += max(
                        abs(y.lo[w + t] - fc.values.lo[t]),
                        abs(y.hi[w + t] - fc.values.hi[t]),
                    )
            table[(window, m)] = total if ok else math.inf
    return table


# the grid search's window task as it was before the batched fit: one
# decomposition, one eigensolve and one recurrence per fit


def oos_window_loop(args) -> tuple[np.ndarray, dict[int, str]]:
    """(len(fits), len(m_grid)) forecast errors of one window (inf where the
    fit failed) and the first failure reason of each failed m.  Each prefix
    is fitted through the public ``decompose``."""
    import ivssa
    from ivssa.forecasting import _recurrence, _run_recurrence

    y_lo, y_hi, window, fits, m_grid, p, rank_eps = args
    order = window - 1
    errors = np.full((len(fits), len(m_grid)), np.inf)
    reasons: dict[int, str] = {}
    rows, alphas, starts = [], [], []
    for i, w in enumerate(fits):
        dec = ivssa.decompose(ivssa.IntervalSeries(y_lo[:w], y_hi[:w]), window, rank_eps)
        feasible = [m for m in m_grid if m <= dec.d]
        for m in m_grid[len(feasible) :]:
            reasons.setdefault(m, "rank")
        ca, cb = dec.component_channels(range(1, max(feasible, default=0) + 1))
        trend_lo, trend_hi = ivssa.phi_arrays(
            np.cumsum(ca[:, -order:], axis=0), np.cumsum(cb[:, -order:], axis=0)
        )
        for j, m in enumerate(feasible):
            try:
                alpha, _ = _recurrence(dec.eig.vectors[:, :m])
            except ivssa.VerticalityError:
                reasons.setdefault(m, "vertical")
                continue
            rows.append((i, j))
            alphas.append(alpha)
            starts.append((trend_lo[m - 1], trend_hi[m - 1]))
    if rows:
        fit_at, m_at = np.array(rows).T
        start_lo, start_hi = np.array(starts).transpose(1, 0, 2)
        lo, hi = _run_recurrence(np.array(alphas), start_lo, start_hi, p)
        ahead = np.asarray(fits)[fit_at, None] + np.arange(p)
        err = np.maximum(np.abs(y_lo[ahead] - lo), np.abs(y_hi[ahead] - hi))
        if not np.all(np.isfinite(err)):
            raise ivssa.InvalidValueError("a recurrent forecast overflows float64")
        errors[fit_at, m_at] = err.sum(axis=1)
    return errors, reasons


# the one-row whiteness test of a candidate trendline, which the scan runs
# a block of rows at a time


def residual_whiteness(y, trend_lo, trend_hi, critical_value) -> tuple[float, bool, bool]:
    """Test residuals of a candidate trendline for white noise.

    Returns (ks_stat, accepted, perfect_fit); ks_stat is NaN when the fit is
    declared perfect (residual rms at most PERFECT_FIT_RTOL times y's, or a
    degenerate spectrum).
    """
    from ivssa.spectral import PERFECT_FIT_RTOL, _whiteness_rows

    floor = PERFECT_FIT_RTOL * float(np.sqrt(np.mean(y.lo**2 + y.hi**2)))
    ks, perfect = _whiteness_rows(y.lo[None], y.hi[None], trend_lo, trend_hi, floor)[2:]
    return float(ks[0]), bool(perfect[0] or ks[0] <= critical_value), bool(perfect[0])


# the selection scan as it was before it tested a block of prefixes at a
# time: one component, one residual test and one periodogram per step


def _periodogram_step(lo: np.ndarray, hi: np.ndarray) -> float:
    import ivssa

    n = lo.size
    if n < 4:
        raise ivssa.ParameterError(f"periodogram needs n >= 4, got {n}")
    if not (lo.any() or hi.any()):
        raise ivssa.DegenerateSpectrumError("residual series is identically zero")
    j_count = (n - 1) // 2
    j = np.arange(1, j_count + 1)
    spec = np.fft.rfft(ivssa.core.symbolic_channels(lo, hi))[:, 1 : j_count + 1]
    ordinates = (spec.real**2 + spec.imag**2).sum(axis=0) / (2.0 * np.pi * n)
    total = float(ordinates.sum())
    if total <= 0.0:
        raise ivssa.DegenerateSpectrumError("residual spectrum has zero total power")
    cumulative = np.cumsum(ordinates) / total
    return float(np.sqrt(j_count) * np.max(np.abs(cumulative - j / j_count)))


def _whiteness_step(y, trend_lo, trend_hi, critical_value, scale):
    import ivssa

    res_a = y.lo - trend_lo
    res_b = y.hi - trend_hi
    rms = float(np.sqrt(np.mean(res_a**2 + res_b**2)))
    if rms <= ivssa.spectral.PERFECT_FIT_RTOL * scale:
        return math.nan, True, True
    try:
        ks = _periodogram_step(*ivssa.phi_arrays(res_a, res_b))
    except ivssa.DegenerateSpectrumError:
        return math.nan, True, True
    return ks, ks <= critical_value, False


def select_loop(dec, y, series_index: int = 1, alpha: float = 0.05, max_m=None):
    """``select_from_decomposition`` with one prefix per step."""
    import ivssa
    from ivssa.core import _integer

    if not dec.eig.within_rank(1):
        raise ivssa.ParameterError("decomposition has rank zero; nothing to select")
    dec.series_block(series_index)
    if len(y) != dec.series_length:
        raise ivssa.ShapeError(
            f"series length {len(y)} does not match decomposition length "
            f"{dec.series_length}"
        )
    cap = ivssa.spectral.DEFAULT_MAX_M if max_m is None else _integer(max_m, "max_m", 1)
    crit = ivssa.ks_critical_value(alpha)
    scale = float(np.sqrt(np.mean(y.lo**2 + y.hi**2)))
    trace: list[float] = []
    for i in range(1, cap + 1):
        if not dec.eig.within_rank(i):
            break
        ca, cb = dec.component_channels((i,), series_index)
        ta, tb = (ca[0], cb[0]) if i == 1 else (ta + ca[0], tb + cb[0])
        lo, hi = ivssa.phi_arrays(ta, tb)
        ks, accepted, perfect = _whiteness_step(y, lo, hi, crit, scale)
        trace.append(ks)
        if accepted:
            return ivssa.SelectionResult(
                m=i,
                converged=True,
                ks_trace=tuple(trace),
                alpha=alpha,
                critical_value=crit,
                perfect_fit=perfect,
            )
    return ivssa.SelectionResult(
        m=len(trace),
        converged=False,
        ks_trace=tuple(trace),
        alpha=alpha,
        critical_value=crit,
    )


# the fit as it was before large fits solved only what they read and before
# fits worked on channels: the (stacked) trajectory grids, symbolic_covariance,
# the complete eigensolve, and the endpoint projections u'A and u'B, at any
# window


def antidiagonal_means(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Antidiagonal means of the rank-one matrix u w', from one bincount."""
    idx = np.add.outer(np.arange(u.size), np.arange(w.size)).ravel()
    return np.bincount(idx, weights=np.outer(u, w).ravel()) / np.bincount(idx)


class FullFit:
    """The complete-solve fit of ``decompose_full``: ``eig``, ``d``,
    ``n_series``, ``series_length`` and ``series_block`` as a
    ``Decomposition`` has them, and ``component_channels`` from the
    projections u'A and u'B of the stacked trajectory grids."""

    def __init__(self, eig, mat, mode, window: int, n_series: int):
        u = eig.vectors[:, : eig.d]
        self.eig, self.d = eig, eig.d
        self.mode, self.window, self.n_series = mode, window, n_series
        self.k = mat.n_cols // n_series if mode.value == "horizontal" else mat.n_cols
        self.series_length = self.k + window - 1
        self.wa, self.wb = u.T @ mat.a, u.T @ mat.b

    def series_block(self, series_index: int):
        s = series_index - 1
        rows, cols = slice(None), slice(None)
        if self.mode.value == "vertical":
            rows = slice(s * self.window, (s + 1) * self.window)
        elif self.mode.value == "horizontal":
            cols = slice(s * self.k, (s + 1) * self.k)
        return rows, cols

    def component_channels(self, indices, series_index: int = 1):
        from ivssa.decomposition import _component_index

        rows, cols = self.series_block(series_index)
        ca, cb = [], []
        for i in indices:
            # the rank check a Decomposition makes, against the complete solve
            u = self.eig.vectors[rows, _component_index(self.eig, i) - 1]
            ca.append(antidiagonal_means(u, self.wa[i - 1, cols]))
            cb.append(antidiagonal_means(u, self.wb[i - 1, cols]))
        return np.array(ca), np.array(cb)


def decompose_full(
    y, window: int | None = None, rank_eps: float | None = None, mode=None
) -> FullFit:
    """``decompose`` of the series y, or with a stacking ``mode``
    ``decompose_stacked`` of the list of series y, through ``eigen_sym``'s
    complete solve at any window."""
    from ivssa.core import InvalidValueError
    from ivssa.decomposition import (
        _UNDERFLOW,
        DEFAULT_RANK_EPS,
        eigen_sym,
        symbolic_covariance,
    )
    from ivssa.embedding import StackingMode, default_window, stack

    series = [y] if mode is None else list(y)
    mode = StackingMode.UNIVARIATE if mode is None else mode
    n = len(series[0])
    window = default_window(n, len(series), mode) if window is None else int(window)
    rank_eps = DEFAULT_RANK_EPS if rank_eps is None else rank_eps
    mat = stack(series, window, mode)
    eig = eigen_sym(symbolic_covariance(mat), rank_eps)
    if eig.d == 0 and (mat.a.any() or mat.b.any()):
        raise InvalidValueError(_UNDERFLOW)
    return FullFit(eig, mat, mode, window, len(series))


# the per-value JSON emitter, one recursive call and one format per float


def _emit_json_loop(obj, out: list[str], indent: int, level: int) -> None:
    from ivssa.core import ParameterError
    from ivssa.io import JSON_DIGITS

    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            out.append("null")
            return
        text = format(v, f".{JSON_DIGITS}g")
        # keep integral values (0.0, 3.0) typed as floats when read back
        out.append(text if "." in text or "e" in text else text + ".0")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit_json_loop(obj.tolist(), out, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                key = str(key)
            out.append(pad_in + json.dumps(key) + ": ")
            _emit_json_loop(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad_in)
            _emit_json_loop(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise ParameterError(f"cannot serialize {type(obj).__name__} to JSON")


def json_dumps_loop(obj, indent: int = 2) -> str:
    """Deterministic JSON text: .17g floats that always carry a '.' or an
    exponent, NaN/inf as null, insertion order preserved."""
    out: list[str] = []
    _emit_json_loop(obj, out, indent, 0)
    return "".join(out)


# Monte Carlo summary, one scan of every row per cell


def hr_values_loop(report, scenario, n, method, m, series) -> np.ndarray:
    attr = "hr_x" if series == "x" else "hr_y"
    vals = [
        getattr(r, attr)
        for r in report.hr_rows
        if r.scenario == scenario
        and r.n == n
        and r.method == method
        and r.m == m
        and getattr(r, attr) is not None
    ]
    return np.asarray(vals, dtype=float)


def hr_summary_loop(report) -> list[dict]:
    from ivssa.simulation import _hr_stats

    out = []
    for scenario in report.scenarios:
        for n in report.n_list:
            for method in report.methods:
                for m in report.m_list:
                    rec: dict = {"scenario": scenario, "n": n, "method": method, "m": m}
                    for series in ("x", "y"):
                        vals = hr_values_loop(report, scenario, n, method, m, series)
                        key = f"hr_{series}"
                        for stat, v in _hr_stats(vals).items():
                            rec[f"{key}_{stat}"] = v
                        rec[f"{key}_failed"] = report.reps - int(vals.size)
                    out.append(rec)
    return out


# the selection summary as it was before the rows were indexed: one scan of
# every selection row per cell


def selection_summary_loop(report) -> list[dict]:
    out = []
    for scenario in report.scenarios:
        for n in report.n_list:
            for method in report.methods:
                for series in ("x", "y"):
                    hist: dict[int, int] = {}
                    for r in report.selection_rows:
                        if (r.scenario, r.n, r.method, r.series) == (
                            scenario, n, method, series
                        ) and r.m is not None:
                            hist[r.m] = hist.get(r.m, 0) + 1
                    hist = dict(sorted(hist.items()))
                    mode = min(hist, key=lambda m: (-hist[m], m)) if hist else None
                    out.append(
                        {"scenario": scenario, "n": n, "method": method,
                         "series": series, "histogram": hist, "mode": mode}
                    )
    return out
