"""The rounding that makes L_h exactly zero for the rank-one family.

construct._annihilate searches every column of the constants at once.  It is
compared bit for bit with a per-column search that tries one column and one
trial at a time, kept here as the reference, and its ulp steps with m calls of
np.nextafter.
"""

import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftsym import MilnorSpec, PreconditionFailed, build_milnor
from leftsym.cli import run
from leftsym.construct import _STRIDES, _annihilate, _rank_one_constants, _stepped
from leftsym.core import _accumulate


def scalar_stepped(x, m):
    """x after m calls of np.nextafter towards +inf (m > 0) or -inf."""
    for _ in range(abs(m)):
        x = np.nextafter(x, np.inf if m > 0 else -np.inf)
    return x


def _scalar_column(h, col, configs):
    """Round col within a few ulp so that _accumulate(h, col) is exactly 0; False if no trial does."""
    base = col.copy()
    for ia, ib in configs:
        col[:] = base
        orig_b = col[ib] if ib is not None else None
        for mb in _STRIDES:
            if ib is not None:
                col[ib] = scalar_stepped(orig_b, mb)
            elif mb != 0:
                break
            d = _accumulate(h, col)
            if d == 0.0:
                return True
            x0 = col[ia] - d / h[ia]
            for pos in range(31):
                m = (pos + 1) // 2 * (1 if pos % 2 else -1)
                col[ia] = scalar_stepped(x0, m)
                if _accumulate(h, col) == 0.0:
                    return True
            col[ia] = base[ia]
    col[:] = base
    return False


def scalar_annihilate(c, h):
    """Reference for construct._annihilate: the same search, column by column, trial by trial."""
    c = np.array(c)
    active = [i for i in range(h.shape[0]) if h[i] != 0.0]
    configs = [(active[0], None)] if len(active) == 1 else list(permutations(active[::-1][:4], 2))
    for j, k in zip(*np.nonzero(_accumulate(h, c))):
        _scalar_column(h, c[:, j, k], configs)
    return c


def _random_spd(n, rng):
    q = rng.standard_normal((n, n))
    return q.T @ q / n + np.eye(n)


def _columns_off(spec):
    return np.count_nonzero(_accumulate(spec.h_vec, _rank_one_constants(spec.metric, spec.h_vec)))


def _assert_matches_reference(spec):
    g, h = spec.metric, spec.h_vec
    c = _rank_one_constants(g, h)
    got = _annihilate(c, h)
    assert got.tobytes() == scalar_annihilate(c, h).tobytes()
    M, _ = build_milnor(spec)
    assert M.algebra.constants.tobytes() == got.tobytes()
    assert np.count_nonzero(_accumulate(h, got)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32])
def test_batched_search_matches_the_per_column_search(n):
    rng = np.random.default_rng(7100 + n)
    off = 0
    for scale in (1e-3, 1.0, 1e3):
        h = scale * rng.standard_normal(n)
        spec = MilnorSpec(n, h, _random_spd(n, rng))
        off += _columns_off(spec)
        _assert_matches_reference(spec)
        if n > 2:
            h = h.copy()
            h[rng.choice(n, n // 2, replace=False)] = 0.0
            _assert_matches_reference(MilnorSpec(n, h, _random_spd(n, rng)))
    assert n < 3 or off > 0  # the search had columns to round


@pytest.mark.parametrize("n", [2, 5, 16])
def test_identity_metric_matches_the_per_column_search(n):
    rng = np.random.default_rng(7200 + n)
    _assert_matches_reference(MilnorSpec(n, rng.standard_normal(n)))


@pytest.mark.parametrize("n", [1, 2, 6, 24])
def test_one_index_h_leaves_no_column_off(n):
    # the stored metric is exactly symmetric, so g_pj h_p - (g h)_j h_p cancels bitwise
    rng = np.random.default_rng(7300 + n)
    for p in range(n):
        h = np.zeros(n)
        h[p] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        spec = MilnorSpec(n, h, _random_spd(n, rng))
        assert _columns_off(spec) == 0
        _assert_matches_reference(spec)


def test_spec_shaped_like_the_catalog_bench_matches():
    # a unit-scale h with the SPD metric a a^T + n I, made exactly symmetric
    rng = np.random.default_rng(7400)
    n = 6
    for _ in range(4):
        h = rng.standard_normal(n)
        a = rng.standard_normal((n, n))
        g = a @ a.T + n * np.eye(n)
        spec = MilnorSpec(n, h, np.triu(g) + np.triu(g, 1).T)
        assert _columns_off(spec) > 0
        _assert_matches_reference(spec)


_EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, np.finfo(float).max, np.inf]
_VALUES = [s * v for v in _EDGES for s in (1.0, -1.0)] + [np.nan]
_STEPS = [0] + [s * v for v in (1, 2, 15, 1024, 1025) for s in (1, -1)]


def _same_float(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.isnan(a) and np.isnan(b)) or a.view(np.int64) == b.view(np.int64)


@pytest.mark.parametrize("m", _STEPS)
def test_stepped_is_m_calls_of_nextafter(m):
    with np.errstate(over="ignore"):  # nextafter past the largest float signals overflow
        want = [scalar_stepped(np.float64(x), m) for x in _VALUES]
    got = _stepped(np.array(_VALUES), m)  # one call over all the values at once
    for x, w, g in zip(_VALUES, want, got):
        assert _same_float(g, w), (x, m, g, w)
        assert _same_float(_stepped(x, m), w), (x, m)


@settings(max_examples=200, deadline=None)
@given(st.floats(width=64), st.integers(min_value=-1100, max_value=1100))
def test_stepped_matches_nextafter_on_every_float(x, m):
    with np.errstate(over="ignore"):  # nextafter past the largest float signals overflow
        want = scalar_stepped(np.float64(x), m)
    assert _same_float(_stepped(x, m), want)


_OVERFLOWING = np.array([1e160, 3e159])


@pytest.mark.parametrize("metric", [None, np.array([[2.0, 0.5], [0.5, 1.0]])], ids=["identity", "spd"])
def test_overflowing_spec_is_refused_before_the_search(metric):
    # RuntimeWarnings are errors under the test settings, so none may leak either
    with pytest.raises(PreconditionFailed, match="rank-one constants overflow"):
        build_milnor(MilnorSpec(2, _OVERFLOWING, metric))


def test_cli_refuses_an_overflowing_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dim": 2, "h": _OVERFLOWING.tolist()}))
    assert run(["build", "milnor", str(spec), "--out", str(tmp_path / "out.alg")]) == 1
    assert capsys.readouterr().err.startswith("failure: k = -<h, h> or the rank-one constants overflow")
    assert not (tmp_path / "out.alg").exists()
