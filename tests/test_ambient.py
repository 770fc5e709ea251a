"""Kaehler chart machinery: flat and Fubini-Study model metrics."""

import numpy as np
import pytest

from cayley4 import _fd
from cayley4.ambient import H_METRIC
from cayley4 import (
    ChartDomainError,
    KahlerChart,
    einstein_report,
    flat_chart,
    fubini_study_chart,
    standard_structure,
)

POINTS = [
    np.zeros(8),
    np.array([0.1, -0.2, 0.3, 0.0, 0.4, -0.1, 0.2, 0.05]),
    np.array([-0.5, 0.1, 0.0, 0.6, -0.3, 0.2, 0.1, -0.4]),
]


def test_flat_chart_is_exactly_euclidean():
    fc = flat_chart()
    st = standard_structure()
    for p in POINTS:
        assert np.array_equal(fc.metric_at(p), np.eye(8))
        assert np.abs(fc.christoffel_at(p)).max() == 0.0
        assert np.abs(fc.ricci_form_at(p)).max() == 0.0
        assert np.allclose(fc.omega_mat_at(p), st.omega_mat, atol=0)


def test_fs_metric_blocks_come_from_hermitian():
    fs = fubini_study_chart()
    for p in POINTS:
        h = fs.hermitian_at(p)
        g = fs.metric_at(p)
        assert np.allclose(g[0::2, 0::2], 2 * h.real, atol=0)
        assert np.allclose(g[1::2, 1::2], 2 * h.real, atol=0)
        assert np.allclose(g[0::2, 1::2], 2 * h.imag, atol=0)
        assert np.allclose(g[1::2, 0::2], -2 * h.imag, atol=0)
        assert np.allclose(g, g.T, atol=1e-15)
        assert np.linalg.eigvalsh(g).min() > 0


def test_fs_omega_is_j_transpose_g():
    fs = fubini_study_chart()
    st = standard_structure()
    for p in POINTS:
        g = fs.metric_at(p)
        om = fs.omega_mat_at(p)
        assert np.array_equal(om, st.j.T @ g)
        assert np.allclose(om, -om.T, atol=1e-15)
        # J-invariance of the metric
        assert np.allclose(st.j.T @ g @ st.j, g, atol=1e-13)


def test_chart_needs_a_hermitian_block():
    with pytest.raises(TypeError, match="hermitian"):
        KahlerChart(name="potential-only", potential=fubini_study_chart().potential)


def test_fs_hermitian_matches_potential_hessian():
    # quarter-Hessian identity: h_jk = (1/4)[(K_xx + K_yy) + i (K_xy - K_yx)]
    fs = fubini_study_chart()
    p = POINTS[1]
    step = 1e-3
    hess = np.zeros((8, 8))
    for a in range(8):
        for b in range(a, 8):
            ea = np.zeros(8)
            eb = np.zeros(8)
            ea[a] = step
            eb[b] = step
            val = (fs.potential(p + ea + eb) - fs.potential(p + ea - eb)
                   - fs.potential(p - ea + eb) + fs.potential(p - ea - eb))
            hess[a, b] = hess[b, a] = val / (4 * step * step)
    fd = 0.25 * ((hess[0::2, 0::2] + hess[1::2, 1::2])
                 + 1j * (hess[0::2, 1::2] - hess[1::2, 0::2]))
    assert np.abs(fd - fs.hermitian_at(p)).max() < 5e-6


def _nabla_g_max(chart, p, h):
    g0 = chart.metric_at(p)
    gamma = chart.christoffel_at(p)
    worst = 0.0
    for c in range(8):
        ec = np.zeros(8)
        ec[c] = h
        dg = (chart.metric_at(p + ec) - chart.metric_at(p - ec)) / (2 * h)
        corr = (np.einsum("da,db->ab", gamma[:, c, :], g0)
                + np.einsum("db,ad->ab", gamma[:, c, :], g0))
        worst = max(worst, np.abs(dg - corr).max())
    return worst


def test_fs_connection_is_metric_compatible():
    fs = fubini_study_chart()
    p = POINTS[1]
    r1 = _nabla_g_max(fs, p, 1e-3)
    r2 = _nabla_g_max(fs, p, 5e-4)
    assert r1 < 5e-6
    assert r2 < r1 / 3.0  # second-order decay of the residual


def test_fs_complex_structure_is_parallel():
    fs = fubini_study_chart()
    st = standard_structure()
    for p in POINTS[1:]:
        gamma = fs.christoffel_at(p)
        nj = (np.einsum("acd,db->cab", gamma, st.j)
              - np.einsum("ad,dcb->cab", st.j, gamma))
        assert np.abs(nj).max() <= 1e-14


def _cp1_x_c3_chart() -> KahlerChart:
    # CP^1 x C^3: rho = 2 omega on the first factor and 0 on the rest
    def hermitian(p):
        h = np.zeros(p.shape[:-1] + (4, 4), dtype=complex)
        h[..., 0, 0] = 1.0 / (1.0 + p[..., 0] ** 2 + p[..., 1] ** 2) ** 2
        for k in range(1, 4):
            h[..., k, k] = 1.0
        return h

    def potential(p):
        return np.log1p(p[..., 0] ** 2 + p[..., 1] ** 2) + np.sum(p[..., 2:] ** 2, axis=-1)

    return KahlerChart(name="cp1-x-c3", potential=potential, hermitian=hermitian, radius=2.0)


def _quartic_chart() -> KahlerChart:
    # K = |z|^2 / 2 + |z_0|^2 |z_1|^2: h has the off-diagonal entry
    # h_{0 1bar} = conj(z_0) z_1, so a transposed h would show
    def hermitian(p):
        z = p[..., 0::2] + 1j * p[..., 1::2]
        h = np.broadcast_to(0.5 * np.eye(4, dtype=complex), p.shape[:-1] + (4, 4)).copy()
        h[..., 0, 0] += np.abs(z[..., 1]) ** 2
        h[..., 1, 1] += np.abs(z[..., 0]) ** 2
        h[..., 0, 1] += np.conj(z[..., 0]) * z[..., 1]
        h[..., 1, 0] += z[..., 0] * np.conj(z[..., 1])
        return h

    def potential(p):
        sq = p * p
        return 0.5 * np.sum(sq, axis=-1) + (sq[..., 0] + sq[..., 1]) * (sq[..., 2] + sq[..., 3])

    return KahlerChart(name="quartic", potential=potential, hermitian=hermitian)


def _christoffel_from_real_metric(chart, p):
    # 1/2 g^-1 (d_b g_dc + d_c g_db - d_d g_bc), the real-metric route
    g, dg = _fd.jet(chart.metric_at, p, H_METRIC)   # dg[c, a, b] = d_c g_ab
    s = np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg
    return 0.5 * np.einsum("ad,dbc->abc", np.linalg.inv(g), s)


def test_fs_christoffel_is_symmetric():
    fs = fubini_study_chart()
    for p in POINTS:
        gamma = fs.christoffel_at(p)
        assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() <= 1e-14


def _real_block_chart() -> KahlerChart:
    # a chart may hand back a real array for a real Hermitian block
    cp1 = _cp1_x_c3_chart()
    return KahlerChart(name="cp1-x-c3-real", potential=cp1.potential,
                       hermitian=lambda p: cp1.hermitian(p).real)


@pytest.mark.parametrize("make_chart", [fubini_study_chart, _cp1_x_c3_chart, _quartic_chart,
                                        _real_block_chart])
def test_christoffel_matches_the_real_metric_formula(make_chart):
    chart = make_chart()
    for p in POINTS:
        want = _christoffel_from_real_metric(chart, p)
        assert np.abs(chart.christoffel_at(p) - want).max() <= 2e-8


def test_fs_kahler_form_is_closed():
    fs = fubini_study_chart()
    p = POINTS[2]

    def cyclic_residual(h):
        dom = np.empty((8, 8, 8))
        for c in range(8):
            ec = np.zeros(8)
            ec[c] = h
            dom[c] = (fs.omega_mat_at(p + ec) - fs.omega_mat_at(p - ec)) / (2 * h)
        cyc = dom + dom.transpose(1, 2, 0) + dom.transpose(2, 0, 1)
        return np.abs(cyc).max()

    r1 = cyclic_residual(1e-3)
    r2 = cyclic_residual(5e-4)
    assert r1 < 5e-7  # pure truncation, no zeroth-order term
    assert r2 < r1 / 3.0


def test_fs_einstein_constant():
    fs = fubini_study_chart()
    rep = einstein_report(fs, n_points=100, seed=0)
    assert rep.scalar == pytest.approx(5.0, abs=1e-4)
    assert rep.max_deviation <= 1e-5
    # the fitted constant is stable under resampling
    rep2 = einstein_report(fs, n_points=100, seed=1)
    assert abs(rep.scalar - rep2.scalar) < 1e-6


def test_fs_einstein_scale_dependence():
    # scaling the metric by c divides the Einstein constant by c
    fs2 = fubini_study_chart(scale=2.0)
    rep = einstein_report(fs2, n_points=50, seed=0)
    assert rep.scalar == pytest.approx(2.5, abs=1e-4)


def test_einstein_constant_is_a_least_squares_fit():
    # the fit over all entries is 2 / 4, not the first factor's ratio 2
    rep = einstein_report(_cp1_x_c3_chart(), n_points=5, seed=0)
    assert rep.scalar == pytest.approx(0.5, abs=1e-5)
    assert rep.max_deviation > 0.1


def test_flat_chart_is_ricci_flat_not_einstein_normalized():
    rep = einstein_report(flat_chart(), n_points=20, seed=0)
    assert rep.scalar == pytest.approx(0.0, abs=1e-12)


def test_fs_chart_ball_guard():
    fs = fubini_study_chart()
    with pytest.raises(ValueError):
        fs.metric_at(np.full(8, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_are_rejected(bad):
    p = np.zeros(8)
    p[3] = bad
    for chart in (flat_chart(), fubini_study_chart()):
        for method in (chart.hermitian_at, chart.metric_at, chart.christoffel_at,
                       chart.ricci_form_at):
            with pytest.raises(ValueError):
                method(p)


def test_batched_chart_calls_match_per_point_calls():
    fs = fubini_study_chart()
    pts = np.array(POINTS)
    stack = pts.reshape(3, 1, 8)               # any leading axes
    for name in ("hermitian_at", "metric_at", "christoffel_at", "ricci_form_at"):
        method = getattr(fs, name)
        batched = method(stack)
        assert batched.shape[:2] == (3, 1)
        for k, p in enumerate(POINTS):
            np.testing.assert_allclose(batched[k, 0], method(p), rtol=0, atol=1e-13)


def test_chart_domain_error_names_the_farthest_point():
    fs = fubini_study_chart()
    pts = np.zeros((3, 8))
    pts[1, 0] = 2.5
    with pytest.raises(ChartDomainError, match="2.5000"):
        fs.hermitian_at(pts)
