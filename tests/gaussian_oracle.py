"""The Gaussian measurement search of qcorr before Newton on the seed
plane, kept as an oracle: the conditional entropy on a 24 x 16 grid of
seed squeezing s = e^u over [1e-3, 1e3] and orientation phi in [0, pi),
scipy's Nelder-Mead in (u, phi) from the three best cells, and the
homodyne limit on a 64-point phi grid refined by the same Nelder-Mead,
each with the tolerances and evaluation limits that search used.

:func:`minimize_gaussian_measurement` takes a two-mode
:class:`~qcorr.CovarianceMatrix` and the measured mode and returns the
discord, as the library's search did.
"""

import math

import numpy as np
from scipy.optimize import minimize

from qcorr.gaussian import _require_two_modes, _split_blocks, mode_entropy, symplectic_eigenvalues

GRID_S = 24
GRID_PHI = 16
LOG_S_RANGE = (math.log(1e-3), math.log(1e3))
HOMODYNE_PHIS = 64


def _block_entries(sigma: np.ndarray, measured_mode: int) -> tuple:
    """The blocks of :func:`qcorr.gaussian._split_blocks` as Python floats:
    ``(m00, m01, m11, b00, b01, b11, c00, c01, c10, c11)`` for the
    symmetric measured block M and unmeasured block B and the cross
    block C."""
    meas, unmeas, cross = (block.tolist() for block in _split_blocks(sigma, measured_mode))
    return (
        meas[0][0], meas[0][1], meas[1][1],
        unmeas[0][0], unmeas[0][1], unmeas[1][1],
        cross[0][0], cross[0][1], cross[1][0], cross[1][1],
    )


def _finite_conditional_det(entries: tuple, s, c, sn):
    """det(B - k^T (R^T M R + diag(s/2, 1/(2s)))^-1 k) with k = R^T C and R
    the rotation with cosine ``c`` and sine ``sn``, for the entries of
    :func:`_block_entries`. ``s``, ``c`` and ``sn`` are floats or
    broadcastable arrays.

    M is rotated before the seed is added, and the sum is inverted
    analytically: adding R D R^T to M first loses digits at extreme
    squeezing.
    """
    m00, m01, m11, b00, b01, b11, c00, c01, c10, c11 = entries
    a00 = c * m00 + sn * m01  # R^T M
    a01 = c * m01 + sn * m11
    a10 = -sn * m00 + c * m01
    a11 = -sn * m01 + c * m11
    r00 = a00 * c + a01 * sn + s / 2.0  # (R^T M) R + D
    r01 = -a00 * sn + a01 * c
    r11 = -a10 * sn + a11 * c + 1.0 / (2.0 * s)
    det = r00 * r11 - r01 * r01
    i00, i01, i11 = r11 / det, -r01 / det, r00 / det
    k00 = c * c00 + sn * c10  # R^T C
    k01 = c * c01 + sn * c11
    k10 = -sn * c00 + c * c10
    k11 = -sn * c01 + c * c11
    p00 = k00 * i00 + k10 * i01  # k^T (R^T M R + D)^-1
    p01 = k00 * i01 + k10 * i11
    p10 = k01 * i00 + k11 * i01
    p11 = k01 * i01 + k11 * i11
    q00 = b00 - (p00 * k00 + p01 * k10)
    q01 = b01 - (p00 * k01 + p01 * k11)
    q11 = b11 - (p10 * k01 + p11 * k11)
    return q00 * q11 - q01 * q01


def _homodyne_conditional_det(entries: tuple, c, sn):
    """det(B - w w^T / (v^T M v)) with v = (c, sn) and w = C^T v, the
    infinite-squeezing limit of :func:`_finite_conditional_det`."""
    m00, m01, m11, b00, b01, b11, c00, c01, c10, c11 = entries
    w0 = c00 * c + c10 * sn
    w1 = c01 * c + c11 * sn
    denom = (c * m00 + sn * m01) * c + (c * m01 + sn * m11) * sn
    q01 = b01 - w0 * w1 / denom
    return (b00 - w0 * w0 / denom) * (b11 - w1 * w1 / denom) - q01 * q01


def _conditional_entropy(det):
    """Entropy of the conditional mode from its determinant, which
    rounding may push below the vacuum value 1/4; float or array."""
    if isinstance(det, float):
        return mode_entropy(math.sqrt(max(det, 0.25)))
    return mode_entropy(np.sqrt(np.maximum(det, 0.25)))


def conditional_entropy_factory(sigma: np.ndarray, measured_mode: int):
    """``(finite, homodyne)``: ``finite(u, phi)`` is the post-measurement
    entropy of the unmeasured mode for the seed covariance
    R(phi) diag(e^u / 2, e^-u / 2) R(phi)^T, with u clamped to +-34.5, and
    ``homodyne(phi)`` its infinite-squeezing limit."""
    entries = _block_entries(sigma, measured_mode)

    def finite(u: float, phi: float) -> float:
        s = math.exp(min(max(u, -34.5), 34.5))
        return _conditional_entropy(_finite_conditional_det(entries, s, math.cos(phi), math.sin(phi)))

    def homodyne(phi: float) -> float:
        return _conditional_entropy(_homodyne_conditional_det(entries, math.cos(phi), math.sin(phi)))

    return finite, homodyne


def minimize_gaussian_measurement(sigma, measured_mode: int = 1) -> float:
    """Gaussian discord by the grid plus Nelder-Mead search over seeded
    single-mode Gaussian measurements on the chosen mode."""
    _require_two_modes(sigma)
    meas, unmeas, _ = _split_blocks(sigma.sigma, measured_mode)
    entries = _block_entries(sigma.sigma, measured_mode)
    finite, homodyne = conditional_entropy_factory(sigma.sigma, measured_mode)

    # the grid as one array, u down the rows; a stable argsort keeps the
    # first of equal cells in (u, phi) order
    u_grid = np.linspace(LOG_S_RANGE[0], LOG_S_RANGE[1], GRID_S)
    phi_grid = np.linspace(0.0, math.pi, GRID_PHI, endpoint=False)
    grid = _conditional_entropy(
        _finite_conditional_det(entries, np.exp(u_grid)[:, None], np.cos(phi_grid), np.sin(phi_grid))
    )
    starts = np.argsort(grid, axis=None, kind="stable")[:3]
    best = float(grid.flat[starts[0]])
    for u_at, phi_at in zip(*np.unravel_index(starts, grid.shape)):
        refined = minimize(
            lambda z: finite(z[0], z[1]),
            (u_grid[u_at], phi_grid[phi_at]),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "maxfev": 4000},
        )
        best = min(best, refined.fun)
    hom_phis = np.linspace(0.0, math.pi, HOMODYNE_PHIS, endpoint=False)
    hom_grid = _conditional_entropy(_homodyne_conditional_det(entries, np.cos(hom_phis), np.sin(hom_phis)))
    hom_at = int(np.argmin(hom_grid))
    hom_best, hom_phi = float(hom_grid[hom_at]), hom_phis[hom_at]
    hom_refined = minimize(
        lambda z: homodyne(z[0]),
        (hom_phi,),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000},
    )
    min_conditional = min(best, hom_best, hom_refined.fun)

    nu_minus, nu_plus = symplectic_eigenvalues(sigma)
    entropy_meas = mode_entropy(math.sqrt(max(float(np.linalg.det(meas)), 0.25)))
    entropy_unmeas = mode_entropy(math.sqrt(max(float(np.linalg.det(unmeas)), 0.25)))
    total = mode_entropy(nu_minus) + mode_entropy(nu_plus)
    info = entropy_meas + entropy_unmeas - total
    classical = entropy_unmeas - min_conditional
    return max(info - classical, 0.0)
