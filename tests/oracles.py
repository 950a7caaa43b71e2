"""Reference implementations that the tests check the program against.

None of these is reachable from a command: each is an independent oracle
(the pump at any detuning, fourfold quadrature, the complex A^H A
reduced state, the dense real kernel with its purity, mass and
marginals, the whole psi(t1, t2) assembled from the program's bands,
the dense and the single-shot chirp-z time transforms, the factored
transform of the materialized signal factor, the sorted-order 99%
bandwidth and the masked outer-mass fraction of the time-grid guards,
closed forms, Parseval, Choi positivity, the density-matrix check
(Hermitian, trace 1, positive semidefinite by LDL^H), a dense
transmission scan and a phase difference quotient for the EIT window and
delay, the gamma_s fit with numpy's companion-matrix roots), a
diagnostic of an output (ridge correlation, g13 from counts), the reader that
parses written CSVs back for round-trip checks, a file's hash read back
from disk, the per-value heatmap color, or the per-rect heatmap cell
formula.
"""

import csv
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from qisim import biphoton, eit, svgplot
from qisim.eit import EitMedium, transmission
from qisim.errors import InputError, ModelError
from qisim.qubit import MemoryChannelParams
from qisim.spectral import (TWO_PI, CavityLine, FrequencyGrid,
                            JointSpectralAmplitude, PumpSpectrum)

_ORACLE_MAX_POINTS = 32


# ---------------------------------------------------------------- biphoton

def pump_amplitude(nu, pump: PumpSpectrum) -> np.ndarray:
    """Pump spectral amplitude at the sum detunings nu, in the order of
    operations of JointSpectralAmplitude.pump_table, so the two agree
    bit for bit on the same detunings."""
    nu = np.array(nu, dtype=float)
    if pump.kind == "flat_limit":
        return np.ones_like(nu)
    with np.errstate(over="ignore"):
        np.square(nu, out=nu)
        np.negative(nu, out=nu)
        nu /= 2.0 * pump.sigma ** 2
    np.exp(nu, out=nu)
    nu /= math.sqrt(TWO_PI) * pump.sigma
    return nu


def visibility_quadrature(jsa: JointSpectralAmplitude) -> float:
    """Brute-force fourfold Riemann sum for the visibility.

    Independent oracle for visibility(); restricted to grids of at most
    32 points per axis to keep the n^4 sum around a million terms.
    """
    if not math.isclose(jsa.l2_mass(), 1.0, rel_tol=1e-12):
        raise InputError("oracle requires a normalized amplitude")
    if jsa.n_points > _ORACLE_MAX_POINTS:
        raise InputError(
            f"fourfold quadrature is limited to {_ORACLE_MAX_POINTS} "
            "points per axis")
    a = jsa.amplitude
    dd = jsa.grid.spacing
    xi = np.einsum("ab,cd,ad,cb->", a, a, a.conj(), a.conj(),
                   optimize=False)
    kappa = (float(np.sum(np.abs(a) ** 2)) * dd * dd) ** 2
    return float(np.real(xi)) * dd ** 4 / kappa


def reduced_state(jsa: JointSpectralAmplitude) -> np.ndarray:
    """Kernel samples of the single-photon reduced spectral operator,
    rho = A^dagger A * spacing, from the complex matrix: the n^3 route
    that the one-dimensional sums of visibility() replace."""
    a = jsa.amplitude
    return (a.conj().T @ a) * jsa.grid.spacing


def visibility_complex(jsa: JointSpectralAmplitude) -> float:
    """Tr(rho^2) / (Tr rho)^2 on the complex reduced state."""
    rho = reduced_state(jsa)
    return float(np.sum(np.abs(rho) ** 2)) / float(np.trace(rho).real) ** 2


def dense_kernel(jsa: JointSpectralAmplitude) -> np.ndarray:
    """|amplitude| of a gaussian pump as the whole n x n real kernel
    M[i, j] = scale |f_i| |r_i| |r_j| p(s_ij), with the pump taken at the
    index sums s_ij = (i + j - (n - 1)) dd: the dense route that the
    one-dimensional sums of l2_mass, marginals and visibility replace."""
    n = jsa.n_points
    idx = np.arange(n)
    m = pump_amplitude((idx[:, None] + idx - (n - 1.0)) * jsa.grid.spacing,
                       jsa.pump)
    a = np.abs(jsa.response(0, n)) * math.sqrt(jsa.scale)
    m *= a[:, None]
    m *= a
    if jsa.f is not None:
        m *= np.abs(jsa.f)[:, None]
    return m


def marginals_dense(jsa: JointSpectralAmplitude) -> tuple:
    """(l2_mass, signal, idler) summed on the squared dense kernel."""
    dd = jsa.grid.spacing
    m = dense_kernel(jsa)
    m *= m
    return (float(np.sum(m)) * dd * dd, np.sum(m, axis=1) * dd,
            np.sum(m, axis=0) * dd)


def visibility_dense(jsa: JointSpectralAmplitude) -> float:
    """V = ||M M^T||_F^2 / ||M||_F^4 on the dense kernel with one full
    product.  Entries below 1e-100 of the largest are set to zero first:
    they move V by less than n * 1e-100, and their subnormal products
    would slow the product about tenfold."""
    m = dense_kernel(jsa)
    m /= m.max()
    m[m < 1e-100] = 0.0
    square = m @ m.T
    m *= m
    square *= square
    return float(np.sum(square)) / float(np.sum(m)) ** 2


def default_time_grid(line: CavityLine, n_points: int = 512,
                      span_factor: float = 10.0) -> np.ndarray:
    """Per-axis detection-time grid, one fifth before the pair and four
    fifths after, sized in units of the cavity decay time."""
    window = span_factor / line.gamma
    return np.linspace(-0.2 * window, 0.8 * window, n_points)


def conjugate_time_grid(grid: FrequencyGrid) -> np.ndarray:
    """Exact transform-dual time grid (dt * dd * n = 2*pi), on which the
    discrete transform is unitary and mass bookkeeping is exact."""
    n = grid.n_points
    dt = TWO_PI / (n * grid.spacing)
    return (np.arange(n) - n // 2) * dt


def time_domain_dense(jsa: JointSpectralAmplitude,
                      t_grid: np.ndarray) -> np.ndarray:
    """psi(t1, t2) as the dense e A e^T with e = exp(-i t d) dd / 2pi on
    the materialized amplitude: the reference for the banded chirp-z
    time_domain, with no guard on the time grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    d = jsa.grid.detunings
    e = np.exp(-1j * np.outer(t_grid, d)) * (jsa.grid.spacing / TWO_PI)
    return e @ jsa.amplitude @ e.T


def time_domain(jsa: JointSpectralAmplitude,
                t_grid: np.ndarray) -> np.ndarray:
    """Two-photon amplitude psi(t1, t2) in detection time, with
    psi(t) = integral psi(d) e^{-i d t} dd/2pi per axis, assembled whole
    from the program's bands; commands only ever square them."""
    bands = biphoton._psi_bands(jsa, t_grid)
    n_t = np.asarray(t_grid).size
    psi = np.empty((n_t, n_t), dtype=complex)
    for rows, band in bands:
        psi[rows] = band
    return psi


def _chirp_single_shot(alpha: float, q: np.ndarray) -> np.ndarray:
    """exp(-i alpha q) over the whole integer array q at once, with
    alpha split into an exact high part and a remainder from q.max()."""
    bits = 53 - int(q.max()).bit_length()
    exp = math.frexp(alpha)[1]
    hi = math.ldexp(math.floor(math.ldexp(alpha, bits - exp)), exp - bits)
    q = q.astype(float)
    return np.exp(-1j * (hi * q)) * np.exp(-1j * ((alpha - hi) * q))


def explicit_transform(t_grid: np.ndarray, detunings: np.ndarray, vecs,
                       spacing: float) -> np.ndarray:
    """psi(t_m) = sum_k vec[k] e^{-i d_k t_m} spacing / 2pi for each
    vector, summed directly one t_m at a time, so it holds O(n) memory."""
    vecs = np.asarray(vecs)
    out = np.empty((len(vecs), np.size(t_grid)), dtype=complex)
    for i, tm in enumerate(t_grid):
        out[:, i] = vecs @ np.exp(-1j * tm * detunings)
    return out * (spacing / TWO_PI)


def chirp_z_single_shot(t_grid: np.ndarray, detunings: np.ndarray, vecs,
                        spacing: float) -> np.ndarray:
    """The chirp-z transform of biphoton._transform on one segment
    (n <= biphoton.SEGMENT) with every row in one FFT batch: the same
    operations on the same values, so the row-batched transform must
    match it bit for bit."""
    n, m = detunings.size, t_grid.size
    d0, t0 = float(detunings[0]), float(t_grid[0])
    dt = (float(t_grid[-1]) - t0) / (m - 1)
    half = 0.5 * spacing * dt
    k, j, mm = np.arange(n), np.arange(1 - n, m), np.arange(m)
    size = biphoton._fft_length(n + m - 1)
    chirp = np.zeros(size, dtype=complex)
    chirp[j] = np.conj(_chirp_single_shot(half, j * j))
    np.fft.fft(chirp, out=chirp)
    work = np.zeros((len(vecs), size), dtype=complex)
    work[:, :n] = vecs
    work[:, :n] *= (np.exp(-1j * (t0 * spacing) * k)
                    * _chirp_single_shot(half, k * k))
    np.fft.fft(work, out=work)
    work *= chirp
    np.fft.ifft(work, out=work)
    post = (np.exp(-1j * (d0 * t0 + (d0 * dt) * mm))
            * _chirp_single_shot(half, mm * mm))
    return work[:, :m] * (post * (spacing / TWO_PI))


def factored_time_domain(jsa: JointSpectralAmplitude,
                         t_grid: np.ndarray) -> np.ndarray:
    """psi(t1, t2) of a flat pump as the outer product of the transforms
    of u = scale f r and of r, each materialized whole, with r taken
    whole from jsa's evaluator: the same operations on the same values
    as the time_domain that evaluates and scales r segment by segment,
    so the two must match bit for bit."""
    t_grid = np.asarray(t_grid, dtype=float)
    r = jsa.response(0, jsa.n_points)
    u = r * jsa.scale
    if jsa.f is not None:
        u *= jsa.f
    su, sv = biphoton._transform(t_grid, jsa.grid,
                                 biphoton._rows(np.array([u, r])))
    return su[:, None] * sv


def bandwidth_99_sorted(d: np.ndarray, mass: np.ndarray) -> float:
    """Full width of the smallest centred band holding 99% of the mass,
    summed one detuning at a time in stable order of |d|: the reference
    for the folded sum of biphoton._bandwidth_99."""
    order = np.argsort(np.abs(d), kind="stable")
    cum = np.cumsum(mass[order])
    k = int(np.searchsorted(cum, 0.99 * cum[-1]))
    k = min(k, d.size - 1)
    return 2.0 * float(np.abs(d[order[k]]))


def outer_fraction_masked(d: np.ndarray, mass: np.ndarray,
                          span: float) -> float:
    """Share of the mass where |d| > 0.9 span / 2, summed under a mask
    over the whole grid: the reference for the end-slice sums of
    biphoton._outer_fraction."""
    return float(mass[np.abs(d) > 0.9 * (span / 2.0)].sum() / mass.sum())


def parseval_ratio(jsa: JointSpectralAmplitude, psi_t: np.ndarray,
                   t_grid: np.ndarray) -> float:
    """Time-domain to frequency-domain mass ratio.

    The transform convention carries 1/2pi per axis, so equality of the
    two quadrature masses means this ratio is 1.  Exact (to rounding) on
    the conjugate_time_grid; truncated windows lose tail mass.
    """
    dt = float(t_grid[1] - t_grid[0])
    mass_t = float(np.sum(np.abs(psi_t) ** 2)) * dt * dt * TWO_PI ** 2
    return mass_t / jsa.l2_mass()


def continuous_pump_density(t_grid: np.ndarray,
                            line: CavityLine) -> np.ndarray:
    """Closed-form pair density for a monochromatic pump.

    |psi| depends only on the detection-time difference and decays as
    e^{-gamma |t1 - t2| / 2}; the density is already max-normalized.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt_abs = np.abs(np.subtract.outer(t_grid, t_grid))
    return np.exp(-line.gamma * dt_abs)


def gaussian_pump_density(t_grid: np.ndarray, line: CavityLine,
                          sigma: float) -> np.ndarray:
    """Closed-form continuum pair density for a gaussian pump of
    amplitude width sigma, max-normalized.

    Each cavity response is causal, e^{-gamma t / 2} for t > 0, and the
    pump enters as its envelope e^{-sigma^2 tau^2 / 2} convolved over the
    common emission time tau <= min(t1, t2) (Lu & Ou, PRA 62, 033804
    (2000)), so |psi|^2 is proportional to e^{-gamma (t1 + t2)}
    erfc((gamma / sigma - sigma min(t1, t2)) / sqrt 2)^2.  math.erfc is
    taken once per time, since min(t1, t2) runs over the grid's values.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    g = line.gamma
    tail = np.array([math.erfc((g / sigma - sigma * t) / math.sqrt(2.0))
                     for t in t_grid])
    index = np.arange(t_grid.size)
    density = tail[np.minimum.outer(index, index)] ** 2
    density *= np.exp(-g * np.add.outer(t_grid, t_grid))
    density /= density.max()
    return density


def ridge_correlation(t: np.ndarray, density: np.ndarray) -> float:
    """Pearson correlation of (t1, t2) under the density on the time
    grid t.

    Positive values mean a diagonal ridge (frequency-correlated pairs);
    near zero means the density factorizes."""
    w = density / density.sum()
    m1 = float(np.sum(w.sum(axis=1) * t))
    m2 = float(np.sum(w.sum(axis=0) * t))
    v1 = float(np.sum(w.sum(axis=1) * (t - m1) ** 2))
    v2 = float(np.sum(w.sum(axis=0) * (t - m2) ** 2))
    cov = float(np.sum(w * np.outer(t - m1, t - m2)))
    return cov / math.sqrt(v1 * v2)


# ------------------------------------------------------------------- qubit

HERM_TOL, TRACE_TOL, PSD_TOL = 1e-12, 1e-9, -1e-10


def positive(m) -> bool:
    """Whether the least eigenvalue of the Hermitian m exceeds PSD_TOL:
    exactly when m + |PSD_TOL| I has an LDL^H factorization with
    positive pivots (Golub & Van Loan, Matrix Computations, sec. 4.2)."""
    n = len(m)
    a = [[complex(m[i][j]) + (-PSD_TOL if i == j else 0.0) for j in range(n)]
         for i in range(n)]
    for k, row in enumerate(a):
        if not row[k].real > 0.0:
            return False
        for below in a[k + 1:]:
            f = below[k] / row[k].real
            for j in range(k + 1, n):
                below[j] -= f * row[j]
    return True


def check_density(m, dim: int) -> None:
    """Assert that m (any nested sequence) is a dim x dim density matrix:
    Hermitian to HERM_TOL, of trace 1 to TRACE_TOL and positive
    semidefinite to PSD_TOL."""
    m = [[complex(x) for x in row] for row in m]
    assert len(m) == dim and all(len(row) == dim for row in m), (
        f"density matrix must be {dim}x{dim}")
    assert not any(abs(m[i][j] - m[j][i].conjugate()) > HERM_TOL
                   for i in range(dim) for j in range(i + 1)), (
        "density matrix must be Hermitian")
    tr = sum(m[i][i] for i in range(dim)).real
    assert not abs(tr - 1.0) > TRACE_TOL, f"trace = {tr!r}, must be 1"
    assert positive(m), "density matrix must be positive semidefinite"


def channel_choi(params: MemoryChannelParams) -> np.ndarray:
    """Choi matrix of the linear part of the channel (before the
    nonlinear post-selection step); PSD iff the map is completely
    positive."""
    k = np.diag([params.eta_D, params.eta_U])   # H on rail D, V on rail U
    d = params.dephasing_factor()
    p = params.background_weight()
    deph = np.array([[1.0, d], [d, 1.0]])

    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            body = (k @ e @ k.conj().T) * deph
            mapped = (1.0 - p) * body + p * np.trace(body) * np.eye(2) / 2.0
            choi += np.kron(e, mapped)
    return choi


@dataclass(frozen=True)
class PairStatistics:
    """Per-trial singles and coincidence probabilities."""

    p1: float
    p3: float
    p13: float

    def __post_init__(self) -> None:
        if self.p1 < 0.0 or self.p3 < 0.0 or self.p13 < 0.0:
            raise InputError("probabilities must be >= 0")
        if self.p13 > min(self.p1, self.p3) + 1e-12:
            raise InputError("p13 cannot exceed either singles probability")


def g13(stats: PairStatistics) -> float:
    if stats.p1 <= 0.0 or stats.p3 <= 0.0:
        raise InputError("g13 undefined for zero singles probability")
    return stats.p13 / (stats.p1 * stats.p3)


# --------------------------------------------------------------------- EIT

def half_width_scan(medium: EitMedium, n: int = 400001) -> float:
    """Transparency-window FWHM (Hz) from |t| alone: the first detuning
    of a log scan from 1 mHz to 10 GHz where |t| <= |t(0)| / sqrt 2, then
    a linear scan of that step, then linear interpolation.  The
    amplitude, not |t|^2, keeps media whose |t(0)|^2 is subnormal in the
    normal range.  nan when the scan never falls to half."""
    half = abs(transmission(0.0, medium)) / math.sqrt(2.0)
    coarse = np.geomspace(1e-3, 1e10, n)
    below = np.abs(transmission(TWO_PI * coarse, medium)) <= half
    if not below.any():
        return math.nan
    k = int(np.argmax(below))
    fine = np.linspace(coarse[k - 1] if k else 0.0, coarse[k], n)
    gap = np.abs(transmission(TWO_PI * fine, medium)) - half
    j = int(np.argmax(gap <= 0.0))
    lo, hi = fine[j - 1], fine[j]
    return 2.0 * (lo + (hi - lo) * gap[j - 1] / (gap[j - 1] - gap[j]))


def phase_slope(medium: EitMedium, h: float) -> float:
    """Group delay (s) as the central difference of the transmission
    phase over detunings +-h (rad/s)."""
    ph = np.angle(transmission(np.array([h, -h]), medium))
    return float((ph[0] - ph[1]) / (2.0 * h))



def _narrowest_roots(cubic, k, l, x0) -> tuple:
    """eit._narrowest with the discriminant's quintic solved by np.roots."""
    c3, c2, c1, c0 = cubic
    m = np.polymul
    disc = functools.reduce(np.polyadd, (
        18.0 * m(m(c3, c2), m(c1, c0)), -4.0 * m(m(c2, c2), m(c2, c0)),
        m(m(c2, c1), m(c2, c1)), -4.0 * m(m(c3, c1), m(c1, c1)),
        -27.0 * m(m(c3, c0), m(c3, c0))))
    best = (0.0, x0)
    for x in np.roots(disc[:-2]):
        if x.imag != 0.0 or not x.real > 0.0:
            continue
        a, b, c, d = (np.polyval(coef, x.real) for coef in cubic)
        g = (9.0 * a * d - b * c) / (2.0 * (b * b - 3.0 * a * c))
        x_g = eit._half_x(g, k, l) if g >= 0.0 else math.nan
        if x_g < best[1]:
            best = (g, x_g)
    return best


def fit_gamma_s_roots(medium: EitMedium, target_hz: float) -> tuple:
    """The fitted medium's gamma_s and the reachable_hz of eit.fit_gamma_s,
    with both polynomials solved by np.roots (the eigenvalues of the
    companion matrix) under numpy's errstate, which raises ModelError for
    any float overflow."""
    widest = eit.window_fwhm(EitMedium(
        medium.optical_depth, medium.rabi_control, medium.gamma_ge, 0.0))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, k, l = (np.float64(v) for v in eit._scaled(medium))
            x, x0 = ((math.pi * w / medium.gamma_ge) ** 2
                     for w in (target_hz, widest))
            cubic = [np.array(c) for c in eit._cubic_in_x(k, l)]
            g_min, x_min = _narrowest_roots(cubic, k, l, x0)
            if x >= x0:
                g = 0.0
            elif x <= x_min:
                g = g_min
            else:
                roots = np.roots([np.polyval(coef, x) for coef in cubic])
                g = min((r.real for r in roots
                         if r.imag == 0.0 and r.real >= 0.0), default=g_min)
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        raise ModelError("the gamma_s fit is out of floating-point range "
                         "for this medium") from None
    return (float(g * medium.gamma_ge),
            (medium.gamma_ge * math.sqrt(x_min) / math.pi, widest))


# ----------------------------------------------------------------- outputs

def sha256_of(path: str) -> str:
    """Hash of a file read back from disk: the reference for the hashes
    OutputWriter records while writing."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def color_for(value: float) -> str:
    """value in [0, 1] -> hex color of svgplot.PALETTE, rounded half to
    even by round(); out-of-range values are clamped: the per-value
    reference for svgplot.palette_indices."""
    idx = int(round(255.0 * min(max(value, 0.0), 1.0)))
    return svgplot.PALETTE[idx]


def heatmap_cells(v: np.ndarray) -> list:
    """The cell rectangles of svgplot.heatmap for already block-averaged
    and peak-normalized values v, each formatted whole, four %.2f per
    rect: the reference for the heatmap's once-per-coordinate
    formatting."""
    m = v.shape[0]
    size, ml, mt = 512.0, 64.0, 28.0
    cell = size / m
    fills = svgplot.palette_indices(v).tolist()
    parts = []
    for i in range(m):
        y = mt + size - (i + 1) * cell
        for j in range(m):
            parts.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                'fill="%s"/>' % (ml + j * cell, y, cell + 0.5, cell + 0.5,
                                 svgplot.PALETTE[fills[i][j]]))
    return parts


def read_csv(path: str):
    """Header + rows with numeric cells parsed back to float; the inverse
    of write_csv for round-trip checks."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty CSV")
    header, body = rows[0], rows[1:]
    parsed = []
    for row in body:
        out = []
        for cell in row:
            if cell == "":
                out.append(None)
            else:
                try:
                    out.append(float(cell))
                except ValueError:
                    out.append(cell)
        parsed.append(out)
    return header, parsed
