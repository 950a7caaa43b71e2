"""Frozen reference values used across the test suite.

Every number here was computed ahead of time with an independent script
(quadrature oracles, closed-form expressions, 40-digit mpmath
evaluations, or high-resolution grids) and is pinned so regressions show
up as hard failures.  Tolerances in the tests reflect how each number
was obtained: machine precision for closed forms, looser bounds where a
grid or a sampled sweep is involved.

The paper's numbers are not repeated here: they live in qisim.config
(CHECKS, FIDELITIES, G13_THRESHOLD and the storage times), and the two
used below are read from there.  The four calibrated defaults (ETA_U, B0,
TAU_MEM, V_SRC) are pinned at the values config computes from them.
"""

import math

from qisim.config import CHECKS, FIDELITIES

TWO_PI = 2.0 * math.pi

# source line and pump mapping
GAMMA = TWO_PI * 5e6
SIGMA_HZ_TP30 = 12492708.34195184
SIGMA_HZ_TP100 = 3747812.5025855517

# spectral-purity visibility, default 512-point grid
VIS_SIGMA_12P5 = 0.9726296442246245
VIS_SIGMA_3P7 = 0.8026382335051261
VIS_SIGMA_1GHZ = 0.9994713956596675
VIS_TP30 = 0.9726005180313434
VIS_TP100 = 0.8060003801546399

# flat-pump time-domain regression, span 1600*gamma, 16384 frequency
# points, 512 midpoint cells over [-2/gamma, 8/gamma]
FLAT_REG_L2 = 0.012929474067932918
FLAT_REG_CAUSAL = 1.0582849330101098e-05

# ridge correlation of the joint detection-time density (default grids)
PEARSON_TP100 = 0.4985378439437287
PEARSON_TP30 = 0.09316358502405847

# same quantity on the extended window [-2/gamma, 22/gamma] with 2048
# time points, with and without the default-medium spectral filter
EXT_PEARSON_TP100_UNFILT = 0.49216191622433064
EXT_PEARSON_TP100_FILT = 0.22423049592047925
EXT_PEARSON_TP30_UNFILT = 0.09153148051965321
EXT_PEARSON_TP30_FILT = 0.045636771031931186

# medium: OD 55, control 2*pi*12.6 MHz, gamma_ge 2*pi*2.87 MHz
OD = 55.0
RABI = TWO_PI * 12.6e6
GAMMA_GE = TWO_PI * 2.87e6
GAMMA_S_DEFAULT = TWO_PI * 1e4

# Window, delay and fit values below are 40-digit mpmath evaluations of
# the transmission: a root of log|t(delta)| = log|t(0)| - ln(2)/2 for
# the half width, the derivative of its phase at 0 for the delay, and
# roots in gamma_s of window - target and of d window / d gamma_s.

# ground-state decoherence off
WINDOW_GS0 = 2953100.6567678494
DELAY_GS0 = 3.1648535861748147e-07
DBP_GS0 = 5.8723474259360674
VG_GS0 = 12638.815323000711

# default gamma_s
T0_DEFAULT = 0.9610373687298008
WINDOW_DEFAULT = 2947164.4840682813
DELAY_DEFAULT = 3.1602735465587624e-07
DBP_DEFAULT = 5.8520620066325686
VG_DEFAULT = 12657.132178812875

# |t| far from resonance, control on, default gamma_s
FAR_50 = 0.9890225290396011
FAR_100 = 0.9972514030864683

# gamma_s fit against a 2.90 MHz window target
FIT29_GAMMA_S = 587795.37451754796
FIT29_TARGET = 2.90e6

# the narrowest window of the default medium over gamma_s >= 0
GAMMA_S_NARROWEST = 16440740.372528307
WINDOW_NARROWEST = 2429705.4185120833

# polarization memory channel, default configuration
DEPHASING = 0.9751367491822184          # exp(-sigma^2/2), sigma = 2*pi/28
# the closed form 2c / (1 + sqrt(1 - 4c^2)) of config._calibrated: 1 ulp
# above the numerically fitted literal it replaced, with which no
# reproduce-all artifact differs
ETA_U = 0.5819439041677433
ETA_D = 1.0
B0 = 0.059371996124696444
B_200NS = 0.06044538706256622
TAU_MEM = 1.494136040059602e-06          # 2 us / sqrt(ln 6)
V_SRC = 0.9078388022982314

SIX_200 = {
    "H": 0.9715,
    "V": 0.9714999999999999,
    "plus": 0.8997499999999999,
    "minus": 0.8997499999999999,
    "R": 0.8997499999999999,
    "L": 0.8997499999999999,
    "average": 0.9236666666666666,
}
SIX_REFS = FIDELITIES
JITTER_ONLY_F_SUP = 0.987568374591109    # (1 + DEPHASING) / 2

# CHSH with the fixed analyzer angles
S_IDEAL = CHECKS["bell_ideal_S"][0]      # 2 sqrt(2), the Tsirelson bound
S_LOCAL = 2.5677558933174107             # werner(V_SRC), no channel
S_0US = 2.3937148831445327
S_200NS = 2.3912919466173355
S_1US = 2.3202333378039475

# correlation-curve visibilities after 1 us of storage (181-point sweep)
CURVE_VIS_PLUS_1US = 0.8100000000000002
CURVE_VIS_H_1US = 0.8306527270962689

# heralded cross-correlation model, g0 = 25, gaussian memory
G13_AT_2US = 4.999999999999999
G13_CROSSING = 1.9999999999999995e-06
