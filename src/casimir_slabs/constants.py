"""Physical constants in the nm / s / Pa unit system used throughout.

Lengths are nanometres, angular frequencies s^-1, pressures pascal.
Dimensionless ratios are formed before any integration so that no
intermediate quantity depends on the absolute unit scale.
"""

import math

C_M_PER_S = 2.99792458e8            # speed of light, m/s (exact)
C_NM_PER_S = 2.99792458e17          # speed of light, nm/s
HBAR_J_S = 1.054571817e-34          # reduced Planck constant, J s (CODATA 2018)
HBAR_C_J_M = HBAR_J_S * C_M_PER_S   # ~3.16153e-26 J m

PI4 = math.pi ** 4
