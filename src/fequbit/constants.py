"""Physical constants, CODATA 2018.

Hard-coded, not read from a library, so that derived quantities (notably
the dispersion length) are bit-reproducible.
"""

import math

SPEED_OF_LIGHT = 299_792_458.0
"""c in m/s (exact, SI definition)."""

PLANCK = 6.626_070_15e-34
"""h in J s (exact since the 2019 SI redefinition)."""

HBAR = PLANCK / (2.0 * math.pi)
"""Reduced Planck constant in J s."""

ELEMENTARY_CHARGE = 1.602_176_634e-19
"""e in C (exact since the 2019 SI redefinition)."""

ELECTRON_MASS = 9.109_383_7015e-31
"""m_e in kg (CODATA 2018 recommended value)."""

ELECTRON_REST_ENERGY_J = ELECTRON_MASS * SPEED_OF_LIGHT**2
"""m_e c^2 in J."""

ELECTRON_REST_ENERGY_EV = ELECTRON_REST_ENERGY_J / ELEMENTARY_CHARGE
"""m_e c^2 in eV (~510998.95)."""

COMPTON_ANGULAR_FREQUENCY = ELECTRON_REST_ENERGY_J / HBAR
"""Electron Compton angular frequency m_e c^2 / hbar in rad/s."""
