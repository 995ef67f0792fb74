"""Shared mathematical constants."""

import math

#: Euler-Mascheroni constant gamma, rounded to the nearest double.
EULER_GAMMA = 0.5772156649015329

#: e**gamma; also the value of the tail integral of the Dickman function at 0.
EXP_GAMMA = math.exp(EULER_GAMMA)

#: e**-gamma; the limit of the Buchstab function.
EXP_NEG_GAMMA = math.exp(-EULER_GAMMA)

