"""Scalar measurement noise: the reference for
:func:`repro.perfmodel.noise.noise_factors`.

:func:`measurement_noise` mirrors the vectorised pipeline step for step
— exact mod-2^64 Python ints through the same splitmix64 chain, then the
same NumPy ufuncs — without calling it, so the two can be checked
against each other bit for bit (``tests/perfmodel/test_grid_properties``
and ``test_instance_noise``; :mod:`tests.oracles.simulator` draws its
noise here).
"""

import numpy as np

from repro.perfmodel.noise import (
    NOISE_SIGMA, _TWO_M53, _U1_SALT, _U2_SALT, component_hash,
)

_MASK64 = (1 << 64) - 1


def _mix_int(x: int) -> int:
    """The splitmix64 finaliser on Python ints (explicit mod-2^64 wrap),
    value-for-value equal to the uint64 ``repro.perfmodel.noise._mix``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def measurement_noise(
    device_name: str,
    format_name: str,
    matrix_key,
    seed: int = 0,
    sigma: float = NOISE_SIGMA,
) -> float:
    """Multiplicative noise factor for one (device, format, matrix) run.

    Lognormal with median 1; ``sigma=0`` disables noise entirely.
    """
    if sigma <= 0:
        return 1.0
    h = _mix_int(int(component_hash(device_name)))
    h = _mix_int(h ^ int(component_hash(format_name)))
    h = _mix_int(h ^ int(component_hash(matrix_key)))
    h = _mix_int(h ^ (int(seed) % (1 << 64)))
    s1 = _mix_int(h ^ int(_U1_SALT))
    s2 = _mix_int(h ^ int(_U2_SALT))
    u1 = ((s1 >> 11) + 1.0) * _TWO_M53
    u2 = (s2 >> 11) * _TWO_M53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return float(np.exp(sigma * z))
