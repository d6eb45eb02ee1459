"""Uniform planar arrays and their steering vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bounds import COUNT, POSITIVE, admissible, check_fields

__all__ = ["PlanarArray", "ArrayPair", "steering_vector"]


@dataclass(frozen=True)
class PlanarArray:
    """Uniform planar array with ``horizontal x vertical`` elements.

    Elements are indexed horizontal-major: element ``(m, n)`` (m-th column,
    n-th row) sits at flat index ``m * vertical + n``.  ``spacing_wavelengths``
    is the inter-element spacing as a fraction of the carrier wavelength.
    """

    horizontal: int = admissible(COUNT)
    vertical: int = admissible(COUNT)
    spacing_wavelengths: float = admissible(POSITIVE, 0.5)

    __post_init__ = check_fields

    @property
    def n_elements(self) -> int:
        return self.horizontal * self.vertical


@dataclass(frozen=True)
class ArrayPair:
    """Transmit and receive arrays of one link."""

    tx: PlanarArray
    rx: PlanarArray


def steering_vector(array: PlanarArray, azimuth, elevation) -> np.ndarray:
    """Unit-norm array response for a plane wave from (azimuth, elevation).

    Element ``(m, n)`` contributes the phase
    ``-k * d * (m * sin(azimuth) * sin(elevation) + n * cos(elevation))``
    with ``k = 2 pi / wavelength`` and ``d`` the element spacing; elevation is
    measured from the horizontal plane (positive up).  Because the spacing is
    specified in wavelengths, ``k * d`` reduces to
    ``2 pi * spacing_wavelengths`` for any carrier.

    Angles broadcast: arrays of shape ``S`` give responses of shape
    ``S + (n_elements,)``, one row per direction; scalars give ``(n_elements,)``.
    """
    kd = 2.0 * np.pi * array.spacing_wavelengths
    az = np.asarray(azimuth, dtype=float)[..., None]
    el = np.asarray(elevation, dtype=float)[..., None]
    m = np.arange(array.horizontal)
    n = np.arange(array.vertical)
    a_h = np.exp(-1j * kd * m * (np.sin(az) * np.sin(el)))
    a_v = np.exp(-1j * kd * n * np.cos(el))
    # Horizontal-major outer product: the row-wise form of kron(a_h, a_v).
    a = a_h[..., :, None] * a_v[..., None, :]
    return a.reshape(a.shape[:-2] + (array.n_elements,)) / np.sqrt(array.n_elements)
