"""Link geometry: scatterer path lengths, ground clipping, direct path."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bounds import POSITIVE, admissible, check_fields

#: Speed of light in vacuum, m/s; exact by SI definition.
SPEED_OF_LIGHT = 299792458.0

__all__ = [
    "SPEED_OF_LIGHT",
    "LinkGeometry",
    "RayAngles",
    "LosGeometry",
    "ray_path_length",
    "clip_cluster_distance",
    "los_geometry",
]


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter/receiver placement: ground separation and antenna heights."""

    distance: float = admissible(POSITIVE)
    tx_height: float = admissible(POSITIVE)
    rx_height: float = admissible(POSITIVE)

    __post_init__ = check_fields

    @property
    def slant_range(self) -> float:
        """Straight-line TX-RX distance."""
        return float(np.hypot(self.distance, self.tx_height - self.rx_height))


@dataclass(frozen=True)
class RayAngles:
    """Departure and arrival direction of one propagation path (radians).

    Elevation is measured from the horizontal plane: 0 is horizontal,
    positive points up, negative down.
    """

    aod_azimuth: float
    aod_elevation: float
    aoa_azimuth: float
    aoa_elevation: float


@dataclass(frozen=True)
class LosGeometry:
    """Direct-path angles, length, and delay."""

    angles: RayAngles
    path_length: float
    delay: float


def ray_path_length(cluster_distance, aod_azimuth, aod_elevation, geom: LinkGeometry):
    """Two-leg scatterer path length: TX -> cluster at ``cluster_distance``
    along the departure direction, then cluster -> RX.

    Accepts scalars or broadcastable arrays.  The result is never shorter
    than the direct TX-RX distance (triangle inequality), so scattered paths
    always arrive after the LOS path.
    """
    r = np.asarray(cluster_distance, dtype=float)
    vertical = geom.tx_height - geom.rx_height + r * np.sin(aod_elevation)
    horizontal = geom.distance - r * np.cos(aod_elevation) * np.cos(aod_azimuth)
    return r + np.hypot(vertical, horizontal)


def clip_cluster_distance(raw_max, aod_elevation, geom: LinkGeometry):
    """Upper bound for the cluster distance along a departure direction.

    Directions with a downward elevation component intersect the ground at
    range ``tx_height / |sin(elevation)|``; the bound is the smaller of that
    range and ``raw_max``.  Upward or horizontal directions keep ``raw_max``.
    """
    s = np.sin(aod_elevation)
    ground_range = np.where(s < 0, geom.tx_height / np.maximum(-s, 1e-300), np.inf)
    return np.minimum(raw_max, ground_range)


def los_geometry(geom: LinkGeometry, rx_orientation: float = 0.0) -> LosGeometry:
    """Direct-path geometry of the link.

    The departure azimuth defines the boresight (0); the departure elevation
    tilts down toward the receiver when the transmitter is higher.  Arrival
    angles mirror the geometry in the receiver's frame (elevation sign
    flipped), offset by the receiver array orientation.
    """
    drop = geom.tx_height - geom.rx_height
    tilt = np.arctan2(drop, geom.distance)
    angles = RayAngles(
        aod_azimuth=0.0,
        aod_elevation=-tilt,
        aoa_azimuth=rx_orientation,
        aoa_elevation=tilt,
    )
    path_length = geom.slant_range
    return LosGeometry(angles=angles, path_length=path_length, delay=path_length / SPEED_OF_LIGHT)
