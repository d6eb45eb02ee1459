"""File formats: binary tap tensors, JSON realization metadata, CDF CSV.

Binary layout (little-endian throughout).  Static tensors (version 1):

    magic 'MMWC' | version u32 | N_R u32 | N_T u32 | P u32
    | sample_period f64 | tap_offset i64
    | P * N_R * N_T complex128 taps (interleaved re, im; tap-major,
      then receive-row-major)

Snapshot sequences (version 2) extend the header with ``n_snapshots u32``
and ``snapshot_period f64`` and concatenate the per-snapshot payloads in
time order.  The version field makes files self-describing.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .channel import ChannelRealization, ClusterRealization, LosComponent, SampledChannel
from .geometry import LinkGeometry, RayAngles
from .timevariant import TimeVariantChannel

__all__ = [
    "MAGIC",
    "STATIC_VERSION",
    "DYNAMIC_VERSION",
    "write_static_channel",
    "read_static_channel",
    "write_dynamic_channel",
    "read_dynamic_channel",
    "read_channel",
    "realization_to_dict",
    "realization_from_dict",
    "write_realization_metadata",
    "read_realization_metadata",
    "write_cdf_csv",
    "read_cdf_csv",
    "write_trial_log",
]

MAGIC = b"MMWC"
STATIC_VERSION = 1
DYNAMIC_VERSION = 2

_STATIC_HEADER = struct.Struct("<4sIIIIdq")
_DYNAMIC_HEADER = struct.Struct("<4sIIIIdqId")


def _write_tensor(path, header: bytes, taps: np.ndarray) -> None:
    """Header, then the tap buffer itself: no payload copy is made unless
    the taps are not already contiguous little-endian complex128."""
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(taps, dtype="<c16").data)


def write_static_channel(path, channel: SampledChannel) -> None:
    header = _STATIC_HEADER.pack(
        MAGIC,
        STATIC_VERSION,
        channel.n_rx,
        channel.n_tx,
        channel.n_taps,
        channel.sample_period,
        channel.tap_offset,
    )
    _write_tensor(path, header, channel.taps)


def _check_magic(blob: bytes, path) -> int:
    """Version field of a tensor file's leading bytes, after the magic."""
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a tap-tensor file (bad magic)")
    return int.from_bytes(blob[4:8], "little")


def _read_tensor(path, version: int, kind: str) -> tuple[tuple, np.ndarray]:
    """Header fields after magic and version, and the taps, of a tensor
    file that must be ``version`` (``kind`` names it in errors).

    The payload size is checked against the header before the payload is
    read straight into the returned array.  Any mismatch raises ValueError
    naming the file.
    """
    header = _STATIC_HEADER if version == STATIC_VERSION else _DYNAMIC_HEADER
    with open(path, "rb") as f:
        blob = f.read(header.size)
        found = _check_magic(blob, path)
        if found != version:
            raise ValueError(f"{path}: version {found} is not a {kind} (expected {version})")
        if len(blob) < header.size:
            raise ValueError(f"{path}: header truncated to {len(blob)} of {header.size} bytes")
        values = header.unpack(blob)[2:]
        n_rx, n_tx, n_taps = values[:3]
        shape = (n_taps, n_rx, n_tx)
        if version == DYNAMIC_VERSION:
            shape = (values[5],) + shape
        count = math.prod(shape)
        if os.fstat(f.fileno()).st_size != header.size + 16 * count:
            raise ValueError(f"{path}: payload size does not match the header")
        taps = np.fromfile(f, dtype="<c16", count=count)
    return values, taps.reshape(shape)


def read_static_channel(path) -> SampledChannel:
    (_, _, _, period, offset), taps = _read_tensor(path, STATIC_VERSION, "static tensor")
    return SampledChannel(taps=taps, sample_period=period, tap_offset=offset)


def write_dynamic_channel(path, channel: TimeVariantChannel) -> None:
    n_snap, n_taps, n_rx, n_tx = channel.snapshots.shape
    header = _DYNAMIC_HEADER.pack(
        MAGIC,
        DYNAMIC_VERSION,
        n_rx,
        n_tx,
        n_taps,
        channel.sample_period,
        channel.tap_offset,
        n_snap,
        channel.snapshot_period,
    )
    _write_tensor(path, header, channel.snapshots)


def read_dynamic_channel(path) -> TimeVariantChannel:
    (_, _, _, period, offset, _, snap_period), snapshots = _read_tensor(
        path, DYNAMIC_VERSION, "snapshot sequence"
    )
    return TimeVariantChannel(
        snapshots=snapshots,
        sample_period=period,
        tap_offset=offset,
        snapshot_period=snap_period,
    )


def read_channel(path):
    """Read either tensor flavor, dispatching on the header version."""
    with open(path, "rb") as f:
        version = _check_magic(f.read(8), path)
    if version == STATIC_VERSION:
        return read_static_channel(path)
    if version == DYNAMIC_VERSION:
        return read_dynamic_channel(path)
    raise ValueError(f"{path}: unsupported tap-tensor version {version}")


# -- realization metadata --------------------------------------------------


def _angles_dict(angles: RayAngles) -> dict:
    return {
        "aod_azimuth_rad": float(angles.aod_azimuth),
        "aod_elevation_rad": float(angles.aod_elevation),
        "aoa_azimuth_rad": float(angles.aoa_azimuth),
        "aoa_elevation_rad": float(angles.aoa_elevation),
    }


def realization_to_dict(real: ChannelRealization) -> dict:
    """JSON-ready dictionary holding the complete realization."""
    clusters = []
    for c in real.clusters:
        clusters.append(
            {
                "distance_m": float(c.distance),
                "mean": _angles_dict(c.mean_angles),
                "aod_azimuth_rad": c.aod_azimuth.tolist(),
                "aod_elevation_rad": c.aod_elevation.tolist(),
                "aoa_azimuth_rad": c.aoa_azimuth.tolist(),
                "aoa_elevation_rad": c.aoa_elevation.tolist(),
                "gain_real": c.gains.real.tolist(),
                "gain_imag": c.gains.imag.tolist(),
                "shadow_db": c.shadow_db.tolist(),
                "attenuation_db": c.attenuation_db.tolist(),
                "path_length_m": c.path_lengths.tolist(),
                "delay_s": c.delays.tolist(),
            }
        )
    return {
        "scenario": real.scenario,
        "carrier_frequency_hz": float(real.carrier_frequency),
        "distance_m": float(real.geometry.distance),
        "tx_height_m": float(real.geometry.tx_height),
        "rx_height_m": float(real.geometry.rx_height),
        "gain_normalization": float(real.gain_normalization),
        "los": {
            "present": bool(real.los.present),
            **_angles_dict(real.los.angles),
            "path_length_m": float(real.los.path_length),
            "delay_s": float(real.los.delay),
            "attenuation_db": float(real.los.attenuation_db),
            "shadow_db": float(real.los.shadow_db),
            "phase_rad": float(real.los.phase),
        },
        "clusters": clusters,
    }


def realization_from_dict(data: dict) -> ChannelRealization:
    clusters = []
    for c in data["clusters"]:
        clusters.append(
            ClusterRealization(
                distance=c["distance_m"],
                mean_angles=RayAngles(
                    aod_azimuth=c["mean"]["aod_azimuth_rad"],
                    aod_elevation=c["mean"]["aod_elevation_rad"],
                    aoa_azimuth=c["mean"]["aoa_azimuth_rad"],
                    aoa_elevation=c["mean"]["aoa_elevation_rad"],
                ),
                aod_azimuth=np.array(c["aod_azimuth_rad"]),
                aod_elevation=np.array(c["aod_elevation_rad"]),
                aoa_azimuth=np.array(c["aoa_azimuth_rad"]),
                aoa_elevation=np.array(c["aoa_elevation_rad"]),
                gains=np.array(c["gain_real"]) + 1j * np.array(c["gain_imag"]),
                shadow_db=np.array(c["shadow_db"]),
                attenuation_db=np.array(c["attenuation_db"]),
                path_lengths=np.array(c["path_length_m"]),
                delays=np.array(c["delay_s"]),
            )
        )
    los = data["los"]
    return ChannelRealization(
        scenario=data["scenario"],
        carrier_frequency=data["carrier_frequency_hz"],
        geometry=LinkGeometry(
            distance=data["distance_m"],
            tx_height=data["tx_height_m"],
            rx_height=data["rx_height_m"],
        ),
        clusters=clusters,
        los=LosComponent(
            present=los["present"],
            angles=RayAngles(
                aod_azimuth=los["aod_azimuth_rad"],
                aod_elevation=los["aod_elevation_rad"],
                aoa_azimuth=los["aoa_azimuth_rad"],
                aoa_elevation=los["aoa_elevation_rad"],
            ),
            path_length=los["path_length_m"],
            delay=los["delay_s"],
            attenuation_db=los["attenuation_db"],
            shadow_db=los["shadow_db"],
            phase=los["phase_rad"],
        ),
        gain_normalization=data["gain_normalization"],
    )


def write_realization_metadata(path, real: ChannelRealization, run_info: dict) -> None:
    """Sidecar JSON: run provenance plus the full realization."""
    document = {"run": run_info, "realization": realization_to_dict(real)}
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def read_realization_metadata(path) -> tuple[dict, ChannelRealization]:
    document = json.loads(Path(path).read_text())
    return document["run"], realization_from_dict(document["realization"])


# -- experiment outputs ----------------------------------------------------


def write_cdf_csv(path, spectral_efficiency, cdf) -> None:
    lines = ["spectral_efficiency_bits_s_hz,cdf"]
    for se, level in zip(spectral_efficiency, cdf):
        lines.append(f"{float(se)!r},{float(level)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_cdf_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = Path(path).read_text().rstrip().splitlines()
    header = rows[0] if rows else ""
    if header != "spectral_efficiency_bits_s_hz,cdf":
        raise ValueError(f"{path}: unexpected CSV header {header!r}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows")
    data = np.empty((len(rows) - 1, 2))
    for i, row in enumerate(rows[1:]):
        try:
            se, level = row.split(",")
            data[i] = float(se), float(level)
        except ValueError as err:
            raise ValueError(f"{path}:{i + 2}: {err}") from None
    return data[:, 0], data[:, 1]


def write_trial_log(path, run_info: dict, results) -> None:
    """Per-trial JSON log of a CDF experiment."""
    document = {
        "run": run_info,
        "trials": [
            {
                "trial": r.trial_seed,
                "stream_id": r.trial_seed,
                "rate_bits_per_use": r.rate,
                "spectral_efficiency_bits_s_hz": r.spectral_efficiency,
                "los": r.los,
                "n_clusters": r.n_clusters,
                "n_taps": r.n_taps,
                "selected_tap": r.selected_tap,
            }
            for r in results
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
