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
from collections.abc import Iterable
from dataclasses import fields
from pathlib import Path

import numpy as np

from ._bounds import COUNT, POSITIVE, check
from .channel import ChannelRealization, ClusterRealization, LosComponent, SampledChannel
from .geometry import SPEED_OF_LIGHT, LinkGeometry, RayAngles
from .timevariant import TimeVariantChannel

__all__ = [
    "MAGIC",
    "STATIC_VERSION",
    "DYNAMIC_VERSION",
    "write_static_channel",
    "read_static_channel",
    "write_dynamic_channel",
    "write_dynamic_chunks",
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

#: Header layout of each tensor version, as in the module docstring.
_HEADERS = {
    STATIC_VERSION: struct.Struct("<4sIIIIdq"),
    DYNAMIC_VERSION: struct.Struct("<4sIIIIdqId"),
}


def _write_tensor(path, version: int, shape: tuple, chunks: Iterable[np.ndarray], *meta) -> None:
    """Header (the tap dimensions, the last three of ``shape``, then
    ``meta``), then each payload chunk as it comes: no copy is made of a
    chunk that is already contiguous little-endian complex128.  If rendering
    or writing a chunk raises, the partial file is removed."""
    n_taps, n_rx, n_tx = shape[-3:]
    header = _HEADERS[version].pack(MAGIC, version, n_rx, n_tx, n_taps, *meta)
    f = open(path, "wb")
    try:
        with f:
            f.write(header)
            for chunk in chunks:
                f.write(np.ascontiguousarray(chunk, dtype="<c16").data)
    except BaseException:
        os.unlink(path)
        raise


def _read_tensor(path, versions):
    """The channel stored in a tensor file whose version is in ``versions``.
    Opens the file once and checks magic, version, header length and payload
    size before reading the payload straight into the returned array; any
    mismatch raises ValueError naming the file."""
    with open(path, "rb") as f:
        blob = f.read(8)
        if len(blob) < 8 or blob[:4] != MAGIC:
            raise ValueError(f"{path}: not a tap-tensor file (bad magic)")
        version = int.from_bytes(blob[4:], "little")
        if version not in versions:
            raise ValueError(f"{path}: tap-tensor version {version} is not in {list(versions)}")
        header = _HEADERS[version]
        blob += f.read(header.size - len(blob))
        if len(blob) < header.size:
            raise ValueError(f"{path}: header truncated to {len(blob)} of {header.size} bytes")
        _, _, n_rx, n_tx, n_taps, period, offset, *extra = header.unpack(blob)
        shape = (*extra[:1], n_taps, n_rx, n_tx)
        count = math.prod(shape)
        if os.fstat(f.fileno()).st_size != header.size + 16 * count:
            raise ValueError(f"{path}: payload size does not match the header")
        taps = np.fromfile(f, dtype="<c16", count=count).reshape(shape)
    if version == STATIC_VERSION:
        return SampledChannel(taps, period, offset)
    return TimeVariantChannel(taps, period, offset, snapshot_period=extra[1])


def write_static_channel(path, channel: SampledChannel) -> None:
    _write_tensor(
        path, STATIC_VERSION, channel.taps.shape, [channel.taps],
        channel.sample_period, channel.tap_offset,
    )


def write_dynamic_channel(path, channel: TimeVariantChannel) -> None:
    write_dynamic_chunks(
        path, channel.snapshots.shape, channel.sample_period, channel.tap_offset,
        channel.snapshot_period, [channel.snapshots],
    )


def write_dynamic_chunks(
    path, shape: tuple, sample_period: float, tap_offset: int, snapshot_period: float,
    chunks: Iterable[np.ndarray],
) -> None:
    """Snapshot sequence of ``shape`` (n_snapshots, P, N_R, N_T) whose
    payload arrives as ``chunks`` of whole snapshots in time order; each
    chunk is written before the next is drawn, so they may share a buffer.
    The file equals :func:`write_dynamic_channel`'s of the same sequence."""
    _write_tensor(
        path, DYNAMIC_VERSION, shape, chunks, sample_period, tap_offset, shape[0], snapshot_period
    )


def read_static_channel(path) -> SampledChannel:
    return _read_tensor(path, (STATIC_VERSION,))


def read_dynamic_channel(path) -> TimeVariantChannel:
    return _read_tensor(path, (DYNAMIC_VERSION,))


def read_channel(path):
    """Read either tensor flavor, dispatching on the header version."""
    return _read_tensor(path, tuple(_HEADERS))


# -- realization metadata --------------------------------------------------

# Sidecar key tables, one per stored object: JSON key -> attribute.  Both
# directions read them; only the nested objects' keys are spelled out.
_TOP_KEYS = {
    "scenario": "scenario", "carrier_frequency_hz": "carrier_frequency",
    "gain_normalization": "gain_normalization",
}
_GEOMETRY_KEYS = {"distance_m": "distance", "tx_height_m": "tx_height", "rx_height_m": "rx_height"}
_LOS_KEYS = {
    "present": "present", "path_length_m": "path_length", "delay_s": "delay",
    "attenuation_db": "attenuation_db", "shadow_db": "shadow_db", "phase_rad": "phase",
}
_ANGLE_KEYS = {f"{f.name}_rad": f.name for f in fields(RayAngles)}
_CLUSTER_KEYS = {"distance_m": "distance"}
#: Per-ray arrays of a cluster; the complex gains are stored as two parts.
_RAY_KEYS = {
    **_ANGLE_KEYS, "shadow_db": "shadow_db", "attenuation_db": "attenuation_db",
    "path_length_m": "path_lengths", "delay_s": "delays",
}
_GAIN_KEYS = {"gain_real": "real", "gain_imag": "imag"}


def _plain(value):
    """JSON-ready value: text as it is, flags as bool, numbers as floats."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return value if isinstance(value, str) else np.asarray(value, float).tolist()


def _encode(obj, keys: dict) -> dict:
    return {key: _plain(getattr(obj, attr)) for key, attr in keys.items()}


def _is_number(value) -> bool:
    """A finite JSON number: ``json.loads`` also parses NaN and infinities."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


#: The JSON kinds a sidecar value may have.  Per-ray keys hold lists of
#: numbers and every other table key a number, except ``_SCALAR_KINDS``.
_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "a number": _is_number,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}
_SCALAR_KINDS = {"scenario": "a string", "present": "a boolean"}


def _get(data: dict, key: str, kind: str):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r}")
    value = data[key]
    if not _KINDS[kind](value):
        raise ValueError(f"key {key!r} must be {kind}, got {value!r:.40}")
    return value


def _decode(data: dict, keys: dict, kind: str | None = None) -> dict:
    """Each table key's value by attribute; ``kind`` overrides the table's."""
    return {
        attr: _get(data, key, kind or _SCALAR_KINDS.get(key, "a number"))
        for key, attr in keys.items()
    }


def realization_to_dict(real: ChannelRealization) -> dict:
    """JSON-ready dictionary holding the complete realization."""
    return {
        **_encode(real, _TOP_KEYS),
        **_encode(real.geometry, _GEOMETRY_KEYS),
        "los": {**_encode(real.los, _LOS_KEYS), **_encode(real.los.angles, _ANGLE_KEYS)},
        "clusters": [
            {
                **_encode(c, {**_CLUSTER_KEYS, **_RAY_KEYS}),
                **_encode(c.gains, _GAIN_KEYS),
                "mean": _encode(c.mean_angles, _ANGLE_KEYS),
            }
            for c in real.clusters
        ],
    }


def _check_delays(where: str, delays, path_lengths) -> None:
    """Each delay must be its path length over c within 1e-9 relative."""
    expected = np.asarray(path_lengths) / SPEED_OF_LIGHT
    if np.any(np.abs(delays - expected) > 1e-9 * np.abs(expected)):
        raise ValueError(f"{where}: key 'delay_s' differs from path_length_m / c")


def realization_from_dict(data: dict) -> ChannelRealization:
    """Inverse of :func:`realization_to_dict`.  A missing key, a value of the
    wrong JSON kind or range, per-ray arrays that are empty or of unequal
    length, delays that are not path lengths over c, a ray shorter than the
    direct path (beyond 1e-9 relative) or no path at all raise ValueError
    naming the key or cluster."""
    clusters = []
    for index, c in enumerate(_get(data, "clusters", "a list of objects")):
        per_ray = _decode(c, {**_RAY_KEYS, **_GAIN_KEYS}, "a list of numbers")
        rays = {attr: np.array(v, dtype=float) for attr, v in per_ray.items()}
        shapes = {a.shape for a in rays.values()}
        if len(shapes) > 1:
            raise ValueError(f"cluster {index}: per-ray arrays differ in length")
        if shapes == {(0,)}:
            raise ValueError(f"cluster {index}: no rays")
        _check_delays(f"cluster {index}", rays["delays"], rays["path_lengths"])
        rays["gains"] = rays.pop("real") + 1j * rays.pop("imag")
        rays["mean_angles"] = RayAngles(**_decode(_get(c, "mean", "an object"), _ANGLE_KEYS))
        clusters.append(ClusterRealization(**_decode(c, _CLUSTER_KEYS), **rays))
    los = _get(data, "los", "an object")
    real = ChannelRealization(
        **_decode(data, _TOP_KEYS),
        geometry=LinkGeometry(**_decode(data, _GEOMETRY_KEYS)),
        clusters=clusters,
        los=LosComponent(**_decode(los, _LOS_KEYS), angles=RayAngles(**_decode(los, _ANGLE_KEYS))),
    )
    check("carrier_frequency_hz", real.carrier_frequency, POSITIVE)
    _check_delays("los", real.los.delay, real.los.path_length)
    for i, c in enumerate(clusters):
        if np.any(c.path_lengths < real.los.path_length * (1.0 - 1e-9)):
            raise ValueError(f"cluster {i}: key 'path_length_m' is shorter than the direct path")
    check("paths (rays of clusters, and los if present)", len(clusters) + los["present"], COUNT)
    return real


def write_realization_metadata(path, real: ChannelRealization, run_info: dict) -> None:
    """Sidecar JSON: run provenance plus the full realization."""
    document = {"run": run_info, "realization": realization_to_dict(real)}
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def read_realization_metadata(path) -> tuple[dict, ChannelRealization]:
    """Run provenance and realization of a sidecar; a file that is not
    JSON or does not hold a valid realization raises ValueError naming it."""
    try:
        document = json.loads(Path(path).read_text())
        run = _get(document, "run", "an object")
        return run, realization_from_dict(_get(document, "realization", "an object"))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


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
