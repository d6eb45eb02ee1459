"""Run configuration: a flat, diffable ``key = value`` text format.

Every knob of the simulator is one top-level key typed by the
:class:`ScenarioConfig` field it fills.  ``auto`` selects the documented
default for the optional keys (thermal noise, snapshot spacing, gain
correlation).
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .arrays import ArrayPair, PlanarArray
from .geometry import SPEED_OF_LIGHT, LinkGeometry
from .propagation import SCENARIOS
from .pulse import PulseSpec
from .timevariant import MobilitySpec

__all__ = ["ScenarioConfig", "parse_config", "serialize_config"]

_AUTO = ("auto", "none")


@dataclass
class ScenarioConfig:
    """All run parameters, one field per configuration key."""

    # deployment
    scenario: str = "umi-street-canyon"
    carrier_frequency_hz: float = 73e9
    distance_m: float = 30.0
    tx_height_m: float = 7.0
    rx_height_m: float = 1.0
    # arrays
    rx_horizontal: int = 5
    rx_vertical: int = 4
    tx_horizontal: int = 6
    tx_vertical: int = 5
    spacing_wavelengths: float = 0.5
    rx_orientation_rad: float = 0.0
    # clustering
    cluster_rate: float = 1.9
    angle_spread_deg: float = 5.0
    max_distance_factor: float = 1.75
    shadow_per_cluster: bool = False
    scattered_pathloss: str = "nlos"  # or "follow-los"
    # pulse / sampling
    rolloff: float = 0.22
    bandwidth_hz: float = 500e6
    truncation_half_length: int = 8
    oversampling: int = 1
    energy_threshold: float = 1e-4
    # randomness
    seed: int = 0
    # mobility
    v_rx_mps: float = 0.0
    v_tx_mps: float = 0.0
    gain_correlation: float | None = None
    snapshot_period_s: float | None = None
    n_snapshots: int = 10
    # link evaluation
    n_streams: int = 4
    tx_power_w: float = 1.0
    noise_figure_db: float = 5.0
    noise_temperature_k: float = 290.0
    noise_variance_w: float | None = None
    n_trials: int = 500
    se_normalization: str = "excess-bandwidth"  # or "none"

    # -- derived quantities ------------------------------------------------

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def symbol_period(self) -> float:
        """Symbol period filling the configured bandwidth: (1+rolloff)/W."""
        return (1.0 + self.rolloff) / self.bandwidth_hz

    def geometry(self) -> LinkGeometry:
        return LinkGeometry(self.distance_m, self.tx_height_m, self.rx_height_m)

    def arrays(self) -> ArrayPair:
        return ArrayPair(
            tx=PlanarArray(self.tx_horizontal, self.tx_vertical, self.spacing_wavelengths),
            rx=PlanarArray(self.rx_horizontal, self.rx_vertical, self.spacing_wavelengths),
        )

    def pulse(self) -> PulseSpec:
        return PulseSpec(
            symbol_period=self.symbol_period,
            rolloff=self.rolloff,
            truncation_half_length=self.truncation_half_length,
        )

    def mobility(self) -> MobilitySpec:
        period = self.snapshot_period_s
        if period is None:
            period = self.symbol_period
        return MobilitySpec(
            v_rx=self.v_rx_mps,
            v_tx=self.v_tx_mps,
            snapshot_period=period,
            n_snapshots=self.n_snapshots,
            gain_correlation=self.gain_correlation,
        )

    def noise_variance(self) -> float:
        if self.noise_variance_w is not None:
            return self.noise_variance_w
        from .link import thermal_noise_variance

        return thermal_noise_variance(
            self.bandwidth_hz, self.noise_figure_db, self.noise_temperature_k
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError naming the offending key on any bad setting:
        a value outside its set in :data:`_ADMISSIBLE`, a float that is not
        finite, or more streams than the smaller array has elements."""
        for f in fields(self):
            key, value, allowed = f.name, getattr(self, f.name), _ADMISSIBLE[f.name]
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"'{key}' must be finite, got {value!r}")
            if value not in allowed:
                what = f"in {allowed}" if isinstance(allowed, _Interval) else f"one of {allowed}"
                raise ValueError(f"'{key}' must be {what}, got {value!r}")
        limit = min(self.rx_horizontal * self.rx_vertical, self.tx_horizontal * self.tx_vertical)
        if self.n_streams > limit:
            raise ValueError(
                f"'n_streams' must lie in [1, {limit}] for these arrays, "
                f"got {self.n_streams!r}"
            )


@dataclass(frozen=True)
class _Interval:
    """Numeric range with open ``(`` or closed ``[`` ends; ``auto`` also
    admits ``None``.  NaN lies in no interval."""

    low: float
    high: float
    ends: str = "()"
    auto: bool = False

    def __contains__(self, value) -> bool:
        if value is None:
            return self.auto
        above = self.low < value if self.ends[0] == "(" else self.low <= value
        below = value < self.high if self.ends[1] == ")" else value <= self.high
        return above and below

    def __str__(self) -> str:
        text = f"{self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]}"
        return text + " or auto" if self.auto else text


_INF = math.inf

#: Admissible values of every configuration key: a tuple of choices or an
#: interval.  Each :class:`ScenarioConfig` field must have an entry.
_ADMISSIBLE: dict[str, object] = {
    "scenario": tuple(SCENARIOS),
    "scattered_pathloss": ("nlos", "follow-los"),
    "se_normalization": ("excess-bandwidth", "none"),
    "shadow_per_cluster": (False, True),
    **dict.fromkeys(
        (
            "carrier_frequency_hz", "distance_m", "tx_height_m", "rx_height_m",
            "spacing_wavelengths", "cluster_rate", "max_distance_factor",
            "bandwidth_hz", "tx_power_w", "noise_temperature_k",
        ),
        _Interval(0.0, _INF),
    ),
    **dict.fromkeys(
        (
            "rx_horizontal", "rx_vertical", "tx_horizontal", "tx_vertical",
            "truncation_half_length", "oversampling", "n_snapshots", "n_streams",
            "n_trials",
        ),
        _Interval(1, _INF, "[)"),
    ),
    **dict.fromkeys(
        ("rx_orientation_rad", "v_rx_mps", "v_tx_mps", "noise_figure_db"),
        _Interval(-_INF, _INF),
    ),
    **dict.fromkeys(("angle_spread_deg", "seed"), _Interval(0, _INF, "[)")),
    "rolloff": _Interval(0.0, 1.0, "(]"),
    "energy_threshold": _Interval(0.0, 1.0),
    "gain_correlation": _Interval(0.0, 1.0, "[]", auto=True),
    **dict.fromkeys(
        ("snapshot_period_s", "noise_variance_w"), _Interval(0.0, _INF, auto=True)
    ),
}


def _convert(key: str, text: str, target) -> object:
    origin = typing.get_origin(target)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(target) if a is not type(None)]
        if text.strip().lower() in _AUTO:
            return None
        return _convert(key, text, args[0])
    if target is bool:
        lowered = text.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"key '{key}': expected a boolean, got {text!r}")
    if target is int:
        try:
            return int(text.strip())
        except ValueError:
            raise ValueError(f"key '{key}': expected an integer, got {text!r}") from None
    if target is float:
        try:
            return float(text.strip())
        except ValueError:
            raise ValueError(f"key '{key}': expected a number, got {text!r}") from None
    return text.strip()


def parse_config(path=None, overrides=None) -> ScenarioConfig:
    """Build a validated configuration from a file and/or override pairs.

    ``path`` points to a flat ``key = value`` text file ('#' starts a
    comment); ``overrides`` maps keys to value strings and wins over the
    file.  Unknown keys, keys repeated in the file and malformed values
    raise ValueError naming the key; omitted keys take their defaults.
    """
    known = typing.get_type_hints(ScenarioConfig)
    raw: dict[str, str] = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown configuration key '{key}'")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate configuration key '{key}'")
            raw[key] = value.strip()
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ValueError(f"unknown configuration key '{key}'")
        raw[key] = value
    values = {key: _convert(key, text, known[key]) for key, text in raw.items()}
    config = ScenarioConfig(**values)
    config.validate()
    return config


def serialize_config(config: ScenarioConfig) -> str:
    """Render a configuration back to the flat text format (exact
    round-trip: floats are written with full precision)."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            text = "auto"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            # plain-float repr round-trips exactly, numpy scalar repr not
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"
