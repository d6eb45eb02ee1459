"""Run configuration: a flat, diffable ``key = value`` text format.

Every knob of the simulator is one top-level key typed by the
:class:`ScenarioConfig` field it fills, and each field declares the values
it admits: an interval or a tuple of choices, checked by
:meth:`ScenarioConfig.validate` whenever a configuration is built.  ``auto``
selects the documented default for the optional keys (thermal noise,
snapshot spacing, gain correlation).
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from ._bounds import (
    COUNT, FINITE, NON_NEGATIVE, POSITIVE, POSITIVE_OR_AUTO, UNIT_CLOSED_OR_AUTO, UNIT_HALF_OPEN,
    UNIT_OPEN, _Interval, admissible, check, check_fields,
)
from .arrays import ArrayPair, PlanarArray
from .channel import DEFAULT_ENERGY_THRESHOLD
from .geometry import SPEED_OF_LIGHT, LinkGeometry
from .propagation import SCENARIOS
from .pulse import PulseSpec
from .timevariant import MobilitySpec

__all__ = ["ScenarioConfig", "parse_config", "serialize_config"]

_AUTO = ("auto", "none")

#: Boltzmann constant, J/K; exact by SI definition.
_BOLTZMANN = 1.380649e-23


def thermal_noise_variance(
    bandwidth_hz: float,
    noise_figure_db: float = 5.0,
    temperature_k: float = 290.0,
) -> float:
    """Receiver noise power k_B * T * W * F in watts."""
    check("bandwidth_hz", bandwidth_hz, POSITIVE)
    check("noise_figure_db", noise_figure_db, FINITE)
    check("temperature_k", temperature_k, POSITIVE)
    return _BOLTZMANN * temperature_k * bandwidth_hz * 10.0 ** (noise_figure_db / 10.0)


def _once(method):
    """A derived value built on the first call and kept in the instance,
    outside the fields that equality, ``replace`` and ``asdict`` see."""
    name = f"_{method.__name__}"

    @functools.wraps(method)
    def built(self):
        if name not in self.__dict__:
            self.__dict__[name] = method(self)
        return self.__dict__[name]

    return built


@dataclass(frozen=True)
class ScenarioConfig:
    """All run parameters, one field per configuration key.

    Frozen, so the check at construction holds for the instance's life; use
    :func:`dataclasses.replace` for a changed copy, which is checked again.
    """

    # deployment
    scenario: str = admissible(SCENARIOS, "umi-street-canyon")
    carrier_frequency_hz: float = admissible(POSITIVE, 73e9)
    distance_m: float = admissible(POSITIVE, 30.0)
    tx_height_m: float = admissible(POSITIVE, 7.0)
    rx_height_m: float = admissible(POSITIVE, 1.0)
    # arrays
    rx_horizontal: int = admissible(COUNT, 5)
    rx_vertical: int = admissible(COUNT, 4)
    tx_horizontal: int = admissible(COUNT, 6)
    tx_vertical: int = admissible(COUNT, 5)
    spacing_wavelengths: float = admissible(POSITIVE, 0.5)
    rx_orientation_rad: float = admissible(FINITE, 0.0)
    # clustering
    cluster_rate: float = admissible(POSITIVE, 1.9)
    angle_spread_deg: float = admissible(NON_NEGATIVE, 5.0)
    max_distance_factor: float = admissible(POSITIVE, 1.75)
    shadow_per_cluster: bool = admissible((False, True), False)
    scattered_pathloss: str = admissible(("nlos", "follow-los"), "nlos")
    # pulse / sampling
    rolloff: float = admissible(UNIT_HALF_OPEN, 0.22)
    bandwidth_hz: float = admissible(POSITIVE, 500e6)
    truncation_half_length: int = admissible(COUNT, 8)
    oversampling: int = admissible(COUNT, 1)
    energy_threshold: float = admissible(UNIT_OPEN, DEFAULT_ENERGY_THRESHOLD)
    # randomness
    seed: int = admissible(NON_NEGATIVE, 0)
    # mobility
    v_rx_mps: float = admissible(FINITE, 0.0)
    v_tx_mps: float = admissible(FINITE, 0.0)
    gain_correlation: float | None = admissible(UNIT_CLOSED_OR_AUTO, None)
    snapshot_period_s: float | None = admissible(POSITIVE_OR_AUTO, None)
    n_snapshots: int = admissible(COUNT, 10)
    # link evaluation
    n_streams: int = admissible(COUNT, 4)
    tx_power_w: float = admissible(POSITIVE, 1.0)
    noise_figure_db: float = admissible(FINITE, 5.0)
    noise_temperature_k: float = admissible(POSITIVE, 290.0)
    noise_variance_w: float | None = admissible(POSITIVE_OR_AUTO, None)
    n_trials: int = admissible(COUNT, 500)
    se_normalization: str = admissible(("excess-bandwidth", "none"), "excess-bandwidth")

    # -- derived quantities ------------------------------------------------

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def symbol_period(self) -> float:
        """Symbol period filling the configured bandwidth: (1+rolloff)/W."""
        return (1.0 + self.rolloff) / self.bandwidth_hz

    @_once
    def geometry(self) -> LinkGeometry:
        return LinkGeometry(self.distance_m, self.tx_height_m, self.rx_height_m)

    @_once
    def arrays(self) -> ArrayPair:
        return ArrayPair(
            tx=PlanarArray(self.tx_horizontal, self.tx_vertical, self.spacing_wavelengths),
            rx=PlanarArray(self.rx_horizontal, self.rx_vertical, self.spacing_wavelengths),
        )

    @_once
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

    @_once
    def noise_variance(self) -> float:
        if self.noise_variance_w is not None:
            return self.noise_variance_w
        return thermal_noise_variance(
            self.bandwidth_hz, self.noise_figure_db, self.noise_temperature_k
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError naming the offending key on any bad setting: a
        value outside the set its field declares (which also rejects NaN,
        infinities and a non-integer for an ``int`` key), or more streams
        than the smaller array has elements."""
        check_fields(self, "'{}'")
        limit = min(self.rx_horizontal * self.rx_vertical, self.tx_horizontal * self.tx_vertical)
        check("'n_streams'", self.n_streams, _Interval(1, limit, "[]"), integer=True)

    __post_init__ = validate


#: Type of every configuration key, resolved once from the annotations.
_KEY_TYPES: dict[str, object] = typing.get_type_hints(ScenarioConfig)


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


def _config_lines(path) -> list[str]:
    """The lines of a configuration file, or a ValueError naming the file
    when it cannot be read or decoded."""
    try:
        return Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ValueError(f"{path}: cannot read configuration file: {reason}") from None


def parse_config(path=None, overrides=None) -> ScenarioConfig:
    """Build a validated configuration from a file and/or override pairs.

    ``path`` points to a flat ``key = value`` text file ('#' starts a
    comment); ``overrides`` maps keys to value strings and wins over the
    file.  Unknown keys, keys repeated in the file and malformed values
    raise ValueError naming the key, and an unreadable file one naming the
    file; omitted keys take their defaults.
    """
    raw: dict[str, str] = {}
    if path is not None:
        for lineno, line in enumerate(_config_lines(path), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEY_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown configuration key '{key}'")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate configuration key '{key}'")
            raw[key] = value.strip()
    for key, value in (overrides or {}).items():
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown configuration key '{key}'")
        raw[key] = value
    values = {key: _convert(key, text, _KEY_TYPES[key]) for key, text in raw.items()}
    return ScenarioConfig(**values)


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
