"""Flat ``key = value`` experiment configuration.

One key per line; lists use brackets with commas (``p0 = [0.9, 0.8]``);
``#`` starts a comment.  Unknown keys and malformed values are rejected
with the offending file and line number.  The same keys double as CLI
flags (underscores become dashes), with flags overriding the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .energy import EnergyConfig
from .model import ChannelProfile, SensingQuality, TimingConfig, check_feasible
from .simulate import ALLOCATORS, SimConfig


class ConfigError(ValueError):
    pass


# key -> (type tag, default, help)
SCHEMA: dict[str, tuple[str, object, str]] = {
    "p0": ("floats", (0.9, 0.8, 0.7, 0.6, 0.5), "per-channel free probability"),
    "n_su": ("int", 3, "number of secondary users"),
    "slot_duration": ("float", 0.2, "slot length in seconds"),
    "sensing_time": ("float", 0.001, "mini-slot sensing time in seconds"),
    "handover_time": ("float", 0.0001, "retune time between mini-slots in seconds"),
    "rate": ("float", 1.0, "nominal data rate (1.0 = normalized throughput)"),
    "p_fa": ("float", 0.1, "false-alarm probability"),
    "p_d": ("float", 0.9, "detection probability"),
    "persistence": ("float", 1.0, "probability of sensing in a mini-slot"),
    "snr_db": ("float", -15.0, "primary SNR in dB for the detector curve"),
    "sampling_freq": ("float", 6e6, "detector sampling frequency in Hz"),
    "target_p_d": ("float", 0.9, "detection probability the detector curve holds"),
    "e_sense": ("float", 1.0, "energy per sensing"),
    "e_ho": ("float", 0.0, "energy per retune"),
    "allocator": ("choice", "sms", f"matrix builder, one of {ALLOCATORS}"),
    "rebuild_per_slot": ("bool", True, "rotate the first pick across slots"),
    "repeat_cap": ("int", 3, "max assignments per channel (error-aware builds)"),
    "n_slots": ("int", 100, "number of simulated slots"),
    "seed": ("int", 0, "simulation seed"),
}


def _parse_scalar(kind: str, raw: str):
    raw = raw.strip()
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind == "floats":
        if not (raw.startswith("[") and raw.endswith("]")):
            raise ValueError(f"expected a bracketed list, got {raw!r}")
        body = raw[1:-1].strip()
        if not body:
            raise ValueError("empty list")
        return tuple(float(tok) for tok in body.split(","))
    return raw  # a choice; validate() judges it


def _coerce(key: str, value):
    """Give ``value`` the type of ``key``'s SCHEMA kind; every config value
    on its way into an ``ExperimentConfig`` passes through here."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    kind = SCHEMA[key][0]
    try:
        if isinstance(value, str) or kind in ("bool", "choice"):
            return _parse_scalar(kind, str(value))
        if kind == "floats":
            return tuple(float(v) for v in value)
        if kind == "float":
            return float(value)
        if float(value).is_integer():
            return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None
    raise ConfigError(f"{key} takes whole numbers, got {value!r}")


def parse_config(path: str | None = None, overrides: dict | None = None) -> "ExperimentConfig":
    """Load defaults, then the file at ``path`` (if any), then ``overrides``."""
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _coerce(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    changes = {key: value for key, value in (overrides or {}).items() if value is not None}
    return ExperimentConfig(values=values).replace(**changes)


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def replace(self, **changes) -> "ExperimentConfig":
        """A validated copy with ``changes`` coerced to their SCHEMA kinds."""
        merged = dict(self.values)
        merged.update((key, _coerce(key, value)) for key, value in changes.items())
        cfg = ExperimentConfig(values=merged)
        cfg.validate()
        return cfg

    @property
    def profile(self) -> ChannelProfile:
        return ChannelProfile(p0=list(self.values["p0"]))

    @property
    def timing(self) -> TimingConfig:
        return TimingConfig(
            slot_duration=self.values["slot_duration"],
            sensing_time=self.values["sensing_time"],
            handover_time=self.values["handover_time"],
            rate=self.values["rate"],
        )

    @property
    def quality(self) -> SensingQuality:
        return SensingQuality(
            p_fa=self.values["p_fa"],
            p_d=self.values["p_d"],
            persistence=self.values["persistence"],
        )

    @property
    def energy(self) -> EnergyConfig:
        return EnergyConfig(e_sense=self.values["e_sense"], e_ho=self.values["e_ho"])

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.values["snr_db"] / 10.0)

    def validate(self) -> None:
        """Raise ConfigError unless every value makes a runnable experiment.

        Building the ``SimConfig`` runs the range checks of the model types
        and of ``SimConfig`` itself; the detector keys and the slot timing
        are checked here, since no other type holds them.
        """
        t = self.values
        try:
            sim = self.sim_config()
            if t["sampling_freq"] <= 0:
                raise ValueError("sampling_freq must be positive")
            if not 0.0 < t["target_p_d"] < 1.0:
                raise ValueError("target_p_d must lie in (0, 1)")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            check_feasible(sim.timing, sim.profile.n_channels)
        except ValueError:
            n_ch = sim.profile.n_channels
            raise ConfigError(
                "infeasible timing: sensing_time + "
                f"({n_ch} - 1) * (sensing_time + handover_time) must stay below "
                f"slot_duration, got {t['sensing_time']:g} + {n_ch - 1} * "
                f"({t['sensing_time']:g} + {t['handover_time']:g}) vs {t['slot_duration']:g}"
            ) from None

    def digest(self) -> str:
        """Short stable hash of the canonical key=value rendering."""
        parts = []
        for key in sorted(SCHEMA):
            value = self.values[key]
            if isinstance(value, tuple):
                rendered = "[" + ",".join(repr(float(v)) for v in value) + "]"
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            parts.append(f"{key}={rendered}")
        blob = "\n".join(parts).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]

    def sim_config(self, **overrides) -> SimConfig:
        kwargs = dict(
            profile=self.profile,
            timing=self.timing,
            quality=self.quality,
            energy=self.energy,
            n_su=self.values["n_su"],
            n_slots=self.values["n_slots"],
            seed=self.values["seed"],
            allocator=self.values["allocator"],
            rebuild_per_slot=self.values["rebuild_per_slot"],
            repeat_cap=self.values["repeat_cap"],
        )
        kwargs.update(overrides)
        return SimConfig(**kwargs)
