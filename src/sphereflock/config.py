"""Flat key = value run configuration: the INI text format.

Sections: [kernel], [params], [sim], [scenario].  No nesting; every value
round-trips exactly (floats are written with 17 significant digits).  The
key tables are the schema: each key is read by the parser its table names
and written in the form that parser reads back.
``scenarios.build_scenario`` turns a parsed RunConfig into a runnable state.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .integrator import SimConfig

_SCENARIO_KINDS = ("paper", "random", "explicit")


def fmt_float(x: float) -> str:
    """17 significant digits: parsing the text back yields the same double."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative initial-state description."""

    kind: str = "paper"
    n: int = 6
    pos_spread: float = math.pi / 64
    vel_scale: float = 0.01
    seed: int = 0
    label: str = ""
    positions: tuple = ()
    velocities: tuple = ()

    def __post_init__(self):
        if self.kind not in _SCENARIO_KINDS:
            raise ConfigError(f"scenario kind must be one of {_SCENARIO_KINDS}, got {self.kind!r}")
        if self.kind == "explicit" and (not self.positions or
                                        len(self.positions) != len(self.velocities)):
            raise ConfigError("explicit scenario needs matching x<i>/v<i> lists")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run."""

    kernel_name: str = "paper"
    kernel_params: tuple = ()
    sigma: float = 1.0
    sim: SimConfig = field(default_factory=SimConfig)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split())


def _on_off(text: str) -> bool:
    flag = text.strip().lower()
    if flag not in ("on", "off"):
        raise ConfigError(f"expected on or off, got {flag!r}")
    return flag == "on"


# The keys read from each section and their parsers.  An absent key takes
# the dataclass default; an unlisted key (such as a retired [sim] seed) is
# ignored.
_KERNEL_KEYS = {"name": str, "params": _floats}
_PARAMS_KEYS = {"sigma": float}
_SIM_KEYS = {"dt": float, "t_end": float, "projection": _on_off, "frame_stride": int}
_SCENARIO_KEYS = {"kind": str, "label": str, "n": int, "pos_spread": float,
                  "vel_scale": float, "seed": int}
# How emit_config writes a value for each parser that is not plain str.
_FORMATS = {float: fmt_float, _on_off: lambda flag: "on" if flag else "off",
            _floats: lambda values: " ".join(fmt_float(c) for c in values)}


def _present(section, keys: dict) -> dict:
    return {key: parse(section[key]) for key, parse in keys.items() if key in section}


def emit_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig: the keys of the parse tables, then the x<i>/v<i> rows."""
    lines = []
    for name, keys, owner, prefix in (("kernel", _KERNEL_KEYS, cfg, "kernel_"),
                                      ("params", _PARAMS_KEYS, cfg, ""),
                                      ("sim", _SIM_KEYS, cfg.sim, ""),
                                      ("scenario", _SCENARIO_KEYS, cfg.scenario, "")):
        if lines:
            lines.append("")
        lines.append(f"[{name}]")
        for key, parse in keys.items():
            lines.append(f"{key} = {_FORMATS.get(parse, str)(getattr(owner, prefix + key))}")
    for i, (x, v) in enumerate(zip(cfg.scenario.positions, cfg.scenario.velocities), start=1):
        lines.append(f"x{i} = {_FORMATS[_floats](x)}")
        lines.append(f"v{i} = {_FORMATS[_floats](v)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text back into a RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    try:
        kernel = _present(section("kernel"), _KERNEL_KEYS)
        run = {f"kernel_{key}": value for key, value in kernel.items()}
        run.update(_present(section("params"), _PARAMS_KEYS))
        sc = section("scenario")
        positions, velocities = [], []
        i = 1
        while f"x{i}" in sc:
            if f"v{i}" not in sc:
                raise ConfigError(f"x{i} given without v{i}")
            positions.append(_floats(sc[f"x{i}"]))
            velocities.append(_floats(sc[f"v{i}"]))
            if len(positions[-1]) != 3 or len(velocities[-1]) != 3:
                raise ConfigError(f"x{i}/v{i} must each have 3 components")
            i += 1
        spec = ScenarioSpec(**_present(sc, _SCENARIO_KEYS), positions=tuple(positions),
                            velocities=tuple(velocities))
        return RunConfig(**run, sim=SimConfig(**_present(section("sim"), _SIM_KEYS)),
                         scenario=spec)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_config(cfg))

