"""Flat key = value run configuration: the INI text format.

Sections: [kernel], [params], [sim], [scenario].  No nesting; every value
round-trips exactly (floats are written with 17 significant digits).
``scenarios.build_scenario`` turns a parsed RunConfig into a runnable state.
"""

from __future__ import annotations

import configparser
import io
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


def emit_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig to flat key = value text."""
    out = io.StringIO()
    print("[kernel]", file=out)
    print(f"name = {cfg.kernel_name}", file=out)
    print(f"params = {' '.join(fmt_float(p) for p in cfg.kernel_params)}", file=out)
    print("", file=out)
    print("[params]", file=out)
    print(f"sigma = {fmt_float(cfg.sigma)}", file=out)
    print("", file=out)
    print("[sim]", file=out)
    print(f"dt = {fmt_float(cfg.sim.dt)}", file=out)
    print(f"t_end = {fmt_float(cfg.sim.t_end)}", file=out)
    print(f"projection = {'on' if cfg.sim.projection else 'off'}", file=out)
    print(f"frame_stride = {cfg.sim.frame_stride}", file=out)
    print("", file=out)
    print("[scenario]", file=out)
    sc = cfg.scenario
    print(f"kind = {sc.kind}", file=out)
    print(f"label = {sc.label}", file=out)
    print(f"n = {sc.n}", file=out)
    print(f"pos_spread = {fmt_float(sc.pos_spread)}", file=out)
    print(f"vel_scale = {fmt_float(sc.vel_scale)}", file=out)
    print(f"seed = {sc.seed}", file=out)
    for i, (x, v) in enumerate(zip(sc.positions, sc.velocities), start=1):
        print(f"x{i} = {' '.join(fmt_float(c) for c in x)}", file=out)
        print(f"v{i} = {' '.join(fmt_float(c) for c in v)}", file=out)
    return out.getvalue()


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split())


def _on_off(text: str) -> bool:
    flag = text.strip().lower()
    if flag not in ("on", "off"):
        raise ConfigError(f"projection must be on or off, got {flag!r}")
    return flag == "on"


# The keys read from each section and their parsers.  An absent key takes
# the dataclass default; an unlisted key (such as a retired [sim] seed) is
# ignored.
_KERNEL_KEYS = {"name": str, "params": _floats}
_SIM_KEYS = {"dt": float, "t_end": float, "projection": _on_off, "frame_stride": int}
_SCENARIO_KEYS = {"kind": str, "label": str, "n": int, "pos_spread": float,
                  "vel_scale": float, "seed": int}


def _present(section, keys: dict) -> dict:
    return {key: parse(section[key]) for key, parse in keys.items() if key in section}


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
        run.update(_present(section("params"), {"sigma": float}))
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

