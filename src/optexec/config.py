"""Run configuration: plain-text key=value sections parsed with configparser.

Sections: [impact] (family + parameters), [market] (mu/sigma or decay),
[problem] (c0, x0, s0, horizon), [solver], [sim], [compare], [check],
[plot], [output].  Every subcommand states which sections it needs; unknown
keys are rejected so typos fail loudly.  Outside [market], the init fields of
a section's dataclass are its keys: their annotations give the casts, and
fields without a default are required.  In [impact] the `family` key picks
that dataclass, one per impact family.  `RunConfig.resolved` holds the
fully-defaulted string mapping that goes into the run manifest, from which the
identical configuration can be rebuilt.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from .closed_form import MarketParams
from .errors import ConfigError
from .impact import ImpactModel, LevyEffectiveImpact, MixedPowerImpact, QuadraticImpact
from .impact import ShiftedConvexImpact


@dataclass(frozen=True)
class ProblemSpec:
    c0: float
    x0: float
    s0: float
    horizon: float

    def __post_init__(self):
        if self.x0 < 0.0:
            raise ConfigError("problem.x0 must be non-negative")
        if self.s0 < 0.0:
            raise ConfigError("problem.s0 must be non-negative")
        if self.horizon <= 0.0:
            raise ConfigError("problem.horizon must be positive")


@dataclass(frozen=True)
class SolverSettings:
    nt: int = 400
    nx: int = 400
    x_max: Optional[float] = None
    y_max: Optional[float] = None
    refine: bool = True

    def __post_init__(self):
        if self.nt < 2 or self.nx < 2:
            raise ConfigError("solver.nt and solver.nx must be at least 2")
        if self.x_max is not None and self.x_max <= 0.0:
            raise ConfigError("solver.x_max must be positive")
        if self.y_max is not None and self.y_max <= 0.0:
            raise ConfigError("solver.y_max must be positive")


@dataclass(frozen=True)
class SimSettings:
    n_paths: int = 10000
    n_steps: int = 1000
    seed: int = 0
    strategy: str = "twap"
    log_floor: float = -60.0
    path_csv_cap: int = 0

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ConfigError("sim.n_paths and sim.n_steps must be at least 1")
        if self.seed < 0:
            raise ConfigError("sim.seed must be non-negative")
        if self.path_csv_cap < 0:
            raise ConfigError("sim.path_csv_cap must be non-negative")


@dataclass(frozen=True)
class CheckSettings:
    draws: int = 1000
    seed: int = 0
    grid_points: int = 4001

    def __post_init__(self):
        if self.draws < 1:
            raise ConfigError("check.draws must be at least 1")
        if self.seed < 0:
            raise ConfigError("check.seed must be non-negative")
        if self.grid_points < 3:
            raise ConfigError("check.grid_points must be at least 3")


@dataclass(frozen=True)
class PlotSettings:
    x_min: float = 0.0
    x_max: Optional[float] = None
    points: int = 512
    spacing: str = "linear"

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError("plot.points must be at least 2")
        if self.spacing not in ("linear", "log"):
            raise ConfigError("plot.spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.x_min <= 0.0:
            raise ConfigError("log spacing needs plot.x_min > 0")
        if self.x_min < 0.0:
            raise ConfigError("plot.x_min must be non-negative")
        if self.x_max is not None and self.x_max <= self.x_min:
            raise ConfigError("plot.x_max must exceed plot.x_min")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    formats: tuple = ("json", "csv")
    schedule_samples: int = 200

    def __post_init__(self):
        bad = set(self.formats) - {"json", "csv"}
        if bad:
            raise ConfigError(f"output.formats: unknown format(s) {sorted(bad)}")
        if self.schedule_samples < 1:
            raise ConfigError("output.schedule_samples must be at least 1")


@dataclass(frozen=True)
class CompareSettings:
    """Strategy specs for `compare`.  The default checks the paper's TWAP claim
    against the HJB feedback policy, which runs on every family; `threshold`
    needs a model with a positive threshold and exits 2 on the others."""

    strategies: tuple = ("twap", "feedback")


# [section] -> settings dataclass, for every section but [impact] and [market]
_SECTIONS = {
    "problem": ProblemSpec,
    "solver": SolverSettings,
    "sim": SimSettings,
    "compare": CompareSettings,
    "check": CheckSettings,
    "plot": PlotSettings,
    "output": OutputSettings,
}


def _schema(cls) -> tuple:
    """(init field -> cast, required init fields) of a dataclass: the
    annotations give the casts (Optional[X] casts to X), and the fields
    without a default are required."""
    hints = typing.get_type_hints(cls)
    kinds, required = {}, set()
    for f in fields(cls):
        if f.init:
            args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
            kinds[f.name] = args[0] if args else hints[f.name]
            if f.default is MISSING:
                required.add(f.name)
    return kinds, required


# [impact] family -> model dataclass
_IMPACT_FAMILIES = {
    cls.family: cls
    for cls in (MixedPowerImpact, ShiftedConvexImpact, QuadraticImpact, LevyEffectiveImpact)
}
# dataclass -> schema; derived at import, not per parse
_SCHEMAS = {cls: _schema(cls) for cls in (*_SECTIONS.values(), *_IMPACT_FAMILIES.values())}
_MARKET_KINDS = _schema(MarketParams)[0]

_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


@dataclass
class RunConfig:
    model: Optional[ImpactModel]
    market: Optional[MarketParams]
    problem: Optional[ProblemSpec]
    solver: SolverSettings
    sim: SimSettings
    compare: CompareSettings
    check: CheckSettings
    plot: PlotSettings
    output: OutputSettings

    def require(self, *sections):
        for s in sections:
            if getattr(self, "model" if s == "impact" else s) is None:
                raise ConfigError(f"missing required [{s}] section")

    @property
    def resolved(self) -> dict:
        """Fully-defaulted string mapping, suitable for the manifest."""
        out = {}
        if self.model is not None:
            out["impact"] = {"family": self.model.family, **_render(self.model)}
        for section in ("market", *_SECTIONS):
            settings = getattr(self, section)
            if settings is not None:
                out[section] = _render(settings)
        return out


def read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def apply_overrides(mapping: dict, overrides) -> dict:
    """Apply command-line `section.key=value` assignments on top of a mapping."""
    out = {s: dict(kv) for s, kv in mapping.items()}
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        out.setdefault(section.strip(), {})[key.strip()] = value.strip()
    return out


def _parse(section: str, key: str, raw: str, kind):
    try:
        if kind is tuple:
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        value = _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{section}.{key} = {raw!r} is not a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key} = {raw!r} must be finite")
    return value


def _parse_items(section: str, items: dict, kinds: dict) -> dict:
    unknown = set(items) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
    return {key: _parse(section, key, raw, kinds[key]) for key, raw in items.items()}


def _render(settings) -> dict:
    """Init fields as manifest strings: repr for floats, lower-case bools, comma-joined tuples."""
    out = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        if value is None or not f.init:
            continue
        if isinstance(value, bool):
            out[f.name] = str(value).lower()
        elif isinstance(value, float):
            out[f.name] = repr(float(value))  # a numpy float64 reprs as 'np.float64(...)'
        elif isinstance(value, tuple):
            out[f.name] = ",".join(value)
        else:
            out[f.name] = str(value)
    return out


def _parse_market(items: dict) -> MarketParams:
    vals = _parse_items("market", items, _MARKET_KINDS)
    has_pair = "mu" in vals or "sigma" in vals
    if has_pair and not ("mu" in vals and "sigma" in vals):
        raise ConfigError("[market] needs both mu and sigma when either is given")
    if not has_pair and "decay" not in vals:
        raise ConfigError("[market] needs either (mu, sigma) or decay")
    if has_pair:
        params = MarketParams.from_drift_vol(vals["mu"], vals["sigma"])
        if "decay" in vals and abs(vals["decay"] - params.decay) > 1e-12 * (1.0 + abs(params.decay)):
            raise ConfigError(
                f"market.decay = {vals['decay']!r} is inconsistent with mu and sigma "
                f"(expected {params.decay!r})"
            )
        return params
    return MarketParams.from_decay(vals["decay"])


def _build(section: str, items: dict, cls):
    kinds, required = _SCHEMAS[cls]
    vals = _parse_items(section, items, kinds)
    missing = required - set(vals)
    if missing:
        raise ConfigError(f"[{section}] missing key(s): {sorted(missing)}")
    return cls(**vals)


def impact_from_config(mapping) -> ImpactModel:
    """Build an impact model from its [impact] section: `family` picks the
    family's dataclass, whose init fields are the other keys."""
    items = {str(k): str(v) for k, v in dict(mapping).items()}
    family = items.pop("family", None)
    if family not in _IMPACT_FAMILIES:
        raise ConfigError(f"[impact] family = {family!r}: choose from {sorted(_IMPACT_FAMILIES)}")
    try:
        return _build("impact", items, _IMPACT_FAMILIES[family])
    except ValueError as exc:  # the family's own parameter checks
        raise ConfigError(f"[impact]: {exc}") from None


def build_run_config(mapping: dict) -> RunConfig:
    """Validate a raw section mapping and materialize all defaults."""
    unknown = set(mapping) - set(_SECTIONS) - {"impact", "market"}
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")

    model = impact_from_config(mapping["impact"]) if "impact" in mapping else None
    market = _parse_market(mapping["market"]) if "market" in mapping else None
    # a section with required keys (only [problem]) stays None when absent
    settings = {
        s: _build(s, mapping.get(s, {}), cls) if s in mapping or not _SCHEMAS[cls][1] else None
        for s, cls in _SECTIONS.items()
    }
    return RunConfig(model=model, market=market, **settings)
