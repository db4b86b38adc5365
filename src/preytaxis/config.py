"""Line-oriented run configuration: "key = value" with dotted keys.

Blank lines and "#" comments are ignored; unknown or duplicate keys are
hard errors with the offending line number.  Every key has a default, so
the empty string parses to a small valid 1-D run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dynamics import SAMPLE_BUDGET, State, TaxisScheme
from .grid import Field, Grid
from .model import ModelParams

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "InitialCondition",
    "RunConfig",
    "parse_items",
    "build_config",
    "parse_config",
    "initial_state",
    "scenario_items",
    "DEFAULTS",
    "SWEEPABLE_KEYS",
    "SAMPLE_BUDGET",
]


class ConfigError(Exception):
    """Base class for configuration problems (CLI exit code 3)."""


class ParseError(ConfigError):
    """Malformed line, unknown key, or duplicate key."""


class ValidationError(ConfigError):
    """Syntactically fine but violates a value constraint."""


DEFAULTS: dict[str, str] = {
    "params.d1": "1.0",
    "params.d2": "1.0",
    "params.m1": "1.0",
    "params.m2": "2.0",
    "params.chi": "1.0",
    "params.a": "1.0",
    "params.b": "1.0",
    "params.eps": "0.0",
    "grid.dim": "1",
    "grid.n": "64",
    "grid.length": "1.0",
    "scheme.taxis": "upwind",
    "initial.kind": "constant",
    "initial.u_base": "1.0",
    "initial.u_amp": "0.0",
    "initial.v_base": "1.0",
    "initial.v_amp": "0.0",
    "run.t_end": "1.0",
    "run.sample_every": "0.1",
    "run.seed": "0",
    "output.dir": "out",
}

# Keys a sweep may vary: numeric scalars only.
SWEEPABLE_KEYS = frozenset(
    k
    for k in DEFAULTS
    if k.split(".")[-1] not in ("taxis", "kind", "dir", "dim", "n", "length", "seed")
)


@dataclass(frozen=True)
class InitialCondition:
    """Named recipe with amplitudes.

    constant: flat profiles u_base / v_base.
    cosine:   base + amp * prod_axes cos(pi x / L); needs base > amp >= 0
              so the profile stays strictly positive.
    """

    kind: str
    u_base: float
    u_amp: float
    v_base: float
    v_amp: float


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    grid: Grid
    taxis: TaxisScheme
    initial: InitialCondition
    t_end: float
    sample_every: float
    out_dir: str
    seed: int
    items: dict[str, str]  # effective key -> raw value echo


def parse_items(text: str) -> dict[str, str]:
    """Parse config text to a raw {dotted key: value} mapping."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value' (got {raw.strip()!r})")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in items:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ParseError(f"line {lineno}: empty value for {key!r}")
        items[key] = value
    return items


def _float(items, key) -> float:
    raw = items[key]
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{key} must be a number (got {raw!r})") from None
    if not math.isfinite(value):
        raise ValidationError(f"{key} must be finite (got {raw!r})")
    return value


def _int(items, key) -> int:
    raw = items[key]
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{key} must be an integer (got {raw!r})") from None


def _tuple(items, key, dim, cast) -> tuple:
    """Comma-separated int or float values; a single value applies to every axis."""
    try:
        values = tuple(cast(s.strip()) for s in items[key].split(","))
    except ValueError:
        noun = "integers" if cast is int else "numbers"
        raise ValidationError(f"{key} must be {noun} (got {items[key]!r})") from None
    if len(values) == 1:
        return values * dim
    if len(values) != dim:
        raise ValidationError(f"{key} needs 1 or {dim} entries (got {items[key]!r})")
    return values


def build_config(items: dict[str, str]) -> RunConfig:
    """Fill defaults, validate every value, and assemble a RunConfig."""
    unknown = set(items) - set(DEFAULTS)
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    merged = dict(DEFAULTS)
    merged.update(items)

    try:
        params = ModelParams(
            d1=_float(merged, "params.d1"),
            d2=_float(merged, "params.d2"),
            m1=_float(merged, "params.m1"),
            m2=_float(merged, "params.m2"),
            chi=_float(merged, "params.chi"),
            a=_float(merged, "params.a"),
            b=_float(merged, "params.b"),
            eps=_float(merged, "params.eps"),
        )
    except ValueError as exc:
        raise ValidationError(f"params: {exc}") from None

    dim = _int(merged, "grid.dim")
    if dim not in (1, 2):
        raise ValidationError(f"grid.dim must be 1 or 2 (got {dim})")
    try:
        grid = Grid(_tuple(merged, "grid.n", dim, int), _tuple(merged, "grid.length", dim, float))
    except ValueError as exc:
        raise ValidationError(f"grid: {exc}") from None

    taxis_raw = merged["scheme.taxis"].lower()
    try:
        taxis = TaxisScheme(taxis_raw)
    except ValueError:
        raise ValidationError(f"scheme.taxis must be 'upwind' or 'central' (got {taxis_raw!r})") from None

    kind = merged["initial.kind"].lower()
    if kind not in ("constant", "cosine"):
        raise ValidationError(f"initial.kind must be constant or cosine (got {kind!r})")
    initial = InitialCondition(
        kind=kind,
        u_base=_float(merged, "initial.u_base"),
        u_amp=_float(merged, "initial.u_amp"),
        v_base=_float(merged, "initial.v_base"),
        v_amp=_float(merged, "initial.v_amp"),
    )
    for species, base, amp in (("u", initial.u_base, initial.u_amp), ("v", initial.v_base, initial.v_amp)):
        if base <= 0:
            raise ValidationError(f"initial.{species}_base must be > 0 (got {base})")
        if amp < 0:
            raise ValidationError(f"initial.{species}_amp must be >= 0 (got {amp})")
        if kind == "cosine" and not base > amp:
            raise ValidationError(
                f"initial.{species}_base must exceed initial.{species}_amp for a positive cosine profile"
            )

    t_end = _float(merged, "run.t_end")
    if t_end <= 0:
        raise ValidationError(f"run.t_end must be > 0 (got {t_end})")
    sample_every = _float(merged, "run.sample_every")
    if sample_every <= 0:
        raise ValidationError(f"run.sample_every must be > 0 (got {sample_every})")
    if t_end / sample_every > SAMPLE_BUDGET:
        raise ValidationError(
            f"run.t_end / run.sample_every must be <= {SAMPLE_BUDGET:.0e} "
            f"(got {t_end / sample_every:.3g}); every sample keeps a record in memory"
        )

    return RunConfig(
        params=params,
        grid=grid,
        taxis=taxis,
        initial=initial,
        t_end=t_end,
        sample_every=sample_every,
        out_dir=merged["output.dir"],
        seed=_int(merged, "run.seed"),
        items=merged,
    )


def parse_config(text: str) -> RunConfig:
    return build_config(parse_items(text))


def scenario_items(name: str) -> dict[str, str]:
    """Parse one of the scenario files shipped with the package."""
    root = resources.files(__package__) / "scenarios"
    path = root / f"{name}.cfg"
    try:
        text = path.read_text()
    except FileNotFoundError:
        available = sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))
        raise ConfigError(f"unknown scenario {name!r} (have: {', '.join(available)})") from None
    return parse_items(text)


def initial_state(config: RunConfig) -> State:
    """Evaluate the named recipe at the cell centers.

    The seed is reserved for randomized recipes and echoed into the
    manifest; both named recipes are deterministic.
    """
    g = config.grid
    ic = config.initial
    if ic.kind == "constant":
        u = np.full(g.n, ic.u_base)
        v = np.full(g.n, ic.v_base)
    else:  # cosine
        mode = np.ones(g.n)
        for ax, x in enumerate(g.meshcenters()):
            mode = mode * np.cos(np.pi * x / g.length[ax])
        u = ic.u_base + ic.u_amp * mode
        v = ic.v_base + ic.v_amp * mode
    return State(Field(g, u), Field(g, v), 0.0)
