"""Run configuration: INI files with one section per subcommand.

A run is reproducible from (config, seed) alone, so everything the
estimators need must be expressible here.  Law strings use a small
call-like grammar, e.g. ``exp(1)``, ``pareto(2,1)``, ``uniform(-1,1)``,
with an optional additive shift suffix: ``pareto(2,1)-2``.
"""

from __future__ import annotations

import configparser
import io
import re

from .distributions import DistFn, make_distribution, shifted
from .errors import InvalidArgumentError, InvalidSpecError
from .processes import (
    IIDSpec,
    LindleySpec,
    MetropolisSpec,
    MixtureSpec,
    MovingMaxSpec,
    ProcessSpec,
)

__all__ = [
    "DEFAULTS",
    "parse_law",
    "load_config",
    "print_defaults",
    "build_spec",
    "parse_int_list",
    "parse_number",
]

DEFAULTS: dict[str, dict[str, str]] = {
    "common": {
        "seed": "20260814",
        "gamma": "0.36787944117144233",
        "replicas": "1000",
        "workers": "1",
        "out": "phantomdf-out",
    },
    "simulate": {
        "kind": "lindley",
        "step": "pareto(2,1)-2",
        "length": "100000",
    },
    "phantom-fit": {
        "kind": "iid",
        "marginal": "exp(1)",
        "block_sizes": "100,1000,10000",
        "bt_T": "2.0",
    },
    "verify": {
        "phantom": "phantom.txt",
        "kind": "iid",
        "marginal": "exp(1)",
        "block_sizes": "100,1000",
    },
    "bt-check": {
        "kind": "iid",
        "marginal": "exp(1)",
        "block_sizes": "100,1000",
        "T": "2.0",
    },
    "regen": {
        "step": "pareto(2,1)-2",
        "length": "1000000",
        "verify_blocks": "1000,10000",
    },
    "rates": {
        "kind": "theta",
        "b": "1.0",
        "beta": "4.0",
        "mixing": "",      # e.g. m_dependent(2) | exponential(0.5) | polynomial(4)
        "delta0": "false",
        "delta_xi": "",    # e.g. 0.1:true,0.3:false
    },
    "extremal-index": {
        "kind": "moving_max",
        "window": "2",
        "base": "uniform(0,1)",
        "block_sizes": "100,1000,10000",
        "method": "auto",
    },
    "acceptance": {
        "criteria": "all",
    },
}

_SPEC_KEYS = {
    "iid": ("marginal",),
    "lindley": ("step",),
    "metropolis": ("target", "proposal"),
    "mixture": (),
    "moving_max": ("window", "base"),
}

_LAW_RE = re.compile(
    r"^\s*([a-z_][a-z_0-9]*)\s*\(([^()]*)\)\s*(?:(?P<sign>[+-])\s*(?P<off>[0-9.eE+-]+))?\s*$",
    re.IGNORECASE,
)


def parse_law(text: str) -> DistFn:
    """Parse a catalog law string, optionally with an additive shift."""
    m = _LAW_RE.match(text)
    if m is None:
        raise InvalidArgumentError(f"cannot parse law string {text!r}")

    def number(piece: str) -> float:
        try:
            return float(piece)
        except ValueError:
            raise InvalidArgumentError(
                f"bad numeric argument {piece!r} in {text!r}") from None

    name, argtext = m.group(1), m.group(2).strip()
    args = [number(piece) for piece in argtext.split(",")] if argtext else []
    dist = make_distribution(name, *args)
    if m.group("off") is not None:
        off = number(m.group("off"))
        dist = shifted(dist, -off if m.group("sign") == "-" else off)
    return dist


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise InvalidArgumentError(f"bad integer list {text!r}") from None


def parse_number(key: str, text: str | None, kind: type = int) -> int | float:
    """``text``, the config value of ``key``, as ``kind`` (int or float); a
    malformed value raises an error that names the key."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise InvalidArgumentError(f"{key} must be {what}, got {text!r}") from None


def _parser_with_defaults() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(DEFAULTS)
    return cp


def load_config(path: str | None = None) -> configparser.ConfigParser:
    """Defaults overlaid with an optional INI file."""
    cp = _parser_with_defaults()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read config {path!r}: {exc}") from None
        except configparser.Error as exc:
            raise InvalidArgumentError(f"malformed config {path!r}: {exc}") from None
    return cp


def print_defaults() -> str:
    cp = _parser_with_defaults()
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def build_spec(section: configparser.SectionProxy) -> ProcessSpec:
    """Process spec from a config section holding kind plus per-kind keys."""
    kind = section.get("kind", "iid").strip().lower().replace("-", "_")
    if kind not in _SPEC_KEYS:
        raise InvalidSpecError(
            f"unknown process kind {kind!r}; one of {sorted(_SPEC_KEYS)}")
    missing = [k for k in _SPEC_KEYS[kind] if k not in section]
    if missing:
        raise InvalidSpecError(f"{kind} spec needs keys {missing}")
    if kind == "iid":
        return IIDSpec(marginal=parse_law(section["marginal"]))
    if kind == "lindley":
        return LindleySpec(step=parse_law(section["step"]))
    if kind == "metropolis":
        init = section.get("init", "").strip()
        return MetropolisSpec(target=parse_law(section["target"]),
                              proposal=parse_law(section["proposal"]),
                              init=parse_number("init", init, float) if init else None)
    if kind == "mixture":
        return MixtureSpec()
    window = parse_number("window", section.get("window", "2"))
    return MovingMaxSpec(window=window, base=parse_law(section["base"]))
