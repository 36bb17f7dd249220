"""Command-line front end, generated from the subcommand records in ``lab``.

A JSON file enters a run only through ``--config``: it carries the
subcommand's own keys plus ``out_dir``, and flags win over file keys.  Exit
codes: 0 when every invoked experiment passes, 1 when any fails, 2 on a
config problem (a bad flag or file key, or a range that leaves a fit
nothing to fit), 3 when a resource or convergence limit trips.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import lab
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    ResourceLimitError,
    TruncationError,
)

_RUN_KEYS = {"out_dir": None}


@dataclass
class RunConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    out_dir: str | None = None


# ---------------------------------------------------------------------------
# flag / file parsing


def build_parser():
    top = argparse.ArgumentParser(
        prog="equiweyl",
        description="numerical experiments on reduced spectral asymptotics",
    )
    sub = top.add_subparsers(dest="experiment", required=True)
    for command in lab.COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        # every option defaults to None so that "was it given on the command
        # line" stays decidable; the records hold the real defaults
        for param in command.params:
            kind = (dict(action="store_true", default=None) if param.switch
                    else dict(type=param.parse, choices=param.choices))
            p.add_argument(param.flag, dest=param.key, help=param.help, **kind)
        p.add_argument("--config", help="JSON file; flags override its keys")
        p.add_argument("--out-dir", dest="out_dir",
                       help="write <experiment>.json/.csv report pairs here")
    return top


def _load_config_file(path, allowed):
    """allowed: key -> Param (None for keys outside the records).  A key may
    also be spelled as its flag, e.g. "lambda" for lambda_top."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r}: top level must be an object")
    aliases = {p.flag[2:].replace("-", "_"): key for key, p in allowed.items() if p}
    out = {}
    violations = []
    for key, value in raw.items():
        norm = key.replace("-", "_")
        norm = aliases.get(norm, norm)
        if norm not in allowed:
            violations.append(
                f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")
            continue
        param = allowed[norm]
        if param is not None and param.parse is not None and isinstance(value, str):
            try:
                value = param.parse(value)
            except ValueError as exc:
                violations.append(f"key {key!r}: {exc}")
                continue
        out[norm] = value
    if violations:
        raise ConfigError("; ".join(violations))
    return out


def _validate(command, params):
    bad = []
    for param in command.params:
        key, value = param.key, params[param.key]
        if value is None:
            continue
        if param.choices is not None and value not in param.choices:
            bad.append(f"{key} must be one of {', '.join(param.choices)}, got {value!r}")
        if param.check is not None:
            bad.extend(param.check(key, value))
    if command.check is not None:
        bad.extend(command.check(params))
    if bad:
        raise ConfigError("; ".join(bad))


def parse_config(argv):
    """Flags (a list of strings) -> validated RunConfig.  A --config file
    fills the keys that no flag gives; a bad value of any key or of out_dir
    raises ConfigError."""
    given = vars(build_parser().parse_args(argv))
    command = lab.COMMANDS[given.pop("experiment")]
    path = given.pop("config")
    if path:
        own = {p.key: p for p in command.params}
        for key, value in _load_config_file(path, {**own, **_RUN_KEYS}).items():
            if given[key] is None:
                given[key] = value
    out_dir = given.pop("out_dir")
    if out_dir is None and command.name == "suite":
        out_dir = "reports"  # the suite always writes its reports
    params = command.resolve(given)
    _validate(command, params)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    return RunConfig(command.name, params, out_dir)


# ---------------------------------------------------------------------------
# dispatch


def _run(cfg):
    if cfg.experiment != "suite":
        return [lab.run_command(cfg.experiment, cfg.params)]
    p = cfg.params
    return lab.run_suite(None if p["all"] else p["names"])


def _summary_line(cfg, report):
    if cfg.experiment == "counting" and cfg.params["manifold"] == "sphere":
        row = next(r for r in report["series"] if r["grid"] == cfg.params["m"])
        count, predicted = int(row["measured"]), int(row["predicted"])
        return f"count={count} predicted={predicted} dev={count - predicted}"
    bits = [f"{report['experiment']}: {report['verdict']}"]
    # every failing check, with its measured value and bound
    bits += [f"{c['name']}={'none' if c['measured'] is None else format(c['measured'], '.6g')}"
             f" ({c['relation']} {c['bound']:.6g})" for c in report["checks"] if not c["pass"]]
    fit = report.get("fit")
    if fit:
        bits.append(f"slope={fit['slope']:.6g}")
    bits.append(f"runtime={report['runtime_s']:.2f}s")
    return " ".join(bits)


def main(argv=None):
    try:
        cfg = parse_config(list(sys.argv[1:]) if argv is None else argv)
        if cfg.out_dir is not None:  # before any run, so a bad path costs none
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except SystemExit as exc:
        # argparse already printed usage; normalize to the exit-code contract
        return int(exc.code or 0) and 2
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = _run(cfg)
    except (ResourceLimitError, ConvergenceError, TruncationError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, DegenerateDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(_summary_line(cfg, report))
    if cfg.out_dir is not None:
        for report in reports:
            lab.write_report(report, cfg.out_dir)
    return 0 if all(r["verdict"] == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
