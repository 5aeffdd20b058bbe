"""Batch command-line front end.

Subcommands: keyrate-curve, session, verify-appendix, theory-table.
Configuration comes from a flat ``key = value`` file plus command-line
overrides (overrides win); the two are merged and validated as one config.
A named subcommand builds only its own parser; the full four-command parser
handles everything else, arguments that parser leaves over included.
Exit codes: 0 success, 1 check failure, 2 usage or configuration error
(an ``--out`` file that cannot be written included).

Note on ``p_dark``: the configured value is the background count rate of a
reference two-detector receiver (the convention of the experimental
parameter set the defaults come from); each of the four detectors here dark
fires with probability p_dark / 2 per gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from functools import cached_property

from .bsm import THEORY_ROWS, theory_row_label, theory_table
from .rates import RateParams, keyrate_curve
from .session import SessionParams, run_session
from .verify import appendix_checks

__all__ = ["Config", "ConfigError", "main", "entry"]


class ConfigError(ValueError):
    pass


_INF = float("inf")  # a value is finite if it lies strictly within +-inf; NaN never does


@dataclass(frozen=True)
class Config:
    """Flat run configuration; defaults are the reference simulation values."""

    alpha_db_per_km: float = RateParams.alpha_db_per_km
    eta_det: float = RateParams.eta_det
    p_dark: float = 2 * RateParams.p_dark  # two-detector-receiver background rate
    e_mis: float = RateParams.e_mis
    f_ec: float = RateParams.f_ec
    mu: float = 0.7             # session signal intensity
    n_pulses: int = 1_000_000
    seed: int = 1
    distances: tuple[float, ...] = tuple(float(x) for x in range(0, 181, 10))
    visibility: float = 0.884

    def validate(self):
        """The CLI's own rules; the model's range checks run in session_params."""
        for name, kind in _FIELD_TYPES.items():
            if kind is float and not -_INF < getattr(self, name) < _INF:
                raise ConfigError(f"{name} must be finite")
        if not all(-_INF < d < _INF for d in self.distances):
            raise ConfigError("distances must be finite")
        if self.p_dark >= 1.0:  # receiver level; each detector takes p_dark / 2
            raise ConfigError("p_dark must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.distances or any(d < 0 for d in self.distances):
            raise ConfigError("distances must be nonempty and nonnegative")
        if sorted(self.distances) != list(self.distances):
            raise ConfigError("distances must be sorted ascending")
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError("visibility must be in [0, 1]")
        try:
            self.session_params
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def rate_params(self) -> RateParams:
        return RateParams(
            eta_det=self.eta_det,
            p_dark=self.p_dark / 2.0,  # per detector: half the receiver-level background
            alpha_db_per_km=self.alpha_db_per_km,
            e_mis=self.e_mis,
            f_ec=self.f_ec,
        )

    @cached_property
    def session_params(self) -> SessionParams:
        # built once per config: validate() builds it, and a session runs on it
        return SessionParams(
            n_pulses=self.n_pulses,
            mu=self.mu,
            length_km=self.distances[0],
            model=self.rate_params(),
        )


_FIELD_TYPES = {f.name: type(f.default) for f in fields(Config) if f.name != "distances"}


def _parse_distances(text: str, error: str) -> tuple[float, ...]:
    """Lengths from a comma-separated list; ``error`` is the ConfigError text."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(error) from None


def _config_updates(text: str) -> dict:
    """The fields that ``key = value`` lines set; '#' starts a comment."""
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "distances":
            updates[key] = _parse_distances(value, f"line {lineno}: bad distances list")
        elif key in _FIELD_TYPES:
            try:
                updates[key] = _FIELD_TYPES[key](value)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad value for {key}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return updates


def load_config(path: str | None, overrides: dict) -> Config:
    """The config file's fields with the non-None ``overrides`` over them."""
    updates = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        updates = _config_updates(text)
    flags = {k: v for k, v in overrides.items() if v is not None}
    if "distances" in flags:
        flags["distances"] = _parse_distances(flags["distances"], "bad --distances list")
    cfg = Config(**(updates | flags))  # one Config, validated once; flags win
    cfg.validate()
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout if none is given."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_keyrate_curve(cfg: Config, args: argparse.Namespace) -> int:
    curve = keyrate_curve(cfg.rate_params(), list(cfg.distances))
    lines = ["length_km,mu_opt,rate_proposal,rate_bb84"]
    columns = curve.length_km, curve.mu_opt, curve.rate_proposal, curve.rate_bb84
    # rows of Python floats, which format faster than numpy scalars
    for row in zip(*(column.tolist() for column in columns)):
        lines.append(",".join(map(_fmt, row)))
    _emit("\n".join(lines) + "\n", args.out)
    print(json.dumps(curve.summary(), sort_keys=True))
    return 0


def cmd_session(cfg: Config, args: argparse.Namespace) -> int:
    if args.distances is not None and len(cfg.distances) > 1:
        raise ConfigError("--distances takes one length for session")
    report = run_session(cfg.session_params, cfg.seed)
    _emit(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", args.out)
    if args.out:
        print(f"report written to {args.out}")
    return 0


def cmd_verify_appendix(cfg: Config, args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    results = appendix_checks(n_samples=args.samples, seed=cfg.seed,
                              corrupt_path_c_sign=args.self_test_corrupt)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status} {r.name}: max deviation {r.max_deviation:.3e} "
              f"(tolerance {r.tolerance:.0e}; {r.detail})")
    print("all checks passed" if all_ok else "CHECK FAILURE")
    return 0 if all_ok else 1


def cmd_theory_table(cfg: Config, args: argparse.Namespace) -> int:
    lines = ["visibility,state,D1,D2,D3,D4"]
    for vis in dict.fromkeys((cfg.visibility, 1.0)):  # once if the configured V is 1
        for (alice, bob), row in zip(THEORY_ROWS, theory_table(vis)):
            label = theory_row_label(alice, bob)
            lines.append(f"{_fmt(vis)},{label}," + ",".join(_fmt(x) for x in row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_FLAGS = {
    "--config": dict(metavar="PATH", help="flat key=value config file"),
    "--out": dict(metavar="PATH", help="output file (default: stdout)"),
    "--seed": dict(type=int, metavar="N"),
    "--mu": dict(type=float, metavar="X"),
    "--pulses": dict(type=int, metavar="N", dest="n_pulses"),
    "--distances": dict(metavar="KM,KM,...",
                        help="comma-separated channel lengths in km (session takes one)"),
    "--visibility": dict(type=float, metavar="V"),
    "--samples": dict(type=int, default=1000, help="random states per check (default 1000)"),
    "--self-test-corrupt": dict(action="store_true",
                                help="test mode: inject a sign error in the path-c "
                                     "branch to confirm the checks can fail; "
                                     "receiver-state-fixed and "
                                     "register-basis-independence fail"),
}

# (help, flags, handler) per subcommand; each accepts only the flags it
# reads, so none is dropped silently
_COMMANDS = {
    "keyrate-curve": ("optimized key rates vs distance for both protocols",
                      ("--config", "--out", "--distances"), cmd_keyrate_curve),
    "session": ("run one Monte Carlo session and write its report",
                ("--config", "--out", "--seed", "--mu", "--pulses", "--distances"), cmd_session),
    "verify-appendix": ("run the model consistency checks",
                        ("--config", "--seed", "--samples", "--self-test-corrupt"),
                        cmd_verify_appendix),
    "theory-table": ("click-probability table at the configured visibility",
                     ("--config", "--out", "--visibility"), cmd_theory_table),
}


def _add_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the flags of the subcommand ``name``."""
    for flag in _COMMANDS[name][1]:
        parser.add_argument(flag, **_FLAGS[flag])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The parser of all four subcommands."""
    parser = argparse.ArgumentParser(
        prog="ddiqkd",
        description="Simulation toolkit for a QKD protocol with an untrusted "
                    "Bell-state measurement behind a trusted path-encoding network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is not None:  # the parser that add_parser makes for it, alone
        own = _add_flags(argparse.ArgumentParser(prog=f"ddiqkd {command}"), command)
        args, rest = own.parse_known_args(argv[1:])
    if command is None or rest:
        # help, no command or arguments left over: the full parser prints what it always did
        args = _build_parser().parse_args(argv)
        command = args.command
    # a flag overrides the config field of its dest; fields without a flag read None
    overrides = {f.name: getattr(args, f.name, None) for f in fields(Config)}
    _, _, handler = _COMMANDS[command]
    try:
        return handler(load_config(args.config, overrides), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
