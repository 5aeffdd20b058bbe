"""Batch command-line front end.

Subcommands: keyrate-curve, session, verify-appendix, theory-table.
Configuration comes from a flat ``key = value`` file plus command-line
overrides (overrides win).  Exit codes: 0 success, 1 check failure,
2 usage or configuration error.

Note on ``p_dark``: the configured value is the background count rate of a
reference two-detector receiver (the convention of the experimental
parameter set the defaults come from); each of the four detectors here dark
fires with probability p_dark / 2 per gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace

from .bsm import THEORY_ROWS, DetectorParams, theory_row_label, theory_table
from .channel import ChannelParams
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

    alpha_db_per_km: float = 0.2
    eta_det: float = 0.145
    p_dark: float = 6.02e-6     # two-detector-receiver background rate
    e_mis: float = 0.015
    f_ec: float = 1.16
    q: float = 1.0
    mu: float | None = None     # session signal intensity; None = 0.7
    n_pulses: int = 1_000_000
    seed: int = 1
    distances: tuple[float, ...] = tuple(float(x) for x in range(0, 181, 10))
    visibility: float = 0.884

    def validate(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and value is not None and not -_INF < value < _INF:
                raise ConfigError(f"{name} must be finite")
        if not all(-_INF < d < _INF for d in self.distances):
            raise ConfigError("distances must be finite")
        if self.alpha_db_per_km < 0:
            raise ConfigError("alpha_db_per_km must be nonnegative")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ConfigError("eta_det must be in [0, 1]")
        if not 0.0 <= self.p_dark < 1.0:
            raise ConfigError("p_dark must be in [0, 1)")
        if not 0.0 <= self.e_mis <= 0.5:
            raise ConfigError("e_mis must be in [0, 0.5]")
        if self.f_ec < 1.0:
            raise ConfigError("f_ec must be >= 1")
        if not 0.0 < self.q <= 1.0:
            raise ConfigError("q must be in (0, 1]")
        if self.mu is not None and self.mu <= 0:
            raise ConfigError("mu must be positive")
        if self.n_pulses < 1:
            raise ConfigError("n_pulses must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.distances or any(d < 0 for d in self.distances):
            raise ConfigError("distances must be nonempty and nonnegative")
        if sorted(self.distances) != list(self.distances):
            raise ConfigError("distances must be sorted ascending")
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError("visibility must be in [0, 1]")

    def detector_params(self) -> DetectorParams:
        # per-detector dark probability: half the receiver-level background
        return DetectorParams(eta_det=self.eta_det, p_dark=self.p_dark / 2.0)

    def rate_params(self) -> RateParams:
        return RateParams(
            detector=self.detector_params(),
            alpha_db_per_km=self.alpha_db_per_km,
            e_mis=self.e_mis,
            q=self.q,
            f_ec=self.f_ec,
        )

    def session_params(self) -> SessionParams:
        return SessionParams(
            n_pulses=self.n_pulses,
            mu=self.mu if self.mu is not None else 0.7,
            channel=ChannelParams(self.alpha_db_per_km, self.distances[0], self.e_mis),
            detector=self.detector_params(),
            f_ec=self.f_ec,
        )

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "distances":
                value = ",".join(f"{d:g}" for d in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {
    "alpha_db_per_km": float,
    "eta_det": float,
    "p_dark": float,
    "e_mis": float,
    "f_ec": float,
    "q": float,
    "mu": float,
    "n_pulses": int,
    "seed": int,
    "visibility": float,
}


def parse_config_text(text: str, base: Config | None = None) -> Config:
    """Parse ``key = value`` lines; '#' starts a comment."""
    cfg = base or Config()
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
            try:
                updates[key] = tuple(float(x) for x in value.split(","))
            except ValueError:
                raise ConfigError(f"line {lineno}: bad distances list") from None
        elif key in _FIELD_TYPES:
            try:
                updates[key] = _FIELD_TYPES[key](value)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad value for {key}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def load_config(path: str | None, overrides: dict) -> Config:
    cfg = Config()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = parse_config_text(fh.read(), cfg)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    updates = {k: v for k, v in overrides.items() if v is not None}
    if "distances" in updates:
        try:
            updates["distances"] = tuple(float(x) for x in updates["distances"].split(","))
        except ValueError:
            raise ConfigError("bad --distances list") from None
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_keyrate_curve(cfg: Config, out: str | None) -> int:
    params = cfg.rate_params()
    curve = keyrate_curve(params, list(cfg.distances))
    lines = ["length_km,mu_opt,rate_proposal,rate_bb84"]
    for p in curve.points:
        lines.append(
            f"{_fmt(p.length_km)},{_fmt(p.mu_opt)},{_fmt(p.rate_proposal)},{_fmt(p.rate_bb84)}"
        )
    csv_text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(json.dumps(curve.summary(), sort_keys=True))
    return 0


def cmd_session(cfg: Config, out: str | None) -> int:
    report = run_session(cfg.session_params(), cfg.seed)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_appendix(cfg: Config, samples: int, corrupt: bool) -> int:
    results = appendix_checks(n_samples=samples, seed=cfg.seed,
                              corrupt_path_c_sign=corrupt)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status} {r.name}: max deviation {r.max_deviation:.3e} "
              f"(tolerance {r.tolerance:.0e}; {r.detail})")
    print("all checks passed" if all_ok else "CHECK FAILURE")
    return 0 if all_ok else 1


def cmd_theory_table(cfg: Config, out: str | None) -> int:
    lines = ["visibility,state,D1,D2,D3,D4"]
    for vis in (cfg.visibility, 1.0):
        table = theory_table(vis)
        for (alice, bob), row in zip(THEORY_ROWS, table):
            label = theory_row_label(alice, bob)
            lines.append(f"{_fmt(vis)},{label}," + ",".join(_fmt(x) for x in row))
        if vis == 1.0:
            break  # configured visibility may itself be 1
    csv_text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


_FLAGS = {
    "--config": dict(metavar="PATH", help="flat key=value config file"),
    "--out": dict(metavar="PATH", help="output file (default: stdout)"),
    "--seed": dict(type=int, metavar="N"),
    "--mu": dict(type=float, metavar="X"),
    "--pulses": dict(type=int, metavar="N", dest="n_pulses"),
    "--distances": dict(metavar="KM,KM,...", help="comma-separated channel lengths in km"),
    "--visibility": dict(type=float, metavar="V"),
    "--samples": dict(type=int, default=1000, help="random states per check (default 1000)"),
    "--self-test-corrupt": dict(action="store_true",
                                help="test mode: inject a sign error in the path-c "
                                     "branch to confirm the checks can fail"),
}

# each subcommand accepts only the flags it reads, so none is dropped silently
_COMMANDS = {
    "keyrate-curve": ("optimized key rates vs distance for both protocols",
                      ("--config", "--out", "--distances")),
    "session": ("run one Monte Carlo session and write its report",
                ("--config", "--out", "--seed", "--mu", "--pulses", "--distances")),
    "verify-appendix": ("run the model consistency checks",
                        ("--config", "--seed", "--samples", "--self-test-corrupt")),
    "theory-table": ("click-probability table at the configured visibility",
                     ("--config", "--out", "--visibility")),
}

_OVERRIDES = ("seed", "mu", "n_pulses", "distances", "visibility")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddiqkd",
        description="Simulation toolkit for a QKD protocol with an untrusted "
                    "Bell-state measurement behind a trusted path-encoding network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key, None) for key in _OVERRIDES}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "keyrate-curve":
        return cmd_keyrate_curve(cfg, args.out)
    if args.command == "session":
        return cmd_session(cfg, args.out)
    if args.command == "verify-appendix":
        return cmd_verify_appendix(cfg, args.samples, args.self_test_corrupt)
    if args.command == "theory-table":
        return cmd_theory_table(cfg, args.out)
    return 2  # unreachable with required subparsers


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
