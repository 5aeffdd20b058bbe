"""End-to-end Monte Carlo of the protocol: settings, channel, measurement,
sifting, and asymptotic key accounting.

Large sessions are sharded; each shard draws from an independent stream
seeded by (seed, shard index) and tallies are merged by summation, so a
report depends only on the configuration and seed.  Error correction and
privacy amplification are accounted analytically (the sifted length is
shrunk by the usual f*h(E) and privacy terms), not executed as codes.

A shard is event-driven: only pulses with a registered photon or a dark
count are drawn one by one, and the rest of the shard is one multinomial of
counts.  Channel survival and detector registration are independent
per-photon thinnings, so with eta = t * eta_det a pulse's photon number is
n_sent = R + U, with independent R ~ Poisson(mu eta) registered and
U ~ Poisson(mu (1 - eta)) unregistered photons.  The stream is consumed in
this order:

1. the shard's registered total T ~ Poisson(n mu eta) and one uniform pulse
   in [0, n) per photon: the exact multinomial split of a Poisson total,
   so every pulse gets an independent R;
2. one setting code ``4 * alice_state + bob_setting`` in [0, 16) per pulse
   with R > 0, in pulse order;
3. one uniform per registered photon, routing it to a detector by the
   cumulative row of its code in the misalignment-mixed click table
   ``bsm.click_table(e_mis)``;
4. per detector, a dark total Bin(n, p_dark) and that many distinct pulses;
5. one setting code per pulse with a dark count and R = 0, in pulse order;
6. U for every pulse of the union of 1 and 4, in pulse order;
7. one multinomial over the n - |union| untouched pulses with cells
   (matched, U = 0), (matched, U = 1), (matched, U >= 2) and unmatched, at
   e^-m / 2, m e^-m / 2, (1 - e^-m - m e^-m) / 2 and 1/2, m = mu (1 - eta).

Click patterns, sifting and tallies are built on the union only.  No array
of length n is allocated, except inside the dark-count draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsm import DetectorParams, click_table
from .channel import ChannelParams, transmittance
from .encoding import Basis, flip_detectors
from .rates import RateParams, _check_f_ec, _secret_rate, yield_table

__all__ = [
    "sift",
    "SessionParams",
    "SessionReport",
    "run_session",
    "projected_qber_from_visibility",
]

def projected_qber_from_visibility(visibility: float) -> float:
    """Error rate (1-V)/2 implied by an interference visibility V."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    return (1.0 - visibility) / 2.0


@dataclass(frozen=True)
class SessionParams:
    """Configuration of one Monte Carlo session (signal intensity only)."""

    n_pulses: int
    mu: float
    channel: ChannelParams
    detector: DetectorParams
    f_ec: float = 1.16
    shard_size: int = 1_000_000

    def __post_init__(self):
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        if not 0 < self.mu < np.inf:  # NaN fails too
            raise ValueError("mu must be positive and finite")
        _check_f_ec(self.f_ec)
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")


@dataclass
class SessionReport:
    """Tally sheet of one session plus asymptotic key accounting."""

    params: SessionParams
    seed: int
    matched_pulses: int = 0
    successes: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    errors: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    vacuum_pulses: int = 0
    vacuum_successes: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    single_pulses: int = 0
    single_successes: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    single_errors: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))

    @property
    def sifted_length(self) -> int:
        return int(self.successes.sum())

    def gains(self) -> np.ndarray:
        """Q_i estimates: lone-click fraction among basis-matched pulses."""
        if self.matched_pulses == 0:
            return np.zeros(4)
        return self.successes / self.matched_pulses

    def qbers(self) -> np.ndarray:
        """E_i estimates among sifted bits, per detector."""
        out = np.zeros(4)
        nz = self.successes > 0
        out[nz] = self.errors[nz] / self.successes[nz]
        return out

    def vacuum_yields(self) -> np.ndarray:
        if self.vacuum_pulses == 0:
            return np.zeros(4)
        return self.vacuum_successes / self.vacuum_pulses

    def single_yields(self) -> np.ndarray:
        if self.single_pulses == 0:
            return np.zeros(4)
        return self.single_successes / self.single_pulses

    def single_qbers(self) -> np.ndarray:
        out = np.zeros(4)
        nz = self.single_successes > 0
        out[nz] = self.single_errors[nz] / self.single_successes[nz]
        return out

    def _per_detector_rate_terms(self) -> np.ndarray:
        """max{.,0} key terms per detector: the tallied gains and error gains
        with the model's exact Y0, Y1 and e1.  A detector with no successes
        has nothing to distill and gives 0."""
        ch = self.params.channel
        model = RateParams(detector=self.params.detector, alpha_db_per_km=ch.alpha_db_per_km,
                           e_mis=ch.e_mis, f_ec=self.params.f_ec)
        exact = yield_table(model, ch.length_km)
        gains = self.gains()
        terms = _secret_rate(exact.y0, exact.y1, exact.e1, gains,
                             self.errors / max(self.matched_pulses, 1), self.params.mu, model)
        return np.where(gains > 0.0, np.maximum(terms, 0.0), 0.0)

    @property
    def q_sift_effective(self) -> float:
        return self.matched_pulses / self.params.n_pulses

    @property
    def secret_key_length(self) -> float:
        """Asymptotic secret bits extractable from this session's tallies."""
        return float(self.matched_pulses * self._per_detector_rate_terms().sum())

    @property
    def rate_per_pulse(self) -> float:
        """Secret bits per emitted pulse: secret_key_length / n_pulses."""
        return self.secret_key_length / self.params.n_pulses

    def to_dict(self) -> dict:
        ch, det = self.params.channel, self.params.detector
        return {
            "config": {
                "n_pulses": self.params.n_pulses,
                "mu": self.params.mu,
                "alpha_db_per_km": ch.alpha_db_per_km,
                "length_km": ch.length_km,
                "e_mis": ch.e_mis,
                "eta_det": det.eta_det,
                "p_dark_per_detector": det.p_dark,
                "f_ec": self.params.f_ec,
                "shard_size": self.params.shard_size,
            },
            "seed": self.seed,
            "matched_pulses": self.matched_pulses,
            "sifted_length": self.sifted_length,
            "per_detector": {
                "successes": self.successes.tolist(),
                "errors": self.errors.tolist(),
                "gains": self.gains().tolist(),
                "qbers": self.qbers().tolist(),
                "vacuum": {
                    "pulses": self.vacuum_pulses,
                    "successes": self.vacuum_successes.tolist(),
                    "yields": self.vacuum_yields().tolist(),
                },
                "single_photon": {
                    "pulses": self.single_pulses,
                    "successes": self.single_successes.tolist(),
                    "errors": self.single_errors.tolist(),
                    "yields": self.single_yields().tolist(),
                    "qbers": self.single_qbers().tolist(),
                },
            },
            "key": {
                "q_sift_effective": self.q_sift_effective,
                "secret_key_length": self.secret_key_length,
                "rate_per_pulse": self.rate_per_pulse,
            },
        }


# Bob flips his bit when detector d (0-based) clicks in basis b: _FLIP[b, d]
_FLIP = np.array([[d in flip_detectors(basis) for d in (1, 2, 3, 4)]
                  for basis in (Basis.RECTILINEAR, Basis.DIAGONAL)])

# clicking detector (0-based) of a 4-bit click pattern; -1 unless exactly one bit is set
_LONE_CLICK = np.full(16, -1, dtype=np.int8)
_LONE_CLICK[[1, 2, 4, 8]] = np.arange(4)


def sift(code: np.ndarray, detector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sift lone clicks, by setting code and 0-based clicking detector.

    ``code = 4 * alice_state + bob_setting`` in the orders of ALICE_SETTINGS
    and PATH_SETTINGS.  Returns (basis matched, Bob's bit after the flip
    rule ``_FLIP``); a pulse is kept where it is matched.
    """
    detector = np.asarray(detector)
    if not ((detector >= 0) & (detector <= 3)).all():
        raise ValueError("detector index must be in 0..3")
    bob_basis = (code >> 1) & 1
    matched = (code >> 3) == bob_basis
    return matched, (code & 1) ^ _FLIP[bob_basis, detector]


def _run_shard(report: SessionReport, n: int, rng: np.random.Generator, route: np.ndarray):
    """Simulate n pulses and add their tallies to ``report``.

    ``route`` is the 16x4 click table of the session's misalignment.  The
    draws follow the order in the module docstring.
    """
    params = report.params
    eta = transmittance(params.channel) * params.detector.eta_det
    m = params.mu * (1.0 - eta)  # mean unregistered photons per pulse
    p_dark = params.detector.p_dark

    # registered photons: a Poisson total, each photon on a uniform pulse
    total = rng.poisson(n * params.mu * eta)
    rows, registered = np.unique(rng.integers(0, n, total), return_counts=True)
    code = rng.integers(0, 16, rows.size, dtype=np.uint8)

    # route each photon by one uniform against its code's cumulative row
    group = np.repeat(code, registered)
    u = rng.random(group.size)
    detector = np.zeros(group.size, dtype=np.uint8)
    for edge in np.cumsum(route, axis=1).T[:3]:
        detector += u >= edge[group]
    mask = np.bitwise_or.reduceat(np.uint8(1) << detector, np.cumsum(registered) - registered)

    # dark counts: draw each detector's total, then scatter it over distinct pulses
    parts, bits = [rows], [mask]
    for col in range(4):
        k = int(rng.binomial(n, p_dark))
        parts.append(rng.choice(n, k, replace=False))
        bits.append(np.full(k, 1 << col, dtype=np.uint8))
    union, inverse = np.unique(np.concatenate(parts), return_inverse=True)
    pattern = np.zeros(union.size, dtype=np.uint8)
    np.bitwise_or.at(pattern, inverse, np.concatenate(bits))

    # settings and photon numbers of the union; a dark-only pulse registered nothing
    hit = inverse[:rows.size]
    n_sent = np.zeros(union.size, dtype=np.int64)
    n_sent[hit] = registered
    dark_only = n_sent == 0
    code_u = np.empty(union.size, dtype=np.uint8)
    code_u[hit] = code
    code_u[dark_only] = rng.integers(0, 16, int(dark_only.sum()), dtype=np.uint8)
    n_sent = np.minimum(n_sent + rng.poisson(m, union.size), 2)

    # matched pulses with 0, 1, >= 2 photons: the union's counted, the untouched
    # pulses' drawn as one multinomial over (matched, U = 0), (matched, U = 1),
    # (matched, U >= 2) and unmatched; half of the 16 setting codes are matched
    matched, _ = sift(code_u, 0)
    p0, p1 = np.exp(-m), m * np.exp(-m)
    rest = rng.multinomial(n - union.size, [p0 / 2, p1 / 2, (-np.expm1(-m) - p1) / 2, 0.5])
    pulses = np.bincount(n_sent[matched], minlength=3) + rest[:3]
    report.matched_pulses += int(pulses.sum())
    report.vacuum_pulses += int(pulses[0])
    report.single_pulses += int(pulses[1])

    lone = _LONE_CLICK[pattern]
    sel = lone >= 0
    c, detector = code_u[sel], lone[sel]
    matched, bob_bit = sift(c, detector)
    error = bob_bit != ((c >> 2) & 1)
    # (min(n_sent, 2), error, detector) histogram of the sifted lone clicks
    key = 8 * n_sent[sel] + 4 * error + detector
    tally = np.bincount(key[matched], minlength=24).reshape(3, 2, 4)
    report.successes += tally.sum(axis=(0, 1))
    report.errors += tally[:, 1].sum(axis=0)
    report.vacuum_successes += tally[0].sum(axis=0)
    report.single_successes += tally[1].sum(axis=0)
    report.single_errors += tally[1, 1]


def run_session(params: SessionParams, seed: int) -> SessionReport:
    """Run a full session; deterministic given (params, seed)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    report = SessionReport(params=params, seed=seed)
    route = click_table(params.channel.e_mis)
    remaining = params.n_pulses
    shard = 0
    while remaining > 0:
        n = min(params.shard_size, remaining)
        rng = np.random.default_rng([seed, shard])
        _run_shard(report, n, rng, route)
        remaining -= n
        shard += 1
    return report
