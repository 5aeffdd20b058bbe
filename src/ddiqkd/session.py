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
3. the misalignment flips of each such pulse, Bin(R, e_mis);
4. one uniform per registered photon, routing it to a detector by the
   cumulative click distribution of its (possibly flipped) state;
5. per detector, a dark total Bin(n, p_dark) and that many distinct pulses;
6. one setting code per pulse with a dark count and R = 0, in pulse order;
7. U for every pulse of the union of 1 and 5, in pulse order;
8. one multinomial over the n - |union| untouched pulses with cells
   (matched, U = 0), (matched, U = 1), (matched, U >= 2) and unmatched, at
   e^-m / 2, m e^-m / 2, (1 - e^-m - m e^-m) / 2 and 1/2, m = mu (1 - eta).

Click patterns, sifting and tallies are built on the union only.  No array
of length n is allocated, except inside the dark-count draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsm import DetectorParams, ideal_bsm_distribution
from .channel import ChannelParams, poisson_pn, transmittance
from .encoding import (
    ALICE_SETTINGS,
    Basis,
    PathSetting,
    apply_lon,
    bb84_state,
    flip_detectors,
)
from .rates import YieldTable, _check_protocol, binary_entropy

__all__ = [
    "sift",
    "SessionParams",
    "SessionReport",
    "run_session",
    "projected_qber_from_visibility",
]

_PATH_ORDER = (PathSetting.A, PathSetting.C, PathSetting.B0, PathSetting.BPI)


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
    q: float = 1.0
    f_ec: float = 1.16
    shard_size: int = 1_000_000

    def __post_init__(self):
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        if not 0 < self.mu < np.inf:  # NaN fails too
            raise ValueError("mu must be positive and finite")
        _check_protocol(self.q, self.f_ec)
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
        """max{.,0} key terms per detector with q=1, from tallies + exact yields."""
        eta = self.params.detector.eta_det * transmittance(self.params.channel)
        exact = YieldTable(eta=eta, e_mis=self.params.channel.e_mis,
                           p_dark=self.params.detector.p_dark)
        p0 = poisson_pn(self.params.mu, 0)
        p1 = poisson_pn(self.params.mu, 1)
        gains = self.gains()
        qbers = self.qbers()
        terms = np.zeros(4)
        for i in range(4):
            if gains[i] == 0.0:
                continue  # no observed detections, nothing to distill
            privacy = p0 * exact.y0[i] + p1 * exact.y1[i] * (1.0 - binary_entropy(exact.e1[i]))
            correction = gains[i] * self.params.f_ec * binary_entropy(float(qbers[i]))
            terms[i] = max(privacy - correction, 0.0)
        return terms

    @property
    def q_sift_effective(self) -> float:
        return self.matched_pulses / self.params.n_pulses

    @property
    def secret_key_length(self) -> float:
        """Asymptotic secret bits extractable from this session's tallies."""
        return float(self.matched_pulses * self._per_detector_rate_terms().sum())

    @property
    def rate_per_pulse(self) -> float:
        """Secret bits per emitted pulse at the configured protocol efficiency q."""
        return float(self.params.q * self._per_detector_rate_terms().sum())

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
                "q": self.params.q,
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
                "q_config": self.params.q,
                "q_sift_effective": self.q_sift_effective,
                "secret_key_length": self.secret_key_length,
                "rate_per_pulse": self.rate_per_pulse,
            },
        }


def _routing_matrix() -> np.ndarray:
    """Ideal click distributions for all (Alice state, Bob setting) pairs."""
    route = np.zeros((4, 4, 4))
    for s, alice in enumerate(ALICE_SETTINGS):
        for p, bob in enumerate(_PATH_ORDER):
            dist = ideal_bsm_distribution(apply_lon(bob, bb84_state(alice)))
            dist[dist < 1e-12] = 0.0
            route[s, p] = dist / dist.sum()  # exact simplex row
    return route


# Bob flips his bit when detector d (0-based) clicks in basis b: _FLIP[b, d]
_FLIP = np.array([[d in flip_detectors(basis) for d in (1, 2, 3, 4)]
                  for basis in (Basis.RECTILINEAR, Basis.DIAGONAL)])

# clicking detector (0-based) of a 4-bit click pattern; -1 unless exactly one bit is set
_LONE_CLICK = np.full(16, -1, dtype=np.int8)
_LONE_CLICK[[1, 2, 4, 8]] = np.arange(4)


def sift(code: np.ndarray, detector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sift lone clicks, by setting code and 0-based clicking detector.

    ``code = 4 * alice_state + bob_setting`` in the orders of ALICE_SETTINGS
    and ``_PATH_ORDER``.  Returns (basis matched, Bob's bit after the flip
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

    The draws follow the order in the module docstring.
    """
    params = report.params
    eta = transmittance(params.channel) * params.detector.eta_det
    m = params.mu * (1.0 - eta)  # mean unregistered photons per pulse
    p_dark = params.detector.p_dark

    # registered photons: a Poisson total, each photon on a uniform pulse
    total = rng.poisson(n * params.mu * eta)
    rows, registered = np.unique(rng.integers(0, n, total), return_counts=True)
    code = rng.integers(0, 16, rows.size, dtype=np.uint8)
    flipped = rng.binomial(registered, params.channel.e_mis)

    # one code per photon, row by row; the first `flipped` photons of a row are
    # its flipped ones, routed as state s ^ 1 (code bit 2 toggled)
    flip_bit = np.repeat(np.tile(np.uint8([4, 0]), rows.size),
                         np.column_stack([flipped, registered - flipped]).ravel())
    group = np.repeat(code, registered) ^ flip_bit
    u = rng.random(group.size)
    detector = np.zeros(group.size, dtype=np.uint8)
    for edge in np.cumsum(route.reshape(16, 4), axis=1).T[:3]:
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
    route = _routing_matrix()
    remaining = params.n_pulses
    shard = 0
    while remaining > 0:
        n = min(params.shard_size, remaining)
        rng = np.random.default_rng([seed, shard])
        _run_shard(report, n, rng, route)
        remaining -= n
        shard += 1
    return report
