"""End-to-end Monte Carlo of the protocol: settings, channel, measurement,
sifting, and asymptotic key accounting.

A session draws all its counts at once from the stream
``default_rng([seed, 0])``, so a report depends only on the configuration
and seed.  Error correction and privacy amplification are accounted
analytically (the sifted length is shrunk by the usual f*h(E) and privacy
terms), not executed as codes.

Pulses are independent and identically distributed and a session reads 28
counts, so it is one multinomial of its n pulses over 28 cells,
sampled from the exact per-pulse distribution.  For each photon
class k = min(n_sent, 2) = 0, 1, 2 in turn come the eight sifted lone
clicks (error 0 on D1..D4, then error 1 on D1..D4) and one cell of
basis-matched pulses that are not sifted (no click or several); the last
cell holds the unmatched pulses, with probability exactly 1/2.  A report
is the (3, 9) array of the 27 matched cells: every tally it gives, per
detector and photon class, is a sum of them.

The cell probabilities are exact.  Of the 16 setting codes, each detector
holds each role of ``channel.detector_routes(e_mis)`` in 4, with click
probability T: agreement (a lone click gives Bob Alice's bit) or error.
With eta = t * eta_det and x = mu eta, Poisson thinning of a pulse's
Poisson(mu) photons gives independent counts N ~ Poisson(x T) on the
detector, Poisson(x (1 - T)) on the other three and U ~ Poisson(mu (1 - eta))
unregistered, summing to n_sent; dark counts OR in as Bernoulli(p_dark).
A lone click needs the other three silent, (1 - p_dark)^3 exp(-x (1 - T)),
and the detector to fire; splitting N and U at 0, 1 and >= 2 photons gives
its class.  Each role's value, weighted 4/16, is a sifted cell of each of
D1..D4; a class's not-sifted cell is P(class k) / 2 less its sifted cells.
Every factor is a probability, so the table stays finite at any mu (the
form exp(-x) expm1(x T) would overflow once x T exceeds ~710).  One np.exp
and one np.expm1 call take the Poisson means; the rest is Python floats,
and so is the report: its tallies and ratios are Python ints and floats,
and its key calls numpy only for exp(-mu) and the log2 of the entropies.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._record import Record, ValueRecord
from .channel import RateParams, _eta, _ratio, _require, _secret_rate, _yield_terms, detector_routes

__all__ = ["SessionParams", "SessionReport", "run_session"]


class SessionParams(ValueRecord):
    """One Monte Carlo session (signal intensity only) over a fiber of
    length_km, with the device-and-fiber model ``model`` of the key rate.
    Lengths and loss coefficients are finite in the model's domain, so the
    report echoes both as JSON numbers.  ``eta``, eta_det times the channel
    transmittance, is computed once; it is not a field."""

    def __init__(self, n_pulses: int, mu: float, length_km: float, model: RateParams):
        # a numpy scalar comes back a Python number, which the report echoes in JSON
        n_pulses, mu, length_km = map(_require, ("n_pulses", "mu", "length_km"), (n_pulses, mu, length_km))
        eta = _eta(model, length_km)
        vars(self).update(n_pulses=n_pulses, mu=float(mu), length_km=length_km, model=model, eta=eta)


class SessionReport(Record):
    """One session's drawn counts plus asymptotic key accounting.

    ``counts`` is the (3, 9) array of basis-matched cells, in the order of
    the module docstring.  The tallies are sums of it, derived once when
    the report is made: ``matched_pulses``, ``vacuum_pulses`` and
    ``single_pulses``, and per detector ``successes``, ``errors``,
    ``vacuum_successes``, ``single_successes`` and ``single_errors``.
    All arrays are read-only."""

    def __init__(self, params: SessionParams, seed: int, counts: np.ndarray):
        counts = np.array(counts, dtype=np.int64)
        if counts.shape != (3, 9):
            raise ValueError("counts must be a (3, 9) array")
        counts.flags.writeable = False
        rows = counts.tolist()  # per photon class: error 0 on D1..D4, error 1 on D1..D4, not sifted
        pulses = list(map(sum, rows))  # matched pulses of each photon class
        wrong = [row[4:8] for row in rows]
        hits = [[a + b for a, b in zip(row[:4], errors)] for row, errors in zip(rows, wrong)]
        tallies = {"successes": list(map(sum, zip(*hits))), "errors": list(map(sum, zip(*wrong))),
                   "vacuum_successes": hits[0], "single_successes": hits[1], "single_errors": wrong[1]}
        arrays = np.array(list(tallies.values()), dtype=np.int64)
        arrays.flags.writeable = False  # and so are its rows, the tally attributes
        vars(self).update(zip(tallies, arrays), params=params, seed=seed, counts=counts, _tallies=tallies,
                          matched_pulses=sum(pulses), vacuum_pulses=pulses[0], single_pulses=pulses[1])

    @property
    def sifted_length(self) -> int:
        return sum(self._tallies["successes"])

    @cached_property
    def _ratios(self) -> dict:
        """The per-detector ratios, each a list of Python floats divided
        from the tallies as Python ints, and 0.0 where the denominator is 0:
        the one statement of each, read by the methods below and ``to_dict``.
        Below 2**53 a count converts exactly, so each quotient is numpy's."""
        t = self._tallies
        return {"gains": _ratio(t["successes"], [self.matched_pulses] * 4, 0.0),
                "qbers": _ratio(t["errors"], t["successes"], 0.0),
                "vacuum_yields": _ratio(t["vacuum_successes"], [self.vacuum_pulses] * 4, 0.0),
                "single_yields": _ratio(t["single_successes"], [self.single_pulses] * 4, 0.0),
                "single_qbers": _ratio(t["single_errors"], t["single_successes"], 0.0)}

    def gains(self) -> np.ndarray:
        """Q_i estimates: lone-click fraction among basis-matched pulses."""
        return np.array(self._ratios["gains"])

    def qbers(self) -> np.ndarray:
        """E_i estimates among sifted bits, per detector."""
        return np.array(self._ratios["qbers"])

    def vacuum_yields(self) -> np.ndarray:
        return np.array(self._ratios["vacuum_yields"])

    def single_yields(self) -> np.ndarray:
        return np.array(self._ratios["single_yields"])

    def single_qbers(self) -> np.ndarray:
        return np.array(self._ratios["single_qbers"])

    @property
    def q_sift_effective(self) -> float:
        return self.matched_pulses / self.params.n_pulses

    @cached_property
    def secret_key_length(self) -> float:
        """Asymptotic secret bits extractable from this session's tallies:
        matched pulses times the max{.,0} key terms per detector, from the
        tallied gains and error gains with the model's exact Y0, Y1 and e1.
        A detector with no successes has nothing to distill and gives 0."""
        params, gains, matched = self.params, self._ratios["gains"], self.matched_pulses
        y0, y1, _, k1 = _yield_terms(params.eta, params.model.e_mis, params.model.p_dark)
        per_pulse = float(max(matched, 1))  # each count a float before dividing, as numpy divides
        err_gains = [float(errors) / per_pulse for errors in self._tallies["errors"]]
        total = 0.0  # left to right, as numpy sums four items (Python 3.12's sum() compensates)
        for gain, term in zip(gains, _secret_rate(y0, y1, k1, gains, err_gains, params.mu, params.model)):
            total += term if gain > 0.0 and term > 0.0 else 0.0
        return matched * total

    @property
    def rate_per_pulse(self) -> float:
        """Secret bits per emitted pulse: secret_key_length / n_pulses."""
        return self.secret_key_length / self.params.n_pulses

    def to_dict(self) -> dict:
        params, model, ratios, tallies = self.params, self.params.model, self._ratios, self._tallies
        return {
            "config": {
                "n_pulses": params.n_pulses,
                "mu": params.mu,
                "alpha_db_per_km": model.alpha_db_per_km,
                "length_km": params.length_km,
                "e_mis": model.e_mis,
                "eta_det": model.eta_det,
                "p_dark_per_detector": model.p_dark,
                "f_ec": model.f_ec,
            },
            "seed": self.seed,
            "matched_pulses": self.matched_pulses,
            "sifted_length": self.sifted_length,
            "per_detector": {
                "successes": list(tallies["successes"]),
                "errors": list(tallies["errors"]),
                "gains": list(ratios["gains"]),
                "qbers": list(ratios["qbers"]),
                "vacuum": {
                    "pulses": self.vacuum_pulses,
                    "successes": list(tallies["vacuum_successes"]),
                    "yields": list(ratios["vacuum_yields"]),
                },
                "single_photon": {
                    "pulses": self.single_pulses,
                    "successes": list(tallies["single_successes"]),
                    "errors": list(tallies["single_errors"]),
                    "yields": list(ratios["single_yields"]),
                    "qbers": list(ratios["single_qbers"]),
                },
            },
            "key": {
                "q_sift_effective": self.q_sift_effective,
                "secret_key_length": self.secret_key_length,
                "rate_per_pulse": self.rate_per_pulse,
            },
        }


def _cell_probabilities(params: SessionParams) -> np.ndarray:
    """The 28 cell probabilities of one pulse, in the order of the module docstring."""
    d, mu, eta = params.model.p_dark, params.mu, float(params.eta)
    (right, right_rest), (wrong, wrong_rest) = detector_routes(params.model.e_mis)
    x = mu * eta
    # Poisson means: N on the detector in each role, U, the pulse; the other three in each role
    means = [x * right, x * wrong, mu * (1.0 - eta), mu, x * right_rest, x * wrong_rest]
    exps, expm1s = np.exp([-m for m in means]).tolist(), np.expm1([-m for m in means[:4]]).tolist()
    n_right, n_wrong, (u0, u1, u2), share = [(p, m * p, -q - m * p)  # P(0), P(1), P(>= 2) photons
                                             for m, p, q in zip(means, exps, expm1s)]
    # per role and class: the lone click (d n0: dark count alone) times P(other three silent) / 4
    lone = [[p * ((1.0 - d) ** 3 * others) / 4.0
             for p in (d * n0 * u0, d * n0 * u1 + n1 * u0, d * n0 * u2 + n1 * (u1 + u2) + n2)]
            for (n0, n1, n2), others in zip((n_right, n_wrong), exps[4:])]
    cells = []  # per class: each role holds 4 of the 16 codes on each of D1..D4
    for a, b, matched in zip(*lone, share):
        # the eight sum to 4a + 4b exactly, as numpy's pairwise sum gives; rounding leaves ~ -1e-17
        cells += [a] * 4 + [b] * 4 + [max(matched / 2.0 - (4.0 * a + 4.0 * b), 0.0)]
    return np.array(cells + [0.5])


def _run_shard(n: int, rng: np.random.Generator, cells: np.ndarray) -> np.ndarray:
    """The (3, 9) basis-matched counts of n pulses drawn over the 28 probabilities ``cells``."""
    return rng.multinomial(n, cells)[:27].reshape(3, 9)


def run_session(params: SessionParams, seed: int) -> SessionReport:
    """Run a full session; deterministic given (params, seed)."""
    seed = _require("seed", seed)  # a Python int, which the report echoes in JSON
    # the stream [seed, 0] keeps the counts that sessions of up to 10^6 pulses always drew
    counts = _run_shard(params.n_pulses, np.random.default_rng([seed, 0]), _cell_probabilities(params))
    return SessionReport(params, seed, counts)
