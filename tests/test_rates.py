"""Tests for the analytic yields and the key-rate machinery."""

import inspect
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ddiqkd import rates
from ddiqkd.bsm import click_table, sift_table
from ddiqkd.channel import poisson_pn
from ddiqkd.rates import (
    RateParams,
    SecurityRegime,
    YieldTable,
    _bb84_gains,
    _entropy,
    _proposal_gains,
    bb84_reference_rate,
    key_rate,
    keyrate_curve,
    optimize_mu,
    optimize_mu_bb84,
    security_regime,
    yield_table,
)

FIG_PARAMS = RateParams(
    eta_det=0.145,
    p_dark=3.01e-6,
    alpha_db_per_km=0.2,
    e_mis=0.015,
    f_ec=1.16,
)

# the rate peaks at mu = 0.01, the low edge of MU_SEARCH_RANGE, and is positive
# only close to it, so a zoom grid centred there is clipped at that edge
EDGE_PARAMS = RateParams(
    eta_det=0.145,
    p_dark=6e-8,
    alpha_db_per_km=0.2,
    e_mis=0.097,
)


def _rebuilt(record, **changes):
    """A new record of ``record``'s class from its constructor fields, ``changes`` applied."""
    fields = inspect.signature(type(record)).parameters
    return type(record)(**{name: getattr(record, name) for name in fields} | changes)


N_SUM = 20  # photon-number terms of the reference sums


def _proposal_yield_n(n, eta, e, d):
    """(Y_n, e_n Y_n) of one detector of the proposal, per photon number."""
    a = 1.0 - eta * (1.0 + e) / 2.0
    b = 1.0 - eta * (2.0 - e) / 2.0
    v = 1.0 - eta
    cube = (1.0 - d) ** 3
    yield_n = cube * ((a**n + b**n) / 2.0 - v**n * (1.0 - d))
    return yield_n, cube * ((b**n - v**n) / 2.0 + v**n * d / 2.0)


def _bb84_yield_n(n, eta, e, d):
    """(Y_n, e_n Y_n) of the two-detector receiver; a double click is a random bit."""
    no_click = (1.0 - eta) ** n * (1.0 - d) ** 2
    y = 1.0 - no_click
    wrong_only = (1.0 - eta * (1.0 - e)) ** n * (1.0 - d) - no_click
    correct_only = (1.0 - eta * e) ** n * (1.0 - d) - no_click
    return y, wrong_only + 0.5 * (y - wrong_only - correct_only)


def _proposal_gains_as_written(eta, e, d, mu):
    """_proposal_gains with each exponent written -x (...) / 2, as in the formula."""
    x = mu * eta
    dv = d * np.exp(-x)
    b = np.exp(-x * (2.0 - e) / 2.0) * np.expm1(-x * e / 2.0)
    a = np.exp(-x * (1.0 + e) / 2.0) * np.expm1(-x * (1.0 - e) / 2.0)
    cube = (1.0 - d) ** 3
    return cube * (dv - (a + b) / 2.0), cube * (dv - b) / 2.0


def _bb84_gains_as_written(eta, e, d, mu):
    """_bb84_gains with each exponent written -x (...), as in the formula."""
    x = mu * eta
    v = np.exp(-x)
    gain = d * (2.0 - d) * v - np.expm1(-x)
    flip = -np.expm1(-x * e)
    err = flip * (1.0 + (1.0 - d) * np.exp(-x * (1.0 - e))) + d * np.exp(-x * e) + d * (1.0 - d) * v
    return gain, err / 2.0


def _oracle_gains(protocol, eta, e, d, mu):
    """(Q, E Q) at 40 digits, from sum_n p_n(mu) x^n = exp(-mu (1 - x))."""
    with localcontext() as ctx:
        ctx.prec = 40
        eta, e, d, mu = (Decimal(float(v)) for v in (eta, e, d, mu))

        def mix(x):
            return (-mu * (1 - x)).exp()

        if protocol == "proposal":
            cube = (1 - d) ** 3
            a, b, v = mix(1 - eta * (1 + e) / 2), mix(1 - eta * (2 - e) / 2), mix(1 - eta)
            return cube * ((a + b) / 2 - (1 - d) * v), cube * ((b - v) / 2 + d * v / 2)
        no_click = (1 - d) ** 2 * mix(1 - eta)
        wrong_only = (1 - d) * mix(1 - eta * (1 - e)) - no_click
        correct_only = (1 - d) * mix(1 - eta * e) - no_click
        gain = 1 - no_click
        return gain, (gain + wrong_only - correct_only) / 2


EPS = float(np.finfo(float).eps)
SMALLEST_NORMAL = Decimal(float(np.finfo(float).tiny))
C_ACCURACY = 4.0  # the worst errors measured were 1.62 (proposal) and 1.42 (reference) (1 + x) eps


def _decimal_expm1(y):
    """exp(y) - 1 in the current context, by its series where |y| < 1/2, so no digit cancels."""
    if abs(y) >= Decimal("0.5"):
        return y.exp() - 1
    term = total = y
    k = 1
    while abs(term) > abs(total) * Decimal("1e-90"):
        k += 1
        term = term * y / k
        total += term
    return total


def _decimal_gains(protocol, eta, e, d, mu):
    """(Q, E Q) of _proposal_gains or _bb84_gains at 80 digits, the same closed forms."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 80, -10**9, 10**9
        eta, e, d, mu = (Decimal(float(v)) for v in (eta, e, d, mu))  # exact
        x = mu * eta
        if protocol == "proposal":
            right, wrong = (1 - e) / 2, e / 2
            dv = d * (-x).exp()
            a = (-x * (1 - right)).exp() * _decimal_expm1(-x * right)
            b = (-x * (1 - wrong)).exp() * _decimal_expm1(-x * wrong)
            cube = (1 - d) ** 3
            return cube * (dv - (a + b) / 2), cube * (dv - b) / 2
        v = (-x).exp()
        gain = d * (2 - d) * v - _decimal_expm1(-x)
        err = (-_decimal_expm1(-x * e) * (1 + (1 - d) * (-x * (1 - e)).exp())
               + d * (-x * e).exp() + d * (1 - d) * v)
        return gain, err / 2


class TestBinaryEntropy:
    """rates._entropy, the h of the key rate."""

    def test_half_is_one(self):
        assert _entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert _entropy(0.0) == 0.0
        assert _entropy(1.0) == 0.0

    def test_known_value(self):
        # direct evaluation of -x log2 x - (1-x) log2 (1-x) at x = 0.11
        assert _entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    def test_symmetry(self):
        x = np.random.default_rng(6).random(1000)
        assert np.abs(_entropy(x) - _entropy(1 - x)).max() < 1e-14

    @staticmethod
    def _arguments():
        """Uniform and log-uniform points of [0, 1], with its ends, 1/2 and the
        smallest normal double that floors the logs."""
        rng = np.random.default_rng(61)
        points = [rng.random(3000), 10.0 ** rng.uniform(-320, 0, 3000), 1.0 - rng.random(1000) * 1e-9]
        return np.concatenate(points + [[0.0, 2.2250738585072014e-308, 0.5, 1.0 - 2**-53, 1.0]])

    def test_one_log2_call_gives_each_items_bits(self):
        """The Python forms take one np.log2 over all their items; each result
        is the one np.log2 gives the item alone, and in arrays of four."""
        x = self._arguments()
        x = np.maximum(np.concatenate([x, 1.0 - x]), 2.2250738585072014e-308)  # what _entropy logs
        batched = np.log2(x.tolist()).tolist()
        assert batched == [np.log2(v).item() for v in x.tolist()]
        assert batched == np.concatenate([np.log2(x[i:i + 4]) for i in range(0, len(x), 4)]).tolist()

    def test_python_forms_are_the_array_form_bit_for_bit(self):
        x = self._arguments()
        array = _entropy(x).tolist()
        assert _entropy(x.tolist()) == array
        assert [_entropy(v) for v in x.tolist()] == array
        assert all(type(h) is float for h in _entropy(x[:8].tolist()) + [_entropy(0.25)])


class TestYieldTable:
    @pytest.mark.parametrize("e_mis", [-0.1, 0.5000000000000001, 0.7, math.nan])
    def test_e_mis_outside_the_model_rejected(self, e_mis):
        # 0.7 gave e1 = 0.7
        with pytest.raises(ValueError, match=r"e_mis must be in \[0, 0.5\]"):
            YieldTable(0.1, e_mis, 0.0)

    @pytest.mark.parametrize("p_dark", [-0.1, 1.0, 1.5, math.nan])
    def test_p_dark_outside_the_model_rejected(self, p_dark):
        # 1.5 gave y1 = -0.171875 at eta = 0.1
        with pytest.raises(ValueError, match=r"p_dark must be in \[0, 1\)"):
            YieldTable(0.1, 0.015, p_dark)

    @pytest.mark.parametrize("eta", [-0.1, 1.0000000000000002, 1.5, math.nan,
                                     np.array([0.1, math.nan]), np.array([0.0, -1e-300])],
                             ids=["negative", "above-1", "1.5", "nan", "nan-entry", "negative-entry"])
    def test_eta_outside_the_model_rejected(self, eta):
        with pytest.raises(ValueError, match=r"eta must be in \[0, 1\]"):
            YieldTable(eta, 0.015, 1e-6)

    @pytest.mark.parametrize("name, args", [
        ("eta", ("0.1", 0.015, 1e-6)),
        ("eta", (True, 0.015, 1e-6)),
        ("eta", (0.1 + 0j, 0.015, 1e-6)),
        ("eta", (np.array([True, False]), 0.015, 1e-6)),
        ("e_mis", (0.1, 0.015 + 0j, 1e-6)),
        ("p_dark", (0.1, 0.015, "1e-6")),
        ("p_dark", (0.1, 0.015, False)),
        ("p_dark", (0.1, 0.015, 1e-6 + 0j)),
    ], ids=["eta-str", "eta-bool", "eta-complex", "eta-bool-array", "e_mis-complex",
            "p_dark-str", "p_dark-bool", "p_dark-complex"])
    def test_non_real_inputs_rejected(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            YieldTable(*args)

    def test_edges_of_the_model_taken(self):
        yt = YieldTable(np.array([0, 1]), np.float64(0.5), 0.999)
        assert yt.gains(0.7).shape == (4, 2)
        YieldTable(np.int64(1), 0, 0.0)

    @pytest.mark.parametrize("mu", [0.5 + 0j, math.nan, 0.0, -0.1, math.inf, True, np.array([0.5, math.nan])],
                             ids=["complex", "nan", "zero", "negative", "inf", "bool", "nan-entry"])
    def test_gains_and_qbers_reject_mu_outside_the_model(self, mu):
        # 0.5+0j gave a complex gain, and NaN a QBER of 0.0
        yt = YieldTable(0.1, 0.015, 1e-6)
        for method in (yt.gains, yt.qbers):
            with pytest.raises(ValueError, match="mu must be"):
                method(mu)

    def test_vacuum_yield_closed_form(self):
        d = 6.02e-6
        yt = YieldTable(eta=0.1, e_mis=0.015, p_dark=d)
        np.testing.assert_allclose(yt.y0, d * (1 - d) ** 3, rtol=1e-14)

    def test_dark_only_limit(self):
        d = 6.02e-6
        yt = YieldTable(eta=0.0, e_mis=0.015, p_dark=d)
        np.testing.assert_allclose(yt.y1, d * (1 - d) ** 3, rtol=1e-14)
        np.testing.assert_allclose(yt.e1, 0.5, rtol=1e-14)

    def test_single_photon_yield_formula(self):
        eta, d = 0.0145, 3.01e-6
        yt = YieldTable(eta=eta, e_mis=0.015, p_dark=d)
        expected = (eta / 4 + (1 - eta) * d) * (1 - d) ** 3
        np.testing.assert_allclose(yt.y1, expected, rtol=1e-14)

    def test_gain_matches_exponential_closed_form(self):
        # sum_n p_n x^n = exp(-mu (1-x)) turns the Poisson mixture into
        # exponentials; the truncated sum must match to well below 1e-12
        eta, e, d = 0.0145, 0.015, 3.01e-6
        yt = YieldTable(eta=eta, e_mis=e, p_dark=d)
        for mu in (0.1, 0.7, 1.9):
            a = math.exp(-mu * eta * (1 + e) / 2)
            b = math.exp(-mu * eta * (2 - e) / 2)
            v = math.exp(-mu * eta)
            q_exact = (1 - d) ** 3 * ((a + b) / 2 - (1 - d) * v)
            eq_exact = (1 - d) ** 3 * ((b - v) / 2 + d * v / 2)
            assert yt.gains(mu)[0] == pytest.approx(q_exact, abs=1e-12)
            assert yt.gains(mu)[0] * yt.qbers(mu)[0] == pytest.approx(eq_exact, abs=1e-12)

    def test_gain_is_poisson_mixture_of_yields(self):
        # the closed forms against the truncated photon-number sum, which is
        # accurate at mu = 0.7 (the tail beyond n = 20 is below 1e-23)
        eta = FIG_PARAMS.eta_det * 10 ** (-0.2 * 50.0 / 10)
        e, d = FIG_PARAMS.e_mis, FIG_PARAMS.p_dark
        mu = 0.7
        for closed, per_n in ((_proposal_gains, _proposal_yield_n), (_bb84_gains, _bb84_yield_n)):
            gain, err_gain = closed(eta, e, d, mu)
            terms = [(poisson_pn(mu, n), per_n(n, eta, e, d)) for n in range(N_SUM + 1)]
            assert gain == pytest.approx(sum(p * y for p, (y, _) in terms), rel=1e-12)
            assert err_gain == pytest.approx(sum(p * ey for p, (_, ey) in terms), rel=1e-12)
        yt = yield_table(FIG_PARAMS, 50.0)
        assert yt.gains(mu)[0] == _proposal_gains(yt.eta, e, d, mu)[0]

    def test_gain_exact_at_large_mu(self):
        # a 21-term photon-number sum misses almost all of the mass at mu = 30
        yt = yield_table(FIG_PARAMS, 50.0)
        e, d = FIG_PARAMS.e_mis, FIG_PARAMS.p_dark
        exact = _oracle_gains("proposal", yt.eta, e, d, 30.0)
        assert yt.gains(30.0)[0] == pytest.approx(float(exact[0]), rel=1e-12)
        assert yt.gains(30.0)[0] == pytest.approx(0.0784, abs=1e-4)

    @pytest.mark.parametrize("protocol", ["proposal", "bb84"])
    def test_closed_forms_match_decimal_oracle(self, protocol):
        closed = {"proposal": _proposal_gains, "bb84": _bb84_gains}[protocol]
        worst_rel = worst_abs = 0.0
        for eta, e, d, mu in itertools.product(
            (1.0, 0.145, 1e-2, 1e-4, 1e-6, 1e-9),
            (0.0, 0.015, 0.11, 0.3, 0.5),
            (0.0, 3.01e-6, 1e-3, 0.1, 0.5, 0.99),
            (1e-3, 0.1, 0.7, 2.0, 10.0, 30.0, 100.0),
        ):
            got = closed(eta, e, d, mu)
            for value, exact in zip(got, _oracle_gains(protocol, eta, e, d, mu)):
                error = abs(Decimal(float(value)) - exact)
                worst_abs = max(worst_abs, float(error))
                assert error <= Decimal("1e-15"), (eta, e, d, mu)
                if mu * eta <= 10.0:
                    rel = float(error / exact) if exact else float(error)
                    worst_rel = max(worst_rel, rel)
                    assert rel <= 1e-12, (eta, e, d, mu)
        print(f"{protocol}: worst relative {worst_rel:.1e}, worst absolute {worst_abs:.1e}")

    @pytest.mark.parametrize("protocol", ["proposal", "bb84"])
    def test_full_relative_accuracy_at_the_domain_edges(self, protocol):
        # the module docstring's claim: every term is nonnegative, so the
        # gains keep full relative accuracy at any loss.  The error grows
        # with x = mu eta only because exp(-x) amplifies the rounding of x.
        # C_ACCURACY was fixed once from the worst ratio over this grid
        closed = {"proposal": _proposal_gains, "bb84": _bb84_gains}[protocol]
        worst = 0.0
        for eta, e, d, mu in itertools.product(
            (1e-300, 1e-100, 1e-10, 1e-3, 0.145, 0.5, 1.0),
            (0.0, 5e-324, 0.015, 0.5),
            (0.0, 3.01e-6, 0.5, 1.0 - 1e-16),
            (1e-3, 0.5, 2.0, 100.0, 700.0, 1e6),
        ):
            x = mu * eta
            for value, exact in zip(closed(eta, e, d, mu), _decimal_gains(protocol, eta, e, d, mu)):
                error = abs(Decimal(float(value)) - exact)
                if exact >= SMALLEST_NORMAL:  # below it a double has no full precision
                    ratio = float(error / exact) / ((1.0 + x) * EPS)
                    worst = max(worst, ratio)
                    assert ratio <= C_ACCURACY, (eta, e, d, mu, float(exact))
                else:
                    assert error <= SMALLEST_NORMAL, (eta, e, d, mu, float(exact))
        print(f"{protocol}: worst error {worst:.2f} (1 + x) eps")

    @pytest.mark.parametrize("closed, written", [(_proposal_gains, _proposal_gains_as_written),
                                                 (_bb84_gains, _bb84_gains_as_written)])
    def test_exponents_are_bit_identical_to_the_written_formula(self, closed, written):
        # each exponent is one product -x * c with c = (2 - e) / 2 and so on;
        # negating and halving a normal double are exact, so it rounds as
        # -x (2 - e) / 2 does, down to x = 1e-300 where x e / 2 is still normal
        eta = np.logspace(-300, 3, 3031)
        mu = np.array([[1.0], [0.7]])
        for e, d in itertools.product((0.0, 0.015, 0.25, 0.5), (0.0, 3e-6, 0.5)):
            for got, want in zip(closed(eta, e, d, mu), written(eta, e, d, mu)):
                assert (got == want).all(), (e, d)
                assert (np.signbit(got) == np.signbit(want)).all(), (e, d)

    def test_closed_forms_match_click_table(self):
        """Y1, e1 Y1, Q and E Q of each detector, rebuilt from the click table.

        A photon of code c reaches detector i with probability eta p_ci, so a
        lone click on i at n photons has probability (1-d)^3 [(1 - eta(1 -
        p_ci))^n - (1-d)(1-eta)^n].  With sum_n p_n(mu) (1 - eta(1-p))^n =
        e^{-x(1-p)}, x = mu eta, the gain is (1-d)^3 e^-x [d + expm1(x p_ci)],
        averaged over the 8 matched codes; the error gains keep the codes in
        which the sift hands Bob the wrong bit on a lone click on i.
        """
        right, wrong = sift_table()  # the sessions' own (code, detector) weights
        matched = (right | wrong)[:, 0]
        wrong = wrong[matched]
        tables = {e: click_table(e)[matched] for e in (0.0, 0.015, 0.11, 0.3, 0.5)}
        worst = 0.0
        for eta, e, d, mu in itertools.product(
            (1.0, 0.145, 1e-2, 1e-4, 1e-6, 1e-9),
            tuple(tables),
            (0.0, 3.01e-6, 1e-3, 0.1, 0.5, 0.99),
            (1e-3, 0.1, 0.7, 2.0, 10.0, 30.0, 100.0),
        ):
            p = tables[e]  # (8 matched codes, 4 detectors)
            cube = (1.0 - d) ** 3
            y1 = cube * (eta * p + (1.0 - eta) * d)
            x = mu * eta
            gain = cube * np.exp(-x) * (d + np.expm1(x * p))
            yt = YieldTable(eta=eta, e_mis=e, p_dark=d)
            closed_gain, closed_err = _proposal_gains(eta, e, d, mu)
            pairs = [(y1, yt.y1), (wrong * y1, yt.e1 * yt.y1),
                     (gain, closed_gain), (wrong * gain, closed_err)]
            for k, (table, closed) in enumerate(pairs):
                error = np.abs(table.mean(axis=0) - closed)
                assert (error <= 1e-15).all(), (eta, e, d, mu, k)
                if k < 2 or x <= 10.0:
                    rel = np.max(error / np.where(closed > 0.0, closed, 1.0))
                    worst = max(worst, rel)
                    assert rel <= 1e-12, (eta, e, d, mu, k)
        print(f"click table: worst relative {worst:.1e}")

    def test_total_gain_below_one(self):
        for length in (0.0, 50.0, 120.0):
            yt = yield_table(FIG_PARAMS, length)
            for mu in (0.1, 0.7, 2.0):
                assert yt.gains(mu).sum() <= 1.0

    def test_entries_in_unit_interval(self):
        yt = yield_table(FIG_PARAMS, 25.0)
        for arr in (yt.y0, yt.y1, yt.e1, yt.gains(0.7), yt.qbers(0.7)):
            assert np.all(arr >= 0) and np.all(arr <= 1)


def _eq1_reference(yt, params, mu):
    """Straight-line reimplementation of the per-detector rate formula."""

    def h(x):
        return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    p0 = math.exp(-mu)
    p1 = mu * math.exp(-mu)
    total = 0.0
    for i in range(4):
        gain = yt.gains(mu)[i]
        qber = yt.qbers(mu)[i]
        r_i = (
            p0 * yt.y0[i]
            + p1 * yt.y1[i] * (1 - h(yt.e1[i]))
            - gain * params.f_ec * h(qber)
        )
        total += max(r_i, 0.0)
    return total


class TestKeyRate:
    def test_zero_yields_give_zero(self):
        yt = YieldTable(eta=0.0, e_mis=0.0, p_dark=0.0)
        assert key_rate(yt, FIG_PARAMS, 0.7) == 0.0

    def test_noiseless_ceiling(self):
        yt = YieldTable(eta=0.3, e_mis=0.0, p_dark=0.0)
        mu = 0.7
        p0, p1 = math.exp(-mu), mu * math.exp(-mu)
        expected = 4 * (p0 * yt.y0[0] + p1 * yt.y1[0])
        assert key_rate(yt, FIG_PARAMS, mu) == pytest.approx(expected, abs=1e-15)

    def test_matches_independent_reevaluation(self):
        mu_opt, rate = optimize_mu(FIG_PARAMS, 0.0)
        yt = yield_table(FIG_PARAMS, 0.0)
        assert rate > 0
        assert rate == pytest.approx(_eq1_reference(yt, FIG_PARAMS, mu_opt), abs=1e-12)

    def test_more_noise_means_less_key(self):
        noisier = RateParams(
            eta_det=FIG_PARAMS.eta_det,
            p_dark=FIG_PARAMS.p_dark,
            alpha_db_per_km=FIG_PARAMS.alpha_db_per_km,
            e_mis=0.03,
            f_ec=FIG_PARAMS.f_ec,
        )
        for length in (0.0, 60.0):
            clean = key_rate(yield_table(FIG_PARAMS, length), FIG_PARAMS, 0.7)
            noisy = key_rate(yield_table(noisier, length), noisier, 0.7)
            assert noisy < clean

    @pytest.mark.parametrize("mu", [0.0, -0.5, math.nan, math.inf])
    def test_nonpositive_mu_rejected(self, mu):
        yt = yield_table(FIG_PARAMS, 50.0)
        with pytest.raises(ValueError, match="mu"):
            key_rate(yt, FIG_PARAMS, mu)
        with pytest.raises(ValueError, match="mu"):
            bb84_reference_rate(FIG_PARAMS, 50.0, mu)
        with pytest.raises(ValueError, match="mu"):
            key_rate(yt, FIG_PARAMS, np.array([0.7, mu]))

    @pytest.mark.parametrize("mu", [0.5 + 0j, np.array([0.7, 0.5 + 0j]), True, np.True_],
                             ids=["complex", "complex array", "True", "np.True_"])
    def test_non_real_mu_rejected(self, mu):
        # a complex mu used to give a complex rate, and True the rate at mu = 1
        yt = yield_table(FIG_PARAMS, 50.0)
        with pytest.raises(ValueError, match="mu must be a real number"):
            key_rate(yt, FIG_PARAMS, mu)
        with pytest.raises(ValueError, match="mu must be a real number"):
            bb84_reference_rate(FIG_PARAMS, 50.0, mu)

    @pytest.mark.parametrize("length", [math.nan, -1.0])
    def test_invalid_length_rejected(self, length):
        with pytest.raises(ValueError, match="length"):
            yield_table(FIG_PARAMS, length)
        with pytest.raises(ValueError, match="length"):
            yield_table(FIG_PARAMS, np.array([10.0, length]))
        with pytest.raises(ValueError, match="length"):
            bb84_reference_rate(FIG_PARAMS, length, 0.7)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan])
    def test_invalid_loss_coefficient_rejected(self, alpha):
        # a negative alpha used to give eta > 1 and a positive key rate
        with pytest.raises(ValueError, match="loss coefficient"):
            RateParams(alpha_db_per_km=alpha)

    @pytest.mark.parametrize("f_ec", [0.9, math.inf, math.nan])
    def test_invalid_f_ec_rejected(self, f_ec):
        with pytest.raises(ValueError, match="f_ec"):
            RateParams(f_ec=f_ec)

    def test_infinite_length_rejected(self):
        # an infinite length used to give eta = 0, and with alpha = 0 an undefined loss
        lossless = _rebuilt(FIG_PARAMS, alpha_db_per_km=0.0)
        for params in (FIG_PARAMS, lossless):
            with pytest.raises(ValueError, match="length: .* must be finite"):
                yield_table(params, math.inf)
            with pytest.raises(ValueError, match="length: .* must be finite"):
                yield_table(params, np.array([10.0, math.inf]))

    def test_infinite_loss_coefficient_rejected(self):
        # it used to block every length > 0, and to be undefined at 0 km
        with pytest.raises(ValueError, match="alpha_db_per_km: .* must be finite"):
            RateParams(alpha_db_per_km=math.inf)

    def test_array_evaluation_matches_scalar(self):
        lengths = np.array([0.0, 35.0, 120.0, 170.0])
        mus = np.array([[0.05], [0.7], [1.9]])
        rates = key_rate(yield_table(FIG_PARAMS, lengths), FIG_PARAMS, mus)
        refs = bb84_reference_rate(FIG_PARAMS, lengths, mus)
        assert rates.shape == refs.shape == (3, 4)
        for (i, j), rate in np.ndenumerate(rates):
            yt = yield_table(FIG_PARAMS, float(lengths[j]))
            assert rate == pytest.approx(key_rate(yt, FIG_PARAMS, float(mus[i, 0])), rel=1e-14)
            assert refs[i, j] == pytest.approx(
                bb84_reference_rate(FIG_PARAMS, float(lengths[j]), float(mus[i, 0])), rel=1e-14)


# each optimizer with the public rate function it maximizes
OPTIMIZERS = [
    (optimize_mu, lambda params, lengths, mu: key_rate(yield_table(params, lengths), params, mu)),
    (optimize_mu_bb84, bb84_reference_rate),
]


def _scan_max(rate_at, params, length):
    """(argmax, max) of the rate over MU_SEARCH_RANGE in steps of 1e-6."""
    lo, hi = rates.MU_SEARCH_RANGE
    mus = lo + 1e-6 * np.arange(round((hi - lo) / 1e-6) + 1)
    # in cache-sized chunks: one pass over the whole scan is several times slower
    vals = np.concatenate([rate_at(params, length, chunk) for chunk in np.array_split(mus, 128)])
    k = int(np.argmax(vals))
    return mus[k], vals[k]


def _count_rate_evaluations(monkeypatch):
    """The mu of every _secret_rate call from now on: one per rate evaluation."""
    mus = []
    secret_rate = rates._secret_rate
    monkeypatch.setattr(rates, "_secret_rate",
                        lambda *args: mus.append(args[5]) or secret_rate(*args))
    return mus


class TestOptimizeMu:
    def test_optimum_near_reference_intensity(self):
        mu_opt, rate = optimize_mu(FIG_PARAMS, 50.0)
        assert 0.55 <= mu_opt <= 0.85
        assert rate > 0

    def test_matches_fine_grid(self):
        yt = yield_table(FIG_PARAMS, 50.0)
        _, rate = optimize_mu(FIG_PARAMS, 50.0)
        grid = np.arange(0.01, 2.0, 1e-3)
        best = max(key_rate(yt, FIG_PARAMS, mu) for mu in grid)
        assert rate == pytest.approx(best, abs=1e-6)

    def test_is_local_maximum(self):
        yt = yield_table(FIG_PARAMS, 80.0)
        mu_opt, rate = optimize_mu(FIG_PARAMS, 80.0)
        assert rate >= key_rate(yt, FIG_PARAMS, mu_opt - 1e-3)
        assert rate >= key_rate(yt, FIG_PARAMS, mu_opt + 1e-3)

    def test_ideal_devices_beat_reference_intensity(self):
        ideal = RateParams(
            eta_det=1.0,
            p_dark=0.0,
            alpha_db_per_km=0.0,
            e_mis=0.0,
        )
        _, rate = optimize_mu(ideal, 0.0)
        assert rate >= key_rate(yield_table(ideal, 0.0), ideal, 0.7)

    def test_hopeless_channel_returns_zero(self):
        blind = RateParams(eta_det=0.0, p_dark=1e-5)
        mu, rate = optimize_mu(blind, 10.0)
        assert rate == 0.0
        assert mu == pytest.approx(0.01)


    @pytest.mark.parametrize("optimize, rate_at", OPTIMIZERS)
    @pytest.mark.parametrize("params, length", [
        (FIG_PARAMS, 0.0), (FIG_PARAMS, 50.0), (FIG_PARAMS, 100.0), (FIG_PARAMS, 140.0),
        (EDGE_PARAMS, 0.0), (EDGE_PARAMS, 10.0), (EDGE_PARAMS, 30.0),
    ], ids=["fig-0", "fig-50", "fig-100", "fig-140", "edge-0", "edge-10", "edge-30"])
    def test_matches_brute_force_scan(self, optimize, rate_at, params, length):
        mu_best, best = _scan_max(rate_at, params, length)
        mu_opt, rate = optimize(params, length)
        assert abs(mu_opt - mu_best) <= rates._MU_TOL / 2
        assert rate == pytest.approx(best, rel=1e-8)

    @pytest.mark.parametrize("optimize", [optimize_mu, optimize_mu_bb84])
    def test_four_rate_evaluations_per_search(self, optimize, monkeypatch):
        # the grid and three zooms; the optimum's rate is read off the last zoom
        # grid.  EDGE_PARAMS peaks on the low edge, so every zoom grid is clipped there
        mus = _count_rate_evaluations(monkeypatch)
        optimize(EDGE_PARAMS, np.array([0.0, 10.0, 30.0]))
        assert len(mus) == 4
        lo, hi = rates.MU_SEARCH_RANGE
        for mu in mus:
            assert ((lo <= mu) & (mu <= hi)).all()

    @pytest.mark.parametrize("optimize", [optimize_mu, optimize_mu_bb84])
    def test_array_of_lengths_matches_scalar_calls(self, optimize):
        lengths = [0.0, 45.0, 110.0, 158.0, 400.0]
        mu_opt, rate = optimize(FIG_PARAMS, np.array(lengths))
        for k, length in enumerate(lengths):
            assert (mu_opt[k], rate[k]) == optimize(FIG_PARAMS, length)

    @pytest.mark.parametrize("optimize, rate_at", OPTIMIZERS)
    def test_eta_computed_once_per_search(self, optimize, rate_at, monkeypatch):
        # the grid and its zooms reuse one eta per search, and the optimum's
        # rate is the public rate function's at mu_opt, bit for bit
        calls = []
        eta = rates._eta
        monkeypatch.setattr(rates, "_eta", lambda *args: calls.append(args) or eta(*args))
        lengths = np.array([0.0, 45.0, 110.0, 158.0])
        mu_opt, rate = optimize(FIG_PARAMS, lengths)
        assert len(calls) == 1
        np.testing.assert_array_equal(rate, rate_at(FIG_PARAMS, lengths, mu_opt))

    @pytest.mark.parametrize("optimize, rate_at", OPTIMIZERS)
    # length is innermost, so it leads the ID and IDs cut at 100 characters stay distinct
    @pytest.mark.parametrize("length", [0.0, 10.0, 30.0])
    def test_never_below_its_grid(self, optimize, rate_at, length):
        grid = np.linspace(*rates.MU_SEARCH_RANGE, 41)
        best = max(float(rate_at(EDGE_PARAMS, length, mu)) for mu in grid)
        assert best > 0.0
        mu_opt, rate = optimize(EDGE_PARAMS, length)
        assert rate >= best
        assert rate == rate_at(EDGE_PARAMS, length, mu_opt)


class TestBb84Reference:
    def test_blind_detectors_give_zero(self):
        blind = RateParams(eta_det=0.0, p_dark=1e-5)
        assert bb84_reference_rate(blind, 10.0, 0.7) == 0.0

    def test_error_threshold_crossing(self):
        # with f = 1 the rate flips sign where h(e) = 1/2, i.e. e ~ 0.11;
        # at f = 1.16 anything at e_mis = 0.12 is hopeless while 0.05 is fine
        hot = RateParams(eta_det=0.5, p_dark=0.0, e_mis=0.12)
        assert optimize_mu_bb84(hot, 0.0)[1] == 0.0
        warm = RateParams(eta_det=0.5, p_dark=0.0, e_mis=0.05)
        assert optimize_mu_bb84(warm, 0.0)[1] > 0.0

    def test_similar_to_proposal_curve(self):
        for length in (0.0, 40.0, 80.0, 120.0):
            _, rate = optimize_mu(FIG_PARAMS, length)
            _, ref = optimize_mu_bb84(FIG_PARAMS, length)
            assert 0.5 <= ref / rate <= 2.0


def _sequential_cutoff(rate_at, lengths):
    """One-length-at-a-time cutoff search: the reference for the batched one."""
    positive = [length for length in lengths if rate_at(length) > 0.0]
    hi = None
    if positive:
        lo = positive[-1]
        for length in lengths:
            if length > lo and rate_at(length) <= 0.0:
                hi = length
                break
    elif lengths and lengths[0] > 0.0 and rate_at(0.0) > 0.0:
        lo, hi = 0.0, lengths[0]
    else:
        return 0.0
    if hi is None:
        if lo >= rates._CUTOFF_CAP_KM:
            return lo
        hi = lo + rates._CUTOFF_STEP_KM
        while rate_at(hi) > 0.0:  # the cap only if the step at or past it has key
            if hi >= rates._CUTOFF_CAP_KM:
                return rates._CUTOFF_CAP_KM
            lo = hi
            hi += rates._CUTOFF_STEP_KM
    while hi - lo > rates._CUTOFF_TOL_KM:
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


DEFAULT_LENGTHS = [float(x) for x in range(0, 181, 10)]


def _seeded_points(count, seed=23):
    """Seeded (alpha_db_per_km, e_mis, p_dark) points: e_mis = 0.5 u^3 and
    p_dark log-uniform in [1e-9, 1e-2], so that most of them have key."""
    rng = np.random.default_rng(seed)
    return [RateParams(alpha_db_per_km=float(rng.uniform(0.0, 1.0)),
                       e_mis=float(0.5 * rng.uniform() ** 3),
                       p_dark=float(10.0 ** rng.uniform(-9.0, -2.0)))
            for _ in range(count)]


# keyrate_curve's joint search against optimize_mu and optimize_mu_bb84
JOINT_SEARCH_POINTS = [
    FIG_PARAMS,
    EDGE_PARAMS,
    RateParams(alpha_db_per_km=0.0, e_mis=0.5, p_dark=0.0),
    RateParams(e_mis=0.5),
    RateParams(p_dark=1.0 - 1e-9),
    RateParams(alpha_db_per_km=0.05, e_mis=0.0, p_dark=0.999),
    *_seeded_points(10),
]


def _assert_curve_matches_searches(params, lengths):
    """keyrate_curve agrees with optimize_mu and the one-length-at-a-time cutoffs."""
    curve = keyrate_curve(params, lengths)
    assert curve.cutoff_proposal_km == _sequential_cutoff(
        lambda L: optimize_mu(params, L)[1], lengths)
    assert curve.cutoff_bb84_km == _sequential_cutoff(
        lambda L: optimize_mu_bb84(params, L)[1], lengths)
    np.testing.assert_array_equal(curve.length_km, lengths)
    for length, mu_opt, rate, rate_bb84 in zip(lengths, curve.mu_opt, curve.rate_proposal,
                                               curve.rate_bb84):
        assert (mu_opt, rate) == optimize_mu(params, length)
        assert rate_bb84 == optimize_mu_bb84(params, length)[1]
    return curve


class TestKeyrateCurve:
    @pytest.mark.parametrize("lengths", [
        DEFAULT_LENGTHS,                        # bisection between listed lengths
        [0.0, 50.0, 100.0],                     # extension past the last length
        [0.0, 3.0, 400.0],                      # a gap wider than one batch of midpoints
        [120.0, 120.0, 155.0, 155.0],           # repeated lengths
        [150.3],                                # past one cutoff: bisect [0, 150.3]
        [2000.0],                               # past both cutoffs
        [],                                     # no lengths: both cutoffs 0
    ])
    def test_cutoffs_match_sequential_search(self, lengths):
        _assert_curve_matches_searches(FIG_PARAMS, lengths)

    def test_cutoffs_match_sequential_search_at_low_mu_edge(self):
        curve = _assert_curve_matches_searches(EDGE_PARAMS, DEFAULT_LENGTHS)
        assert curve.cutoff_proposal_km > 0.0
        assert curve.cutoff_bb84_km > 0.0

    def test_default_cutoffs(self):
        curve = keyrate_curve(FIG_PARAMS, DEFAULT_LENGTHS)
        assert curve.summary() == {"cutoff_proposal_km": 150.3125, "cutoff_bb84_km": 165.3125}

    def test_cutoffs_run_no_optimization(self, monkeypatch):
        # one search for both protocols, for the listed lengths; the cutoff
        # batches read only the sign of the mu grid
        calls = []
        optimize = rates._optimize
        monkeypatch.setattr(rates, "_optimize", lambda *args: calls.append(args) or optimize(*args))
        for params, lengths in ((FIG_PARAMS, DEFAULT_LENGTHS), (FIG_PARAMS, [0.0, 3.0, 400.0]),
                                (RateParams(alpha_db_per_km=0.0), [0.0, 10.0])):
            calls.clear()
            keyrate_curve(params, lengths)
            assert len(calls) == 1

    def test_default_curve_makes_six_rate_evaluations(self, monkeypatch):
        # the joint search's grid and three zooms, then one batch per cutoff,
        # each bisecting between two listed lengths
        mus = _count_rate_evaluations(monkeypatch)
        keyrate_curve(FIG_PARAMS, DEFAULT_LENGTHS)
        assert len(mus) == 6

    @pytest.mark.parametrize("lengths", [DEFAULT_LENGTHS, [0.0, 50.0, 100.0], [2000.0]])
    def test_one_eta_per_batch(self, lengths, monkeypatch):
        # the joint search's four evaluations share one eta for both
        # protocols, and each cutoff batch, one evaluation, computes its own
        mus = _count_rate_evaluations(monkeypatch)
        etas = []
        eta = rates._eta
        monkeypatch.setattr(rates, "_eta", lambda *args: etas.append(args[1]) or eta(*args))
        keyrate_curve(FIG_PARAMS, lengths)
        assert len(etas) == len(mus) - 3
        np.testing.assert_array_equal(etas[0], lengths)

    @pytest.mark.parametrize("params", JOINT_SEARCH_POINTS,
                             ids=[f"point{k}" for k in range(len(JOINT_SEARCH_POINTS))])
    def test_joint_search_matches_single_protocol_searches(self, params):
        # bit for bit, the sign of zero included, so the CSV bytes cannot move
        curve = keyrate_curve(params, DEFAULT_LENGTHS)
        km = np.array(DEFAULT_LENGTHS)
        mu_opt, rate = optimize_mu(params, km)
        assert curve.mu_opt.tobytes() == mu_opt.tobytes()
        assert curve.rate_proposal.tobytes() == rate.tobytes()
        assert curve.rate_bb84.tobytes() == optimize_mu_bb84(params, km)[1].tobytes()

    @pytest.mark.parametrize("lengths", [[150.3], [2000.0], [155.0, 400.0]])
    def test_cutoff_when_listed_lengths_start_past_it(self, lengths):
        # no listed length has key, but 0 km does: the cutoff lies in [0, lengths[0]]
        curve = keyrate_curve(FIG_PARAMS, lengths)
        assert abs(curve.cutoff_proposal_km - 150.3125) <= rates._CUTOFF_TOL_KM
        assert abs(curve.cutoff_bb84_km - 165.3125) <= rates._CUTOFF_TOL_KM

    def test_cap_when_rate_never_ends(self):
        lossless = RateParams(alpha_db_per_km=0.0)
        for lengths in ([0.0, 10.0], [990.0]):
            curve = keyrate_curve(lossless, lengths)
            assert curve.summary() == {"cutoff_proposal_km": 1000.0, "cutoff_bb84_km": 1000.0}

    @pytest.mark.parametrize("params, lengths", [
        (RateParams(alpha_db_per_km=0.01), [0.0, 1200.0]),
        (RateParams(alpha_db_per_km=0.0), [2000.0]),
    ], ids=["low-loss", "lossless"])
    def test_cutoff_never_below_a_listed_length_with_key(self, params, lengths):
        # the last length has key and lies past the cap, so the search has no
        # extension step left: the cutoff is that length, not the cap
        curve = _assert_curve_matches_searches(params, lengths)
        assert curve.rate_proposal[-1] > 0.0 and curve.rate_bb84[-1] > 0.0
        assert curve.summary() == {"cutoff_proposal_km": lengths[-1], "cutoff_bb84_km": lengths[-1]}

    def test_cutoff_is_the_cap_only_if_the_cap_has_key(self):
        # every 25 km step below the cap has key, the 1000 km step has none:
        # the cutoff is bisected between the last two steps
        params = RateParams(alpha_db_per_km=0.0306)
        assert optimize_mu(params, 1000.0)[1] == 0.0
        curve = _assert_curve_matches_searches(params, [0.0, 500.0])
        assert curve.cutoff_proposal_km == 980.859375

    def test_columns_are_read_only(self):
        curve = keyrate_curve(FIG_PARAMS, [0.0, 10.0])
        for column in (curve.length_km, curve.mu_opt, curve.rate_proposal, curve.rate_bb84):
            assert column.shape == (2,)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_unsorted_lengths_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            keyrate_curve(FIG_PARAMS, [10.0, 0.0])

    @pytest.mark.parametrize("lengths", [[math.inf], [0.0, math.inf]])
    def test_infinite_lengths_rejected(self, lengths):
        # key at 0 km and none at inf used to bisect [0, inf] forever
        with pytest.raises(ValueError, match="finite"):
            keyrate_curve(FIG_PARAMS, lengths)

    @pytest.mark.parametrize("lengths, cutoffs", [
        ([1e308], (149.91435121692268, 164.93359976184632)),
        ([0.0, 1.7e308], (149.88653779369133, 165.01704003154032)),
    ], ids=["1e308", "0-1.7e308"])
    def test_bisection_near_the_largest_double_evaluates_finite_lengths(self, lengths, cutoffs,
                                                                        monkeypatch):
        # the midpoint 0.5 * (lo + hi) of [0, 1.7e308] used to overflow to inf
        evaluated = []
        eta = rates._eta
        monkeypatch.setattr(rates, "_eta", lambda *args: evaluated.append(args[1]) or eta(*args))
        curve = keyrate_curve(RateParams(), lengths)
        assert all(np.isfinite(km).all() for km in evaluated)
        assert (curve.cutoff_proposal_km, curve.cutoff_bb84_km) == cutoffs

    @pytest.mark.parametrize("lengths", [[True, 5.0], [np.True_], ["1", "5"], [1.0, "5"],
                                         [0.5 + 0j], [None]],
                             ids=["bool", "np.bool", "str", "mixed-str", "complex", "None"])
    def test_non_number_lengths_rejected(self, lengths):
        # [True, 5.0] ran at [1.0, 5.0]; a string raised TypeError from sorted() or float()
        with pytest.raises(ValueError, match="length must be a real number"):
            keyrate_curve(FIG_PARAMS, lengths)


class TestSecurityRegime:
    def test_above_threshold(self):
        assert security_regime(0.70) is SecurityRegime.PROVEN_LOW_LOSS

    def test_exactly_at_threshold(self):
        assert security_regime(0.659) is SecurityRegime.PROVEN_LOW_LOSS

    def test_below_threshold(self):
        assert security_regime(0.10) is SecurityRegime.CONJECTURED_HIGH_LOSS
        assert security_regime(0.659 - 1e-9) is SecurityRegime.CONJECTURED_HIGH_LOSS

    def test_domain(self):
        with pytest.raises(ValueError):
            security_regime(1.5)
