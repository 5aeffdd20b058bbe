#!/usr/bin/env python3
"""A full Monte Carlo protocol session, checked against the analytic model.

Runs two million pulses at 25 km, tallies per-detector gains and error
rates, and compares every estimate with the closed-form yield table.  The
session also books an asymptotic secret key length from its own tallies.
"""

import numpy as np

from ddiqkd.bsm import DetectorParams
from ddiqkd.channel import ChannelParams
from ddiqkd.rates import RateParams, yield_table
from ddiqkd.session import SessionParams, run_session

LENGTH_KM = 25.0
MU = 0.7

detector = DetectorParams(eta_det=0.145, p_dark=6.02e-6 / 2)
params = SessionParams(
    n_pulses=2_000_000,
    mu=MU,
    channel=ChannelParams(0.2, LENGTH_KM, 0.015),
    detector=detector,
)

report = run_session(params, seed=12345)
analytic = yield_table(RateParams(detector=detector), LENGTH_KM)

print(f"{params.n_pulses:,} pulses at {LENGTH_KM:.0f} km, mu = {MU}")
print(f"basis-matched pulses: {report.matched_pulses:,}")
print(f"sifted bits:          {report.sifted_length:,}\n")

rows = [
    ("gain Q_i", report.gains(), analytic.gains(MU)),
    ("QBER E_i", report.qbers(), analytic.qbers(MU)),
    ("vacuum yield Y_i0", report.vacuum_yields(), analytic.y0),
    ("single yield Y_i1", report.single_yields(), analytic.y1),
    ("single QBER e_i1", report.single_qbers(), analytic.e1),
]
print(f"{'quantity':18s} {'Monte Carlo (D1..D4)':>44s} {'analytic':>12s}")
for name, est, true in rows:
    cells = " ".join(f"{x:10.3e}" for x in est)
    print(f"{name:18s} {cells} {true[0]:12.3e}")

print(f"\nasymptotic secret key length: {report.secret_key_length:,.0f} bits")
print(f"secret bits per pulse:        {report.rate_per_pulse:.3e}")
print(f"effective sifting factor:     {report.q_sift_effective:.3f}")

diffs = np.abs(report.gains() - analytic.gains(MU))
print(f"\nworst |MC - analytic| gain difference: {diffs.max():.2e}")
