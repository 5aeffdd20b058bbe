"""Simulator and analysis toolkit for a QKD protocol whose receiver encodes
in the photon's path and measures with an untrusted single-photon Bell-state
analyzer.

The package re-exports nothing; import each name from its module.  Bottom-up:

- qstate:   PureState, DensityMatrix, trace distances: tiny complex linear algebra
- encoding: BB84 settings and states, the path-encoding network, VirtualSource,
            rho_alice and rho_bob (the virtual-protocol identities)
- bsm:      ideal and mode-network Bell measurement, click_table, sift_table
            and the visibility theory_table
- channel:  the device model: DOMAIN, poisson_pn, the lossy fiber's
            transmittance, RateParams, detector_routes (the one routing),
            the per-detector yields and the key formula
- rates:    yield tables, key_rate, optimize_mu, keyrate_curve and the
            two-detector reference: the rate engine, loaded only by
            keyrate-curve
- session:  SessionParams, run_session and SessionReport: vectorized Monte Carlo
- verify:   appendix_checks, the model consistency checks
- cli:      batch front end (``ddiqkd`` command), which loads per subcommand
            only the modules it runs
"""

__version__ = "0.1.0"
