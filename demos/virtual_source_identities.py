#!/usr/bin/env python3
"""Why the receiver's path encoding leaks nothing about his setting choice.

In the virtual picture, Bob holds a four-state register that controls which
path the incoming photon takes.  Whatever state arrives from the channel,
tracing out the optical modes leaves his register in one fixed rank-two
state -- the same state Alice's own virtual register is in.  This script
makes that concrete with random inputs and random register bases, each
batch of inputs going through ``rho_bob`` as one stack.
"""

import numpy as np

from ddiqkd.encoding import VirtualSource, rho_alice, rho_bob
from ddiqkd.qstate import DensityMatrix, haar_amplitudes, max_trace_distance, random_unitary, trace_distance


def pure_qubits(amps):
    """Pure polarization states (amplitudes along the last axis) as density matrices."""
    amps = np.asarray(amps, dtype=complex)
    return DensityMatrix(amps[..., :, None] * amps[..., None, :].conj())


rng = np.random.default_rng(1)
source = VirtualSource()  # uniform over the four BB84 settings

rho_a = rho_alice(source)
print("Alice's virtual register state (4x4, shown rounded):")
print(np.round(rho_a.mat.real, 4))
print("eigenvalues:", np.round(rho_a.eigenvalues(), 12), "-> rank two\n")

print("Receiver state for a few very different inputs:")
labels = ("|H>", "|V>", "|+45>", "circular")
inputs = [[1, 0], [0, 1], [2**-0.5, 2**-0.5], [2**-0.5, 1j * 2**-0.5]]
for label, dist in zip(labels, trace_distance(rho_bob(pure_qubits(inputs), source), rho_a)):
    print(f"  input {label:9s} trace distance to Alice's state: {dist:.2e}")

worst = max_trace_distance(rho_bob(pure_qubits(haar_amplitudes(2, rng, (500,))), source), rho_a)
print(f"\n500 Haar-random inputs: worst trace distance {worst:.2e}")

rotated = rho_bob(
    pure_qubits(haar_amplitudes(2, rng, (100,))),
    source,
    register_basis=random_unitary(4, rng, (100,)),
)
drift = np.max(np.abs(rotated.eigenvalues() - rho_a.eigenvalues()))
print(f"100 random register bases: worst spectrum drift {drift:.2e}")
print("\nThe identity is what lets the measurement itself stay untrusted.")
