#!/usr/bin/env python3
"""The single-photon Bell measurement, two ways, plus imperfect visibility.

One photon carries two qubits: its polarization and which input port of the
measurement it occupies.  Projecting onto the hybrid Bell basis is optically
just a beamsplitter network; this script shows both models agree, prints the
click table for the eight matched settings, and degrades the interference
visibility to the experimentally relevant value.
"""

import numpy as np

from ddiqkd.bsm import (
    THEORY_ROWS,
    click_table,
    ideal_bsm_distribution,
    mode_network_distribution,
    mode_network_matrix,
    sift_table,
    theory_table,
    theory_row_label,
)
from ddiqkd.qstate import PureState, haar_amplitudes

print("Optical network (rows D1..D4, columns H1,H2,V1,V2), times sqrt(2):")
print(np.round(mode_network_matrix().real * np.sqrt(2), 10), "\n")

rng = np.random.default_rng(3)
states = PureState(haar_amplitudes(4, rng, (1000,)), ("pol", "path"))  # one (1000, 4) stack
worst = np.max(np.abs(mode_network_distribution(states) - ideal_bsm_distribution(states)))
print(f"network vs projector on 1000 random states: max deviation {worst:.2e}\n")


def show_table(vis):
    table = theory_table(vis)
    print(f"click probabilities at visibility {vis}:")
    print(f"  {'state':10s}   D1     D2     D3     D4")
    for (alice, bob), row in zip(THEORY_ROWS, table):
        cells = "  ".join(f"{p:5.3f}" for p in row)
        print(f"  {theory_row_label(alice, bob):10s}  {cells}")
    print()


show_table(1.0)
show_table(0.884)

# the largest click mass that the sift hands Bob as a wrong bit, over all codes
qber = (click_table(0.0, 0.884) * sift_table()[1]).sum(axis=1).max()
print(f"A fringe visibility of 88.4% projects to a QBER of {qber:.1%}:")
print("each diagonal row moves (1-V)/2 of its mass onto the wrong detector pair.")
