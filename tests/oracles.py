"""Independent statements of the receiver that the tests check the package against.

They restate by hand what the package derives from its tables, so a test
that compares the two does not check a table against itself.
The photon-by-photon session sampler in ``test_session.py`` keeps Bob's bit
by ``agreement_detectors``.
"""

from ddiqkd.encoding import Basis, Bb84Setting, PathSetting


def agreement_detectors(alice: Bb84Setting, bob: PathSetting) -> tuple[int, int]:
    """Detector pair (1-based) an ideal photon can reach for a basis-matched pair.

    These are exactly the outcomes whose flip rule restores bit agreement.
    """
    if alice.basis is not bob.basis:
        raise ValueError("settings are not basis-matched")
    if alice.basis is Basis.RECTILINEAR:
        return (1, 2) if alice.bit == bob.bit else (3, 4)
    return (1, 3) if alice.bit == bob.bit else (2, 4)
