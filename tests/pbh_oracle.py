"""The PBH loop that ``sysmodel`` once decided stabilizability with, as an oracle for the controllability staircase."""

import numpy as np

from monotrack.numkernel import DEFAULT_POLICY, rank_of


def pbh_stabilizable(sys, tol=DEFAULT_POLICY):
    """``(stabilizable, bad_modes)``: one complex rank test of [A - lam I, B] per unstable eigenvalue of A."""
    stabilizable = True
    bad_modes = []
    for lam in np.linalg.eigvals(sys.A).tolist():
        # [A - conj(lam) I, B] is the conjugate of [A - lam I, B] and has the
        # same rank: one test per conjugate pair, made at its upper member.
        if lam.imag < 0.0 or sys.domain.is_stable(lam):
            continue
        pbh = rank_of(np.hstack([sys.A - lam * np.eye(sys.n), sys.B.astype(complex)]), tol)
        if pbh < sys.n:
            stabilizable = False
            bad_modes.extend([lam, lam.conjugate()] if lam.imag > 0.0 else [lam])
    return stabilizable, bad_modes
