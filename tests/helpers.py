"""Small test-side helpers for invariance checks and trace widths."""

from dataclasses import replace

import numpy as np

from poledspdc.spectra import half_max_interval


def shifted(stack, offset):
    """Copy of the stack rigidly translated by offset."""
    return replace(stack, boundaries=stack.boundaries + offset)


def trace_fwhm(delays, values):
    """FWHM of a temporal trace (outermost half-max crossings)."""
    lo, hi = half_max_interval(np.asarray(delays), np.asarray(values))
    return hi - lo
