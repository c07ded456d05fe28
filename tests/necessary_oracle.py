"""The necessary measure aggregated class by class, kept as a test oracle
for `certify.necessary_measure_test`.

`necessary_measure_test` sums the weights of all coincidence classes with
one reduceat over the class order, sorts them with one lexsort and finds
the worst violation as an array operation; the loops below are the
definition it must reproduce. The class members and locations are read
off the arrays `coincidence_classes` returns, which is the only change
from the loop form.
"""
import math

import numpy as np

from cauchydual.certify import (COINCIDENCE_TOL, NecessaryMeasure, SEGMENT_TOL,
                                TOL_PSD)


def _segment_distance(x: complex) -> float:
    re = min(max(x.real, 0.0), 1.0)
    return math.hypot(x.real - re, x.imag)


def necessary_measure_test(cross, classes):
    """Aggregate the necessary measure and check it is positive on [0, 1].

    Weights of classes located off the segment must vanish; weights on the
    segment must be real and nonnegative, all relative to TOL_PSD times
    the total variation. Failure refutes subnormality outright.
    """
    members_of = np.split(classes.order, classes.starts)[1:]
    raw = (cross / classes.products ** 2).ravel()
    weights = [complex(raw[members].sum()) for members in members_of]
    locations = classes.locations.tolist()
    scale = max(sum(abs(w) for w in weights), 1e-300)
    # descending weight in steps of TOL_PSD times the total variation,
    # then location with the real part in steps of COINCIDENCE_TOL
    step = TOL_PSD * scale
    perm = sorted(range(len(weights)),
                  key=lambda i: (-round(abs(weights[i]) / step),
                                 round(locations[i].real / COINCIDENCE_TOL),
                                 locations[i].imag))
    locations = [locations[i] for i in perm]
    weights = [weights[i] for i in perm]

    # the location is the first atom in report order whose violation, counted
    # in whole steps rounded up, is largest; the value is the largest itself
    worst, worst_loc, worst_steps = 0.0, None, 0
    for loc, w in zip(locations, weights):
        if _segment_distance(loc) > SEGMENT_TOL:
            bad = abs(w)
        else:
            bad = max(-w.real, abs(w.imag), 0.0)
        worst = max(worst, bad)
        if math.ceil(bad / step) > worst_steps:
            worst_loc, worst_steps = loc, math.ceil(bad / step)
    passed = worst <= TOL_PSD * scale
    return NecessaryMeasure(np.array(locations, dtype=complex),
                            np.array(weights, dtype=complex),
                            float(worst / scale), worst_loc), passed
