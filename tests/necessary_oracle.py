"""The necessary measure aggregated class by class, kept as a test oracle
for `certify.necessary_measure_test`.

`necessary_measure_test` chains the pole products into classes with
array operations, sums the weights of all classes with one reduceat over
the class order, sorts them with one lexsort and finds the worst
violation and the exactness condition as array operations; the loops
below are the definition it must reproduce. The classes come from a
pairwise union-find over the same products.
"""
import math

import numpy as np

from cauchydual.certify import (COINCIDENCE_TOL, NecessaryMeasure, SEGMENT_TOL,
                                TOL_PSD)


def _segment_distance(x: complex) -> float:
    re = min(max(x.real, 0.0), 1.0)
    return math.hypot(x.real - re, x.imag)


def union_find_classes(products):
    """Pairwise union-find over the pole products, the reference grouping:
    (members, mean product) per class, members as row-major flat indices
    in increasing order, classes by first member. The mean sums the
    members in that order with np.add.reduceat, whose sum of a large class
    can differ in the last bit from np.sum's and from a running sum's; the
    tests compare the grouping, not numpy's summation order."""
    flat = np.asarray(products, dtype=complex).ravel()
    parent = list(range(len(flat)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if abs(flat[i] - flat[j]) <= COINCIDENCE_TOL:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(flat)):
        groups.setdefault(find(i), []).append(i)
    return [(members, np.add.reduceat(flat[members], [0])[0] / len(members))
            for members in groups.values()]


def necessary_measure_test(pairing):
    """Aggregate the necessary measure, check it is positive on [0, 1] and
    decide the exactness condition: (measure, passed, exact).

    Weights of classes located off the segment must vanish; weights on the
    segment must be real and nonnegative, all relative to TOL_PSD times
    the total variation. Failure refutes subnormality outright. exact holds
    when there are at least two poles and every off-diagonal product is a
    class of its own located off the segment.
    """
    k = len(pairing.products)
    classes = union_find_classes(pairing.products)
    raw = (pairing.cross / pairing.products ** 2).ravel()
    weights = [complex(raw[members].sum()) for members, _ in classes]
    locations = [complex(1.0 / mean) for _, mean in classes]
    lone = sum(len(members) == 1 and members[0] % (k + 1) != 0
               and _segment_distance(loc) > SEGMENT_TOL
               for (members, _), loc in zip(classes, locations))
    exact = k >= 2 and lone == k * (k - 1)

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
                            float(worst / scale), worst_loc), passed, exact
