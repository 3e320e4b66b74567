"""Known answers for the benchmark workloads, computed without qtwist.

Each checker takes a job's input and the result the worker collected from
the library, and returns None when the result is right, else a one-line
reason.  The answers come from closed formulas or from the generator's own
construction, never from the library under test.
"""

from __future__ import annotations

import json
from math import comb


def segre_pairs_checked(n, m, samples):
    """verify_homomorphism checks every ordered generator pair, then `samples` random pairs."""
    return ((n + 1) * (m + 1)) ** 2 + samples


def segre_kernel_dim(n, m, degree):
    """Degree-d kernel dimension of the Segre map at any nonzero specialization.

    The degree-d part of the source has C(N+d-1, d) monomials (N = (n+1)(m+1));
    the map sends each to a unit times a monomial of bidegree (d, d), and it is
    onto those C(n+d, d) C(m+d, d) monomials.  Every column of the map's
    matrix has exactly one nonzero entry, so the kernel dimension is the
    difference (the Hilbert function of the Segre ideal; Sturmfels, Groebner
    Bases and Convex Polytopes, 1996).
    """
    big = (n + 1) * (m + 1)
    return comb(big + degree - 1, degree) - comb(n + degree, degree) * comb(m + degree, degree)


def truncated_pairs(rank, bound):
    """Pairs (u, v) in N^rank x N^rank with |u| + |v| <= bound."""
    return comb(2 * rank + bound, bound)


def check_segre_verify(job, reports, samples):
    for item, (passed, pairs) in zip(job, reports):
        n, m = item["n"], item["m"]
        if not passed:
            return f"verify_homomorphism failed on (n, m) = ({n}, {m})"
        expected = segre_pairs_checked(n, m, samples)
        if pairs != expected:
            return f"(n, m) = ({n}, {m}) checked {pairs} pairs, expected {expected}"
    return None


def check_segre_kernel(shape, degrees, dims):
    expected = [segre_kernel_dim(*shape, d) for d in degrees]
    if list(dims) != expected:
        return f"kernel dimensions {list(dims)} at degrees {list(degrees)}, expected {expected}"
    return None


def check_cocycle_tables(job, pairs, passed, witnesses, matches):
    """`witnesses` are the to_json() tables of the rank-1 and product witnesses."""
    expected = truncated_pairs(len(job["cocycle"]), job["degree_bound"])
    if pairs != expected:
        return f"truncation has {pairs} pairs, expected {expected}"
    if not passed:
        return "exhaustive check rejected a bimultiplicative cocycle"
    for part, witness, match in zip(("rank1", "product"), witnesses, matches):
        if witness != job[part]["witness"]:
            return f"{part} witness differs from the generating function"
        if not match:
            return f"{part}: coboundary(h) != table"
    return None


def report_keys(text):
    """Top-level and payload key sets of a JSON report."""
    report = json.loads(text)
    return sorted(report), sorted(report.get("payload", {}))


def check_cli_case(case, code, output, golden_text):
    """Goldens must match byte for byte; seeded cases must match the golden's exit code and keys."""
    if code != case["code"]:
        return f"{case['name']} (golden={case['golden']}) exited {code}, expected {case['code']}"
    if case["golden"]:
        if output != golden_text:
            return f"{case['name']} differs from its golden report"
    elif report_keys(output) != report_keys(golden_text):
        return f"seeded {case['name']} report keys differ from the golden's"
    return None
