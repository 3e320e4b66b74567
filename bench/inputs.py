"""Seeded benchmark inputs, written as unit literals and JSON configs.

Stdlib only: nothing here imports qtwist, so the library under test sees only
the generated strings.  ``write_inputs(workload, seed, directory)``
writes ``inputs.jsonl``, one job per line (and, for cli-batch, one file per
seeded config);
the same workload and seed give byte-identical files.

Units are handled here as ``(Fraction, {name: exponent})`` pairs and rendered
in the library's canonical literal form, so expected witnesses can be
compared with the library's output as strings.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

PARAMS = ("q", "r", "s")

#: Segre shapes of every segre-verify job, in this fixed order.
SEGRE_PAIRS = tuple((n, m) for n in (1, 2, 3) for m in (1, 2, 3))
VERIFY_SAMPLES = 100
KERNEL_SHAPE = (2, 2)
KERNEL_DEGREES = (2, 3)
TABLE_RANK, TABLE_BOUND = 2, 6
RANK1_BOUND = 12
PRODUCT_SPLIT, PRODUCT_BOUND = (2, 1), 6

#: Distinct jobs generated per run; runs cycle through them.
POOL_SIZE = {"segre-verify": 32, "segre-kernel": 64, "cli-batch": 16, "cocycle-tables": 32}

#: The CLI golden corpus: (name, argv tail, expected exit code).
GOLDEN_CASES = (
    ("cocycle_check", ("cocycle", "check"), 0),
    ("cocycle_check_table", ("cocycle", "check"), 0),
    ("cocycle_check_table_bad", ("cocycle", "check"), 1),
    ("cocycle_antisym", ("cocycle", "antisym"), 0),
    ("cocycle_factorize", ("cocycle", "factorize"), 0),
    ("cocycle_reconstruct", ("cocycle", "reconstruct"), 0),
    ("cocycle_pullback", ("cocycle", "pullback"), 0),
    ("cocycle_trivialize_rank1", ("cocycle", "trivialize"), 0),
    ("cocycle_trivialize_split", ("cocycle", "trivialize"), 0),
    ("cocycle_trivialize_obstructed", ("cocycle", "trivialize"), 1),
    ("algebra_mul", ("algebra", "mul"), 0),
    ("algebra_relations", ("algebra", "relations"), 0),
    ("algebra_twist", ("algebra", "twist"), 0),
    ("segre_build", ("segre", "build"), 0),
    ("segre_verify", ("segre", "verify"), 0),
    ("segre_matrix", ("segre", "matrix"), 0),
    ("segre_kronecker", ("segre", "kronecker"), 0),
    ("segre_kernel", ("segre", "kernel", "--degree", "2", "--set", "q=1", "--set", "r=1"), 0),
    ("segre_kernel_quantum", ("segre", "kernel", "--degree", "2"), 0),
)

ONE = (Fraction(1), {})


# ---------------------------------------------------------------------------
# Units as (coefficient, exponents) and their canonical literals
# ---------------------------------------------------------------------------


def rand_unit(rng, params=PARAMS, max_coeff=7, max_exp=3):
    """Nonzero rational with numerator and denominator <= 7 times a monomial
    with exponents in [-3, 3]: the sampling bounds of the acceptance suite."""
    num = 0
    while num == 0:
        num = rng.randint(-max_coeff, max_coeff)
    exps = {}
    for name in params:
        if rng.random() < 0.6:
            e = rng.randint(-max_exp, max_exp)
            if e:
                exps[name] = e
    return Fraction(num, rng.randint(1, max_coeff)), exps


def rand_rational(rng, bound=7):
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, bound))


def mul(a, b):
    exps = dict(a[1])
    for name, e in b[1].items():
        exps[name] = exps.get(name, 0) + e
    return a[0] * b[0], {n: e for n, e in exps.items() if e}


def inv(a):
    return 1 / a[0], {n: -e for n, e in a[1].items()}


def power(a, k):
    return a[0] ** k, {n: e * k for n, e in a[1].items() if e * k}


def render(a):
    """The canonical unit literal: reduced rational, sorted names, no ^1."""
    coeff, exps = a
    factors = [n if e == 1 else f"{n}^{e}" for n, e in sorted(exps.items()) if e]
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    if coeff == -1:
        return "-" + "*".join(factors)
    return "*".join([str(coeff)] + factors)


def unit_matrix(rng, rank, params=PARAMS):
    return [[render(rand_unit(rng, params)) for _ in range(rank)] for _ in range(rank)]


def antisym_matrix(rng, rank, params=PARAMS):
    rows = [["1"] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            a = rand_unit(rng, params)
            rows[i][j], rows[j][i] = render(a), render(inv(a))
    return rows


# ---------------------------------------------------------------------------
# Exponent vectors and coboundary tables
# ---------------------------------------------------------------------------


def vectors_up_to(rank, bound):
    """All vectors of N^rank with total degree <= bound, by degree then lexicographically."""
    def of_degree(r, d):
        if r == 1:
            yield (d,)
            return
        for first in range(d + 1):
            for rest in of_degree(r - 1, d - first):
                yield (first,) + rest
    for d in range(bound + 1):
        yield from of_degree(rank, d)


def coboundary_table(h, rank, bound):
    """delta(h)(u, v) = h(u) h(v) / h(u+v) on all pairs with |u| + |v| <= bound."""
    table = []
    for u in vectors_up_to(rank, bound):
        for v in vectors_up_to(rank, bound - sum(u)):
            w = tuple(a + b for a, b in zip(u, v))
            value = mul(mul(h[u], h[v]), inv(h[w]))
            table.append({"u": list(u), "v": list(v), "value": render(value)})
    return table


def function_json(h):
    """A tabulated function in the library's to_json order (sorted by exponents)."""
    return [{"u": list(u), "value": render(h[u])} for u in sorted(h)]


def rank1_job(rng, bound=RANK1_BOUND):
    """A rank-1 coboundary and its witness h, normalized by h(e) = h(g) = 1."""
    h = {(0,): ONE, (1,): ONE}
    for p in range(2, bound + 1):
        h[(p,)] = rand_unit(rng)
    return {"degree_bound": bound, "table": coboundary_table(h, 1, bound),
            "witness": function_json(h)}


def product_job(rng, split=PRODUCT_SPLIT, bound=PRODUCT_BOUND):
    """A coboundary on N^a x N^b of an h that is 1 on both factors.

    Such an h is exactly the witness yamazaki_trivialize reconstructs:
    h((s, t)) = 1 / delta(h)((s, e), (e, t)).
    """
    a, b = split
    h = {}
    for w in vectors_up_to(a + b, bound):
        h[w] = ONE if sum(w[:a]) == 0 or sum(w[a:]) == 0 else rand_unit(rng)
    return {"split": list(split), "degree_bound": bound,
            "table": coboundary_table(h, a + b, bound), "witness": function_json(h)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def segre_verify_job(rng):
    return [{"n": n, "m": m, "cocycle": unit_matrix(rng, n + m + 2),
             "seed": rng.randint(0, 9999)} for n, m in SEGRE_PAIRS]


def segre_kernel_job(rng):
    n, m = KERNEL_SHAPE
    return {"cocycle": unit_matrix(rng, n + m + 2),
            "specialization": {p: str(rand_rational(rng)) for p in PARAMS}}


def cocycle_tables_job(rng):
    return {"cocycle": unit_matrix(rng, TABLE_RANK), "degree_bound": TABLE_BOUND,
            "rank1": rank1_job(rng), "product": product_job(rng)}


def rank1_cocycle_table(a, bound, perturb=None):
    """Values a^(u v) of a rank-1 bimultiplicative cocycle; optionally one entry scaled."""
    table = []
    for u in range(bound + 1):
        for v in range(bound - u + 1):
            value = power(a, u * v)
            if perturb is not None and (u, v) == perturb[0]:
                value = mul(value, perturb[1])
            table.append({"u": [u], "v": [v], "value": render(value)})
    return table


def seeded_cli_config(name, rng):
    """A seeded config with the shape of the golden case `name`, and the same verdict."""
    qr, q = ("q", "r"), ("q",)
    if name == "cocycle_check":
        return {"parameters": list(qr), "cocycle": unit_matrix(rng, 3, qr),
                "samples": 50, "seed": rng.randint(0, 9999)}
    if name in ("cocycle_check_table", "cocycle_check_table_bad"):
        bad = name.endswith("bad")
        bound = 4 if bad else 3
        perturb = ((1, 1), (Fraction(5), {})) if bad else None
        return {"parameters": ["q"], "rank": 1, "degree_bound": bound,
                "table": rank1_cocycle_table(rand_unit(rng, q), bound, perturb)}
    if name == "cocycle_antisym":
        return {"parameters": list(qr), "cocycle": unit_matrix(rng, 3, qr)}
    if name == "cocycle_factorize":
        return {"parameters": list(qr), "cocycle": unit_matrix(rng, 4, qr), "split": [2, 2]}
    if name == "cocycle_reconstruct":
        return {"parameters": list(qr), "left": unit_matrix(rng, 2, qr),
                "right": unit_matrix(rng, 2, qr), "pairing": unit_matrix(rng, 2, qr)}
    if name == "cocycle_pullback":
        return {"parameters": list(qr), "cocycle": unit_matrix(rng, 4, qr), "segre": [1, 1]}
    if name == "cocycle_trivialize_rank1":
        return {"parameters": ["q"], "cocycle": [[render(rand_unit(rng, q))]], "degree_bound": 6}
    if name == "cocycle_trivialize_split":
        a = render(rand_unit(rng, q))
        return {"parameters": ["q"], "cocycle": [["1", a], [a, "1"]],
                "degree_bound": 5, "split": [1, 1]}
    if name == "cocycle_trivialize_obstructed":
        a = ONE
        while a == ONE:
            a = rand_unit(rng, q)
        return {"parameters": ["q"], "cocycle": [["1", render(a)], ["1", "1"]],
                "degree_bound": 4, "split": [1, 1]}
    if name == "algebra_mul":
        return {"parameters": ["q"],
                "algebra": {"antisym": antisym_matrix(rng, 2, q), "generators": ["X0", "X1"]},
                "x": "X1^2", "y": f"{rng.randint(1, 9)}*X0 + q*X1"}
    if name == "algebra_relations":
        return {"parameters": list(PARAMS), "algebra": {"antisym": antisym_matrix(rng, 3)}}
    if name == "algebra_twist":
        return {"parameters": list(qr), "algebra": {"cocycle": unit_matrix(rng, 2, qr)},
                "twist": unit_matrix(rng, 2, qr)}
    if name == "segre_kronecker":
        return {"parameters": list(qr), "q": antisym_matrix(rng, 2, qr),
                "qprime": antisym_matrix(rng, 2, qr)}
    config = {"parameters": list(qr), "n": 1, "m": 1, "cocycle": unit_matrix(rng, 4, qr)}
    if name == "segre_verify":
        config.update(samples=25, seed=rng.randint(0, 9999))
    elif name == "segre_kernel":
        config.update(degree=2)
    elif name == "segre_kernel_quantum":
        config.update(degree=2, specialization={p: str(rand_rational(rng)) for p in qr})
    elif name not in ("segre_build", "segre_matrix"):
        raise ValueError(f"no seeded recipe for CLI case {name!r}")
    return config


def _compact(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _dump(path, data):
    path.write_text(_compact(data) + "\n")


def write_inputs(workload, seed, directory):
    """Write the inputs of one run into `directory` as ``inputs.jsonl``, one job per line.

    A cli-batch job is the golden corpus plus its own seeded config of each
    golden shape, in a seeded order; its cases name golden configs relative
    to the checkout root and seeded configs relative to `directory`.
    """
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    pool = POOL_SIZE[workload]
    if workload == "segre-verify":
        jobs = [segre_verify_job(rng) for _ in range(pool)]
    elif workload == "segre-kernel":
        jobs = [segre_kernel_job(rng) for _ in range(pool)]
    elif workload == "cocycle-tables":
        jobs = [cocycle_tables_job(rng) for _ in range(pool)]
    elif workload == "cli-batch":
        golden = [{"name": name, "argv": list(tail), "code": code, "golden": True,
                   "config": f"tests/configs/{name}.json"} for name, tail, code in GOLDEN_CASES]
        jobs = []
        for k in range(pool):
            cases = list(golden)
            for name, tail, code in GOLDEN_CASES:
                path = directory / f"seeded_{k}_{name}.json"
                _dump(path, seeded_cli_config(name, rng))
                cases.append({"name": name, "argv": list(tail), "code": code, "golden": False,
                              "config": path.name})
            rng.shuffle(cases)
            jobs.append(cases)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (directory / "inputs.jsonl").write_text("".join(_compact(job) + "\n" for job in jobs))
