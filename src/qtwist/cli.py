"""Command-line driver: cocycle checks, factorizations, algebra products, Segre maps.

One batch job per invocation, configured by a JSON document (TOML is accepted
on Python 3.11+).  All values are exact literals in the unit/element grammar;
reports are deterministic given config and seed, and ``--json`` emits them as
machine-readable JSON.

Exit codes: 0 for pass/report, 1 when a mathematical check fails (the report
carries the counterexample), 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import algebras, cocycles, segre
from .cocycles import (
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    Pairing,
    TruncatedCocycle,
)
from .monoids import ExponentVector, MonoidMorphism, ProductSplit, segre_morphism
from .scalars import parse_unit, render_unit


class InputError(Exception):
    """Malformed configuration or arguments (exit code 2)."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _load_config(path):
    if path is None:
        raise InputError("this subcommand requires --config PATH")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from None
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise InputError("TOML configs need Python 3.11+; use JSON instead") from None
        try:
            return tomllib.loads(raw.decode())
        except tomllib.TOMLDecodeError as exc:
            raise InputError(f"malformed TOML config: {exc}") from None
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON config: {exc}") from None


def _declared_parameters(config):
    names = config.get("parameters", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise InputError('"parameters" must be a list of names')
    return set(names)


def _check_declared(used, declared, context):
    undeclared = sorted(used - declared)
    if undeclared:
        raise InputError(f"undeclared parameters in {context}: {', '.join(undeclared)}")


def _require(config, key):
    if key not in config:
        raise InputError(f'config is missing required key "{key}"')
    return config[key]


def _parse_unit_matrix(data, context):
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise InputError(f"{context} must be a 2-D array of unit literals")
    for row in data:
        for entry in row:
            if not isinstance(entry, str):
                raise InputError(f"{context} entries must be unit literal strings, got {entry!r}")
    try:
        return [[parse_unit(entry) for entry in row] for row in data]
    except ValueError as exc:
        raise InputError(f"bad unit literal in {context}: {exc}") from None


def _cocycle_from(config, declared, key="cocycle"):
    mat = _parse_unit_matrix(_require(config, key), f'"{key}"')
    try:
        mu = BimultiplicativeCocycle(mat)
    except (ValueError, TypeError) as exc:
        raise InputError(f'bad "{key}" matrix: {exc}') from None
    _check_declared(mu.parameters(), declared, f'"{key}"')
    return mu


def _antisym_from(config, declared, key):
    mat = _parse_unit_matrix(_require(config, key), f'"{key}"')
    try:
        q = AntisymmetricMatrix(mat)
    except (ValueError, TypeError) as exc:
        raise InputError(f'bad "{key}" matrix: {exc}') from None
    used = {name for row in q.matrix for a in row for name in a.parameters()}
    _check_declared(used, declared, f'"{key}"')
    return q


def _split_from(config):
    data = _require(config, "split")
    if (not isinstance(data, list) or len(data) != 2
            or not all(isinstance(x, int) for x in data)):
        raise InputError('"split" must be a pair of positive integers [a, b]')
    try:
        return ProductSplit(data[0], data[1])
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _table_from(config, declared):
    data = _require(config, "table")
    rank = _require(config, "rank")
    bound = _require(config, "degree_bound")
    try:
        table = TruncatedCocycle.from_json(rank, bound, data)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise InputError(f'bad "table": {exc}') from None
    used = set()
    for value in table.table.values():
        used |= value.parameters()
    _check_declared(used, declared, '"table"')
    return table


def _algebra_from(config, declared):
    data = _require(config, "algebra")
    if not isinstance(data, dict):
        raise InputError('"algebra" must be an object')
    if "cocycle" in data:
        mu = _cocycle_from(data, declared)
    elif "antisym" in data:
        mu = cocycles.canonical_from_antisym(_antisym_from(data, declared, "antisym"))
    else:
        raise InputError('"algebra" needs a "cocycle" or "antisym" matrix')
    names = data.get("generators")
    try:
        return algebras.TwistedMonoidAlgebra(mu, names)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _element_from(config, key, algebra, declared):
    text = _require(config, key)
    try:
        return algebras.parse_element(algebra, text, parameters=declared)
    except ValueError as exc:
        raise InputError(f'bad element "{key}": {exc}') from None


def _specialization_from(config, declared, overrides):
    spec = config.get("specialization", {})
    if not isinstance(spec, dict):
        raise InputError('"specialization" must be an object mapping parameter names to rationals')
    values = {}
    for name, text in spec.items():
        values[name] = _parse_rational(name, text)
    for name, text in overrides or []:
        values[name] = _parse_rational(name, text)
    _check_declared(set(values), declared, "specialization")
    return values


def _parse_rational(name, text):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational for parameter {name!r}: {exc}") from None


def _config_int(config, key, default, minimum=None):
    value = config.get(key, default)
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise InputError(f'"{key}" must be an integer, got {value!r}') from None
    if minimum is not None and value < minimum:
        raise InputError(f'"{key}" must be >= {minimum}, got {value}')
    return value


def _seed(args, config):
    return args.seed if args.seed is not None else _config_int(config, "seed", 0)


def _samples(args, config, default=100):
    if args.samples is not None:
        config = {"samples": args.samples}
    return _config_int(config, "samples", default, minimum=0)


# ---------------------------------------------------------------------------
# Handlers (each returns the report dict; "fail" status maps to exit code 1)
# ---------------------------------------------------------------------------


def _report(command, status, payload, counterexample=None):
    report = {"command": command, "status": status, "payload": payload}
    if counterexample is not None:
        report["counterexample"] = counterexample
    return report


def _random_dense_vector(rng, rank, max_entry=5):
    return ExponentVector([rng.randint(0, max_entry) for _ in range(rank)])


def cmd_cocycle_check(args, config):
    declared = _declared_parameters(config)
    if "table" in config:
        table = _table_from(config, declared)
        check = cocycles.verify_cocycle_equation(table)
        payload = {"rank": table.rank, "degree_bound": table.degree_bound, "exhaustive": True}
        if check:
            return _report("cocycle.check", "pass", payload)
        kind = check.counterexample[0]
        if kind == "identity":
            detail = {"identity_violation": check.counterexample[1].to_json()}
        else:
            x, y, z = check.counterexample
            detail = {"triple": [x.to_json(), y.to_json(), z.to_json()]}
        return _report("cocycle.check", "fail", payload, detail)
    mu = _cocycle_from(config, declared)
    rng = random.Random(_seed(args, config))
    samples = _samples(args, config)
    for _ in range(samples):
        x = _random_dense_vector(rng, mu.rank)
        y = _random_dense_vector(rng, mu.rank)
        z = _random_dense_vector(rng, mu.rank)
        lhs = mu.evaluate(x, y + z) * mu.evaluate(y, z)
        rhs = mu.evaluate(x, y) * mu.evaluate(x + y, z)
        if lhs != rhs:
            return _report("cocycle.check", "fail",
                           {"rank": mu.rank, "samples": samples},
                           {"triple": [x.to_json(), y.to_json(), z.to_json()]})
    return _report("cocycle.check", "pass",
                   {"rank": mu.rank, "samples": samples, "exhaustive": False})


def cmd_cocycle_antisym(args, config):
    declared = _declared_parameters(config)
    mu = _cocycle_from(config, declared)
    beta = cocycles.antisymmetrize(mu)
    return _report("cocycle.antisym", "report", {"antisymmetrization": beta.to_json()})


def cmd_cocycle_factorize(args, config):
    declared = _declared_parameters(config)
    mu = _cocycle_from(config, declared)
    split = _split_from(config)
    try:
        left, right, alpha = cocycles.yamazaki_factorize(mu, split)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _report("cocycle.factorize", "report", {
        "left": left.to_json(),
        "right": right.to_json(),
        "pairing": alpha.to_json(),
        "factorizable": alpha.is_trivial(),
    })


def cmd_cocycle_reconstruct(args, config):
    declared = _declared_parameters(config)
    left = _cocycle_from(config, declared, "left")
    right = _cocycle_from(config, declared, "right")
    pairing_mat = _parse_unit_matrix(_require(config, "pairing"), '"pairing"')
    try:
        alpha = Pairing(pairing_mat)
        mu = cocycles.yamazaki_reconstruct(left, right, alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _report("cocycle.reconstruct", "report", {"cocycle": mu.to_json()})


def cmd_cocycle_pullback(args, config):
    declared = _declared_parameters(config)
    mu = _cocycle_from(config, declared)
    if "segre" in config:
        nm = config["segre"]
        if not (isinstance(nm, list) and len(nm) == 2):
            raise InputError('"segre" must be [n, m]')
        try:
            f = segre_morphism(nm[0], nm[1])
        except ValueError as exc:
            raise InputError(str(exc)) from None
    else:
        data = _require(config, "morphism")
        try:
            images = [ExponentVector(row) for row in data]
            f = MonoidMorphism(len(images), mu.rank, images)
        except (ValueError, TypeError) as exc:
            raise InputError(f'bad "morphism": {exc}') from None
    try:
        pulled = cocycles.pullback(mu, f)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _report("cocycle.pullback", "report", {"cocycle": pulled.to_json()})


def cmd_cocycle_trivialize(args, config):
    declared = _declared_parameters(config)
    if "table" in config:
        table = _table_from(config, declared)
    else:
        mu = _cocycle_from(config, declared)
        bound = _config_int(config, "degree_bound", cocycles.DEFAULT_DEGREE_BOUND, minimum=0)
        table = TruncatedCocycle.truncate(mu, bound)
    try:
        if "split" in config:
            h = cocycles.yamazaki_trivialize(table, _split_from(config))
        elif table.rank == 1:
            h = cocycles.trivialize_rank1(table)
        else:
            raise InputError('rank > 1 trivialization needs a "split"')
    except ValueError as exc:
        return _report("cocycle.trivialize", "fail",
                       {"rank": table.rank, "degree_bound": table.degree_bound},
                       {"obstruction": str(exc)})
    verified = cocycles.coboundary(h) == table
    status = "pass" if verified else "fail"
    return _report("cocycle.trivialize", status, {
        "rank": table.rank,
        "degree_bound": table.degree_bound,
        "witness": h.to_json(),
        "coboundary_matches": verified,
    })


def cmd_algebra_mul(args, config):
    declared = _declared_parameters(config)
    algebra = _algebra_from(config, declared)
    x = _element_from(config, "x", algebra, declared)
    y = _element_from(config, "y", algebra, declared)
    product = x * y
    return _report("algebra.mul", "report", {
        "product": algebras.render_element(product),
        "terms": product.to_json(),
    })


def cmd_algebra_relations(args, config):
    declared = _declared_parameters(config)
    algebra = _algebra_from(config, declared)
    beta = algebras.deformation_matrix(algebra)
    names = algebra.generator_names
    relations = []
    for i in range(algebra.rank):
        for j in range(i + 1, algebra.rank):
            coeff = beta.entry(j, i)
            lhs = algebra.generator(j) * algebra.generator(i)
            rhs = (algebra.generator(i) * algebra.generator(j)).scaled(coeff)
            if lhs != rhs:
                return _report("algebra.relations", "fail", {},
                               {"pair": [names[i], names[j]]})
            relations.append({"i": i, "j": j, "coefficient": render_unit(coeff)})
    return _report("algebra.relations", "pass", {
        "generators": list(names),
        "relations": relations,
    })


def cmd_algebra_twist(args, config):
    declared = _declared_parameters(config)
    algebra = _algebra_from(config, declared)
    nu = _cocycle_from(config, declared, "twist")
    try:
        twisted = algebras.twist_by(algebra, nu)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _report("algebra.twist", "report", {
        "cocycle": twisted.cocycle.to_json(),
        "deformation_matrix": algebras.deformation_matrix(twisted).to_json(),
    })


def _segre_map_from(args, config, declared):
    n = _require(config, "n")
    m = _require(config, "m")
    mu = _cocycle_from(config, declared)
    try:
        return segre.build_quantum_segre(n, m, mu)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None


def cmd_segre_build(args, config):
    declared = _declared_parameters(config)
    smap = _segre_map_from(args, config, declared)
    f = smap.morphism
    images = [{"generator": name, "degree": w.to_json()}
              for name, w in zip(smap.source.generator_names, f.generator_images)]
    payload = smap.to_json()
    payload.update({
        "source_cocycle": smap.source.cocycle.to_json(),
        "source_generators": list(smap.source.generator_names),
        "target_generators": list(smap.target.generator_names),
        "images": images,
    })
    return _report("segre.build", "report", payload)


def cmd_segre_verify(args, config):
    declared = _declared_parameters(config)
    smap = _segre_map_from(args, config, declared)
    report = segre.verify_homomorphism(smap.homomorphism,
                                       samples=_samples(args, config),
                                       seed=_seed(args, config))
    payload = {"n": smap.n, "m": smap.m, "pass": report.passed,
               "pairs_checked": report.pairs_checked, "seed": report.seed}
    if report.passed:
        return _report("segre.verify", "pass", payload)
    return _report("segre.verify", "fail", payload, {"pair": list(report.counterexample)})


def cmd_segre_matrix(args, config):
    declared = _declared_parameters(config)
    smap = _segre_map_from(args, config, declared)
    g = segre.source_deformation_matrix(smap)
    return _report("segre.matrix", "report", {"deformation_matrix": g.to_json()})


def cmd_segre_kronecker(args, config):
    declared = _declared_parameters(config)
    q = _antisym_from(config, declared, "q")
    qprime = _antisym_from(config, declared, "qprime")
    return _report("segre.kronecker", "report",
                   {"kronecker": segre.kronecker(q, qprime).to_json()})


def cmd_segre_kernel(args, config):
    declared = _declared_parameters(config)
    smap = _segre_map_from(args, config, declared)
    if args.degree is None and "degree" not in config:
        raise InputError("kernel probe needs --degree N (or a config degree)")
    degree = args.degree if args.degree is not None else _config_int(config, "degree", None)
    values = _specialization_from(config, declared, args.set)
    try:
        basis = segre.kernel_basis(smap, degree, values)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _report("segre.kernel", "report", {
        "n": smap.n,
        "m": smap.m,
        "degree": degree,
        "specialization": {name: str(v) for name, v in sorted(values.items())},
        "dimension": len(basis),
        "basis": [algebras.render_element(x) for x in basis],
    })


# ---------------------------------------------------------------------------
# Argument parsing and output
# ---------------------------------------------------------------------------

_COMMANDS = {
    "cocycle": {
        "check": cmd_cocycle_check,
        "antisym": cmd_cocycle_antisym,
        "factorize": cmd_cocycle_factorize,
        "reconstruct": cmd_cocycle_reconstruct,
        "pullback": cmd_cocycle_pullback,
        "trivialize": cmd_cocycle_trivialize,
    },
    "algebra": {
        "mul": cmd_algebra_mul,
        "relations": cmd_algebra_relations,
        "twist": cmd_algebra_twist,
    },
    "segre": {
        "build": cmd_segre_build,
        "verify": cmd_segre_verify,
        "matrix": cmd_segre_matrix,
        "kronecker": cmd_segre_kronecker,
        "kernel": cmd_segre_kernel,
    },
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qtwist",
        description="Exact cocycle twists of N^n-graded algebras: checks, factorizations, Segre maps.")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, commands in _COMMANDS.items():
        gp = groups.add_parser(group)
        sub = gp.add_subparsers(dest="command", required=True)
        for name, handler in commands.items():
            cp = sub.add_parser(name)
            cp.add_argument("--config", help="path to a JSON (or TOML) job config")
            cp.add_argument("--json", action="store_true", help="emit the machine-readable JSON report")
            cp.add_argument("--seed", type=int, default=None, help="seed for sampled verifications")
            cp.add_argument("--samples", type=int, default=None, help="number of random samples")
            cp.add_argument("--degree", type=int, default=None, help="total degree (kernel probe)")
            cp.add_argument("--set", action="append", metavar="NAME=RATIONAL",
                            type=_parse_assignment, default=None,
                            help="specialize a parameter (repeatable)")
            cp.set_defaults(handler=handler, full_command=f"{group}.{name}")
    return parser


def _parse_assignment(text):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=RATIONAL, got {text!r}")
    return (name.strip(), value.strip())


def _emit(report, as_json, out):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
        return
    print(f"{report['command']}: {report['status']}", file=out)
    for key, value in report["payload"].items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}", file=out)
    if "counterexample" in report:
        print(f"  counterexample: {json.dumps(report['counterexample'], sort_keys=True)}", file=out)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if not isinstance(config, dict):
            raise InputError(f"config must be an object of keys, got a JSON {type(config).__name__}")
        report = args.handler(args, config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.json, out)
    return 0 if report["status"] != "fail" else 1


if __name__ == "__main__":
    sys.exit(main())
