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
import contextlib
import json
import sys
from functools import cache, partial

from . import algebras, cocycles, segre
from .cocycles import (
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    Pairing,
    TruncatedCocycle,
)
from .monoids import ExponentVector, MonoidMorphism, ProductSplit, segre_morphism
from .scalars import _check_value, _fraction, _parameters_of, _render_rational, render_unit


class InputError(Exception):
    """Malformed configuration or arguments (exit code 2)."""


# ---------------------------------------------------------------------------
# Config parsing: one parser per key, run in table order before the handler
# ---------------------------------------------------------------------------


def _load_config(path):
    if path is None:
        raise InputError("this subcommand requires --config PATH")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from None
    kind, loads = "JSON", json.loads
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise InputError("TOML configs need Python 3.11+; use JSON instead") from None
        kind, loads = "TOML", tomllib.loads
    try:
        return loads(raw.decode())
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError and TOMLDecodeError are ValueErrors
        reason = exc
        if type(exc) is ValueError:  # int()'s refusal past the digit limit; its advice to raise it is not for users
            reason = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        raise InputError(f"malformed {kind} config: {reason}") from None


class _Config(dict):
    """Parsed config keys; reading an absent key is the missing-key input error."""

    def __missing__(self, key):
        raise InputError(f'config is missing required key "{key}"')


def _check_declared(used, declared, context):
    undeclared = sorted(used - declared)
    if undeclared:
        raise InputError(f"undeclared parameters in {context}: {', '.join(undeclared)}")


@contextlib.contextmanager
def _rejected_as(context, errors=(ValueError,)):
    """Turn the library's rejection of an input into an InputError naming `context`."""
    try:
        yield
    except errors as exc:
        raise InputError(f"bad {context}: {exc}") from None


def _int(key, value, parsed=None, minimum=None):
    # bool is a subclass of int, and a float would be truncated: neither is a JSON integer
    if type(value) is not int:
        raise InputError(f'"{key}" must be an integer, got {value!r}')
    if minimum is not None and value < minimum:
        raise InputError(f'"{key}" must be >= {minimum}, got {value}')
    return value


def _int_pair(key, value):
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f'"{key}" must be a pair of positive integers, got {value!r}')
    return [_int(key, x, minimum=1) for x in value]


def _names(key, value):
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise InputError(f'"{key}" must be a list of names')
    return value


def _unit_matrix(cls):
    """Parser of a nonempty 2-D array of unit literals into `cls`, over declared parameters.

    `cls.from_json` owns the array's shape and its literals; the CLI adds only
    that the key is nonempty, since the library allows a rank-0 form.
    """

    def parse(key, value, parsed):
        if not value:
            raise InputError(f'"{key}" must be a nonempty 2-D array of unit literal strings')
        with _rejected_as(f'"{key}" matrix', (ValueError, TypeError)):
            matrix = cls.from_json(value)
        _check_declared(matrix.parameters(), parsed["parameters"], f'"{key}"')
        return matrix

    return parse


_cocycle = _unit_matrix(BimultiplicativeCocycle)
_antisym = _unit_matrix(AntisymmetricMatrix)


def _table(key, value, parsed):
    with _rejected_as(f'"{key}"', (ValueError, TypeError)):
        table = TruncatedCocycle.from_json(parsed["rank"], parsed["degree_bound"], value)
    _check_declared(_parameters_of(table.table.values()), parsed["parameters"], f'"{key}"')
    return table


def _split(key, value, parsed):
    split = ProductSplit(*_int_pair(key, value))
    rank = parsed["table"].rank if "table" in parsed else parsed["cocycle"].rank
    if split.rank != rank:
        raise InputError(f'"{key}" rank {split.rank} does not match cocycle rank {rank}')
    return split


def _segre(key, value, parsed):
    """The Segre morphism of a pair [n, m], once its target rank is the cocycle's: nothing is built before."""
    n, m = _int_pair(key, value)
    rank = parsed["cocycle"].rank
    if n + m + 2 != rank:
        raise InputError(f'"{key}" target rank {n + m + 2} does not match cocycle rank {rank}')
    return segre_morphism(n, m)


def _morphism(key, value, parsed):
    if not isinstance(value, list) or not value:
        raise InputError(f'"{key}" must be a nonempty list of generator images')
    with _rejected_as(f'"{key}"', (ValueError, TypeError)):
        images = [ExponentVector(w) for w in value]
        return MonoidMorphism(len(images), parsed["cocycle"].rank, images)


def _algebra(key, value, parsed):
    if not isinstance(value, dict):
        raise InputError(f'"{key}" must be an object')
    if "cocycle" in value:
        mu = _cocycle("cocycle", value["cocycle"], parsed)
    elif "antisym" in value:
        mu = cocycles.canonical_from_antisym(_antisym("antisym", value["antisym"], parsed))
    else:
        raise InputError(f'"{key}" needs a "cocycle" or "antisym" matrix')
    names = value.get("generators")
    if names is not None:
        _names("generators", names)
    with _rejected_as('"generators"'):
        return algebras.TwistedMonoidAlgebra(mu, names)


def _element(key, value, parsed):
    with _rejected_as(f'element "{key}"', (ValueError, TypeError)):
        x = algebras.parse_element(parsed["algebra"], value)
    _check_declared({name for p in x.terms.values() for name in p.parameters()},
                    parsed["parameters"], f'element "{key}"')
    return x


def _specialization(key, value, parsed):
    if not isinstance(value, dict):
        raise InputError(f'"{key}" must be an object mapping parameter names to rationals')
    values = {}
    for name, v in value.items():
        with _rejected_as(f'rational in "{key}"'):
            rational = _fraction(v)
        if rational is None:
            raise InputError(f'"{key}" values must be integers or rational literals like "-3/2", got {v!r}')
        values[name] = rational
    _check_declared(set(values), parsed["parameters"], f'"{key}"')
    with _rejected_as(f'"{key}"'):  # every given value, also of a name the map does not use
        for name in sorted(values):
            _check_value(name, values)
    return values


#: Every config key and its parser ``(key, value, parsed) -> object``.  Keys
#: are parsed in this order, so a parser may read the keys above it.
_KEYS = {
    "parameters": lambda key, value, parsed: frozenset(_names(key, value)),
    "n": partial(_int, minimum=1),
    "m": partial(_int, minimum=1),
    "rank": partial(_int, minimum=1),
    "degree_bound": partial(_int, minimum=0),
    "degree": partial(_int, minimum=1),
    "samples": partial(_int, minimum=0),
    "seed": _int,
    "cocycle": _cocycle,
    "left": _cocycle,
    "right": _cocycle,
    "twist": _cocycle,
    "pairing": _unit_matrix(Pairing),
    "q": _antisym,
    "qprime": _antisym,
    "table": _table,
    "split": _split,
    "segre": _segre,
    "morphism": _morphism,
    "algebra": _algebra,
    "x": _element,
    "y": _element,
    "specialization": _specialization,
}


def _parse_config(config, args):
    """Parse the keys the subcommand reads; a given flag replaces its key, each --set one entry."""
    flags = {key: value for key, value in vars(args).items() if key in _FLAGS and value is not None}
    if "specialization" in flags and isinstance(config.get("specialization", {}), dict):
        flags["specialization"] = {**config.get("specialization", {}), **dict(flags["specialization"])}
    config.update(flags)
    unknown = sorted(set(config) - set(args.keys))
    if unknown:
        raise InputError(f'unknown config key "{unknown[0]}" for this subcommand')
    parsed = _Config(parameters=frozenset())
    for key, parse in _KEYS.items():
        if key in config:
            parsed[key] = parse(key, config[key], parsed)
    return parsed


# ---------------------------------------------------------------------------
# Handlers: parsed config -> (status, payload[, counterexample]); "fail" is exit code 1
# ---------------------------------------------------------------------------


def cmd_cocycle_check(config):
    if "table" in config:
        table = config["table"]
        check = cocycles.verify_cocycle_equation(table)
        payload = {"rank": table.rank, "degree_bound": table.degree_bound, "exhaustive": True}
    else:
        mu, samples = config["cocycle"], config.get("samples", 100)
        check = cocycles.sample_cocycle_equation(mu, samples, config.get("seed", 0))
        payload = {"rank": mu.rank, "samples": samples, "exhaustive": False}
    if check:
        return "pass", payload
    if check.counterexample[0] == "identity":
        return "fail", payload, {"identity_violation": check.counterexample[1].to_json()}
    return "fail", payload, {"triple": [w.to_json() for w in check.counterexample]}


def cmd_cocycle_antisym(config):
    beta = cocycles.antisymmetrize(config["cocycle"])
    return "report", {"antisymmetrization": beta.to_json()}


def cmd_cocycle_factorize(config):
    left, right, alpha = cocycles.yamazaki_factorize(config["cocycle"], config["split"])
    return "report", {
        "left": left.to_json(),
        "right": right.to_json(),
        "pairing": alpha.to_json(),
        "factorizable": alpha.is_trivial(),
    }


def cmd_cocycle_reconstruct(config):
    with _rejected_as('"pairing"'):
        mu = cocycles.yamazaki_reconstruct(config["left"], config["right"], config["pairing"])
    return "report", {"cocycle": mu.to_json()}


def cmd_cocycle_pullback(config):
    f = config["segre"] if "segre" in config else config["morphism"]
    with _rejected_as('"cocycle"'):
        pulled = cocycles.pullback(config["cocycle"], f)
    return "report", {"cocycle": pulled.to_json()}


def cmd_cocycle_trivialize(config):
    if "table" in config:
        table = config["table"]
    else:
        bound = config.get("degree_bound", cocycles.DEFAULT_DEGREE_BOUND)
        table = TruncatedCocycle.truncate(config["cocycle"], bound)
    try:
        if "split" in config:
            h = cocycles.yamazaki_trivialize(table, config["split"])
        elif table.rank == 1:
            h = cocycles.trivialize_rank1(table)
        else:
            raise InputError('rank > 1 trivialization needs a "split"')
    except ValueError as exc:
        return ("fail", {"rank": table.rank, "degree_bound": table.degree_bound},
                {"obstruction": str(exc)})
    verified = cocycles.coboundary(h) == table
    status = "pass" if verified else "fail"
    return status, {
        "rank": table.rank,
        "degree_bound": table.degree_bound,
        "witness": h.to_json(),
        "coboundary_matches": verified,
    }


def cmd_algebra_mul(config):
    product = config["x"] * config["y"]
    return "report", {
        "product": algebras.render_element(product),
        "terms": product.to_json(),
    }


def cmd_algebra_relations(config):
    algebra = config["algebra"]
    beta = algebras.deformation_matrix(algebra)
    names = algebra.generator_names
    relations = []
    for i in range(algebra.rank):
        for j in range(i + 1, algebra.rank):
            coeff = beta.entry(j, i)
            lhs = algebra.generator(j) * algebra.generator(i)
            rhs = (algebra.generator(i) * algebra.generator(j)).scaled(coeff)
            if lhs != rhs:
                return "fail", {}, {"pair": [names[i], names[j]]}
            relations.append({"i": i, "j": j, "coefficient": render_unit(coeff)})
    return "pass", {
        "generators": list(names),
        "relations": relations,
    }


def cmd_algebra_twist(config):
    with _rejected_as('"twist"'):
        twisted = algebras.twist_by(config["algebra"], config["twist"])
    return "report", {
        "cocycle": twisted.cocycle.to_json(),
        "deformation_matrix": algebras.deformation_matrix(twisted).to_json(),
    }


def _segre_map_from(config):
    with _rejected_as('"cocycle"'):
        return segre.build_quantum_segre(config["n"], config["m"], config["cocycle"])


def cmd_segre_build(config):
    smap = _segre_map_from(config)
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
    return "report", payload


def cmd_segre_verify(config):
    smap = _segre_map_from(config)
    report = segre.verify_homomorphism(smap.homomorphism,
                                       samples=config.get("samples", 100),
                                       seed=config.get("seed", 0))
    payload = {"n": smap.n, "m": smap.m, "pass": report.passed,
               "pairs_checked": report.pairs_checked, "seed": report.seed}
    if report.passed:
        return "pass", payload
    return "fail", payload, {"pair": list(report.counterexample)}


def cmd_segre_matrix(config):
    g = segre.source_deformation_matrix(_segre_map_from(config))
    return "report", {"deformation_matrix": g.to_json()}


def cmd_segre_kronecker(config):
    return "report", {"kronecker": segre.kronecker(config["q"], config["qprime"]).to_json()}


def cmd_segre_kernel(config):
    smap = _segre_map_from(config)
    values = config.get("specialization", {})
    with _rejected_as('"specialization"'):
        basis = segre.kernel_basis(smap, config["degree"], values)
    return "report", {
        "n": smap.n,
        "m": smap.m,
        "degree": config["degree"],
        "specialization": {name: _render_rational(v) for name, v in sorted(values.items())},
        "dimension": len(basis),
        "basis": [algebras.render_element(x) for x in basis],
    }


# ---------------------------------------------------------------------------
# Argument parsing and output
# ---------------------------------------------------------------------------

#: group -> subcommand -> (handler, config keys it reads besides "parameters").  Those
#: keys that are in _FLAGS can also be given as flags; no other flag is registered.
_COMMANDS = {
    "cocycle": {
        "check": (cmd_cocycle_check, "cocycle rank degree_bound table samples seed"),
        "antisym": (cmd_cocycle_antisym, "cocycle"),
        "factorize": (cmd_cocycle_factorize, "cocycle split"),
        "reconstruct": (cmd_cocycle_reconstruct, "left right pairing"),
        "pullback": (cmd_cocycle_pullback, "cocycle segre morphism"),
        "trivialize": (cmd_cocycle_trivialize, "cocycle rank degree_bound table split"),
    },
    "algebra": {
        "mul": (cmd_algebra_mul, "algebra x y"),
        "relations": (cmd_algebra_relations, "algebra"),
        "twist": (cmd_algebra_twist, "algebra twist"),
    },
    "segre": {
        "build": (cmd_segre_build, "n m cocycle"),
        "verify": (cmd_segre_verify, "n m cocycle samples seed"),
        "matrix": (cmd_segre_matrix, "n m cocycle"),
        "kronecker": (cmd_segre_kronecker, "q qprime"),
        "kernel": (cmd_segre_kernel, "n m cocycle degree specialization"),
    },
}


def _assignment(text):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=RATIONAL, got {text!r}")
    return (name.strip(), value.strip())


#: config key -> (flag, argparse options) for the keys that can also be set on the command line
_FLAGS = {
    "seed": ("--seed", {"type": int, "help": "seed for sampled verifications"}),
    "samples": ("--samples", {"type": int, "help": "number of random samples"}),
    "degree": ("--degree", {"type": int, "help": "total degree (kernel probe)"}),
    "specialization": ("--set", {"action": "append", "type": _assignment, "metavar": "NAME=RATIONAL",
                                 "help": "specialize a parameter (repeatable)"}),
}


@cache  # built once per process; parse_args keeps no state between calls
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qtwist",
        description="Exact cocycle twists of N^n-graded algebras: checks, factorizations, Segre maps.")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, commands in _COMMANDS.items():
        gp = groups.add_parser(group)
        sub = gp.add_subparsers(dest="command", required=True)
        for name, (handler, keys) in commands.items():
            keys = ["parameters"] + keys.split()
            cp = sub.add_parser(name)
            cp.add_argument("--config", help="path to a JSON (or TOML) job config")
            cp.add_argument("--json", action="store_true", help="emit the machine-readable JSON report")
            for key in keys:
                if key in _FLAGS:
                    flag, options = _FLAGS[key]
                    cp.add_argument(flag, dest=key, **options)
            cp.set_defaults(handler=handler, keys=keys)
    return parser


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
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if not isinstance(config, dict):
            raise InputError(f"config must be an object of keys, got a JSON {type(config).__name__}")
        status, payload, *counterexample = args.handler(_parse_config(config, args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"command": f"{args.group}.{args.command}", "status": status, "payload": payload}
    if counterexample:
        report["counterexample"] = counterexample[0]
    _emit(report, args.json, out)
    return 0 if status != "fail" else 1


if __name__ == "__main__":
    sys.exit(main())
