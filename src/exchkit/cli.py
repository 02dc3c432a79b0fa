"""Command-line surface.

Every subcommand reads JSON (a file path, inline ``{...}``, or ``-`` for
stdin), runs one analysis, and prints one report.  Verdicts are data, never
exit codes: a refutation is a successfully completed analysis.

Exit status: 0 for any completed analysis, 1 for input/schema errors, 2 for
resource-cap or grid-budget exhaustion, 3 for an internal invariant failure
(a bug, reported as one ``error: internal: ...`` line, never as an answer).  ``--format json`` (the default)
prints a stable, sorted JSON document; ``--format text`` prints an indented
human view of the same data.  ``--seed`` is recorded in the report metadata;
all shipped analyses are deterministic and consume no randomness.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .caps import ensure_within_cap
from .errors import CapacityError, ExchkitError, InputError, RepresentationError
from .extend import (
    InfiniteOutcome,
    Verdict,
    check_extendible,
    covariance_bound,
    norm_EN,
    probe_infinite,
)
from .measures import invert_urn, reconstruct_check, urn_coefficient, urn_measure
from .oracle import solve_lp_by_enumeration, urn_law_by_enumeration
from .ratlp import LinearProgram, solve, verify
from .represent import reconstruct, signed_mixture
from .serialize import (
    alphabet_from_json,
    covariance_to_dict,
    extend_report_to_dict,
    infinite_report_to_dict,
    inversion_table_to_dict,
    law_from_dict,
    law_to_dict,
    lp_from_dict,
    lp_to_dict,
    mixture_to_dict,
    outcome_to_dict,
)
from .typespace import (
    TypeVector,
    enumerate_types,
    format_fraction,
    parse_fraction,
    subtypes,
    type_count,
)
from . import corpus as corpus_mod


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; those are input errors here.
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="exchkit", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("types", help="enumerate all types of a given mass")
    p.add_argument("input")

    p = sub.add_parser("urn", help="law of N draws without replacement from an urn")
    p.add_argument("input")
    p.add_argument("--N", type=int, required=True, help="number of draws")
    p.add_argument("--brute-force", action="store_true")

    p = sub.add_parser("invert", help="expand a class law over mass-N urn measures")
    p.add_argument("input")
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("norm", help="extending-functional norm of a law")
    p.add_argument("input")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")

    p = sub.add_parser("extend", help="decide N-extendibility with certificate")
    p.add_argument("input")
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("probe", help="probe infinite extendibility")
    p.add_argument("input")
    p.add_argument("--max-N", type=int, required=True, dest="max_N")
    p.add_argument("--grid-depth", type=int, default=4, dest="grid_depth")

    p = sub.add_parser("represent", help="signed mixture of grid product laws")
    p.add_argument("input")
    p.add_argument("--grid-depth", type=int, default=4, dest="grid_depth")

    p = sub.add_parser("corpus", help="built-in example laws with claims checks")
    p.add_argument("name", choices=("urn", "pairs", "dyadic-max", "all"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--ones", type=int, default=1)
    p.add_argument("--max-N", type=int, default=None, dest="max_N")
    p.add_argument("--grid-depth", type=int, default=8, dest="grid_depth")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--profile", type=str, default=None,
                   help="comma-separated nonincreasing fractions")
    p.add_argument("--check-N", type=str, default="3,4", dest="check_N")
    p.add_argument("--epsilon", type=str, default="1/100")

    p = sub.add_parser("lp-verify", help="solve an LP and re-check its certificate")
    p.add_argument("input")

    return parser


def _read_input(raw: str) -> Any:
    if raw.lstrip().startswith("{"):
        text = raw
        source = "<inline>"
    else:
        source = "<stdin>" if raw == "-" else raw
        try:
            if raw == "-":
                text = sys.stdin.buffer.read().decode("utf-8")
            else:
                with open(raw, "r", encoding="utf-8") as handle:
                    text = handle.read()
        except OSError as exc:
            raise InputError(f"input: cannot read {raw!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"input: {source} is not UTF-8: {exc}") from None

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        # json.loads alone keeps the last of two equal keys without a word.
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"input: {source} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"input: {source} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"input: {source} is nested too deeply") from None


def _type_input(data: Any, field: str = "type"):
    alphabet = alphabet_from_json(
        data.get("alphabet") if isinstance(data, dict) else None, "input.alphabet"
    )
    raw = data.get(field)
    if not isinstance(raw, str):
        raise InputError(f"input.{field}: missing typestring")
    tv = TypeVector.from_typestring(raw, alphabet.size)
    return alphabet, tv


# -- subcommand handlers --------------------------------------------------------


def _cmd_types(args) -> dict:
    data = _read_input(args.input)
    alphabet = alphabet_from_json(
        data.get("alphabet") if isinstance(data, dict) else None, "input.alphabet"
    )
    mass = data.get("mass")
    if not isinstance(mass, int) or isinstance(mass, bool) or mass < 0:
        raise InputError("input.mass: expected a nonnegative integer")
    ensure_within_cap(type_count(alphabet.size, mass), "type enumeration")
    types = enumerate_types(alphabet, mass)
    return {
        "alphabet": list(alphabet.symbols),
        "mass": mass,
        "count": len(types),
        "types": [tv.typestring() for tv in types],
    }


def _cmd_urn(args) -> dict:
    data = _read_input(args.input)
    alphabet, nu = _type_input(data)
    law = urn_measure(nu, args.N, alphabet)
    report = {"law": law_to_dict(law), "brute_force": None}
    if args.brute_force:
        oracle_law = urn_law_by_enumeration(nu, args.N, alphabet)
        report["brute_force"] = {"agrees": oracle_law == law}
    return report


def _cmd_invert(args) -> dict:
    data = _read_input(args.input)
    _alphabet, mu = _type_input(data)
    table = invert_urn(mu, args.N)
    return {
        "table": inversion_table_to_dict(table),
        "reconstruct_check": reconstruct_check(table),
    }


def _norm_primal_lp(law, N: int) -> LinearProgram:
    # The direct maximization: variables g[mu] free, |U g| <= 1 rowwise.
    mus = enumerate_types(law.alphabet.size, law.n)
    mu_index = {mu: i for i, mu in enumerate(mus)}
    rows = []
    for nu in enumerate_types(law.alphabet.size, N):
        coeffs = [Fraction(0)] * len(mus)
        for mu in subtypes(nu, law.n):
            coeffs[mu_index[mu]] = urn_coefficient(nu, mu)
        rows.append((tuple(coeffs), "<=", Fraction(1)))
        rows.append((tuple(-c for c in coeffs), "<=", Fraction(1)))
    objective = [law.weight(mu) for mu in mus]
    return LinearProgram.build("max", objective, rows, free=range(len(mus)))


def _cmd_norm(args) -> dict:
    data = _read_input(args.input)
    law = law_from_dict(data, "input")
    value = norm_EN(law, args.N)
    report = {"N": args.N, "norm": format_fraction(value), "brute_force": None}
    if args.brute_force:
        status, oracle_value = solve_lp_by_enumeration(_norm_primal_lp(law, args.N))
        report["brute_force"] = {
            "status": status.value,
            "value": None if oracle_value is None else format_fraction(oracle_value),
            "agrees": oracle_value == value,
        }
    return report


def _cmd_extend(args) -> dict:
    data = _read_input(args.input)
    law = law_from_dict(data, "input")
    return extend_report_to_dict(check_extendible(law, args.N))


def _cmd_probe(args) -> dict:
    data = _read_input(args.input)
    law = law_from_dict(data, "input")
    return infinite_report_to_dict(probe_infinite(law, args.max_N, args.grid_depth))


def _cmd_represent(args) -> dict:
    data = _read_input(args.input)
    law = law_from_dict(data, "input")
    mix = signed_mixture(law, args.grid_depth)
    exact = reconstruct(mix, law.n) == dict(law.weights)
    report = mixture_to_dict(mix)
    report["reconstruction_exact"] = exact
    return report


def _cmd_lp_verify(args) -> dict:
    data = _read_input(args.input)
    lp = lp_from_dict(data, "input")
    outcome = solve(lp)
    return {
        "lp": lp_to_dict(lp),
        "outcome": outcome_to_dict(outcome),
        "verified": verify(lp, outcome),
    }


# -- corpus runner ----------------------------------------------------------------


def _corpus_urn(n: int, ones: int, max_N: int | None) -> dict:
    law = corpus_mod.urn_without_replacement(n, ones)
    top = max_N if max_N is not None else n + 3
    entry: dict[str, Any] = {"name": "urn", "law": law_to_dict(law)}
    if 0 < ones < n:
        if top <= n:
            raise InputError(f"corpus urn: need --max-N > n to check any N, got {top} <= {n}")
        norms = {}
        all_refuted = True
        for N in range(n + 1, top + 1):
            report = check_extendible(law, N)
            norms[str(N)] = format_fraction(report.norm)
            all_refuted = all_refuted and report.verdict is Verdict.NOT_EXTENDIBLE
        entry["claims"] = {
            "not_extendible_for_all_larger_N": all_refuted,
            "checked_N": list(range(n + 1, top + 1)),
            "norms": norms,
        }
    else:
        probe = probe_infinite(law, top, 1)
        entry["claims"] = {
            "certified_infinite": probe.outcome is InfiniteOutcome.CERTIFIED_INFINITE,
            "probe": infinite_report_to_dict(probe),
        }
    return entry


def _corpus_pairs(max_N: int | None, grid_depth: int) -> dict:
    law, embedding = corpus_mod.disjoint_pairs_law()
    bound = covariance_bound(law, embedding)
    probe = probe_infinite(law, max_N if max_N is not None else 12, grid_depth)
    return {
        "name": "pairs",
        "law": law_to_dict(law),
        "embedding": {s: format_fraction(v) for s, v in embedding.items()},
        "claims": {
            "covariance": covariance_to_dict(bound),
            "probe": infinite_report_to_dict(probe),
            "refuted": probe.outcome is InfiniteOutcome.REFUTED_AT,
        },
    }


def _corpus_dyadic(level: int, profile_text: str | None, check_N: str) -> dict:
    cells = corpus_mod._dyadic_cells(level)
    if profile_text is None:
        profile = [Fraction(cells + 1 - r, cells + 1) for r in range(1, cells + 1)]
    else:
        try:
            profile = [parse_fraction(part.strip()) for part in profile_text.split(",")]
        except InputError as exc:
            raise InputError(f"--profile: {exc}") from None
    try:
        targets = [int(part) for part in check_N.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"--check-N: expected comma-separated integers, got {check_N!r}")

    law, mix = corpus_mod.dyadic_max_law(level, profile)
    nonnegative = all(w >= 0 for w, _ in mix.atoms)
    exact = reconstruct(mix, 2) == dict(law.weights)
    extendible = {}
    for N in targets:
        report = check_extendible(law, N)
        extendible[str(N)] = report.verdict is Verdict.EXTENDIBLE
    witness_ok = nonnegative and mix.total_mass == 1 and exact
    return {
        "name": "dyadic-max",
        "level": level,
        "law": law_to_dict(law),
        "decomposition": mixture_to_dict(mix),
        "claims": {
            "weights_nonnegative": nonnegative,
            "reconstruction_exact": exact,
            "extendible": extendible,
            "mixture_certifies_infinite": witness_ok,
        },
    }


def _cmd_corpus(args) -> dict:
    if args.name == "urn":
        return _corpus_urn(args.n, args.ones, args.max_N)
    if args.name == "pairs":
        return _corpus_pairs(args.max_N, args.grid_depth)
    if args.name == "dyadic-max":
        return _corpus_dyadic(args.level, args.profile, args.check_N)
    entries = [
        _corpus_urn(2, 1, 5),
        _corpus_pairs(12, 8),
        _corpus_dyadic(1, None, "3,4"),
        _corpus_dyadic(2, None, "3,4"),
    ]
    return {"corpus": entries}


_HANDLERS = {
    "types": _cmd_types,
    "urn": _cmd_urn,
    "invert": _cmd_invert,
    "norm": _cmd_norm,
    "extend": _cmd_extend,
    "probe": _cmd_probe,
    "represent": _cmd_represent,
    "corpus": _cmd_corpus,
    "lp-verify": _cmd_lp_verify,
}


def _render_text(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = _HANDLERS[args.subcommand](args)
        report["meta"] = {"subcommand": args.subcommand, "seed": args.seed}
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print("\n".join(_render_text(report)))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, RepresentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExchkitError as exc:  # any other library failure is an input problem
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
