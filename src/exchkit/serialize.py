"""JSON codecs for every value that crosses the CLI boundary.

Conventions, used uniformly:

* rationals are strings ``"p/q"`` on output (always with denominator, so
  ``2`` serializes as ``"2/1"``); inputs also accept bare integer strings;
* types are strings ``"c1:c2:...:ck"`` of decimal counts;
* law weights and function values may omit zero entries on input; output is
  sparse and sorted, so emitted laws re-parse to identical values.

Parsers raise :class:`InputError` naming the offending field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Optional

from .errors import InputError
from .extend import ExtendReport, InfiniteReport
from .measures import ExchangeableLaw, InversionTable
from .ratlp import LinearProgram, LpOutcome, LpStatus
from .represent import SignedMixture
from .symmetrize import SymmetricFunction
from .typespace import (
    Alphabet,
    TypeVector,
    _require_int,
    format_fraction,
    parse_fraction,
)


def _require(data: Mapping[str, Any], field: str, context: str) -> Any:
    if not isinstance(data, Mapping):
        raise InputError(f"{context}: expected an object")
    if field not in data:
        raise InputError(f"{context}.{field}: missing")
    return data[field]


def _parse_fraction_field(value: Any, context: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_fraction(value)
        except InputError as exc:
            raise InputError(f"{context}: {exc}") from None
    raise InputError(f"{context}: expected a fraction string, got {type(value).__name__}")


def alphabet_from_json(value: Any, context: str = "alphabet") -> Alphabet:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputError(f"{context}: expected a list of text labels")
    try:
        return Alphabet(tuple(value))
    except InputError as exc:
        raise InputError(f"{context}: {exc}") from None


def _type_map_from_json(raw: Any, width: int, context: str) -> dict[TypeVector, Fraction]:
    """A ``{typestring: fraction}`` object as a map from types; two keys that
    spell the same type (``"1:1"`` and ``"01:1"``) are an input error."""
    if not isinstance(raw, Mapping):
        raise InputError(f"{context}: expected an object")
    out: dict[TypeVector, Fraction] = {}
    for key, value in raw.items():
        if not isinstance(key, str):
            raise InputError(f"{context}: type keys must be strings")
        try:
            tv = TypeVector.from_typestring(key, width)
        except InputError as exc:
            raise InputError(f"{context}[{key!r}]: {exc}") from None
        if tv in out:
            raise InputError(f"{context}[{key!r}]: type {tv.typestring()} given twice")
        out[tv] = _parse_fraction_field(value, f"{context}[{key!r}]")
    return out


# -- laws ------------------------------------------------------------------------


def law_to_dict(law: ExchangeableLaw) -> dict:
    return {
        "alphabet": list(law.alphabet.symbols),
        "n": law.n,
        "weights": {
            tv.typestring(): format_fraction(w) for tv, w in law.weights.items()
        },
    }


def law_from_dict(data: Mapping[str, Any], context: str = "law") -> ExchangeableLaw:
    alphabet = alphabet_from_json(_require(data, "alphabet", context), f"{context}.alphabet")
    n = _require(data, "n", context)
    _require_int(n, f"{context}.n")
    weights = _type_map_from_json(
        _require(data, "weights", context), alphabet.size, f"{context}.weights"
    )
    try:
        return ExchangeableLaw(alphabet, n, weights)
    except InputError as exc:
        raise InputError(f"{context}: {exc}") from None


# -- symmetric functions ------------------------------------------------------------


def function_to_dict(g: SymmetricFunction) -> dict:
    return {
        "alphabet": list(g.alphabet.symbols),
        "m": g.m,
        "values": {tv.typestring(): format_fraction(v) for tv, v in g.values.items()},
    }


def function_from_dict(data: Mapping[str, Any], context: str = "function") -> SymmetricFunction:
    alphabet = alphabet_from_json(_require(data, "alphabet", context), f"{context}.alphabet")
    m = _require(data, "m", context)
    _require_int(m, f"{context}.m")
    values = _type_map_from_json(
        _require(data, "values", context), alphabet.size, f"{context}.values"
    )
    try:
        return SymmetricFunction(alphabet, m, values)
    except InputError as exc:
        raise InputError(f"{context}: {exc}") from None


# -- tables, mixtures, reports --------------------------------------------------------


def inversion_table_to_dict(table: InversionTable) -> dict:
    return {
        "mu": table.mu.typestring(),
        "n": table.n,
        "N": table.N,
        "coeffs": {
            nu.typestring(): format_fraction(c)
            for nu, c in sorted(table.coeffs.items())
        },
        "l1": format_fraction(table.l1),
    }


def mixture_to_dict(mix: SignedMixture) -> dict:
    return {
        "atoms": _atoms_to_json(mix.atoms),
        "total_variation": format_fraction(mix.total_variation),
        "total_mass": format_fraction(mix.total_mass),
    }


def mixture_from_dict(data: Mapping[str, Any], context: str = "mixture") -> SignedMixture:
    raw = _require(data, "atoms", context)
    if not isinstance(raw, list):
        raise InputError(f"{context}.atoms: expected a list")
    atoms = []
    for i, entry in enumerate(raw):
        w = _parse_fraction_field(_require(entry, "weight", f"{context}.atoms[{i}]"),
                                  f"{context}.atoms[{i}].weight")
        theta_raw = _require(entry, "theta", f"{context}.atoms[{i}]")
        if not isinstance(theta_raw, list):
            raise InputError(f"{context}.atoms[{i}].theta: expected a list")
        theta = tuple(
            _parse_fraction_field(t, f"{context}.atoms[{i}].theta[{j}]")
            for j, t in enumerate(theta_raw)
        )
        atoms.append((w, theta))
    try:
        return SignedMixture(tuple(atoms))
    except InputError as exc:
        raise InputError(f"{context}: {exc}") from None


def _atoms_to_json(mixture) -> Optional[list]:
    if mixture is None:
        return None
    return [
        {
            "weight": format_fraction(w),
            "theta": [format_fraction(t) for t in theta],
        }
        for w, theta in mixture
    ]


def extend_report_to_dict(report: ExtendReport) -> dict:
    return {
        "N": report.N,
        "verdict": report.verdict.value,
        "norm": format_fraction(report.norm),
        "witness": law_to_dict(report.witness) if report.witness else None,
        "refutation": function_to_dict(report.refutation) if report.refutation else None,
    }


def infinite_report_to_dict(report: InfiniteReport) -> dict:
    return {
        "outcome": report.outcome.value,
        "N_max": report.N_max,
        "grid_depth": report.grid_depth,
        "grid_depth_used": report.grid_depth_used,
        "mixture": _atoms_to_json(report.mixture),
        "failing_N": report.failing_N,
        "failing_report": (
            extend_report_to_dict(report.failing_report)
            if report.failing_report
            else None
        ),
    }


def covariance_to_dict(bound) -> dict:
    return {
        "cov": format_fraction(bound.cov),
        "var": format_fraction(bound.var),
        "satisfies": bound.satisfies,
    }


# -- linear programs ------------------------------------------------------------------


_STATUS_NAMES = {s.value: s for s in LpStatus}


def lp_to_dict(lp: LinearProgram) -> dict:
    return {
        "sense": lp.sense,
        "objective": [format_fraction(c) for c in lp.objective],
        "constraints": [
            {
                "coeffs": [format_fraction(c) for c in coeffs],
                "rel": rel,
                "rhs": format_fraction(rhs),
            }
            for coeffs, rel, rhs in lp.constraints
        ],
        "lower": ["-inf" if lo is None else format_fraction(lo) for lo in lp.lower],
        "upper": ["inf" if up is None else format_fraction(up) for up in lp.upper],
    }


def lp_from_dict(data: Mapping[str, Any], context: str = "lp") -> LinearProgram:
    sense = _require(data, "sense", context)
    objective_raw = _require(data, "objective", context)
    if not isinstance(objective_raw, list):
        raise InputError(f"{context}.objective: expected a list")
    objective = tuple(
        _parse_fraction_field(c, f"{context}.objective[{i}]")
        for i, c in enumerate(objective_raw)
    )
    n = len(objective)
    constraints_raw = _require(data, "constraints", context)
    if not isinstance(constraints_raw, list):
        raise InputError(f"{context}.constraints: expected a list")
    rows = []
    for i, entry in enumerate(constraints_raw):
        coeffs_raw = _require(entry, "coeffs", f"{context}.constraints[{i}]")
        if not isinstance(coeffs_raw, list):
            raise InputError(f"{context}.constraints[{i}].coeffs: expected a list")
        coeffs = tuple(
            _parse_fraction_field(c, f"{context}.constraints[{i}].coeffs[{j}]")
            for j, c in enumerate(coeffs_raw)
        )
        rel = _require(entry, "rel", f"{context}.constraints[{i}]")
        rhs = _parse_fraction_field(
            _require(entry, "rhs", f"{context}.constraints[{i}]"),
            f"{context}.constraints[{i}].rhs",
        )
        rows.append((coeffs, rel, rhs))

    def parse_bound(raw, idx, which, infinity):
        if raw == infinity:
            return None
        return _parse_fraction_field(raw, f"{context}.{which}[{idx}]")

    lower_raw = data.get("lower", ["0"] * n)
    upper_raw = data.get("upper", ["inf"] * n)
    if not isinstance(lower_raw, list) or len(lower_raw) != n:
        raise InputError(f"{context}.lower: expected a list of {n} bounds")
    if not isinstance(upper_raw, list) or len(upper_raw) != n:
        raise InputError(f"{context}.upper: expected a list of {n} bounds")
    lower = tuple(parse_bound(b, i, "lower", "-inf") for i, b in enumerate(lower_raw))
    upper = tuple(parse_bound(b, i, "upper", "inf") for i, b in enumerate(upper_raw))
    try:
        return LinearProgram(objective, sense, tuple(rows), lower, upper)
    except InputError as exc:
        raise InputError(f"{context}: {exc}") from None


def _vector_to_json(vec) -> Optional[list]:
    return None if vec is None else [format_fraction(v) for v in vec]


def outcome_to_dict(outcome: LpOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "primal": _vector_to_json(outcome.primal),
        "objective_value": (
            None
            if outcome.objective_value is None
            else format_fraction(outcome.objective_value)
        ),
        "certificate": _vector_to_json(outcome.certificate),
        "ray": _vector_to_json(outcome.ray),
    }


__all__ = [
    "alphabet_from_json",
    "covariance_to_dict",
    "extend_report_to_dict",
    "function_from_dict",
    "function_to_dict",
    "infinite_report_to_dict",
    "inversion_table_to_dict",
    "law_from_dict",
    "law_to_dict",
    "lp_from_dict",
    "lp_to_dict",
    "mixture_from_dict",
    "mixture_to_dict",
    "outcome_to_dict",
]
