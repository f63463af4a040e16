"""Output checks: every operation's report against what it must be.

Each check returns a list of problems; an operation with any problem
counts as failed.  Reports are checked as the JSON a user receives,
parsed strictly, so a non-finite value is a failure.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from wignerlab import states

import inputs

WITNESS_RECOMPUTE_TOL = 1e-12
RESIDUAL_TOL = 1e-8

_GAPS = {
    "nonexpansive": lambda d_in, d_out, fp, fq: d_out - d_in,
    "noncontractive": lambda d_in, d_out, fp, fq: d_in - d_out,
    "isometry": lambda d_in, d_out, fp, fq: abs(d_out - d_in),
    "orthogonality": lambda d_in, d_out, fp, fq: states.transition_probability(fp, fq),
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite value {name} in report")


def strict_parse(text: str) -> dict:
    """Parse emitted JSON, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def _exact_state(obj: dict):
    """The state with exactly the reported amplitudes.

    states.state_from_json renormalizes, which can move a state by an
    ulp; a witness on a decision boundary (block_embed's first-coordinate
    weight 1/2) then maps to the other block.  PureState keeps the
    amplitudes and still validates unit norm and gauge.
    """
    return states.PureState(np.array([complex(re, im) for re, im in obj["vec"]]))


def _witness_problems(op: inputs.Op, witness: dict, map_) -> list[str]:
    """Recompute a witness from its JSON with states.distance."""
    p = _exact_state(witness["P"])
    q = _exact_state(witness["Q"])
    fp, fq = map_(p), map_(q)
    d_in = states.distance(p, q)
    d_out = states.distance(fp, fq)
    gap = _GAPS[op.prop](d_in, d_out, fp, fq)
    problems = [
        f"witness {name} {witness[name]!r} recomputes to {value!r}"
        for name, value in (("d_in", d_in), ("d_out", d_out), ("gap", gap))
        if not abs(witness[name] - value) <= WITNESS_RECOMPUTE_TOL
    ]
    if op.unit_d_out and not abs(witness["d_out"] - 1.0) <= WITNESS_RECOMPUTE_TOL:
        problems.append(f"witness d_out {witness['d_out']!r} is not 1")
    return problems


def _search_problems(op: inputs.Op, report: dict, map_) -> list[str]:
    witness = report["witness"]
    verdict = inputs.HOLDS if witness is None else inputs.WITNESS
    if verdict != op.expect:
        return [f"verdict {verdict}, expected {op.expect}"]
    if witness is None or op.kind == "inclusion":
        return []
    return _witness_problems(op, witness, map_)


def _classify_problems(op: inputs.Op, report: dict, result) -> list[str]:
    if report["branch"] != op.expect:
        return [f"branch {report['branch']}, expected {op.expect} ({report['reason']})"]
    if op.expect == inputs.NOT_CLASSIFIED:
        return []
    problems = []
    residual = report["residual"]
    if residual is None or not residual <= RESIDUAL_TOL:
        problems.append(f"residual {residual!r} above {RESIDUAL_TOL}")
    if op.dim > 2 and (result.diag_u is None or result.diag_u[0, 0] != 1.0):
        problems.append("diag_u[0, 0] is not exactly 1")
    if op.phase_class:
        kind = (report["g_class"] or {}).get("kind")
        if kind != op.phase_class:
            problems.append(f"phase map class {kind}, expected {op.phase_class}")
    return problems


def problems(op: inputs.Op, text: str, result, map_) -> list[str]:
    """Everything wrong with one operation's emitted report.

    map_ is the map as loaded (never the timed copy), so recomputing a
    witness does not count as work of the operation.
    """
    try:
        report = strict_parse(text)
    except ValueError as err:
        return [f"invalid JSON: {err}"]
    if op.kind == "criterion":
        return [] if report["passed"] is True else [f"criterion failed: {report['detail']}"]
    if op.kind == "classify":
        return _classify_problems(op, report, result)
    return _search_problems(op, report, map_)


def op_digest(op: inputs.Op, text: str) -> str:
    """Digest of a report, less the wall-clock seconds a criterion records."""
    if op.kind == "criterion":
        report = json.loads(text)
        report.pop("seconds", None)
        text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
