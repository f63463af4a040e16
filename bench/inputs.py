"""Seeded inputs of the benchmark workloads, as the CLI would receive them.

Every map is a JSON descriptor in the wire format of
``wignerlab.descriptors``.  Every unitary, anchor set, preimage system,
phase and check seed is drawn from the workload seed, so one seed always
gives the same inputs.  The expected outcomes follow from the paper's
constructions and do not depend on the seed.

This module uses numpy only, so the inputs do not come from the code
under test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

HOLDS = "holds"
WITNESS = "witness"
WIGNER_UNITARY = "wigner_unitary"
WIGNER_ANTIUNITARY = "wigner_antiunitary"
ENTRYWISE_ABS = "entrywise_abs"
STANDARD_DIM2 = "standard_dim2"
NOT_CLASSIFIED = "not_classified"

# witness searches run at the CLI defaults: --samples 10000 --refine-steps 200
VERIFY_SAMPLES = 10000
VERIFY_REFINE_STEPS = 200
# criterion 07 checks inclusion on 1000 sampled states
INCLUSION_SAMPLES = 1000
# about 40 chunks of 512 pairs per scan, with refinement off
SCAN_SAMPLES = 20000

WORKLOADS = ("verify", "scan", "classify", "selftest")


@dataclass(frozen=True)
class Op:
    """One call into the public API with the outcome it must produce.

    kind is "check" (a witness search for prop), "inclusion" (the
    inclusion check over the preimage system in states), "classify"
    (with the preimage hint in states, if any) or "criterion" (one
    acceptance criterion, named by name).
    """

    name: str
    kind: str
    expect: str
    map: dict | None = None
    dim: int = 0
    prop: str = ""
    samples: int = 0
    refine_steps: int = 0
    check_seed: int = 0
    states: tuple = ()
    unit_d_out: bool = False  # the witness must have d_out = 1
    phase_class: str = ""  # dimension 2: class of the extracted phase map


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _pairs(values) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in np.asarray(values).reshape(-1)]


def _state(vec: np.ndarray) -> dict:
    return {"dim": int(vec.size), "vec": _pairs(vec)}


def phi(dim: int) -> dict:
    return {"family": "phi", "params": {"dim": dim, "basis": None}}


def wigner(u: np.ndarray, antiunitary: bool = False) -> dict:
    return {
        "family": "wigner",
        "params": {"dim": u.shape[0], "unitary": _pairs(u), "antiunitary": antiunitary},
    }


def composed(pre: np.ndarray, post: np.ndarray) -> dict:
    return {
        "family": "composed",
        "params": {"dim": pre.shape[0], "pre": _pairs(pre), "post": _pairs(post)},
    }


def block_embed(dim: int) -> dict:
    return {"family": "block_embed", "params": {"dim": dim, "threshold": 0.5}}


def separable_embed(anchors) -> dict:
    return {"family": "separable_embed", "params": {"anchors": [_state(a) for a in anchors]}}


def proper_subspace(dim: int, k: int) -> dict:
    return {"family": "proper_subspace", "params": {"dim": dim, "k": k, "alpha0": 0}}


def tau(g: dict) -> dict:
    return {"family": "tau", "params": {"g": g}}


def _unit(c: complex) -> list[float]:
    return [c.real, c.imag]


class _Builder:
    """Collects the operations of one workload, drawing from one generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.ops: list[Op] = []

    def unitary(self, dim: int) -> np.ndarray:
        return _unitary(self.rng, dim)

    def vector(self, dim: int) -> np.ndarray:
        return _vector(self.rng, dim)

    def check(self, prop, label, map_, dim, expect, samples, refine_steps, **extra):
        self.ops.append(Op(
            f"{prop} {label}", "check", expect, map_, dim, prop, samples,
            refine_steps, int(self.rng.integers(2**31)), **extra,
        ))

    def inclusion(self, label, map_, dim, preimages):
        self.ops.append(Op(
            f"inclusion {label}", "inclusion", HOLDS, map_, dim,
            samples=INCLUSION_SAMPLES, check_seed=int(self.rng.integers(2**31)),
            states=tuple(_state(v) for v in preimages),
        ))

    def classify(self, label, map_, dim, expect, hint=(), phase_class=""):
        self.ops.append(Op(
            f"classify {label}", "classify", expect, map_, dim,
            states=tuple(_state(v) for v in hint), phase_class=phase_class,
        ))

    def disjoint_pair(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Orthogonal pair with disjoint supports, as in criterion 07."""
        v = np.zeros(dim, dtype=complex)
        w = np.zeros(dim, dtype=complex)
        v[: dim // 2] = self.vector(dim // 2)
        w[dim // 2 :] = self.vector(dim - dim // 2)
        return v, w


def _verify(b: _Builder) -> None:
    def check(prop, label, map_, dim, expect, **extra):
        b.check(prop, label, map_, dim, expect, VERIFY_SAMPLES, VERIFY_REFINE_STEPS, **extra)

    for dim in range(2, 7):
        check("nonexpansive", f"phi dim{dim}", phi(dim), dim, HOLDS)
    check("nonexpansive", "composed dim4", composed(b.unitary(4), b.unitary(4)), 4, HOLDS)
    check("nonexpansive", "proper_subspace 5/3", proper_subspace(5, 3), 5, HOLDS)
    sep = separable_embed([b.vector(4) for _ in range(32)])
    check("nonexpansive", "separable_embed dim4/32", sep, 4, HOLDS)
    check("isometry", "separable_embed dim4/32", sep, 4, WITNESS)
    for label, g, expect in (
        ("fold", {"kind": "fold"}, HOLDS),
        ("constant", {"kind": "constant", "c": [1.0, 0.0]}, HOLDS),
        ("power2", {"kind": "power", "k": 2}, WITNESS),
    ):
        check("nonexpansive", f"tau {label}", tau(g), 2, expect)
    check("noncontractive", "block_embed dim3", block_embed(3), 3, HOLDS)
    check("isometry", "block_embed dim3", block_embed(3), 3, WITNESS, unit_d_out=True)
    check("noncontractive", "phi dim2", phi(2), 2, WITNESS)
    check("isometry", "phi dim2", phi(2), 2, WITNESS)
    check("isometry", "wigner dim4", wigner(b.unitary(4)), 4, HOLDS)
    # orthogonality preservation samples pairs but does not refine
    b.check("orthogonality", "wigner dim4", wigner(b.unitary(4)), 4, HOLDS, VERIFY_SAMPLES, 0)
    b.check("orthogonality", "phi dim4", phi(4), 4, WITNESS, VERIFY_SAMPLES, 0)
    # the three set-ups of criterion 07
    b.inclusion("phi dim4", phi(4), 4, b.disjoint_pair(4))
    pre, post = b.unitary(4), b.unitary(4)
    r1, r2 = b.disjoint_pair(4)
    b.inclusion("composed dim4", composed(pre, post), 4, (pre.conj().T @ r1, pre.conj().T @ r2))
    a, raw = b.vector(4), b.vector(4)
    b.inclusion("wigner dim4", wigner(b.unitary(4)), 4, (a, raw - np.vdot(a, raw) * a))


def _scan(b: _Builder) -> None:
    for _ in range(2):
        for label, map_, dim, expect in (
            ("phi dim16", phi(16), 16, HOLDS),
            ("wigner dim16", wigner(b.unitary(16)), 16, HOLDS),
            ("composed dim12", composed(b.unitary(12), b.unitary(12)), 12, HOLDS),
            ("block_embed dim8", block_embed(8), 8, WITNESS),
            ("separable_embed dim8/64", separable_embed([b.vector(8) for _ in range(64)]), 8, HOLDS),
        ):
            b.check("nonexpansive", label, map_, dim, expect, SCAN_SAMPLES, 0)


def _classify(b: _Builder) -> None:
    # unhinted: classify() searches for a COSP with a COSP image itself
    for dim in range(3, 9):
        b.classify(f"wigner dim{dim}", wigner(b.unitary(dim)), dim, WIGNER_UNITARY)
        b.classify(f"antiwigner dim{dim}", wigner(b.unitary(dim), True), dim, WIGNER_ANTIUNITARY)
        b.classify(f"phi dim{dim}", phi(dim), dim, ENTRYWISE_ABS)
    # hinted, as in criterion 05: the columns of pre* are mapped to a COSP
    for i in range(26):
        dim = 3 + i % 4
        pre, post = b.unitary(dim), b.unitary(dim)
        hint = pre.conj()  # row j is column j of pre*
        b.classify(f"composed dim{dim}", composed(pre, post), dim, ENTRYWISE_ABS, hint)
    c = cmath.exp(2j * math.pi * b.rng.random())
    d = cmath.exp(2j * math.pi * b.rng.random())
    for label, g, expect, phase_class in (
        ("tau fold", {"kind": "fold"}, STANDARD_DIM2, "half_circle"),
        ("tau constant", {"kind": "constant", "c": [1.0, 0.0]}, STANDARD_DIM2, "half_circle"),
        ("tau rotation", {"kind": "rotation", "c": _unit(c)}, STANDARD_DIM2, "rotation"),
        ("tau conj_rotation", {"kind": "conj_rotation", "c": _unit(d)}, STANDARD_DIM2, "conj_rotation"),
        # the squaring map is not nonexpansive: its phase image is the whole circle
        ("tau power2", {"kind": "power", "k": 2}, NOT_CLASSIFIED, ""),
    ):
        b.classify(label, tau(g), 2, expect, phase_class=phase_class)
    # basis states outside the span collapse onto coordinate 0: no COSP image
    b.classify("proper_subspace 5/3", proper_subspace(5, 3), 5, NOT_CLASSIFIED)


_BUILDERS = {"verify": _verify, "scan": _scan, "classify": _classify}


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one workload for one seed.

    selftest has no generated inputs: the acceptance criteria fix their
    own seeds, so its operations come from the package.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "selftest":
        return []
    b = _Builder(np.random.default_rng(np.random.SeedSequence((seed, WORKLOADS.index(workload)))))
    _BUILDERS[workload](b)
    return b.ops
