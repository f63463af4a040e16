"""The CLI invocations whose exit codes and report bytes are pinned.

A helper module, not a test module: tests/test_cli.py runs each row
twice in one process, and CI imports the table with PYTHONPATH=src:tests
to run each row in fresh processes under other BLAS kernels.  Each row
is an argv (split on spaces, so an inline JSON map holds none) and the
exit code it must give.  With the verify rows, every builtin --map name
that acceptance.CLAIMS serves is pinned.
"""

from __future__ import annotations

INVOCATIONS = [
    # phi in dim 2 is not noncontractive, and tau-power2 (the dimension-2
    # lift of z -> z**2) is not nonexpansive: each report holds a refined
    # witness
    ("verify --property noncontractive --map phi --dim 2", 1),
    ("verify --property nonexpansive --map tau-power2 --dim 2", 1),
    # phi in dim 4 is nonexpansive: its worst gap, its scan winner's, comes
    # from real, float64 image rows
    ("verify --property nonexpansive --map phi --dim 4", 0),
    # wigner-random in dim 4 is an isometry: its check holds, so it reports
    # its scan winner unrefined, and a check that holds ignores the cap of 17
    ("verify --property isometry --map wigner-random --dim 4 --refine-steps 17", 0),
    # constant in dim 3 is nonexpansive but not injective: the collision
    # search reports two distant states with one image
    ("verify --property nonexpansive --map constant --dim 3", 0),
    ("verify --property injectivity --map constant --dim 3", 1),
    # phi in dim 3 is not injective either: its colliding states differ only
    # in their phases, and the Gauss-Newton polish drives the image distance
    # of the refined pair to rounding level
    ("verify --property injectivity --map phi --dim 3", 1),
    # wigner-random in dim 4 is injective: its worst_gap is minus the image
    # distance of states 0.5 apart, -0.5 to rounding level, the collision
    # threshold
    ("verify --property injectivity --map wigner-random --dim 4", 0),
    # phi in dim 4 is not orthogonality preserving: the orthogonal-pair
    # sampler finds a pair whose images overlap
    ("verify --property orthogonality --map phi --dim 4", 1),
    # block-embed in dim 3 is not an isometry: its refined witness straddles
    # the block boundary
    ("verify --property isometry --map block-embed --dim 3", 1),
    # tau-fold and tau-constant in dim 2 are nonexpansive: near a basis
    # state the lift builds its image from the row's own moduli, so no
    # rounding of the weight p = |v_0|^2 reads as a witness
    ("verify --property nonexpansive --map tau-fold --dim 2", 0),
    ("verify --property nonexpansive --map tau-constant --dim 2", 0),
    # phi in dim 4 is entrywise_abs and wigner-random in dim 3 a unitary
    # symmetry, both through the dimension >= 3 pipeline; tau-fold and
    # tau-constant in dim 2 report their sampled phase maps.  tau-constant's
    # basis states, which the COSP check maps, are the degenerate rows of the
    # dimension-2 parameter kernel
    ("classify --map phi --dim 4", 0),
    ("classify --map wigner-random --dim 3", 0),
    ("classify --map tau-fold --dim 2", 0),
    ("classify --map tau-constant --dim 2", 0),
    # constant in dim 3 sends the basis onto one state, so the orthogonality
    # check of its image rejects it: NOT_CLASSIFIED, "COSP-image hypothesis
    # unverified"
    ("classify --map constant --dim 3", 1),
    # tau-power2 in dim 2 passes its probes and the lift's validation, but
    # the image of z -> z**2 fits no half-circle: NOT_CLASSIFIED, "image
    # spread exceeds a half-circle; map cannot be nonexpansive"
    ("classify --map tau-power2 --dim 2", 1),
    # inline JSON maps load neither acceptance (builtin names do) nor, for
    # classify, verify: the lift of the rotation by i in dim 2 classifies as
    # a phase lift, and the collapse onto 2 of 4 coordinates is not
    # noncontractive
    ('classify --map {"family":"tau","params":{"g":{"kind":"rotation","c":[0,1]}}} --dim 2', 0),
    ('verify --property noncontractive --map {"family":"proper_subspace","params":{"dim":4,"k":2}} --dim 4', 1),
    # the three README counterexamples, each holding its declared outcome;
    # separable-embed with 64 anchors in dim 8 has 128-wide images, so its
    # chunks split into several map batches.  separable-embed with 2 anchors
    # in dim 4 is not injective: two overlap moduli cannot separate the ray
    # space of C^4, and the collision search finds two states with one image
    ("demo block-embed --dim 3", 0),
    ("demo separable-embed --dim 4 --anchors 32", 0),
    ("demo separable-embed --dim 4 --anchors 2", 1),
    ("demo separable-embed --dim 8 --anchors 64", 0),
    ("demo proper-subspace --dim 5 --k 3", 0),
]
