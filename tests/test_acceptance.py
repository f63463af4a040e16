"""Acceptance suite: one test per criterion, each printing its verdict."""

from __future__ import annotations

from dataclasses import replace

from wignerlab import acceptance


def _run(fn):
    result = fn()
    print(
        f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.num:02d} "
        f"{result.name}: {result.detail} ({result.seconds:.2f}s)"
    )
    assert result.passed, f"criterion {result.num}: {result.detail}"


def test_criterion_01_metric_identity():
    _run(acceptance.criterion_01)


def test_criterion_02_abs_map_nonexpansive():
    _run(acceptance.criterion_02)


def test_criterion_03_abs_map_not_isometry():
    _run(acceptance.criterion_03)


def test_criterion_04_phase_lift_equivalence():
    _run(acceptance.criterion_04)


def test_criterion_04_fails_when_the_circle_side_disagrees(monkeypatch):
    # a circle check that finds no violation calls squaring nonexpansive,
    # while its lift is not: the criterion must see the disagreement
    monkeypatch.setattr(acceptance, "check_nonexpansive_circle", lambda g: None)
    result = acceptance.criterion_04()
    assert not result.passed
    assert "squaring False/True" in result.detail


def test_criterion_04_fails_when_a_lift_contradicts_its_claim(monkeypatch):
    # the fold's lift and circle map agree that it is nonexpansive, but its
    # claim now says otherwise: the criterion must hold each lift to its claim
    claim = acceptance.CLAIMS["tau-fold"]
    expect = {**claim.expect, "nonexpansive": False}
    monkeypatch.setitem(acceptance.CLAIMS, "tau-fold", replace(claim, expect=expect))
    result = acceptance.criterion_04()
    assert not result.passed
    assert "fold True/True" in result.detail


def test_criterion_05_classifier_round_trip():
    _run(acceptance.criterion_05)


def test_criterion_06_dim2_recovery():
    _run(acceptance.criterion_06)


def test_criterion_07_inclusion_of_dominated_states():
    _run(acceptance.criterion_07)


def test_criterion_08_block_embedding():
    _run(acceptance.criterion_08)


def test_criterion_09_overlap_profile_embedding():
    _run(acceptance.criterion_09)


def test_criterion_10_subspace_collapse():
    _run(acceptance.criterion_10)


def test_criterion_11_circle_branch_oracle():
    _run(acceptance.criterion_11)
