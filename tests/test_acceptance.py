"""Acceptance gate: every criterion at its stated tolerance.

Each criterion runs through its check in ``qpdiff.verification`` (the
same code behind ``qpdiff verify``) and prints one pass/fail line; the
test fails if the criterion failed or overran its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from qpdiff import farfield as ff
from qpdiff import verification as vf
from qpdiff.whfactor import _integral_memo

CRITERIA = [
    ("criterion_1_branch_identities", vf.check_branch_identities),
    ("criterion_2_sign_compatibility", vf.check_sign_compatibility),
    ("criterion_3_four_factor_reconstruction", vf.check_four_factor),
    ("criterion_4_decay_exponents", vf.check_decay),
    ("criterion_5_cauchy_oracles", vf.check_cauchy_oracles),
    ("criterion_6_compatibility_residual", vf.check_residual),
    ("criterion_7_diffraction_properties", vf.check_diffraction),
    ("criterion_8_performance", vf.check_performance),
    ("criterion_9_real_branch_regime", vf.check_real_branch),
]


@pytest.mark.parametrize("name,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status}  {result.name}  ({result.elapsed:.1f} s)  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_performance_times_a_cold_arc(monkeypatch):
    # criterion 8 times integrals, not memo reads: after the same arc has
    # filled the integral memo (as criterion 7 would in a verify run),
    # its timed arc still integrates each of its factors
    inc = ff.make_incidence(math.pi / 4, -3 * math.pi / 4, 3.0)
    ff.AnsatzEvaluator(inc).arc_sweep(math.pi / 4, 101)
    batches, misses = [], []
    continued, arc_sweep = ff._continued, ff.AnsatzEvaluator.arc_sweep

    def spy_continued(labels, a1, *args):
        batches.append((len(labels), int(np.count_nonzero(a1 == 0))))
        return continued(labels, a1, *args)

    def spy_arc(self, *args):
        before = _integral_memo.misses
        result = arc_sweep(self, *args)
        misses.append(_integral_memo.misses - before)
        return result

    monkeypatch.setattr(vf, "render", lambda spec, contour: np.ones((2, 2, 3)))
    monkeypatch.setattr(ff, "_continued", spy_continued)
    monkeypatch.setattr(ff.AnsatzEvaluator, "arc_sweep", spy_arc)
    assert vf.check_performance().passed
    # the last batch holds the 3n + 1 factors of the n rows that reach the
    # integrals; a factor at alpha1 = 0 vanishes exactly and takes none
    entries, zeros = batches[-1]
    assert entries % 3 == 1 and entries > 3 * 90
    assert misses == [entries - zeros]
