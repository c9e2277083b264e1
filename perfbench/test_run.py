"""The untraced run's figures in refs: each op over the reference passes around it.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

import refloop
import run


def test_bracketing_means_the_passes_before_and_after_each_op():
    assert refloop.bracketing([1.0, 3.0, 2.0]) == [2.0, 2.5, 2.0]


def test_end_to_end_divides_each_op_by_its_bracketing_passes():
    st = run.Stats()
    st.attempted = 3
    st.wall, st.cpu = [2.0, 5.0, 9.0], [2.0, 5.0, 9.0]
    st.ref_wall, st.ref_cpu = [1.0, 1.0, 3.0], [1.0, 1.0, 3.0]
    st.seconds, st.samples, st.steps = 16.0, 30.0, 60.0
    gated, wall_clock = run._end_to_end(st, [0.5, 0.25, 0.75])
    # bracketing passes 1, 2, 3, so the ops take 2, 2.5 and 3 refs
    assert gated["op_ref.p50"] == (2.5, "ref")
    assert gated["op_cpu_ref.p50"] == (2.5, "ref")
    assert gated["ops_per_kref"][0] == pytest.approx(1000.0 * 3 / 7.5)
    assert gated["samples_per_ref"][0] == pytest.approx(30.0 / 7.5)
    assert gated["steps_per_ref"][0] == pytest.approx(60.0 / 7.5)
    assert gated["setup_s"] == (0.5, "s")
    assert wall_clock["op_s.p50"] == (5.0, "s")
    assert wall_clock["ops_per_s"][0] == pytest.approx(3 / 16.0)


def test_reference_pass_is_deterministic():
    assert refloop.one_pass() == refloop.one_pass()
