"""Generated inputs depend on the seed alone; each class has a fixed tail percentile."""

import pytest

from authz_mix import AuthzMix
from cli_state import CliState
from site_sim import SiteSim
from stats import tail_percentile


def _ops(workload, workdir=None):
    ops = [(op.slot, op.kind, op.args) for op in workload.ops]
    return repr(ops).replace(str(workdir), "<work>") if workdir else ops


def test_authz_mix_inputs_repeat_for_a_seed():
    first, again, other = AuthzMix(7, None), AuthzMix(7, None), AuthzMix(8, None)
    assert first.vo_text == again.vo_text and _ops(first) == _ops(again)
    assert _ops(first) != _ops(other)


def test_site_sim_inputs_repeat_for_a_seed():
    assert _ops(SiteSim(7, None)) == _ops(SiteSim(7, None))
    assert _ops(SiteSim(7, None)) != _ops(SiteSim(8, None))


def test_cli_state_inputs_and_state_file_repeat_for_a_seed(tmp_path):
    first, again = CliState(7, tmp_path / "a"), CliState(7, tmp_path / "b")
    assert _ops(first, tmp_path / "a") == _ops(again, tmp_path / "b")
    assert first.pristine.read_bytes() == again.pristine.read_bytes()
    other = CliState(8, tmp_path / "c")
    assert first.pristine.read_bytes() != other.pristine.read_bytes()


@pytest.mark.parametrize("factory, tails", [(AuthzMix, (99.0, 90.0)), (SiteSim, (99.0, 99.0)), (CliState, (75.0, 75.0))])
def test_each_class_has_the_tail_percentile_recorded_in_workloads_md(tmp_path, factory, tails):
    """Tails are taken over one pass's operations, so the percentile is fixed per class."""
    ops = factory(1, tmp_path).ops
    assert tuple(tail_percentile(sum(op.slot == slot for op in ops)) for slot in (0, 1)) == tails
