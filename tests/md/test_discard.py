"""A task's files and parse entries end at its fold: the adapters list
every file a task writes (``task_suffixes``), and discarding those names
leaves nothing behind, on both sandbox backends."""

import numpy as np
import pytest

from repro.md.amber import AmberAdapter
from repro.md.batch import MDWork, run_md_batch
from repro.md.forcefield import UmbrellaRestraint
from repro.md.namd import NAMDAdapter
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, ThermodynamicState

ADAPTERS = [AmberAdapter, NAMDAdapter]
TAGS = ["t0", "t1", "t2"]


@pytest.fixture(params=["memory", "disk"])
def sandbox(request, tmp_path):
    if request.param == "memory":
        return Sandbox()
    return Sandbox(tmp_path / "sb")


def task_files(adapter, tags):
    """What the application manager discards at a group's fold."""
    return [tag + suffix for tag in tags for suffix in adapter.task_suffixes]


def round_trip(adapter, sandbox, restrained):
    """Write a group's inputs, integrate it as one batch, read its outputs
    back, then discard every file of its tasks."""
    restraints = (
        (UmbrellaRestraint("phi", -60.0, 0.02),) if restrained else ()
    )
    adapter.write_inputs(
        sandbox,
        TAGS,
        [np.array([-1.0 + 0.1 * i, 0.5]) for i in range(len(TAGS))],
        [ThermodynamicState(300.0 + 10 * i, restraints=restraints)
         for i in range(len(TAGS))],
        MDParams(n_steps=6, sample_stride=2),
        [7, 8, 9],
    )
    run_md_batch([MDWork(adapter, sandbox, tag) for tag in TAGS])
    outputs = adapter.read_outputs(sandbox, TAGS)
    assert len(outputs) == len(TAGS)
    adapter.discard(sandbox, task_files(adapter, TAGS))


@pytest.mark.parametrize("restrained", [False, True], ids=["free", "restrained"])
@pytest.mark.parametrize("adapter_cls", ADAPTERS)
def test_write_batch_read_discard_leaves_nothing(
    adapter_cls, restrained, sandbox
):
    adapter = adapter_cls()
    round_trip(adapter, sandbox, restrained)
    assert sandbox.listdir() == []
    assert adapter._parsed == {}


@pytest.mark.parametrize("adapter_cls", ADAPTERS)
def test_a_file_type_left_off_the_list_is_left_behind(adapter_cls, sandbox):
    """The check above fails for an adapter that writes a file type it
    does not list: each suffix, dropped in turn, stays in the sandbox."""
    for dropped in adapter_cls.task_suffixes:
        forgetful = type(
            "Forgetful",
            (adapter_cls,),
            {
                "task_suffixes": tuple(
                    s for s in adapter_cls.task_suffixes if s != dropped
                )
            },
        )()
        round_trip(forgetful, sandbox, restrained=True)
        assert sandbox.listdir() == sorted(tag + dropped for tag in TAGS)
        sandbox.discard(sandbox.listdir())


@pytest.mark.parametrize("adapter_cls", ADAPTERS)
def test_discarding_files_never_written_is_not_an_error(adapter_cls, sandbox):
    """A unit that failed before its outputs (and an unrestrained task's
    restraint file) has names on the list that were never written; its
    input entries, never read, go with its files."""
    adapter = adapter_cls()
    adapter.write_inputs(
        sandbox, ["t"], [np.zeros(2)], [ThermodynamicState()], MDParams(), [1]
    )
    assert adapter._parsed
    adapter.discard(sandbox, task_files(adapter, ["t"]))
    assert sandbox.listdir() == []
    assert adapter._parsed == {}


def test_discard_is_per_sandbox():
    """Entries and files of one sandbox survive a discard in another."""
    adapter = AmberAdapter()
    kept, dropped = Sandbox(), Sandbox()
    for box in (kept, dropped):
        adapter.write_inputs(
            box, ["t"], [np.zeros(2)], [ThermodynamicState()], MDParams(), [1]
        )
    adapter.discard(dropped, task_files(adapter, ["t"]))
    assert dropped.listdir() == []
    assert kept.listdir() == ["t.inpcrd", "t.mdin"]
    assert {sid for sid, _ in adapter._parsed} == {id(kept)}
