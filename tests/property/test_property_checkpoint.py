"""Property-based tests for checkpoint (de)serialization robustness.

The contract under fuzzing: ``Checkpoint.from_json`` either returns a
fully validated :class:`Checkpoint` or raises :class:`CheckpointError`
with a readable message — never a bare ``JSONDecodeError``, ``KeyError``
or ``TypeError`` from deep inside the parser — and a clean round trip is
byte-identical.  Both schema flavours (synchronous cycle-boundary and
asynchronous quiesce, the latter also past ten replicas) are fuzzed.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RepEx
from repro.core.checkpoint import Checkpoint, CheckpointError
from repro.core.config import DimensionSpec, PatternSpec, ResourceSpec
from tests.conftest import small_tremd_config


@lru_cache(maxsize=None)
def checkpoint(kind: str) -> Checkpoint:
    """A real checkpoint of each pattern (computed once)."""
    if kind == "sync":
        repex = RepEx(small_tremd_config(), checkpoint_every=1)
    else:
        # 16 replicas: ids past 9 sort differently as ints and as strings
        n = 16 if kind == "async16" else 4
        config = small_tremd_config(
            pattern=PatternSpec(kind="asynchronous"),
            n_cycles=3,
            dimensions=[DimensionSpec("temperature", n, 273.0, 373.0)],
            resource=ResourceSpec("supermic", cores=n),
        )
        repex = RepEx(config, checkpoint_every_s=120.0)
    repex.run()
    assert repex.checkpoints, f"no checkpoint captured for {kind}"
    return repex.checkpoints[0]


def checkpoint_text(kind: str) -> str:
    """The snapshot JSON of :func:`checkpoint`."""
    return checkpoint(kind).to_json()


KINDS = ("sync", "async", "async16")

#: junk slices spliced into the JSON text by the corruption strategy
junk = st.text(
    alphabet='abc{}[]",:0123456789.-truefalsnl ', min_size=0, max_size=12
)


def loads_or_checkpoint_error(text: str):
    """The fuzzing contract: a Checkpoint or a CheckpointError, only."""
    try:
        ckpt = Checkpoint.from_json(text)
    except CheckpointError as exc:
        # the message is for humans: never an empty or bare-class error
        assert str(exc)
        return None
    return ckpt


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_is_byte_identical(kind):
    text = checkpoint_text(kind)
    clone = Checkpoint.from_json(text)
    assert clone.to_json() == text
    # and idempotently so
    assert Checkpoint.from_json(clone.to_json()).to_json() == text


@pytest.mark.parametrize("kind", KINDS)
@given(frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_truncation_always_raises_checkpoint_error(kind, frac):
    text = checkpoint_text(kind)
    cut = int(frac * len(text))
    with pytest.raises(CheckpointError):
        Checkpoint.from_json(text[:cut])


@pytest.mark.parametrize("kind", KINDS)
@given(
    start=st.floats(min_value=0.0, max_value=1.0),
    length=st.integers(min_value=1, max_value=40),
    replacement=junk,
)
@settings(max_examples=100, deadline=None)
def test_splice_corruption_never_leaks_bare_errors(
    kind, start, length, replacement
):
    text = checkpoint_text(kind)
    i = int(start * (len(text) - 1))
    corrupted = text[:i] + replacement + text[i + length :]
    loads_or_checkpoint_error(corrupted)


@pytest.mark.parametrize("kind", KINDS)
@given(key_index=st.integers(min_value=0, max_value=200))
@settings(max_examples=60, deadline=None)
def test_deleting_any_top_level_key_is_handled(kind, key_index):
    data = json.loads(checkpoint_text(kind))
    keys = sorted(data)
    del data[keys[key_index % len(keys)]]
    loads_or_checkpoint_error(json.dumps(data))


@pytest.mark.parametrize("kind", KINDS)
@given(
    key_index=st.integers(min_value=0, max_value=200),
    value=st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-10, max_value=10),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
        st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    ),
)
@settings(max_examples=120, deadline=None)
def test_mangling_any_top_level_value_is_handled(kind, key_index, value):
    data = json.loads(checkpoint_text(kind))
    keys = sorted(data)
    data[keys[key_index % len(keys)]] = value
    loads_or_checkpoint_error(json.dumps(data))


@given(key_index=st.integers(min_value=0, max_value=200))
@settings(max_examples=30, deadline=None)
def test_async_state_missing_keys_raise_checkpoint_error(key_index):
    data = json.loads(checkpoint_text("async"))
    keys = sorted(data["async_state"])
    removed = keys[key_index % len(keys)]
    del data["async_state"][removed]
    if removed == "window_next_t":
        # the only optional member of the block
        loads_or_checkpoint_error(json.dumps(data))
    else:
        with pytest.raises(CheckpointError, match="async_state"):
            Checkpoint.from_json(json.dumps(data))


@pytest.mark.parametrize("kind", KINDS)
def test_required_blocks_raise_with_clear_messages(kind):
    for key, pattern in (
        ("rng", "corrupted checkpoint"),
        ("accounting", "corrupted checkpoint"),
        ("t_now", "malformed checkpoint"),
    ):
        data = json.loads(checkpoint_text(kind))
        del data[key]
        with pytest.raises(CheckpointError, match=pattern):
            Checkpoint.from_json(json.dumps(data))


def test_wrong_config_hash_is_rejected_at_restore(tmp_path):
    path = tmp_path / "foreign.json"
    # written with its journal beside it, then re-hashed for another
    # config
    data = json.loads(checkpoint("sync").save(path))
    data["config_hash"] = "0" * len(data["config_hash"])
    # a genuinely foreign checkpoint is internally consistent: re-stamp
    # the content checksum so tamper detection doesn't fire first
    data["checksum"] = Checkpoint._content_checksum(data)
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="different configuration"):
        RepEx(small_tremd_config(), resume_from=path)
