"""Tests for the sandbox (memory and disk backends)."""

import pytest

from repro.md.sandbox import Sandbox, SandboxError


@pytest.fixture(params=["memory", "disk"])
def sandbox(request, tmp_path):
    if request.param == "memory":
        return Sandbox()
    return Sandbox(root=tmp_path / "sb")


class TestBothBackends:
    def test_write_read_roundtrip(self, sandbox):
        sandbox.write_text("a.txt", "hello")
        assert sandbox.read_text("a.txt") == "hello"

    def test_overwrite(self, sandbox):
        sandbox.write_text("a.txt", "one")
        sandbox.write_text("a.txt", "two")
        assert sandbox.read_text("a.txt") == "two"

    def test_exists(self, sandbox):
        assert not sandbox.exists("x")
        sandbox.write_text("x", "")
        assert sandbox.exists("x")

    def test_missing_read_raises(self, sandbox):
        with pytest.raises(SandboxError, match="no such file"):
            sandbox.read_text("missing")

    def test_listdir_sorted(self, sandbox):
        sandbox.write_text("z", "")
        sandbox.write_text("a", "")
        assert sandbox.listdir() == ["a", "z"]

    def test_size_mb(self, sandbox):
        sandbox.write_text("f", "x" * 1000)
        assert sandbox.size_mb("f") == pytest.approx(0.001)

    def test_size_of_missing_raises(self, sandbox):
        with pytest.raises(SandboxError):
            sandbox.size_mb("missing")

    def test_remove(self, sandbox):
        sandbox.write_text("f", "data")
        sandbox.remove("f")
        assert not sandbox.exists("f")

    def test_remove_missing_raises(self, sandbox):
        with pytest.raises(SandboxError):
            sandbox.remove("missing")

    def test_discard_skips_missing(self, sandbox):
        sandbox.write_text("a", "1")
        sandbox.write_text("b", "2")
        sandbox.discard(["a", "missing"])
        assert sandbox.listdir() == ["b"]


class TestDiskSpecifics:
    def test_on_disk_flag(self, tmp_path):
        assert Sandbox(tmp_path).on_disk
        assert not Sandbox().on_disk

    def test_nested_paths(self, tmp_path):
        sb = Sandbox(tmp_path)
        sb.write_text("sub/dir/file.txt", "deep")
        assert sb.read_text("sub/dir/file.txt") == "deep"

    def test_escape_rejected(self, tmp_path):
        sb = Sandbox(tmp_path / "inner")
        with pytest.raises(SandboxError, match="escapes"):
            sb.write_text("../outside.txt", "bad")
