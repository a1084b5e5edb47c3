"""Tests for the engine adapter registry."""

import pytest

from repro.md.engine import (
    EngineAdapter,
    available_engines,
    get_adapter,
    register_adapter,
)
from repro.md.system import alanine_dipeptide_large


class TestRegistry:
    def test_both_engines_registered(self):
        assert set(available_engines()) >= {"amber", "namd"}

    def test_get_adapter_builds_instance(self):
        a = get_adapter("amber")
        assert a.name == "amber"
        assert a.system.n_atoms == 2881

    def test_get_adapter_with_system(self):
        a = get_adapter("amber", system=alanine_dipeptide_large())
        assert a.system.n_atoms == 64366

    def test_unknown_engine(self):
        with pytest.raises(KeyError, match="unknown MD engine"):
            get_adapter("gromacs")

    def test_register_rejects_non_adapter(self):
        with pytest.raises(TypeError):
            register_adapter(dict)

    def test_extension_path(self):
        """Adding a new engine = subclass + register (the paper's claim that
        integrating new engines is 'significantly simplified')."""

        @register_adapter
        class FakeEngine(EngineAdapter):
            name = "fake-engine"
            executables = ("fake.x",)

            def write_input(self, *a, **k):
                return []

            def read_task(self, *a, **k):
                raise NotImplementedError

            def write_outputs(self, *a, **k):
                raise NotImplementedError

            def read_info(self, *a, **k):
                return {}

            def read_restart(self, *a, **k):
                raise NotImplementedError

        try:
            assert "fake-engine" in available_engines()
            inst = get_adapter("fake-engine")
            assert inst.default_executable(1) == "fake.x"
        finally:
            from repro.md import engine as engine_mod

            del engine_mod._ADAPTERS["fake-engine"]
