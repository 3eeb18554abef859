"""Tests for the native kernel build layer (compile cache, discovery, probes).

These exercise the toolchain plumbing — compiler discovery honouring
``ARE_NATIVE_CC``, the content-hashed build cache rebuilding exactly when the
C source changes, and the never-raising :func:`native_status` probe backing
``are backends``.  The numerical contract of the compiled kernels themselves
is covered by ``test_native_backend.py`` and the golden conformance suites.
"""

import shutil
import subprocess
import warnings

import numpy as np
import pytest

from repro.core import native_backend
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.native import build
from repro.core.native.build import (
    BASE_FLAGS,
    NativeBuildError,
    ensure_built,
    find_compiler,
    library_path,
    load_kernels,
    native_status,
    openmp_flags,
)
from repro.core.plan import PlanBuilder

requires_compiler = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler on PATH"
)


@pytest.fixture()
def no_compiler(monkeypatch):
    """Point compiler discovery at a name that cannot resolve."""
    monkeypatch.setenv(build.CC_ENV, "are-no-such-compiler")
    assert find_compiler() is None


class TestCompilerDiscovery:
    def test_override_that_does_not_resolve_reports_no_compiler(self, no_compiler):
        # An explicit ARE_NATIVE_CC must not silently fall back to cc/gcc.
        status = native_status()
        assert status["available"] is False
        assert build.CC_ENV in status["reason"]

    @requires_compiler
    def test_discovered_compiler_is_executable(self):
        cc = find_compiler()
        assert shutil.which(cc) == cc

    @requires_compiler
    def test_override_with_real_path_wins(self, monkeypatch):
        cc = find_compiler()
        monkeypatch.setenv(build.CC_ENV, cc)
        assert find_compiler() == cc


class TestBuildCache:
    @requires_compiler
    def test_source_edit_changes_cache_path_and_rebuilds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(build.CACHE_ENV, str(tmp_path))
        source = tmp_path / "_kernels.c"
        shutil.copyfile(build.SOURCE_PATH, source)
        monkeypatch.setattr(build, "SOURCE_PATH", source)

        first = ensure_built()
        assert first.exists()
        assert first.parent == tmp_path

        # A fresh call with unchanged source is a cache hit, not a rebuild.
        stamp = first.stat().st_mtime_ns
        assert ensure_built() == first
        assert first.stat().st_mtime_ns == stamp

        # Touching the C source moves the content hash: the old library can
        # never be served for the new source.
        source.write_text(source.read_text() + "\n/* cache-buster */\n")
        second = ensure_built()
        assert second != first
        assert second.exists()

    @requires_compiler
    def test_flags_participate_in_the_signature(self, tmp_path, monkeypatch):
        monkeypatch.setenv(build.CACHE_ENV, str(tmp_path))
        cc = find_compiler()
        assert library_path(cc, BASE_FLAGS) != library_path(cc, BASE_FLAGS + ("-DX",))

    @requires_compiler
    def test_force_rebuild_replaces_the_cached_library(self, tmp_path, monkeypatch):
        monkeypatch.setenv(build.CACHE_ENV, str(tmp_path))
        first = ensure_built()
        stamp = first.stat().st_mtime_ns
        second = ensure_built(force=True)
        assert second == first
        assert second.stat().st_mtime_ns != stamp

    def test_missing_compiler_raises_build_error(self, no_compiler):
        with pytest.raises(NativeBuildError, match="fall back"):
            ensure_built()

    @requires_compiler
    def test_warm_load_spawns_no_subprocess(self, tmp_path, monkeypatch):
        # The toolchain probes (cc --version, the OpenMP test build) are
        # memoised per compiler: a warm load only re-hashes the source.
        monkeypatch.setenv(build.CACHE_ENV, str(tmp_path))
        first = load_kernels()
        spawned = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            spawned.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(build.subprocess, "run", counting_run)
        assert load_kernels() is first
        assert spawned == []


class TestOpenMPProbe:
    @requires_compiler
    def test_probe_is_memoised_and_boolean(self):
        cc = find_compiler()
        flags = openmp_flags(cc)
        assert flags in ((), (build.OPENMP_FLAG,))
        assert openmp_flags(cc) == flags


class TestNativeStatus:
    def test_status_never_raises_without_compiler(self, no_compiler):
        status = native_status()
        assert status["available"] is False
        assert status["compiler"] is None
        assert status["cached_library"] is None

    @requires_compiler
    def test_status_reports_toolchain(self):
        status = native_status()
        assert status["available"] is True
        assert status["compiler"] == find_compiler()
        assert status["compiler_version"]
        assert isinstance(status["openmp"], bool)
        assert "cache_dir" in status


class TestFallbackEngine:
    def test_missing_compiler_falls_back_not_raises(self, no_compiler, monkeypatch, tiny_workload):
        monkeypatch.setattr(native_backend, "_fallback_warned", False)
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        reference = AggregateRiskEngine(EngineConfig(backend="vectorized")).run_plan(plan)

        with pytest.warns(RuntimeWarning, match="vectorized NumPy path"):
            result = AggregateRiskEngine(EngineConfig(backend="native")).run_plan(plan)

        assert result.details["native_kernel"] is False
        assert result.details["native_fallback"] is True
        assert build.CC_ENV in result.details["native_fallback_reason"]
        np.testing.assert_array_equal(reference.ylt.losses, result.ylt.losses)
        np.testing.assert_array_equal(
            reference.ylt.max_occurrence_losses, result.ylt.max_occurrence_losses
        )

    def test_fallback_warns_only_once_per_process(self, no_compiler, monkeypatch, tiny_workload):
        monkeypatch.setattr(native_backend, "_fallback_warned", False)
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        engine = AggregateRiskEngine(EngineConfig(backend="native"))
        with pytest.warns(RuntimeWarning):
            engine.run_plan(plan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.run_plan(plan)  # second run must stay silent

    def test_fallback_float32_reproduces_native_bits(self, no_compiler, monkeypatch, tiny_workload):
        # A compiler-less machine running dtype="float32" gathers from the
        # same quantised stack the C tier would, so it reproduces its bits.
        monkeypatch.setattr(native_backend, "_fallback_warned", True)
        plan = PlanBuilder.from_program(tiny_workload.program, tiny_workload.yet)
        fallback = AggregateRiskEngine(
            EngineConfig(backend="native", dtype="float32")
        ).run_plan(plan)
        quantised = plan.stack().astype(np.float32).astype(np.float64)
        oracle = AggregateRiskEngine(EngineConfig(backend="vectorized")).run_plan(
            PlanBuilder.from_stack(
                quantised, plan.terms, tiny_workload.yet, row_names=plan.row_names
            )
        )
        assert fallback.details["native_fallback"] is True
        assert fallback.details["dtype"] == "float32"
        np.testing.assert_array_equal(oracle.ylt.losses, fallback.ylt.losses)
