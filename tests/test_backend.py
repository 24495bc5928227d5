"""Tests for the pluggable arithmetic-backend layer.

Selection precedence (explicit > ``DMW_BACKEND`` > python default),
graceful degradation when gmpy2 is absent, pool-worker propagation, and
— when gmpy2 *is* installed — scalar-operation and whole-protocol
bit-equivalence with the reference python engine.
"""

import os
import pickle
import random
import subprocess
import sys

import pytest

from repro.core import DMWParameters
from repro.core.protocol import run_dmw
from repro.crypto import backend as backend_module
from repro.crypto.backend import (
    BackendUnavailableError,
    PythonBackend,
    active_backend,
    available_backends,
    gmpy2_available,
    select_backend,
    using_backend,
)
from repro.parallel import PoolSpec, _init_worker
from repro.scheduling import workloads

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HAVE_GMPY2 = gmpy2_available()


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Every test leaves the module-global engine as it found it."""
    previous = backend_module.ACTIVE
    yield
    backend_module.ACTIVE = previous


class TestSelection:
    def test_python_always_selectable(self):
        engine = select_backend("python")
        assert engine.name == "python"
        assert active_backend() is engine

    def test_name_is_case_insensitive_and_stripped(self):
        assert select_backend(" PYTHON ").name == "python"

    def test_empty_name_defaults_to_python(self):
        assert select_backend("").name == "python"

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown arithmetic backend"):
            select_backend("fpga")

    def test_auto_resolves_to_best_available(self):
        expected = "gmpy2" if HAVE_GMPY2 else "python"
        assert select_backend("auto").name == expected

    def test_available_backends_lists_python_first(self):
        names = available_backends()
        assert names[0] == "python"
        assert ("gmpy2" in names) == HAVE_GMPY2

    @pytest.mark.skipif(HAVE_GMPY2, reason="gmpy2 installed: no fallback")
    def test_missing_gmpy2_degrades_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = select_backend("gmpy2")
        assert engine.name == "python"

    @pytest.mark.skipif(HAVE_GMPY2, reason="gmpy2 installed: no fallback")
    def test_missing_gmpy2_strict_raises(self):
        with pytest.raises(BackendUnavailableError):
            select_backend("gmpy2", strict=True)

    def test_using_backend_restores_previous_engine(self):
        before = active_backend()
        with using_backend("python") as engine:
            assert active_backend() is engine
        assert active_backend() is before

    def test_using_backend_restores_on_exception(self):
        before = active_backend()
        with pytest.raises(RuntimeError, match="boom"):
            with using_backend("python"):
                raise RuntimeError("boom")
        assert active_backend() is before


class TestEnvironmentVariable:
    """``DMW_BACKEND`` is consulted once, at import, in a fresh process."""

    def _import_and_report(self, env_value):
        env = {**os.environ,
               "PYTHONPATH": os.path.join(REPO_ROOT, "src"),
               "DMW_BACKEND": env_value}
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.crypto import backend; print(backend.ACTIVE.name)"],
            cwd=REPO_ROOT, capture_output=True, text=True, env=env)

    def test_env_selects_python(self):
        result = self._import_and_report("python")
        assert result.returncode == 0
        assert result.stdout.strip() == "python"

    def test_env_auto(self):
        result = self._import_and_report("auto")
        assert result.returncode == 0
        expected = "gmpy2" if HAVE_GMPY2 else "python"
        assert result.stdout.strip() == expected

    def test_unknown_env_value_warns_and_keeps_default(self):
        result = self._import_and_report("quantum")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "python"
        assert "DMW_BACKEND" in result.stderr


class TestScalarOperations:
    MODULI = [97, (1 << 61) - 1]

    def test_python_backend_matches_builtins(self, rng):
        engine = PythonBackend()
        for modulus in self.MODULI:
            for _ in range(25):
                a = rng.randrange(1, modulus)
                b = rng.randrange(1, modulus)
                e = rng.randrange(0, 2 * modulus)
                assert engine.mul(a, b, modulus) == (a * b) % modulus
                assert engine.powmod(a, e, modulus) == pow(a, e, modulus)
                assert (engine.mul(engine.invert(a, modulus), a, modulus)
                        == 1)

    def test_non_invertible_raises_canonical_diagnostic(self):
        engine = PythonBackend()
        with pytest.raises(ZeroDivisionError, match=r"gcd=3"):
            engine.invert(6, 9)

    def test_wrap_unwrap_roundtrip(self):
        for name in available_backends():
            with using_backend(name, strict=True) as engine:
                value = (1 << 80) + 12345
                assert engine.unwrap(engine.wrap(value)) == value

    def test_all_available_backends_agree(self, rng):
        """Scalar parity across engines (vacuous python-only without gmpy2)."""
        reference = PythonBackend()
        samples = [(rng.randrange(1, m), rng.randrange(0, 2 * m), m)
                   for m in self.MODULI for _ in range(10)]
        for name in available_backends():
            with using_backend(name, strict=True) as engine:
                for a, e, m in samples:
                    assert engine.mul(a, e, m) == reference.mul(a, e, m)
                    assert (engine.powmod(a, e, m)
                            == reference.powmod(a, e, m))
                    assert (engine.invert(a, m) == reference.invert(a, m))


def _minimal_spec(backend_name):
    return PoolSpec(parameters=None, true_values=(), rng_roots=(),
                    observe=False, trace_enabled=False,
                    backend=backend_name)


class TestPoolPropagation:
    def test_spec_defaults_to_python(self):
        assert _minimal_spec("python").backend == "python"

    def test_spec_pickles_backend_by_name(self):
        clone = pickle.loads(pickle.dumps(_minimal_spec("gmpy2")))
        assert clone.backend == "gmpy2"

    def test_init_worker_selects_spec_backend(self):
        _init_worker(_minimal_spec("python"))
        assert active_backend().name == "python"

    @pytest.mark.skipif(HAVE_GMPY2, reason="gmpy2 installed: no fallback")
    def test_worker_without_gmpy2_falls_back_gracefully(self):
        """A worker on a host missing the engine must not crash the pool."""
        with pytest.warns(RuntimeWarning, match="falling back"):
            _init_worker(_minimal_spec("gmpy2"))
        assert active_backend().name == "python"


def _outcome_signature(outcome):
    return (
        outcome.completed,
        list(outcome.schedule.assignment),
        list(outcome.payments),
        [(t.task, t.first_price, t.winner, t.second_price)
         for t in outcome.transcripts],
        outcome.agent_operations,
        outcome.network_metrics.as_dict(),
        dict(outcome.cache_stats or {}),
    )


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
class TestGmpy2Equivalence:
    """The counter-parity contract, executed: outcomes, transcripts,
    per-agent operation counters, *and* cache statistics must be
    bit-identical between engines."""

    def _run(self, backend_name, group_small):
        parameters = DMWParameters.generate(5, fault_bound=1,
                                            group_parameters=group_small)
        problem = workloads.random_discrete(5, 2, parameters.bid_values,
                                            random.Random(0))
        with using_backend(backend_name, strict=True):
            outcome = run_dmw(problem, parameters=parameters,
                              rng=random.Random(1))
        assert outcome.completed
        return _outcome_signature(outcome)

    def test_whole_protocol_bit_identical(self, group_small):
        assert self._run("python", group_small) == self._run("gmpy2",
                                                             group_small)
