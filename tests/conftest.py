import numpy as np
import pytest

from cfarmismatch import mcengine
from cfarmismatch.scenario import ScenarioCfg, build_cov, build_steering


@pytest.fixture(scope="session")
def scn():
    return ScenarioCfg()


@pytest.fixture(scope="session")
def sigma(scn):
    return build_cov(scn)


@pytest.fixture(scope="session")
def steer(scn):
    return build_steering(scn.n, scn.fd)


@pytest.fixture(scope="session")
def rand_hpd():
    """Factory for random Hermitian positive definite matrices."""

    def make(n, seed, dof_mult=3):
        rng = np.random.default_rng(seed)
        z = (rng.standard_normal((n, dof_mult * n)) + 1j * rng.standard_normal((n, dof_mult * n))) / np.sqrt(2.0)
        a = z @ z.conj().T / (dof_mult * n)
        return 0.5 * (a + a.conj().T)

    return make


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: starts no process, records each
    pool's size and each map's task count, and runs the tasks in order."""
    mcengine.shutdown_pool()
    calls = []

    class InProcessPool:
        _broken = False

        def __init__(self, max_workers):
            calls.append(("pool", max_workers))

        def map(self, fn, args_list, chunksize=1):
            args_list = list(args_list)
            calls.append(("tasks", len(args_list)))
            return map(fn, args_list)

        def shutdown(self):
            pass

    monkeypatch.setattr(mcengine, "ProcessPoolExecutor", InProcessPool)
    yield calls
    mcengine.shutdown_pool()
