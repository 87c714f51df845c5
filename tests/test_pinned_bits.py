"""Pinned bits of the Monte Carlo path.

sha256 hashes of two Monte Carlo rows under a 1/2-stable time change (the
last z of the Gaussian row is tilted), of Kanter draws of log S and of
inverse-time draws.  A rewrite of the samplers, of the kernels' row forms
or of the sample mean that keeps these hashes changes no output bit.

The bits rest on numpy's float kernels (its SIMD exp, log and tan, the BLAS
dot) and on its Philox stream, which may differ between numpy builds and
CPUs.  The hashes were taken on one build, so they are checked only where a
fingerprint of those kernels matches that build's.
"""

import hashlib

import numpy as np
import pytest

from fracheat import (RngStream, Stable, SubordinatorModel, density_monte_carlo,
                      parse_kernel, stable)

KERNELS_FINGERPRINT = "0fd2c20684668253f7104b9c0c3bddcbea5422471af30a99c1dffe749e494082"
ROW_HASHES = {
    "gaussian:1": "e6328757456d8a6569612d93b05c065631faab5dc88055b87629d4b2c5283a34",
    "cauchy:1": "38bdcc3781568aaf751b7dfe686d796911ed50989331efa50c13d6ee65e94f00",
}
LOG_SAMPLE_HASH = "b768871e48f3fffe25725e651459c99ba032ca4b26fb2e70161d842c3d4caf86"
SAMPLE_INVERSE_HASH = "fbc454481f54e0c18af4664fcfd29ed80fca80259a198ef4ecb7f3634589c050"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _float_kernels_fingerprint():
    """Hash of the numpy operations the pinned values rest on, over inputs
    that reach the underflow band of exp.  It uses no fracheat code, so a
    change to fracheat cannot turn the checks off."""
    x = np.linspace(-800.0, 30.0, 8191)
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    parts = (np.exp(x), np.log(np.abs(x) + 0.5), np.tan(x / 256.0),
             (np.abs(x) + 0.5) ** -0.5, 1.0 / (x * x + 0.5), np.array([x @ x]),
             gen.uniform(0.0, np.pi, 4096), gen.exponential(1.0, 4096))
    return _sha(b"".join(p.tobytes() for p in parts))


pytestmark = pytest.mark.skipif(
    _float_kernels_fingerprint() != KERNELS_FINGERPRINT,
    reason="numpy's float kernels differ from those the hashes were taken on")


@pytest.fixture(scope="module")
def half():
    return SubordinatorModel(Stable(0.5))


@pytest.mark.parametrize("key", sorted(ROW_HASHES))
def test_monte_carlo_row(half, key):
    row = density_monte_carlo(parse_kernel(key), half, 1.0, np.geomspace(0.1, 30.0, 9),
                              100_000, RngStream(3, 0))
    assert [est.method for est in row].count("mc-tilted") == (key == "gaussian:1")
    assert _sha(repr(row).encode()) == ROW_HASHES[key]


def test_log_sample():
    draws = stable.log_sample(0.5, RngStream(3, 1).generator, 10_000)
    assert _sha(draws.tobytes()) == LOG_SAMPLE_HASH


def test_sample_inverse(half):
    assert _sha(half.sample_inverse(1.0, RngStream(4, 1), 10_000).tobytes()) == SAMPLE_INVERSE_HASH
