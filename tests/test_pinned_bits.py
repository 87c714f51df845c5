"""Pinned bits of the Monte Carlo path and of the stable density.

sha256 hashes of two Monte Carlo rows under a 1/2-stable time change (the
last z of the Gaussian row is tilted), of Kanter draws of log S and of
inverse-time draws.  A rewrite of the samplers, of the kernels' row forms
or of the sample mean that keeps these hashes changes no output bit.  The
same holds for the density of log S (the x g(x) row of stable.law_rows)
over the series, the grid and the underflow band of five indices, and for
the density h_t of the inverse time of two one-part models: a rewrite of
the stable law or of the sum-of-parts rows that keeps these hashes leaves
every Gauss-Kronrod value of p on a stable time change as it was.  The
verify CSV text of 5 x 5 grids of the two campaign configs pins, besides
p, the estimate layer and the ratios a row derives from it, and the stdout
of eval, estimate, sample and residual commands pins the CSV each writes.

The bits rest on numpy's float kernels (its SIMD exp, log and tan, the BLAS
dot, einsum's sum of products) and on its Philox stream, which may differ
between numpy builds and CPUs.  The hashes were taken on one build, so they
are checked only where a fingerprint of those kernels matches that build's.
The Monte Carlo rows hold under one and under two BLAS threads alike.
"""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracheat import (RngStream, Stable, SubordinatorModel, density_monte_carlo, harness,
                      parse_exponent, parse_kernel, stable)
from fracheat.cli import run_cli

KERNELS_FINGERPRINT = "4c94a10c6d73dff40891a9ae44d7eb492ff7f9701953d9b4a4e8259ac5821c36"
ROW_HASHES = {
    "gaussian:1": "b50e625ae22f87dcb963c45e70a2b6fc81cbf2d04a41e7776de4347828507ef8",
    "cauchy:1": "32b705ebf21e638a3798062b88e8046ba12f54cfffe66676346a2ae1403bf7f7",
}
LOG_SAMPLE_HASH = "b768871e48f3fffe25725e651459c99ba032ca4b26fb2e70161d842c3d4caf86"
SAMPLE_INVERSE_HASH = "fbc454481f54e0c18af4664fcfd29ed80fca80259a198ef4ecb7f3634589c050"
# log x from the underflow band of every index below (x g = 0 there) up
# through the grid (x < 1) and the series (x >= 1)
LOG_X = np.concatenate([-np.geomspace(300.0, 1e-3, 400), [0.0], np.geomspace(1e-3, 1e3, 200)])
DENSITY_HASHES = {
    0.05: "45bd900335fbeef60a68a74fe53a64921602f9f7860fa992ef3d0715f072ca9b",
    0.3: "390a167c213b8a24c4489c260d20396788e56c2315cb8828a5565abff93571f8",
    0.5: "8908b99fced31059569a66ebe9ec1add3b9f031cea57b37cea1f2a2c3628515d",
    0.7: "73568dca44c36074124f383276d8fe07a683a80c3a8f34a6167ab9afc8eb0e62",
    0.99: "03c65b7f9e2de43ef93358bf57b64d1a59c35f18645f1b5b0fcbae0f7cf44dcf",
}
# the verify CSV text of 5 x 5 quadrature grids of the two campaign configs,
# which covers the regime, estimate, n, ratio and log_ratio columns
CAMPAIGN_HASHES = {
    "jump.cfg": "7deaf5350a41724700378256eba5d7e12074ff4d0746d8c7194369156a41d8d2",
    "diffusion.cfg": "1cee59fb91005be3d530f8338555f4af407199cc641a8b415fc78b3c7ba66f84",
}
# the stdout of one command of each CSV shape: eval by every method,
# estimate in each regime and flavor, sample of S_r and E_t, residual
CLI_HASHES = {
    "eval --beta 0.5 --kernel gaussian:1 --t 1 --z 0 --method quad":
        "51dcd50d6c973351e56fdda54df817c3d50aa9217f22f188556f674bd60fc082",
    "eval --beta 0.5 --kernel gaussian:1 --t 1 --z 0 --method mc --n 2000":
        "7ba9c467c06fd8000617dbef89eeb367ff04b07d6d6534b03fa1aa76c5ad9ce0",
    "eval --beta 0.5 --kernel gaussian:1 --t 1 --z 0 --method fourier":
        "691b7b041044720ed30e4497b366753b8c468c2d1e093c06709320a703dca7a5",
    "estimate --beta 0.5 --kernel gaussian:1 --phi-scale power:2 --t 16 --z 1":
        "3f6b17b4402256d89394b0f6421165226cdceba791073de3a07c34c25fca49df",
    "estimate --beta 0.5 --kernel cauchy:1 --t 1 --z 10":
        "7f9180de2305d7438d56d5eca363d9b04dfe15272befc9099024aa141a4f2d12",
    "estimate --beta 0.5 --kernel gaussian:1 --phi-scale power:2 --t 1 --z 2":
        "b589aa9d22d9be6df0d69d89087c980411f1b83fdac57abc2977272624550c02",
    "sample --dist e --subordinator stable:0.5 --t 1 --n 100 --seed 7":
        "184f6f7df24ff8f19bcd7bad4d70a1bd770fefd1b275b1e46cd6b2cf1bd560fa",
    "sample --dist s --subordinator stable:0.5 --r 1 --n 100 --seed 7":
        "b5f21bd365d59021aa6c895e60002683998a2ddce2f6162eff58afd71cfdcb58",
    "residual --t-n 3":
        "789ee5b77d52d36f008c13d777ef67fac93c2f06e06810638f587c87bbc0c5ff",
}
INVERSE_DENSITY_HASHES = {
    "stable:0.5": "4023a1435f4dd736d2b55513e7583db2f6a0dcacb07ef9dd1b2947f3e13c1fc4",
    "mixture:2,0.5": "fc4d3641fec1f7c2eb9e7a9f8a6d2298b8f96df50f27ba89c38570a1811feb01",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _float_kernels_fingerprint():
    """Hash of the numpy operations the pinned values rest on, over inputs
    that reach the underflow band of exp.  It uses no fracheat code, so a
    change to fracheat cannot turn the checks off."""
    x = np.linspace(-800.0, 30.0, 8191)
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    parts = (np.exp(x), np.log(np.abs(x) + 0.5), np.tan(x / 256.0),
             (np.abs(x) + 0.5) ** -0.5, 1.0 / (x * x + 0.5),
             np.array([x @ x, np.einsum("i,i->", x, x)]),
             gen.uniform(0.0, np.pi, 4096), gen.exponential(1.0, 4096))
    return _sha(b"".join(p.tobytes() for p in parts))


pytestmark = pytest.mark.skipif(
    _float_kernels_fingerprint() != KERNELS_FINGERPRINT,
    reason="numpy's float kernels differ from those the hashes were taken on")


@pytest.fixture(scope="module")
def half():
    return SubordinatorModel(Stable(0.5))


def _row(key):
    """The pinned Monte Carlo row of kernel key."""
    return density_monte_carlo(parse_kernel(key), SubordinatorModel(Stable(0.5)), 1.0,
                               np.geomspace(0.1, 30.0, 9), 100_000, RngStream(3, 0))


@pytest.mark.parametrize("key", sorted(ROW_HASHES))
def test_monte_carlo_row(key):
    row = _row(key)
    assert [est.method for est in row].count("mc-tilted") == (key == "gaussian:1")
    assert _sha(repr(row).encode()) == ROW_HASHES[key]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_monte_carlo_rows_under_blas_threads(threads):
    # the BLAS thread count is fixed when numpy loads, so each count gets a
    # fresh interpreter; it prints the hash of each row
    here = Path(__file__).parent
    script = ("from test_pinned_bits import _row, _sha\n"
              f"for key in {sorted(ROW_HASHES)!r}:\n"
              "    print(_sha(repr(_row(key)).encode()))\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [ROW_HASHES[key] for key in sorted(ROW_HASHES)]


def test_log_sample():
    draws = stable.log_sample(0.5, RngStream(3, 1).generator, 10_000)
    assert _sha(draws.tobytes()) == LOG_SAMPLE_HASH


def test_sample_inverse(half):
    assert _sha(half.sample_inverse(1.0, RngStream(4, 1), 10_000).tobytes()) == SAMPLE_INVERSE_HASH


@pytest.mark.parametrize("beta", sorted(DENSITY_HASHES))
def test_density_of_log(beta):
    assert _sha(stable.law_rows(beta, LOG_X)[2].tobytes()) == DENSITY_HASHES[beta]


@pytest.mark.parametrize("key", sorted(INVERSE_DENSITY_HASHES))
def test_inverse_density_grid(key):
    model = SubordinatorModel(parse_exponent(key))
    h = model.inverse_density(1.0, np.geomspace(1e-6, 50.0, 257))
    assert _sha(h.tobytes()) == INVERSE_DENSITY_HASHES[key]


@pytest.mark.parametrize("name", sorted(CAMPAIGN_HASHES))
def test_campaign_csv(name):
    path = Path(__file__).parents[1] / "campaigns" / name
    cfg = harness.config_from_mapping({"t_n": 5, "z_n": 5}, base=harness.config_from_mapping(
        harness.read_config(path)))
    buf = io.StringIO()
    harness.write_report_csv(buf, harness.verify_sandwich(cfg))
    assert _sha(buf.getvalue().encode()) == CAMPAIGN_HASHES[name]


@pytest.mark.parametrize("command", sorted(CLI_HASHES))
def test_cli_stdout(command, capsys):
    assert run_cli(command.split()) == 0
    assert _sha(capsys.readouterr().out.encode()) == CLI_HASHES[command]
