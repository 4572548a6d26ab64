"""Suite reports pinned by digest: a change that moves any byte of a
report other than wall_time fails here.

The digests are SHA-256 of `jsonio.dumps` of each report without
wall_time (see golden_reports.json). numpy picks its float64 kernels for
exp, log, sinh, arctan2 and other ufuncs at run time, by CPU, and the
AVX-512 ones round some results differently, so the file keeps one set
per dispatch group, named by numpy's CPU features:

- X86_V4: an x86-64 CPU with AVX-512, where numpy runs its AVX-512 kernels;
- X86_V3: one with AVX2 but not AVX-512. On an X86_V4 host,
  NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" makes numpy run
  these kernels.

The set is picked from numpy's runtime CPU features. A host of another
group fails with a message naming it, and needs a set made there from a
known-good commit. On an X86_V4 host, `test_digests_hold_under_the_avx2_group`
reruns the digest tests in a subprocess under X86_V3, so both sets stay
checked. The decisions of the small reports (pass or fail, sample counts,
and which sample broke which check) are the same in every group: one
digest of them, DECISIONS, holds on any host, and the subprocess checks it
under X86_V3 too. A change meant to move report bytes regenerates every set,
running the digests once with the variable above and once without, and
says which reports moved and why.

Every report draws from numpy's SeedSequence and PCG64: `verify.sample_rng`
streams and the suites' block streams, one per `verify.STREAM_TAGS`
entry, the weight streams that `verify.star_weights` takes its tries from
among them. `test_sample_streams_are_pinned` pins their first values, so
a numpy whose streams moved fails there with one message that says so,
not only through the digests failing in bulk.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from cpflow import jsonio, verify

with open(os.path.join(os.path.dirname(__file__), "golden_reports.json")) as fh:
    GOLDEN = json.load(fh)

AVX2_GROUP_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def dispatch_group():
    """The highest x86-64 level numpy runs at here, else the machine."""
    return next((level for level in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(level)),
                os.uname().machine)


def _golden(part):
    group = dispatch_group()
    assert group in GOLDEN["groups"], (
        f"no golden digests for numpy's {group} dispatch group; "
        f"the sets are {sorted(GOLDEN['groups'])}")
    return GOLDEN["groups"][group][part]


# the first uniforms of sample_rng(seed, index); fixed since numpy 1.17
STREAMS = {
    (42, 0): [0.9167441575549085, 0.9109866676343232, 0.8765925046098457],
    (0, 90_000): [0.2787848117830025, 0.71707656508897, 0.7074478606358755],
    (2**32 + 5, 7): [0.392579685801287, 0.24120481565260887, 0.5772458064848832],
}
# the first uniforms of each block stream at seed 42, the weight streams
# too (their tries are drawn as uniform(0, pi), pi times these)
BLOCK_STREAMS = {
    "identities": [0.5700286821875662, 0.9724905038557506, 0.5037701096476371],
    "jacobians": [0.8059432479837372, 0.7181028085979072, 0.2183327375921551],
    "theorem1": [0.24446737675076813, 0.15808911711461526, 0.2583644131358306],
    "prop24:tetra": [0.07843523229372151, 0.9778194044200826, 0.4393667611404122],
    "prop24:genus2_min": [0.8645094758908987, 0.7693584927257228, 0.48008774742313043],
    "prop24:mesh": [0.39955821965158755, 0.5622437196805687, 0.6758477482422114],
    "identities:weights": [0.4904171431618536, 0.896238141889008, 0.9559663811435659],
    "jacobians:weights": [0.32509722361925797, 0.9685247427438841, 0.3628598987288505],
    "jacobians:tetra": [0.7871135801997575, 0.5251425678538185, 0.8193182782534133],
    "jacobians:tetra:weights": [0.6023698900461449, 0.16007401381391695, 0.5121692693908062],
    "jacobians:genus2_min": [0.9422043826840363, 0.00839654280594293, 0.6030366127358253],
    "jacobians:genus2_min:weights": [0.3469437209533456, 0.882604873842138, 0.46717788047313913],
    "jacobians:mesh": [0.48930995943374955, 0.8499193646000166, 0.7813498437751321],
    "jacobians:mesh:weights": [0.7579078778770819, 0.9087819551827434, 0.6727333061675841],
    "jacobians:octa": [0.016229493094093383, 0.865735681263168, 0.8267790749205751],
    "jacobians:octa:weights": [0.432198171749703, 0.0596076877787407, 0.6218745254782031],
    "spd:tetra": [0.15834915640894864, 0.6521386641856498, 0.6174431125069368],
    "spd:tetra:weights": [0.8667723621075958, 0.598091360129311, 0.7729212558815723],
    "spd:genus2_min": [0.47359382515962967, 0.7756920769302615, 0.41165377621173715],
    "spd:genus2_min:weights": [0.4719579648890141, 0.9158611414510813, 0.4328152194070023],
    "spd:mesh": [0.3248255398454635, 0.9242266741252043, 0.004671240036704272],
    "spd:mesh:weights": [0.5071099275449892, 0.3108906263615696, 0.7831663484509777],
}


def test_sample_streams_are_pinned():
    got = {key: verify.sample_rng(*key).random(3).tolist() for key in STREAMS}
    got_blocks = {name: verify._unit_draws(42, tag, range(1), 3)[0].tolist()
                  for name, tag in verify.STREAM_TAGS.items()}
    assert (got, got_blocks) == (STREAMS, BLOCK_STREAMS), (
        f"numpy {np.__version__} draws other SeedSequence/PCG64 streams than the "
        "golden digests were made with; every digest below will fail")


def _digest(rep):
    doc = rep.to_dict()
    doc.pop("wall_time")
    return hashlib.sha256(jsonio.dumps(doc).encode()).hexdigest()


# SHA-256 of the decision bytes of the small reports at seeds 0-9: per
# report its key, passed, samples and each violation's (sample, quantity)
DECISIONS = "6d430f393b5a3af0dfd234fb588c637148d762bf44c86f05f6eaaad27ba8b48d"


def test_small_report_decisions_hold_in_every_group():
    doc = [[f"{name}:{seed}", rep.passed, rep.samples,
            [[v["sample"], v["quantity"]] for v in rep.violations]]
           for seed in range(10) for name, size in GOLDEN["sizes"].items()
           for rep in [verify.run_suite(name, size, seed)]]
    assert hashlib.sha256(jsonio.dumps(doc).encode()).hexdigest() == DECISIONS


@pytest.mark.parametrize("seed", range(10))
def test_small_reports_match_golden_digests(seed):
    want = _golden("small")
    got = {f"{name}:{seed}": _digest(verify.run_suite(name, size, seed))
           for name, size in GOLDEN["sizes"].items()}
    assert got == {key: want[key] for key in got}


def test_default_size_reports_match_golden_digests():
    want = _golden("default")
    got = {f"{name}:42": _digest(verify.run_suite(name, None, 42)) for name in verify.SUITE_NAMES}
    assert got == want


def test_digests_hold_under_the_avx2_group():
    env = {**os.environ, **AVX2_GROUP_ENV}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    group = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = ['src', 'tests']; "
         "import test_golden; print(test_golden.dispatch_group())"],
        cwd=root, env=env, capture_output=True, text=True)
    assert group.stdout.strip() == "X86_V3", group.stderr
    tests = [f"tests/test_golden.py::{name}" for name in (
        "test_sample_streams_are_pinned", "test_small_report_decisions_hold_in_every_group",
        "test_small_reports_match_golden_digests",
        "test_default_size_reports_match_golden_digests")]
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                         cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
