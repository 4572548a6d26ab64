"""Suite reports pinned by digest: a change that moves any byte of a
report other than wall_time fails here.

The digests are SHA-256 of `jsonio.dumps` of each report without
wall_time (see golden_reports.json). They hold for the numpy and libm they
were made with; a platform that rounds a transcendental function
differently moves the last digits of some sups and needs digests made from
a known-good commit on that platform. A change meant to move report bytes
regenerates them and says which reports moved and why.

Every report draws from `verify.sample_rng`'s SeedSequence and PCG64
streams. `test_sample_streams_are_pinned` pins their first values, so a
numpy whose streams moved fails there with one message that says so, not
only through the digests failing in bulk.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from cpflow import jsonio, verify

with open(os.path.join(os.path.dirname(__file__), "golden_reports.json")) as fh:
    GOLDEN = json.load(fh)


# the first uniforms of sample_rng(seed, index); fixed since numpy 1.17
STREAMS = {
    (42, 0): [0.9167441575549085, 0.9109866676343232, 0.8765925046098457],
    (0, 90_000): [0.2787848117830025, 0.71707656508897, 0.7074478606358755],
    (2**32 + 5, 7): [0.392579685801287, 0.24120481565260887, 0.5772458064848832],
}


def test_sample_streams_are_pinned():
    got = {key: verify.sample_rng(*key).random(3).tolist() for key in STREAMS}
    assert got == STREAMS, (
        f"numpy {np.__version__} draws other SeedSequence/PCG64 streams than the "
        "golden digests were made with; every digest below will fail")


def _digest(rep):
    doc = rep.to_dict()
    doc.pop("wall_time")
    return hashlib.sha256(jsonio.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("seed", range(10))
def test_small_reports_match_golden_digests(seed):
    got = {f"{name}:{seed}": _digest(verify.run_suite(name, size, seed))
           for name, size in GOLDEN["sizes"].items()}
    assert got == {key: GOLDEN["small"][key] for key in got}


def test_default_size_reports_match_golden_digests():
    got = {f"{name}:42": _digest(verify.run_suite(name, None, 42)) for name in verify.SUITE_NAMES}
    assert got == GOLDEN["default"]
