"""Suite reports pinned by digest: a change that moves any byte of a
report other than wall_time fails here.

The digests are SHA-256 of `jsonio.dumps` of each report without
wall_time (see golden_reports.json). They hold for the numpy and libm they
were made with; a platform that rounds a transcendental function
differently moves the last digits of some sups and needs digests made from
a known-good commit on that platform. A change meant to move report bytes
regenerates them and says which reports moved and why.
"""

import hashlib
import json
import os

import pytest

from cpflow import jsonio, verify

with open(os.path.join(os.path.dirname(__file__), "golden_reports.json")) as fh:
    GOLDEN = json.load(fh)


def _digest(rep):
    doc = rep.to_dict()
    doc.pop("wall_time")
    return hashlib.sha256(jsonio.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("seed", range(10))
def test_small_reports_match_golden_digests(seed):
    got = {f"{name}:{seed}": _digest(verify.run_suite(name, size, seed, size))
           for name, size in GOLDEN["sizes"].items()}
    assert got == {key: GOLDEN["small"][key] for key in got}


def test_default_size_reports_match_golden_digests():
    got = {f"{name}:42": _digest(verify.run_suite(name, None, 42)) for name in verify.SUITE_NAMES}
    assert got == GOLDEN["default"]
