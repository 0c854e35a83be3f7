"""Golden digests: the exact bytes ``simulate`` writes for a table of small runs.

Each entry is the SHA-256 of the curve file (``cli._dump`` of the JSON dict)
and of the CSV for one config at seed 7, run at 1 and at 2 workers.  A digest
changes only by a deliberate fix or a versioned break of the stream layout,
said in CHANGES.md; one that moves otherwise is a finding about
``RNG_PROVENANCE``, not a digest to refresh.

The Gaussian digests rest on scipy's ``ndtri``; the rademacher, two-point and
uniform ones on IEEE arithmetic alone.  The exponential law is left out: its
transform goes through ``np.log``, whose last bit depends on the kernel numpy
picks for the CPU.
"""

import hashlib
import math
import os

import numpy as np
import pytest
import scipy

from arsurvival import cli
from arsurvival.coeffs import ar_params
from arsurvival.innovations import gaussian, rademacher, two_point, uniform
from arsurvival.mc import estimate_survival

# the versions the digests were taken with
RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

DYADIC = [2 ** k for k in range(11)]      # 1, 2, 4, ..., 1024

# name: (a, innovation, x, grid, paths), JSON digest, CSV digest
GOLDEN = {
    # thins out to the sparse route
    "walk": (((1.0,), gaussian(), 0.0, DYADIC, 5_000),
             "0b9bb7219c76af7d744465af06e40de84b83d1cfd085b1e4744bd3efdd4c0bff",
             "d677ddf8a199703bc1a7190ff53b423e9df4a22cef2b5635c6bc9bc6b1870f64"),
    # paths held below the survival level
    "C1": (((1.0, 1.0), gaussian(), 0.0, DYADIC, 5_000),
           "2a173fec851a7c3ef3974c4f77f34eecf207f1f5d080f5f934dc717ecba415aa",
           "d07fdc9e952b805b659822ee54020504e6523fe51b8752dcbd24a45c309304eb"),
    # 2,119 paths go NaN: the curve is invalid
    "nan_walk": (((2.5, -0.5), gaussian(), 0.0, DYADIC, 5_000),
                 "e5d780e4bccaf750c4a5a20cb9ddc554f5d66886bad1ff135ef469902c1ec5fb",
                 "bbd573b0a42dd8a7975aa554cea801c10e692b82754924a0f26cc8e8e133966a"),
    # order 3, with a held level
    "order3_uniform": (((0.5, 0.8, 0.3), uniform(-1.0, 1.0), 0.0, DYADIC[:9], 5_000),
                       "c80f81341a26fa168bf71378c76175b471facf079839c55606d244dfa726ddd5",
                       "d7425224b8caab091e43912171ba6f78da13a1090e83e4aac182ea29f06f4796"),
    # two tiles at 1 worker, two ranges at 2
    "E2_rademacher": (((-0.4, -0.4), rademacher(), 0.0, list(range(1, 13)), 70_000),
                      "b3c92714b8bf9769db00722f94108cce139ff4a613db0e769b6021c24f4fb371",
                      "cf473fae9fe4686b0d35f67e746379aab3e20d9561bb338b6af2c8b2aeec2ffa"),
    "two_point": (((1.0,), two_point(1.5), 0.25, list(range(1, 17)), 5_000),
                  "3fa902a08e2e38106d0eb0ae0b7cffa2c8c1c1a860cb13447b60f70116c35d6f",
                  "05c6c8ca12a15d65b318add1b65fd77a78d73c08a2c084a1f31a25005cbc78d3"),
    # only the 111 NaN paths leave
    "plus_inf": (((-1.0, -2.0), gaussian(), math.inf, [2 ** k for k in range(12)], 5_000),
                 "6da3b46ef1cb264da3329747a893a56523de53ee4424318290dc9d746e8ebfc7",
                 "380c4c68db764d35d42cbc998a2757909e7b1728b1154b9cb8e2990b37764ed7"),
    # every path leaves at step 1
    "minus_inf": (((0.5,), gaussian(), -math.inf, [1, 2, 8], 5_000),
                  "f73845f3b43a83aea360bf5651719a0774aa5a74407e09383a8c134a1b1cd475",
                  "f3addaf87c8fb095b173abffaa6b5232d6c99b592011dd91194b54a9d2e8df06"),
    # every path is held from the start
    "held_from_start": (((0.3, 0.2), uniform(-1.0, 1.0), 2.0, [1, 4, 301], 5_000),
                        "f026446f725b578eca28d585e63f3841a92b4f016d7af3f41eb7dc4a532b79a6",
                        "a73d1ae2c662eb191019ea17e83e76a26cb836e64867aac9fe5e00c2ab5a1039"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def versions_note() -> str:
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    return f"digests recorded with {RECORDED_VERSIONS}, running {running}"


@pytest.mark.parametrize("name", list(GOLDEN))
def test_simulate_bytes_match_the_recorded_digests(name, monkeypatch):
    (a, spec, x, grid, paths), json_digest, csv_digest = GOLDEN[name]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        curve = estimate_survival(ar_params(a), spec, x, grid, paths, 7, workers=workers)
        got = (sha256(cli._dump(curve.to_json_dict())), sha256(curve.to_csv_text()))
        assert got == (json_digest, csv_digest), (
            f"{name} at {workers} workers: {versions_note()}")
