"""Identity hashing must survive PYTHONHASHSEED (ISSUE 3 regression).

Split sampling and serving request-ID derivation once keyed on the
salted builtin ``hash()``: every process restart sampled a *different*
split set, so a durable checkpoint could reference splits that no
longer existed.  These tests run the samplers in subprocesses under
two different hash seeds and assert byte-identical results.
"""

import json
import os
import subprocess
import sys

from repro.common.hashing import stable_hash
from repro.datagen.scribe import LogDevice, Scribe, ScribeDaemon
from repro.datagen.serving import FEATURES_CATEGORY, ServingSimulator
from repro.warehouse import DatasetProfile, SampleGenerator

_PROBE = r"""
import json, sys
from repro.dpp.split import Split
from repro.dpp.master import _sample_splits
from repro.common.hashing import stable_hash

splits = [
    Split(i, f"warehouse/dpp_table/part-{i % 4}.dwrf", (i // 4) * 2,
          (i // 4) * 2 + 2, 100)
    for i in range(64)
]
print(json.dumps({
    "sampled": [s.split_id for s in _sample_splits(splits, 0.5)],
    "request_id_base": (stable_hash("serving-0.facebook.com") & 0xFFFF) << 32,
}))
"""


def probe(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(out.stdout)


class TestCrossProcessStability:
    def test_split_sample_identical_across_hash_seeds(self):
        a = probe("0")
        b = probe("4242")
        assert a["sampled"] == b["sampled"]
        # Sanity: 0.5 actually sampled (not all-kept, not collapsed).
        assert 0 < len(a["sampled"]) < 64

    def test_request_id_base_identical_across_hash_seeds(self):
        assert probe("0")["request_id_base"] == probe("4242")["request_id_base"]

    def test_this_process_agrees_with_subprocesses(self):
        # The running interpreter has a third, arbitrary hash seed.
        expected = (stable_hash("serving-0.facebook.com") & 0xFFFF) << 32
        assert probe("1")["request_id_base"] == expected


class TestServingRequestIds:
    def test_pinned_host_base_pair(self):
        """One known host→base pair, pinned forever: serving traces are
        only reproducible if this derivation never drifts."""
        profile = DatasetProfile(
            n_dense=2, n_sparse=1, n_scored=0, avg_coverage=0.6,
            avg_sparse_length=2.0,
        )
        generator = SampleGenerator(profile, seed=0)
        schema = generator.build_schema("serving_table")
        scribe = Scribe(LogDevice())
        daemon = ScribeDaemon("serving-0.facebook.com", scribe)
        ServingSimulator(schema, generator, daemon).serve_many(2)
        logs = scribe.category(FEATURES_CATEGORY).read_from(0)
        assert [record.payload.request_id for record in logs] == [
            105_510_166_593_536,
            105_510_166_593_537,
        ]
