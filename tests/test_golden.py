"""Golden outputs: the --out files of a small seeded command set, by sha256.

Every command is deterministic, so these files must stay byte-identical
across refactors. A change that alters one on purpose (a new field, a
different search) must say so and record the new hash here.
"""

import hashlib
import json

import pytest

from blockprune.cli import main

# Each step: (output name, argv). "{dir}" is replaced by the work directory.
STEPS = [
    ("layer.bpwm", ["gen", "--rows", "12", "--cols", "14", "--dist", "uniform",
                    "--seed", "3", "--out", "{dir}/layer.bpwm"]),
    ("small.bpwm", ["gen", "--rows", "8", "--cols", "8", "--dist", "gauss",
                    "--seed", "4", "--out", "{dir}/small.bpwm"]),
    ("prune.json", ["prune", "{dir}/layer.bpwm", "-p", "3", "--seed", "7",
                    "--restarts", "8", "--out", "{dir}/prune.json"]),
    ("prune_refine.json", ["prune", "{dir}/layer.bpwm", "-p", "2", "--seed", "7",
                           "--restarts", "8", "--refine",
                           "--out", "{dir}/prune_refine.json"]),
    ("prune_small.json", ["prune", "{dir}/small.bpwm", "-p", "2", "--seed", "1",
                          "--restarts", "16", "--out", "{dir}/prune_small.json"]),
    ("oracle.json", ["oracle", "{dir}/small.bpwm", "-p", "2",
                     "--result", "{dir}/prune_small.json",
                     "--out", "{dir}/oracle.json"]),
    ("simulate.json", ["simulate", "-p", "3", "--rows", "1024", "--cols", "1024",
                       "--out", "{dir}/simulate.json"]),
    ("scaling.json", ["simulate", "--mode", "scaling", "--copies", "3",
                      "--rows", "1024", "--cols", "1024",
                      "--out", "{dir}/scaling.json"]),
    ("calibrate.json", ["calibrate", "--targets", "2=1.8,3=2.5",
                        "--out", "{dir}/calibrate.json"]),
    ("verify.json", ["verify", "{dir}/layer.bpwm", "{dir}/prune.json",
                     "--seed", "5", "--trials", "20",
                     "--out", "{dir}/verify.json"]),
]

GOLDEN = {
    "layer.bpwm": "13aed27865d88646b3aa015b99eafe0124839188d772a7a284131408268aa9e6",
    "small.bpwm": "37872b5044839c0d030c95faf31398a22c4847d36944eb1b3cc65504ea0a44b0",
    "prune.json": "37d612e2d9d7ed6f16bd3372310d68c757a608017b08d9b9275b42251bcc26c0",
    "prune_refine.json": "00600cdfe383beb3434646f0c66121b96c02476e7e08c368400dec7a7a453da6",
    "prune_small.json": "5607fc41fec6a5844e1537826fa7999d1a398a4748826ba2e4ef55f61c57767c",
    "oracle.json": "9f9a4140f4fa07c30471dd23ebee97cf1eed191cd06d53d346e3bbe0665c98bd",
    "simulate.json": "a3d482fb499cfdd967f89257ebb8595e36b8b2ce45884355b6c9cc1358537c72",
    "scaling.json": "fd1db31bef41525108a7be9027670a048e955711e773c45964621d2ed46ed604",
    "calibrate.json": "ed195c1ed460648e77b8030896bb6a0bfbe9a832f28a3ca71a7f3d3738542380",
}

# verify's max_rel_error depends on BLAS summation order; the rest is pinned.
VERIFY = {
    "passed": True,
    "tolerance": 1e-05,
    "trials": 20,
    "valid": True,
    "violations": [],
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for _, argv in STEPS:
        assert main([a.format(dir=d) for a in argv] + ["--quiet"]) == 0, argv
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_out_file_sha256(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_verify_report(outputs):
    report = json.loads((outputs / "verify.json").read_text())
    assert report.pop("max_rel_error") <= report["tolerance"]
    assert report == VERIFY
