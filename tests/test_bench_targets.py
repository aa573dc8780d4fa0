"""Every name the benchmark traces still resolves in blockprune.

`perfbench/tracing.install` raises for a missing name only in a traced
benchmark run; this checks the same table without installing anything,
since `install` rebinds module globals.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_table_loaded():
    # An empty table would leave the parametrized test with no cases.
    assert TARGETS


@pytest.mark.parametrize("name, owner, attr", TARGETS,
                         ids=[name for name, _, _ in TARGETS])
def test_traced_name_resolves_to_a_callable(name, owner, attr):
    if owner == "rng.SplitMix64":
        holder = importlib.import_module("blockprune.rng").SplitMix64
    else:
        holder = importlib.import_module(f"blockprune.{owner}")
    assert callable(getattr(holder, attr, None)), f"{name}: {owner}.{attr}"
