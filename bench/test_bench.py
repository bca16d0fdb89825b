"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import io
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rmflab.cli as cli  # noqa: E402
import rmflab.oracle  # noqa: E402
import rmflab.sampler  # noqa: E402
import rmflab.sieve  # noqa: E402
from tracer import RAW_NAMES, Tracer, derive  # noqa: E402
from workloads import WORKLOADS, _checkpoints, check_op  # noqa: E402


def _fake_package(monkeypatch):
    """fakepkg.sieve.outer calls inner through fakepkg.oracle's import."""
    pkg = types.ModuleType("fakepkg")
    sieve = types.ModuleType("fakepkg.sieve")
    oracle = types.ModuleType("fakepkg.oracle")

    def inner(n):
        time.sleep(0.02)
        return n

    def outer(n):
        time.sleep(0.01)
        return oracle.inner(n) + 1

    for fn, module in ((inner, sieve), (outer, oracle)):
        fn.__module__ = module.__name__
        setattr(module, fn.__name__, fn)
    oracle.inner = inner  # imported by name, as rmflab's modules do
    for module in (pkg, sieve, oracle):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return sieve, oracle


def test_self_time_excludes_traced_children(monkeypatch):
    sieve, oracle = _fake_package(monkeypatch)
    tracer = Tracer(package="fakepkg", layers=("sieve", "oracle"))
    tracer.install()
    assert oracle.outer(1) == 2
    tracer.uninstall()
    totals = tracer.totals()
    inner, outer = totals["sieve.inner"], totals["oracle.outer"]
    assert inner["calls"] == outer["calls"] == 1
    assert outer["s"] >= inner["s"] >= 0.02
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert 0.01 <= outer["self_s"] < 0.02
    assert oracle.inner is sieve.inner  # uninstall restores every alias


def test_absent_target_is_reported_not_raised(monkeypatch):
    # a refactor that deletes prime_incidence must not break the traced run
    for module in (rmflab.sieve, rmflab.sampler, rmflab.oracle):
        monkeypatch.delattr(module, "prime_incidence")
    tracer = Tracer()
    tracer.install()
    try:
        out = io.StringIO()
        assert cli.dispatch(["nt", "zeta", "--s", "1.5", "--seed", "1"], stdout=out) == 0
    finally:
        tracer.uninstall()
    assert "sieve.prime_incidence" in tracer.absent
    metrics = derive(tracer.metrics())
    assert metrics["sieve.prime_incidence.s"] == 0
    assert metrics["explicit.zeta.s"] > 0
    assert metrics["cli.self_s"] > 0
    assert set(RAW_NAMES) - {"oracle.mc_positivity.trials", "oracle.mc_positivity.decided"} <= set(metrics)


def test_wrappers_reach_names_imported_across_modules():
    tracer = Tracer()
    original = rmflab.oracle.batch_neg_bits
    tracer.install()
    try:
        assert rmflab.oracle.batch_neg_bits is not original
        assert rmflab.sampler.batch_neg_bits is rmflab.oracle.batch_neg_bits
        est = rmflab.oracle.mc_prime_tail(0.6, 1.0, 1000, 300, master_seed=1)
    finally:
        tracer.uninstall()
    assert rmflab.oracle.batch_neg_bits is original
    metrics = derive(tracer.metrics())
    assert est.trials == 300
    assert metrics["oracle.mc_prime_tail.cells"] == 300 * 168  # pi(1000) = 168
    assert metrics["sampler.batch_neg_bits.cells"] == 300 * 168


def test_count_that_no_longer_fits_is_dropped(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setitem(tracer_module.COUNTS, "sieve.primes_up_to", lambda a, r: {"x": a["gone"]})
    tracer = Tracer()
    tracer.install()
    try:
        assert len(rmflab.sieve.primes_up_to(100)) == 25
    finally:
        tracer.uninstall()
    assert "x" not in tracer.totals()["sieve.primes_up_to"]


def test_checkpoint_count_matches_the_trajectory():
    from rmflab.sampler import sample_signs
    from rmflab.series import partial_sum_trajectory

    a = sample_signs(1, 0, 2500)
    for stride in (1, 7, 1000, 2500):
        t = partial_sum_trajectory(a, 0.6, 2500, stride)
        assert t.ys.size == _checkpoints(2500, stride)


def test_checks_reject_a_wrong_exact_answer_and_ignore_new_fields():
    op = next(o for o in WORKLOADS["exact-enum"] if o.kind == "seven_eighths")
    record = {
        "command": "oracle positivity",
        "seed": 5,
        "values": {"numerator": 7, "denominator": 8, "universe_bits": 14, "new": 1},
    }
    assert check_op(op, record, 5, {}) == []
    record["values"]["numerator"] = 5
    assert check_op(op, record, 5, {})
    bracket = next(o for o in WORKLOADS["exact-enum"] if o.name == "oracle_bracket")
    ref = {"oracle_bracket": {"numerator": 3, "denominator": 4, "value": 0.75}}
    got = {"command": "oracle positivity", "seed": 5,
           "values": {"numerator": 3, "denominator": 4, "value": 0.75, "extra": [1]}}
    assert check_op(bracket, got, 5, ref) == []
    got["values"]["denominator"] = 8
    assert check_op(bracket, got, 5, ref)
