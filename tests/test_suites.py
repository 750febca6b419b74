"""Seeded suite runner: determinism, replay from failure seeds, tallies."""
import dataclasses
import re

import pytest

from porism import closure, involution, suites
from porism.cli import main
from porism.errors import UnknownSuite
from porism.suites import (
    GOLDEN,
    SUITES,
    ResampleTally,
    Suite,
    run_suite,
    run_trial,
    trial_seed,
)


def test_trial_seed_frozen():
    assert trial_seed(0, 0) == GOLDEN
    assert trial_seed(7, 2) == (7 + 3 * GOLDEN) % (1 << 64)
    assert 0 <= trial_seed(2**63, 10**6) < 1 << 64


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_pass_small_runs(name):
    report = run_suite(name, trials=6, seed=42)
    assert report.suite == name
    assert report.trials == 6
    assert report.passed
    assert report.failures == ()
    assert report.resamples >= 0
    assert report.elapsed >= 0.0


def test_run_suite_is_order_independent():
    first = run_suite("two", trials=10, seed=3)
    second = run_suite("two", trials=10, seed=3)
    assert first.failures == second.failures
    assert first.resamples == second.resamples


def test_mutation_failures_replay_from_seed_alone():
    broken = SUITES["moebius"].broken(lambda instance: False)
    report = run_suite(broken, trials=5, seed=11)
    assert not report.passed
    assert len(report.failures) == 5
    assert [f.index for f in report.failures] == [0, 1, 2, 3, 4]
    for failure in report.failures:
        assert failure.seed == trial_seed(11, failure.index)
        instance, ok = run_trial("moebius", failure.seed)
        # the true oracle accepts what the broken one rejected,
        # and the seed alone rebuilds the identical instance
        assert ok
        assert repr(instance) == failure.instance


def test_run_trial_reproducible():
    seed = trial_seed(99, 4)
    first_instance, first_ok = run_trial("aligned", seed)
    second_instance, second_ok = run_trial("aligned", seed)
    assert repr(first_instance) == repr(second_instance)
    assert first_ok and second_ok


def test_resample_tally_counts():
    def generate(rng, tally=None):
        if tally is not None:
            tally.resamples += 3
        return rng.random()

    fake = Suite("fake", "tally plumbing", generate, lambda instance: True)
    report = run_suite(fake, trials=4, seed=0)
    assert report.passed
    assert report.resamples == 12


def test_tally_reaches_generators():
    tallies = [ResampleTally() for _ in range(10)]
    for index, tally in enumerate(tallies):
        run_trial("two", trial_seed(1, index), tally)
    per_trial = sum(tally.resamples for tally in tallies)
    # seed 1 resamples at least once in its first ten "two" trials
    assert per_trial > 0
    assert run_suite("two", trials=10, seed=1).resamples == per_trial


def test_dalignes_redraws_an_all_zero_point():
    # trial 1711 of seed 0 draws (0:0:0) for a pencil point; the sampler must
    # redraw it rather than abort the whole run
    instance, ok = run_trial("dalignes", trial_seed(0, 1711))
    assert ok
    assert len(instance.lines) in (3, 5)


def test_unknown_suite_and_bad_trials():
    with pytest.raises(UnknownSuite):
        run_suite("sextic", trials=1, seed=0)
    with pytest.raises(ValueError):
        run_suite("two", trials=0, seed=0)


# resamples of `verify SUITE --trials 300 --seed 3`: a longer stream than the
# 20-trial frozen digests, on which `two` and `dalignes` redraw
VERIFY_300_SEED_3 = {
    "two": 9,
    "pascal": 0,
    "aligned": 0,
    "moebius": 0,
    "dual-moebius": 0,
    "dalignes": 2,
}


@pytest.mark.parametrize("name", sorted(VERIFY_300_SEED_3))
def test_verify_300_trials_pins_each_stream(capsys, name):
    assert main(["verify", name, "--trials", "300", "--seed", "3"]) == 0
    out = re.sub(r"elapsed=\S+", "elapsed=*", capsys.readouterr().out)
    resamples = VERIFY_300_SEED_3[name]
    assert out == f"suite {name}: trials=300 failures=0 resamples={resamples} elapsed=*\n"


@pytest.mark.parametrize("name", ["moebius", "dual-moebius"])
def test_a_moebius_trial_runs_the_primal_check_once(monkeypatch, name):
    # in the check alone: the draw's distinct parameters leave it nothing to reject
    calls = []
    primal = involution.moebius_check

    def counted(xs, ys):
        calls.append(len(xs))
        return primal(xs, ys)

    monkeypatch.setattr(involution, "moebius_check", counted)
    monkeypatch.setattr(suites, "moebius_check", counted)
    tally = ResampleTally()
    _, ok = run_trial(name, trial_seed(0, 0), tally)
    assert ok and tally.resamples == 0
    assert len(calls) == 1


def test_a_dalignes_trial_walks_once(monkeypatch):
    # the draw's walk is both its rejection test and the check's verdict
    calls = []
    walk = closure._tangent_walk

    def counted(*args):
        calls.append(len(args[0]))
        return walk(*args)

    monkeypatch.setattr(closure, "_tangent_walk", counted)
    tally = ResampleTally()
    _, ok = run_trial("dalignes", trial_seed(0, 0), tally)
    assert ok and tally.resamples == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["moebius", "dalignes"])
def test_carried_fields_stay_out_of_repr_and_equality(name):
    broken = SUITES[name].broken(lambda instance: False)
    report = run_suite(broken, trials=3, seed=5)
    assert len(report.failures) == 3
    for failure in report.failures:
        instance, ok = run_trial(name, failure.seed)
        assert ok
        assert repr(instance) == failure.instance
        carried = [f.name for f in dataclasses.fields(instance) if not f.repr]
        assert carried and all(f"{f}=" not in failure.instance for f in carried)
        # a copy without the draw's results is still the same instance
        emptied = dataclasses.replace(instance, **dict.fromkeys(carried))
        assert emptied == instance and hash(emptied) == hash(instance)
        assert repr(emptied) == repr(instance)
