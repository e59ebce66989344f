"""The full paper matrix (4 presets x 8 weathers x 4 times of day) at seeds 1
and 2.

Marked slow and deselected by default; run it with `python -m pytest -m slow`.
"""

import hashlib
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from twinforge.autonomy import AutonomyConfig
from twinforge.environment import TIMES_OF_DAY, WEATHERS
from twinforge.episode import default_bundle, run_case

PRESETS = tuple(AutonomyConfig().presets)


def _run(case):
    model, weather, time_of_day, seed = case
    res = run_case(default_bundle(f"{model}/{weather}/{time_of_day}", model, weather,
                                  time_of_day, seed=seed))
    return (model, res.status, res.terminal, bool(res.verdict and res.verdict.passed),
            res.log.digest())


def _matrix(seed):
    """Every case's result, in matrix order, and the SHA over their telemetry
    digests: one number for the behaviour of the whole matrix."""
    cases = [(m, w, t, seed) for m in PRESETS for w in WEATHERS for t in TIMES_OF_DAY]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(_run, cases))
    assert len(results) == 128
    assert Counter(status for _, status, _, _, _ in results) == {"done": 128}
    digests = "\n".join(digest for *_, digest in results)
    return results, hashlib.sha256(digests.encode()).hexdigest()


@pytest.mark.slow
def test_full_matrix_at_seed_1():
    results, sha = _matrix(1)
    assert Counter(terminal for _, _, terminal, _, _ in results) == {
        "collision": 123, "standstill_after_aeb": 5}
    passes = {m: sum(passed for model, _, _, passed, _ in results if model == m) for m in PRESETS}
    assert passes == {"v3": 2, "v2": 3, "v3_tiny": 0, "v2_tiny": 0}
    assert sha == "0dbea8524f4e22138e2a7873dfa9bda4501322cfe222756ed17e60865819155e"


@pytest.mark.slow
def test_full_matrix_at_seed_2():
    # every case draws a different stream at a second seed, so the condition
    # arithmetic of all 32 cells is pinned twice
    _, sha = _matrix(2)
    assert sha == "e7848b61851ff80d00afeedcf45adf9732802fabd2c8257302147e0c59947c16"
