"""The full paper matrix (4 presets x 8 weathers x 4 times of day) at seed 1.

Marked slow and deselected by default; run it with `python -m pytest -m slow`.
"""

import hashlib
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from twinforge.environment import TIMES_OF_DAY, WEATHERS
from twinforge.episode import default_bundle, run_case

PRESETS = ("v3", "v2", "v3_tiny", "v2_tiny")


def _run(case):
    model, weather, time_of_day = case
    res = run_case(default_bundle(f"{model}/{weather}/{time_of_day}", model, weather,
                                  time_of_day, seed=1))
    return (model, res.status, res.terminal, bool(res.verdict and res.verdict.passed),
            res.log.digest())


@pytest.mark.slow
def test_full_matrix_at_seed_1():
    cases = [(m, w, t) for m in PRESETS for w in WEATHERS for t in TIMES_OF_DAY]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(_run, cases))
    assert len(results) == 128
    assert Counter(status for _, status, _, _, _ in results) == {"done": 128}
    assert Counter(terminal for _, _, terminal, _, _ in results) == {
        "collision": 123, "standstill_after_aeb": 5}
    passes = {m: sum(passed for model, _, _, passed, _ in results if model == m) for m in PRESETS}
    assert passes == {"v3": 2, "v2": 3, "v3_tiny": 0, "v2_tiny": 0}
    # every case's telemetry, in matrix order: the same behaviour for the whole matrix
    digests = "\n".join(digest for *_, digest in results)
    assert hashlib.sha256(digests.encode()).hexdigest() == \
        "0dbea8524f4e22138e2a7873dfa9bda4501322cfe222756ed17e60865819155e"
