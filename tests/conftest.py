"""Shared fixtures."""

import numpy as np
import pytest

from coresponse import ga


@pytest.fixture
def run_recorded(monkeypatch):
    """``run_recorded(M0, y0, cfg, **kw)`` runs ``ga.run_ga`` and returns
    ``(result, populations)``: a copy of every generation's population in
    order, taken where the search scores it (``Objective.evaluate`` for
    generation 0 and dense searches, ``ga._rescore`` for gathered ones)."""
    populations, rescoring = [], []
    evaluate, rescore = ga.Objective.evaluate, ga._rescore

    def recording_evaluate(self, population, *args):
        # the rows a rescore sends on are part of a population already kept
        if not rescoring:
            populations.append(np.array(population, copy=True))
        return evaluate(self, population, *args)

    def recording_rescore(objective, pop, *args):
        populations.append(pop.copy())
        rescoring.append(True)
        try:
            return rescore(objective, pop, *args)
        finally:
            rescoring.pop()

    monkeypatch.setattr(ga.Objective, "evaluate", recording_evaluate)
    monkeypatch.setattr(ga, "_rescore", recording_rescore)

    def run(*args, **kwargs):
        populations.clear()
        result = ga.run_ga(*args, **kwargs)
        return result, list(populations)

    return run
