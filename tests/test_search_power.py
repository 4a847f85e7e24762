"""Mutants a search must kill: each is patched into the pipeline, and
``run_search`` must report it within a fixed budget of ``mix`` seeds.

A planted seed's planted cell is a cell of every agent, and its targets are
the value conditioned on it, so the cell lies in the agreement event and in
its common knowledge: any verdict but ``holds`` is a bug. A search lists
those seeds as planted failures and exits 1, as for ``violated``.
"""

import json

import pytest

import aumann.verdicts as verdicts
from aumann import run_search
from aumann.cli import EXIT_OK, EXIT_VIOLATED, main

# the kinds the cell-sum mutant touches: every layer takes its cell sums in verdicts._cell_conditionals
KINDS = {
    "classical": ("classical", {}),
    "quantum": ("quantum", {}),
    "gpt-polyhedral": ("gpt", {"cone_kind": "polyhedral", "dim": 3}),
}
BUDGET = 600  # mix seeds from 0: the even offsets are planted


def _cell_sums_drop_the_last_world(monkeypatch):
    """Patch in the mutant: every cell sum leaves out the last world's atom."""
    cell_conditionals = verdicts._cell_conditionals

    def mutant(block):
        atoms = block.measures.atoms.copy()
        atoms[:, -1] = 0
        return cell_conditionals(block._replace(measures=block.measures._replace(atoms=atoms)))

    monkeypatch.setattr(verdicts, "_cell_conditionals", mutant)


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_planted_seed_holds(kind):
    layer, kw = KINDS[kind]
    stats = run_search(layer, BUDGET, **kw)
    assert stats.planted_failures == 0 and stats.planted_failure_seeds == ()
    assert stats.violations == 0


def test_a_planted_cell_matches_itself_below_round_off():
    """A planted seed's target is its planted cell conditioned as an event,
    and the agreement event conditions the same cell among its partition's
    cells; every GPT mass rounds by one rule, so the two have the same bits
    and every planted seed holds even at a ``tol`` below round-off."""
    stats = run_search("gpt", 400, mode="planted", tol=1e-300, n_worlds=48, n_agents=6, dim=4, cone_kind="simplex")
    assert stats.counts == {"holds": 400}
    assert stats.planted_failures == 0 and stats.planted_failure_seeds == ()


@pytest.mark.parametrize("kind", list(KINDS))
def test_cell_sums_that_drop_the_last_world_are_killed(kind, monkeypatch):
    layer, kw = KINDS[kind]
    _cell_sums_drop_the_last_world(monkeypatch)
    stats = run_search(layer, BUDGET, **kw)
    assert stats.planted_failures > 0
    assert all(seed % 2 == 0 for seed in stats.planted_failure_seeds)  # only planted seeds are listed
    planted = BUDGET // 2
    assert stats.planted_failures <= planted


def test_a_planted_failure_exits_one(monkeypatch, capsys):
    argv = ["search", "--layer", "quantum", "--seeds", "64", "--mode", "planted"]
    assert main(argv + ["--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["planted_failures"] == 0
    _cell_sums_drop_the_last_world(monkeypatch)
    assert main(argv + ["--json"]) == EXIT_VIOLATED
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == 0  # no verdict is violated: the planted cells go vacuous
    assert doc["planted_failures"] == len(doc["planted_failure_seeds"]) > 0
    assert main(argv) == EXIT_VIOLATED
    seeds = " ".join(map(str, doc["planted_failure_seeds"]))
    assert f"planted failures: {doc['planted_failures']} (seeds {seeds})\n" in capsys.readouterr().out
