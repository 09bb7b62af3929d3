"""Constraint flipping and adaptive seed generation (§3.4.4).

For each conditional state whose constraint involves the symbolic
input, the flipper conjoins the path prefix with the flipped branch
constraint and asks the solver for a model; the model becomes an
adaptive seed via :meth:`SeedLayout.seed_from_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..smt import (SAT, BlastedPrefix, Solver, SolverStats, Term,
                   free_variables)
from .calling import SeedLayout
from .simulate import BranchRecord, ReplayResult

__all__ = ["FlipQuery", "flip_queries", "solve_flips", "AdaptiveSeed"]


@dataclass
class FlipQuery:
    """One 'reach the unexplored side of this branch' SMT problem."""

    branch: BranchRecord
    constraints: list[Term]

    @property
    def branch_id(self) -> tuple:
        return self.branch.branch_id


@dataclass
class AdaptiveSeed:
    """A solver-produced seed: new parameter values for the action."""

    action_name: str
    values: list
    branch_id: tuple


def flip_queries(result: ReplayResult,
                 explored: set[tuple] | None = None) -> list[FlipQuery]:
    """Build flip problems for the replay's unexplored branch sides.

    ``explored`` filters out branch sides whose flip was already
    attempted (or covered) in earlier fuzzing rounds.
    """
    if result.layout is None:
        return []
    input_vars = result.layout.all_vars()
    explored = explored or set()
    queries: list[FlipQuery] = []
    for branch in result.branches:
        if branch.flipped is None:
            continue
        flipped_id = (branch.site.func_index, branch.site.pc,
                      not bool(branch.taken))
        if flipped_id in explored:
            continue
        # §3.4.4: only flip constraints that contain the symbolic input.
        if not (free_variables(branch.flipped) & input_vars):
            continue
        prefix = result.path[:branch.path_position]
        queries.append(FlipQuery(branch, prefix + [branch.flipped]))
    return queries


def solve_flips(queries: list[FlipQuery], layout: SeedLayout,
                action_name: str, max_conflicts: int = 20_000,
                stats: SolverStats | None = None,
                max_seeds: int | None = None) -> list[AdaptiveSeed]:
    """Solve flip queries and materialise adaptive seeds.

    ``max_conflicts`` is the per-query budget standing in for the
    paper's 3,000 ms SMT cap; queries that exceed it return unknown and
    produce no seed (the FN mechanism §5 describes).  The queries share
    one :class:`~repro.smt.BlastedPrefix`, so the path is bit-blasted
    once per batch rather than once per query.
    """
    seeds: list[AdaptiveSeed] = []
    prefix = BlastedPrefix()
    for query in queries:
        if max_seeds is not None and len(seeds) >= max_seeds:
            break
        solver = Solver(max_conflicts=max_conflicts, stats=stats,
                        prefix=prefix)
        for constraint in query.constraints:
            solver.add(constraint)
        if solver.check() != SAT:
            continue
        values = layout.seed_from_model(solver.model())
        flipped_id = (query.branch.site.func_index, query.branch.site.pc,
                      not bool(query.branch.taken))
        seeds.append(AdaptiveSeed(action_name, values, flipped_id))
    return seeds
