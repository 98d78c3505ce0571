"""Oracle of the stage and point cache keys.

Production keys a stage once per runner (:class:`~repro.core.stages.
StageRunner` memoizes the dependency walk) and hashes the backend as a
shallow dict of its fields.  The oracle recomputes every key the way
the graph did before either change: each key walks its whole
dependency tree again and the backend enters as
``dataclasses.asdict(backend)``.  The keys must be equal, because a
moved key orphans every cached artifact and every finished sweep row.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.core.artifacts import hash_key
from repro.core.stages import StageGraph
from repro.experiments.runner import TIMING_CANDIDATES_VERSION
from repro.hw import get_backend

#: Config fields no key may hash (see ``repro.experiments.sweep``).
NON_KEY_FIELDS = ("backend", "char_jobs", "verbose")


def backend_payload(config) -> Dict[str, object]:
    """The backend's key payload as ``dataclasses.asdict`` builds it."""
    return dataclasses.asdict(get_backend(config.backend))


def stage_key(graph: StageGraph, name: str, config) -> str:
    """Key of ``name``, recomputing every dependency's key, no memo."""
    stage = graph[name]
    return hash_key({
        "stage": stage.name,
        "version": stage.version,
        "backend": backend_payload(config),
        "config": {f: getattr(config, f) for f in stage.fields},
        "deps": {d: stage_key(graph, d, config) for d in stage.deps},
    })


def graph_fingerprint(graph: StageGraph) -> str:
    """Hash of every stage's name, version, deps and fields."""
    return hash_key([(s.name, s.version, s.deps, s.fields)
                     for s in graph])


def point_cache_key(graph: StageGraph, point, config) -> str:
    """Sweep-level key of one grid point's finished row."""
    return hash_key({
        "stage": f"sweep/{point.experiment}",
        "version": "1",
        "graph": graph_fingerprint(graph),
        "timing_candidates": TIMING_CANDIDATES_VERSION,
        "backend": backend_payload(config),
        "threshold": point.threshold,
        "config": {f.name: getattr(config, f.name)
                   for f in dataclasses.fields(config)
                   if f.name not in NON_KEY_FIELDS},
    })
