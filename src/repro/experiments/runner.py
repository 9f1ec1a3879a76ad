"""Experiment registry front-end: run the whole evaluation in one call.

``run_all()`` regenerates every table and figure and returns structured
:class:`~repro.experiments.engine.ExperimentResult` objects keyed by
artefact id — each carries ``artefact``/``title``/``text`` (the old
``ExperimentOutput`` shape) plus structured ``data``, status, timing
and a per-artefact trace.  The heavy lifting lives in
:mod:`repro.experiments.engine`; this module keeps the historical entry
point.
"""

from __future__ import annotations

import os

from repro.experiments.engine import (
    DEFAULT_CACHE_DIR,
    REGISTRY,
    Experiment,
    ExperimentResult,
    run_experiments,
)

__all__ = [
    "REGISTRY",
    "Experiment",
    "ExperimentResult",
    "run_all",
    "run_experiments",
]


def run_all(
    only: tuple[str, ...] | None = None,
    *,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: str | os.PathLike | None = DEFAULT_CACHE_DIR,
    write_manifest: bool = True,
    manifest_path: str | os.PathLike | None = None,
) -> list[ExperimentResult]:
    """Regenerate all (or selected) artefacts.

    The historical signature ``run_all(only)`` still works and the
    returned objects still expose ``.artefact``/``.title``/``.text``;
    new keyword arguments expose the engine: ``jobs=N`` runs artefacts
    in parallel worker processes, the content-keyed cache skips
    unchanged artefacts, and a run manifest is written under
    ``results/``.  Unknown ids in ``only`` raise
    :class:`~repro.errors.UnknownArtefactError`.
    """
    run = run_experiments(
        only,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        write_manifest=write_manifest,
        manifest_path=manifest_path,
    )
    return list(run.results)


def main() -> None:  # pragma: no cover - CLI convenience
    import sys

    only = tuple(sys.argv[1:]) or None
    for output in run_all(only):
        print(f"\n{'=' * 72}\n{output.artefact}: {output.title}\n{'=' * 72}")
        print(output.text)


if __name__ == "__main__":  # pragma: no cover
    main()
