"""The unified pipeline API: the package's single front door.

Running a suite, checking its traces, rendering reports, measuring
coverage and surveying configurations all go through a
:class:`Session` configured once::

    from repro.api import Session
    from repro.gen import default_plan

    plan = default_plan().filter(include=["rename*"]).sample(100,
                                                             seed=7)
    with Session("linux_sshfs_tmpfs", model="posix", plan=plan) as s:
        artifact = s.run()
    print(artifact.render_summary())
    html = artifact.render_html()          # same pass, no re-run
    blob = artifact.to_json()              # CI-diffable; records plan

The plan streams: generation is consumed lazily by the backend's
:meth:`~repro.harness.backends.Backend.run_iter`, so the shards of a
:class:`ShardedBackend` start checking while the plan is still
producing and the suite is never materialised.  That one pass is the
only way a suite runs: execution and checking are delegated to a
pluggable :class:`~repro.harness.backends.Backend`
(:class:`SerialBackend` or :class:`ShardedBackend`), results stream via
:meth:`Session.iter_checked`, and :func:`survey` runs one session per
configuration on a shared backend.
"""

from repro.api.artifact import (FORMAT_VERSION, ArtifactRow,
                                RunArtifact, TraceFailure, iter_results,
                                read_header)
from repro.api.campaign import (artifact_partition, export_artifact,
                                import_artifact, import_artifact_file)
from repro.api.session import Session, survey
from repro.harness.backends import (Backend, CheckOutcome, RunRecord,
                                    SerialBackend, ShardedBackend,
                                    make_backend)

__all__ = [
    "ArtifactRow", "Backend", "CheckOutcome", "FORMAT_VERSION",
    "RunArtifact", "RunRecord", "SerialBackend", "ShardedBackend",
    "Session", "TraceFailure", "artifact_partition",
    "export_artifact", "import_artifact", "import_artifact_file",
    "iter_results", "make_backend", "read_header", "survey",
]
