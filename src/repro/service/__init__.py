"""Simulation-as-a-service: the long-running experiment server.

The pieces every earlier PR built — frozen hashable
:class:`~repro.machine.ExperimentSpec`, the content-addressed runner
cache, guarded execution, JSONL journals, the obs bus — compose here into
a shared experiment facility:

- :mod:`repro.service.jobs` — the journaled job manager.  Scenario
  submissions compile to specs, dedupe through the shared result cache
  (one execution per spec content, no matter how many submitters), and
  survive server kills: the journal is written before dispatch and the
  cache before the done record, the same ordering contract as
  :mod:`repro.experiments.sweep`, so a restarted server adopts in-flight
  work instead of redoing or losing it.

- :mod:`repro.service.server` — the stdlib HTTP surface
  (``repro serve``): submit jobs, stream JSONL progress events, fetch
  results / serialized text / traces / rendered tables.

- :mod:`repro.service.client` — the urllib client the ``repro
  submit|jobs|watch|fetch`` commands speak, so scripts and the service
  share one code path.

No dependency beyond the standard library.

The names below load on first access (PEP 562), so ``repro run --scenario``
can use :func:`run_direct` without importing the HTTP server or client.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.service.jobs": ("JobChaos", "JobError", "JobManager", "JobRecord", "run_direct"),
        "repro.service.client": ("ServiceClient", "ServiceError"),
        "repro.service.server": ("ExperimentServer", "serve"),
    },
)
