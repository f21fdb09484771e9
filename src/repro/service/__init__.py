"""Campaign service: persistent multi-tenant partitioning-as-a-service.

The one-shot CLI of :mod:`repro.orchestrate` runs a single campaign and
exits.  This package promotes it to a *long-running plane* that
supervises many concurrent campaigns on one shared worker fleet:

* :mod:`~repro.service.spec` — JSON-serializable job specifications
  (:class:`JobSpec`, :class:`InstanceSource`): what to run, declared in
  data so jobs survive the process that submitted them;
* :mod:`~repro.service.cache` — :class:`InstanceCache`, a cross-campaign
  LRU of loaded netlists keyed by instance fingerprint; each job pickles
  its instances into its own once-built worker payload;
* :mod:`~repro.service.scheduler` — :class:`FairShareScheduler`, a
  deficit-round-robin trial scheduler interleaving batches from many
  jobs onto one multi-tenant worker fleet, preserving every per-job
  determinism/timeout/retry contract of the campaign executor;
* :mod:`~repro.service.streams` — live status / BSF / report
  subscriptions backed by the incremental
  :class:`~repro.evaluation.streaming.JournalTail` readers;
* :mod:`~repro.service.server` — :class:`CampaignService` (the
  supervisor: submit/status/pause/resume/cancel, crash recovery) and
  :class:`ServiceHTTP` (the HTTP/JSON frontend, one thread per
  request);
* :mod:`~repro.service.client` — :class:`ServiceClient`, the HTTP
  client the ``repro job`` CLI drives.

Determinism contract: each job's journal depends only on its own spec
(per-trial seeds come from the plan; sticky caches key on start index),
so any fair-share interleaving yields the same records as running that
campaign alone.
"""

from repro.service.cache import InstanceCache
from repro.service.client import ServiceClient
from repro.service.scheduler import (
    JOB_ACTIVE,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_PAUSED,
    FairShareScheduler,
    ServiceJob,
)
from repro.service.server import CampaignService, ServiceHTTP
from repro.service.spec import ENGINE_NAMES, InstanceSource, JobSpec
from repro.service.streams import SubscriptionHub, subscribe_job

__all__ = [
    "CampaignService",
    "ENGINE_NAMES",
    "FairShareScheduler",
    "InstanceCache",
    "InstanceSource",
    "JOB_ACTIVE",
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_PAUSED",
    "JobSpec",
    "ServiceClient",
    "ServiceHTTP",
    "ServiceJob",
    "SubscriptionHub",
    "subscribe_job",
]
