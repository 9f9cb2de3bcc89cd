"""Durable, resumable experiment campaigns.

The layer above :mod:`repro.engine` and :mod:`repro.experiments` that
turns one-shot, in-memory sweeps into declarative campaigns:

* :mod:`~repro.campaign.spec` — :class:`CampaignSpec`, a JSON/TOML-
  loadable grid over applications, platform heterogeneity regimes,
  replication policies and communication models, expanded
  deterministically through crc32-keyed ``SeedSequence`` trees;
* :mod:`~repro.campaign.store` — :class:`ResultStore`, a
  content-addressed SQLite store keyed by a stable digest of
  ``(instance, model, schema version)``: duplicate points are never
  recomputed and interrupted campaigns resume where they stopped;
* :mod:`~repro.campaign.executor` — :func:`run_campaign`, the streaming
  runner that drains a spec through one claim → evaluate → commit loop
  and a :class:`~repro.engine.BatchEngine`, ordering evaluation by
  topology signature *and* sweep adjacency so skeleton caches hit and
  lockstep groups fill, plus byte-deterministic JSON/CSV
  exports; the same loop runs in-process or, with ``n_jobs=k``, in k
  lease-coordinated worker processes against one shared WAL store
  (:func:`run_campaign_workers` is its deprecated alias);
* :mod:`~repro.campaign.lease` — :class:`LeaseManager`, the claim/lease
  protocol (TTL expiry, heartbeat renewal, stale-lease reclamation)
  that makes fabric duplicates rare by design;
* :mod:`~repro.campaign.sync` — :func:`push` / :func:`pull` /
  :func:`merge_stores`, content-keyed transport between store files and
  directory remotes so partial campaigns computed anywhere merge
  byte-identically (invalid or conflicting payloads are quarantined,
  never silently merged);
* :mod:`~repro.campaign.report` — :func:`campaign_report_data`,
  per-axis pivots and cross-model deltas over a (possibly merged)
  store, exported through canonical JSON.

Quick start::

    from repro.campaign import CampaignSpec, ResultStore, run_campaign

    spec = CampaignSpec.from_file("campaign.json")   # or .toml
    with ResultStore("results.sqlite") as store:
        report = run_campaign(spec, store)           # resumable
        print(report.evaluated, "new points,", report.hits, "reused")

The ``repro-workflow campaign run/status/export`` CLI wraps the same
calls, and :func:`repro.experiments.runner.run_family` /
:func:`repro.experiments.table2.run_table2` accept a ``store=`` to
drain the Table 2 harness through the same loop and cache.
"""

from .._lazy import lazy_exports
from .executor import (
    CampaignReport,
    FabricReport,
    campaign_rows,
    campaign_status,
    export_campaign_csv,
    export_campaign_json,
    order_for_engine,
    run_campaign,
    run_campaign_worker,
    run_campaign_workers,
)
from .lease import DEFAULT_LEASE_TTL, DEFAULT_TXN_RETRY, Lease, LeaseManager
from .spec import (
    ApplicationAxis,
    CampaignPoint,
    CampaignSpec,
    PlatformAxis,
    ReplicationAxis,
)
from .store import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    instance_digest,
    payload_error,
    payload_from_result,
    record_from_payload,
)

# Reports and sync run after a campaign, never inside a drain, resume
# or export: imported on first use (``repro._lazy``).
__getattr__, __dir__ = lazy_exports(globals(), {
    ".report": ("campaign_report_data", "export_campaign_report",
                "render_report_text"),
    ".sync": ("DirectoryRemote", "SyncReport", "merge_stores", "open_remote",
              "pull", "push"),
})

__all__ = [
    "ApplicationAxis",
    "PlatformAxis",
    "ReplicationAxis",
    "CampaignPoint",
    "CampaignSpec",
    "ResultStore",
    "RESULT_SCHEMA_VERSION",
    "instance_digest",
    "payload_error",
    "payload_from_result",
    "record_from_payload",
    "CampaignReport",
    "FabricReport",
    "run_campaign",
    "run_campaign_worker",
    "run_campaign_workers",
    "order_for_engine",
    "campaign_status",
    "campaign_rows",
    "export_campaign_json",
    "export_campaign_csv",
    "Lease",
    "LeaseManager",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_TXN_RETRY",
    "SyncReport",
    "DirectoryRemote",
    "open_remote",
    "push",
    "pull",
    "merge_stores",
    "campaign_report_data",
    "export_campaign_report",
    "render_report_text",
]
