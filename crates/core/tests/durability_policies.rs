//! Durability and seal-policy plumbing through the middleware, and the
//! adjudication-unaffected-by-construction guarantee: how an organisation
//! stores (memory vs file), syncs (write-through vs
//! group commit) and seals (per-record vs batched, sealing rarely or
//! often) its evidence is a local build-time choice — the facts an adjudicator derives from the
//! evidence are identical across all of them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use nonrep_container::component::FnComponent;
use nonrep_container::descriptor::DeploymentDescriptor;
use nonrep_core::middleware::MiddlewareBuilder;
use nonrep_core::{Adjudicator, Corroboration, OrgMiddleware};
use nonrep_net::bus::LocalBus;
use nonrep_net::fault::FaultPlan;
use nonrep_net::latency::LatencyModel;
use nonrep_protocols::party::{KeyDirectory, StaticKeyDirectory};
use nonrep_protocols::scheduler::CommitmentMode;
use nonrep_protocols::TokenKind;
use nonrep_store::{EvidenceLog, FileLog, SyncPolicy};
use nonrep_types::ids::{MethodName, OrgId};
use nonrep_types::time::LogicalClock;
use nonrep_types::value::Value;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nonrep-core-dur-{}-{name}", std::process::id()));
    p
}

fn deploy_echo(mw: &OrgMiddleware) {
    mw.deploy(
        DeploymentDescriptor::new("urn:echo", [MethodName::new("echo")]),
        Arc::new(FnComponent::new().method("echo", |args| Ok(args.clone()))),
    )
    .unwrap();
}

/// Points a builder at an evidence backend rooted at the given path.
type Backend = fn(MiddlewareBuilder, &Path) -> MiddlewareBuilder;

/// Facts an adjudicator derives from one invocation: (no suspects, the
/// four §3.2 cannot-deny assurances).
type Facts = (bool, [bool; 4]);

/// Two echo invocations between a fresh client/server pair on a bus whose
/// every hop takes 1 ms of the shared clock; the client's evidence
/// pipeline is `mode` over `backend`. Returns the adjudication facts of
/// the first and the number of epochs the client sealed.
fn facts_for(mode: CommitmentMode, backend: Backend, tag: &str) -> (Facts, u64) {
    let bus = LocalBus::with_config(FaultPlan::none(), LatencyModel::Constant(1), 0);
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = bus.clock();
    let path = temp_path(&format!("invariance-{tag}"));
    let _ = std::fs::remove_file(&path);
    let builder =
        OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone()).commitment(mode);
    let client = backend(builder, &path).build();
    let server = OrgMiddleware::builder("server", bus, dir, clock).build();
    deploy_echo(&server);
    let proxy = client.nr_proxy(server.org(), "urn:echo");
    for arg in [7i64, 8] {
        assert_eq!(
            proxy.invoke("echo", Value::from(arg)).unwrap(),
            Value::from(arg)
        );
    }
    // Seal (and, on buffered logs, fsync) whatever the policy left
    // pending, then adjudicate both windows.
    client.flush_evidence().unwrap();
    let run = client.log().snapshot_range(0..1)[0].draft.run_id;
    let windows = [client.submit_full_window(), server.submit_full_window()];
    let adjudicator = || Adjudicator::new(client.directory().clone() as Arc<dyn KeyDirectory>);
    let verdict = adjudicator().adjudicate_windows(run, &windows);
    // Handing over an empty corroboration is not a second configuration.
    let defaulted = adjudicator()
        .corroborated_by(Corroboration::default())
        .adjudicate_windows(run, &windows);
    assert_eq!(defaulted.reports, verdict.reports, "{tag}");
    assert_eq!(defaulted.facts, verdict.facts, "{tag}");
    let epochs = client.log().count_where(&|r| r.is_epoch_commit());
    drop(client);
    let _ = std::fs::remove_file(&path);
    let facts = (
        verdict.suspect_submitters().is_empty(),
        [
            verdict.cannot_deny(&OrgId::new("client"), TokenKind::NroReq),
            verdict.cannot_deny(&OrgId::new("server"), TokenKind::NrrReq),
            verdict.cannot_deny(&OrgId::new("server"), TokenKind::NroResp),
            verdict.cannot_deny(&OrgId::new("client"), TokenKind::NrrResp),
        ],
    );
    (facts, epochs)
}

#[test]
fn adjudication_is_unaffected_by_seal_and_sync_policy() {
    // Exactly the configurations the code still supports: every
    // commitment mode over every backend, minus per-record over the
    // buffering log (rejected at build). A 1 ms deadline seals on the
    // client's first step batch after a bus hop — its step-3 batch, once
    // per invocation — so that row adjudicates a log of several epochs;
    // the 1 s deadline leaves the runs to the final seal.
    let modes = [
        ("per-record", CommitmentMode::PerRecord),
        ("auto-1ms", CommitmentMode::auto(1)),
        ("auto", CommitmentMode::auto(1_000)),
    ];
    let backends: [(&str, Backend); 3] = [
        ("memory", |b, _| b),
        ("write-through", |b, path| {
            b.evidence_file(path, SyncPolicy::WriteThrough).unwrap()
        }),
        ("group-commit", |b, path| {
            b.evidence_file(path, SyncPolicy::GroupCommit).unwrap()
        }),
    ];
    let mut table: Vec<(String, CommitmentMode, Backend)> = Vec::new();
    for (mode_name, mode) in modes {
        for (backend_name, backend) in backends {
            if mode != CommitmentMode::PerRecord || backend_name != "group-commit" {
                table.push((format!("{mode_name}-{backend_name}"), mode, backend));
            }
        }
    }
    assert_eq!(table.len(), 8);
    for (tag, mode, backend) in table {
        let (facts, epochs) = facts_for(mode, backend, &tag);
        assert_eq!(
            facts,
            (true, [true; 4]),
            "facts differ under {tag} — a local policy leaked into adjudication"
        );
        match mode {
            CommitmentMode::PerRecord => assert_eq!(epochs, 0, "{tag}"),
            CommitmentMode::Batched { max_delay_ms: 1 } => {
                assert!(epochs >= 2, "{tag}: {epochs} epochs")
            }
            CommitmentMode::Batched { .. } => assert_eq!(epochs, 1, "{tag}"),
        }
    }
}

#[test]
#[should_panic(expected = "buffers appends per epoch")]
fn per_epoch_log_with_per_record_mode_is_rejected_at_build() {
    // The store docs call this combination a misconfiguration (nothing
    // would ever be fsynced); the builder refuses to assemble it.
    let path = temp_path("misconfig.log");
    let _ = std::fs::remove_file(&path);
    let log = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
    let _ = OrgMiddleware::builder(
        "org",
        LocalBus::new(),
        Arc::new(StaticKeyDirectory::new()),
        LogicalClock::new(),
    )
    .evidence_log(log)
    .build();
}

#[test]
fn per_epoch_file_log_through_middleware_survives_reopen() {
    let path = temp_path("mw-reopen.log");
    let _ = std::fs::remove_file(&path);
    {
        let bus = LocalBus::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let clock = LogicalClock::new();
        let log = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
            .commitment(CommitmentMode::auto(50))
            .evidence_log(log.clone())
            .build();
        let server = OrgMiddleware::builder("server", bus, dir, clock).build();
        deploy_echo(&server);
        let proxy = client.nr_proxy(server.org(), "urn:echo");
        proxy.invoke("echo", Value::from(1i64)).unwrap();
        // A durable seal covers the run: everything below is on disk,
        // and a kill (no Drop drain) loses nothing.
        client.flush_evidence().unwrap();
        std::mem::forget(log);
    }
    let log = FileLog::open(&path).unwrap();
    assert_eq!(log.len(), 5, "4 tokens + 1 epoch commitment on disk");
    assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
    log.verify().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deadline_sealer_covers_idle_middleware_evidence() {
    // The batch is far from full, so only the deadline can cover the
    // run's evidence — via the background sealer, with no further
    // appends.
    let bus = LocalBus::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();
    let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
        .commitment(CommitmentMode::auto(50))
        .build();
    let server = OrgMiddleware::builder("server", bus, dir, clock.clone()).build();
    deploy_echo(&server);
    let proxy = client.nr_proxy(server.org(), "urn:echo");
    proxy.invoke("echo", Value::from(2i64)).unwrap();
    let scheduler = client.party().scheduler();
    assert!(scheduler.unsealed_len() > 0, "nothing sealed yet");
    // The deadline is measured on the middleware's LogicalClock; the
    // sealer's polling cadence is wall-clock.
    clock.advance(50);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while scheduler.unsealed_len() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(scheduler.unsealed_len(), 0, "background sealer never fired");
    assert_eq!(client.log().count_where(&|r| r.is_epoch_commit()), 1);
    client.log().verify().unwrap();
}
