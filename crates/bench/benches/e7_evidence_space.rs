//! E7 (paper §6): "the space overhead of evidence generated" — evidence
//! bytes per invocation and per sharing round, per protocol, per scheme;
//! linear log growth; log-append cost.
//!
//! Expected shape: evidence volume is constant per interaction (4 tokens
//! per direct invocation, 1 for voluntary, N+2 per sharing round for N
//! validators); the signature scheme dominates record size (MSS tokens
//! are ~2.3 KB vs ~100 B arbitrated). A hierarchical (HSS 10/8) token
//! record is ~2.7 KB: its signature references its ~2.5 KB subtree
//! certificate, which the log stores once per signer and subtree as a
//! `subtree_cert` record (on the wire the token carries it inline,
//! ~5.2 KB).

use criterion::{criterion_group, criterion_main, Criterion};
use nonrep_bench::{deploy_echo, install_group, payload, World};
use nonrep_core::{OrgMiddleware, TrustDomain};
use nonrep_crypto::digest::sha256;
use nonrep_crypto::sig::SignatureScheme;
use nonrep_protocols::TokenKind;
use nonrep_store::record::{EvidenceRecord, RecordDraft};
use nonrep_store::{EvidenceLog, MemoryLog};
use nonrep_types::ids::{GroupId, OrgId, RunId};
use nonrep_types::time::Timestamp;
use std::time::Duration;

fn report() {
    println!("\nE7 report — evidence space per interaction:");
    println!(
        "{:<26} {:>8} {:>12} {:>14}",
        "interaction", "records", "client B", "server B"
    );
    // Direct invocation, arbitrated scheme.
    {
        let w = World::new();
        let client = w.org("client");
        let server = w.org("server");
        deploy_echo(&server);
        client
            .nr_proxy(server.org(), "urn:svc")
            .invoke("work", payload(64))
            .unwrap();
        println!(
            "{:<26} {:>8} {:>12} {:>14}",
            "direct (arbitrated)",
            client.log().len() + server.log().len(),
            client.log().total_bytes(),
            server.log().total_bytes()
        );
    }
    // Direct invocation, MSS scheme.
    {
        let w = World::new();
        let client = nonrep_core::OrgMiddleware::builder(
            "client",
            w.bus.clone(),
            w.dir.clone(),
            w.clock.clone(),
        )
        .scheme(SignatureScheme::Mss { height: 4 })
        .build();
        let server = nonrep_core::OrgMiddleware::builder(
            "server",
            w.bus.clone(),
            w.dir.clone(),
            w.clock.clone(),
        )
        .scheme(SignatureScheme::Mss { height: 4 })
        .build();
        deploy_echo(&server);
        client
            .nr_proxy(server.org(), "urn:svc")
            .invoke("work", payload(64))
            .unwrap();
        println!(
            "{:<26} {:>8} {:>12} {:>14}",
            "direct (MSS h=4)",
            client.log().len() + server.log().len(),
            client.log().total_bytes(),
            server.log().total_bytes()
        );
    }
    // Direct invocation, the hierarchical scheme of the end-to-end
    // benchmark. The first call in a log also stores each signer's
    // subtree certificate, once; token records only reference it.
    {
        let w = World::new();
        let hss = |org: &str| {
            OrgMiddleware::builder(org, w.bus.clone(), w.dir.clone(), w.clock.clone())
                .scheme(SignatureScheme::Hss {
                    root_height: 10,
                    subtree_height: 8,
                })
                .build()
        };
        let client = hss("client");
        let server = hss("server");
        deploy_echo(&server);
        client
            .nr_proxy(server.org(), "urn:svc")
            .invoke("work", payload(64))
            .unwrap();
        println!(
            "{:<26} {:>8} {:>12} {:>14}",
            "direct (hss 10/8)",
            client.log().len() + server.log().len(),
            client.log().total_bytes(),
            server.log().total_bytes()
        );
        let records = client.log().records();
        let size = |pred: &dyn Fn(&EvidenceRecord) -> bool| {
            records.iter().find(|r| pred(r)).map_or(0, |r| r.byte_len())
        };
        println!(
            "{:<26} token record {} B, certificate record {} B (once per signer and subtree)",
            "",
            size(&|r| r.draft.kind == TokenKind::NroReq.label()),
            size(&|r| r.is_subtree_cert()),
        );
    }
    // Voluntary.
    {
        let w = World::new();
        let client = w.org_in("client", TrustDomain::Voluntary);
        let server = w.org("server");
        deploy_echo(&server);
        client
            .nr_proxy(server.org(), "urn:svc")
            .invoke("work", payload(64))
            .unwrap();
        println!(
            "{:<26} {:>8} {:>12} {:>14}",
            "voluntary (arbitrated)",
            client.log().len() + server.log().len(),
            client.log().total_bytes(),
            server.log().total_bytes()
        );
    }
    // Sharing round (3 orgs).
    {
        let w = World::new();
        let a = w.org("a");
        let b = w.org("b");
        let c = w.org("c");
        let group = GroupId::new("g");
        install_group(&[("a", &a), ("b", &b), ("c", &c)], &group);
        a.propose_update(&group, "obj", vec![0u8; 64]).unwrap();
        println!(
            "{:<26} {:>8} {:>12} {:>14}",
            "sharing 3-org (arb.)",
            a.log().len() + b.log().len() + c.log().len(),
            a.log().total_bytes(),
            b.log().total_bytes()
        );
    }
    // Linear growth over n invocations.
    {
        let w = World::new();
        let client = w.org("client");
        let server = w.org("server");
        deploy_echo(&server);
        let proxy = client.nr_proxy(server.org(), "urn:svc");
        print!("growth (client log bytes after n invocations): ");
        for n in [1usize, 10, 100] {
            while (client.log().len() as usize) < n * 4 {
                proxy.invoke("work", payload(64)).unwrap();
            }
            print!("n={n}:{}B ", client.log().total_bytes());
        }
        println!("\n");
    }
}

fn log_growth(client: &OrgMiddleware) -> u64 {
    client.log().total_bytes()
}

fn bench_space(c: &mut Criterion) {
    report();
    let mut group = c.benchmark_group("e7_evidence_space");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    // Log append cost (memory backend, chained hashing included).
    {
        let log = MemoryLog::new();
        let mut n = 0u64;
        group.bench_function("log_append", |b| {
            b.iter(|| {
                n += 1;
                log.append(RecordDraft {
                    run_id: RunId::from_u128(u128::from(n)),
                    kind: "NRO_req".into(),
                    actor: OrgId::new("org"),
                    at: Timestamp(n),
                    content_digest: sha256(&n.to_le_bytes()),
                    payload: vec![0u8; 128],
                })
                .unwrap()
            })
        });
    }
    // Chain verification cost over a 1k-record log.
    {
        let log = MemoryLog::new();
        for n in 0..1000u64 {
            log.append(RecordDraft {
                run_id: RunId::from_u128(u128::from(n)),
                kind: "NRO_req".into(),
                actor: OrgId::new("org"),
                at: Timestamp(n),
                content_digest: sha256(&n.to_le_bytes()),
                payload: vec![0u8; 128],
            })
            .unwrap();
        }
        group.bench_function("chain_verify_1k", |b| b.iter(|| log.verify().unwrap()));
    }
    // Per-run retrieval and full-snapshot cost over a 1k-record log with
    // 50 interleaved protocol runs (the dispute/audit query shape).
    {
        let log = MemoryLog::new();
        for n in 0..1000u64 {
            log.append(RecordDraft {
                run_id: RunId::from_u128(u128::from(n % 50)),
                kind: "NRO_req".into(),
                actor: OrgId::new("org"),
                at: Timestamp(n),
                content_digest: sha256(&n.to_le_bytes()),
                payload: vec![0u8; 128],
            })
            .unwrap();
        }
        let target = RunId::from_u128(17);
        group.bench_function("by_run_1k", |b| b.iter(|| log.by_run(&target)));
        group.bench_function("records_snapshot_1k", |b| b.iter(|| log.records()));
    }
    // Keep the helper used (silence dead-code in some configs).
    let w = World::new();
    let client = w.org("client");
    let _ = log_growth(&client);
    group.finish();
}

criterion_group!(benches, bench_space);
criterion_main!(benches);
