//! E9 integration: behaviour under failures (crash, partition, loss) and
//! dispute resolution from the surviving evidence.

use std::sync::Arc;

use nonrep::prelude::*;

fn deploy_echo(mw: &OrgMiddleware) {
    mw.deploy(
        DeploymentDescriptor::new("urn:svc", [MethodName::new("work")])
            .with_non_repudiation(NrConfig::protocol("direct")),
        Arc::new(FnComponent::new().method("work", |args| Ok(args.clone()))),
    )
    .unwrap();
}

#[test]
fn crashed_server_fails_cleanly_and_recovers() {
    let bus = LocalBus::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();
    let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
        .retry(RetryPolicy::new(2))
        .build();
    let server = OrgMiddleware::builder("server", bus.clone(), dir, clock).build();
    deploy_echo(&server);
    let proxy = client.nr_proxy(server.org(), "urn:svc");

    bus.fault_plan().crash(server.org());
    // The b2b endpoint is a separate bus identity; crash it too.
    bus.fault_plan()
        .crash(&nonrep::core::b2b_address(server.org()));
    let err = proxy.invoke("work", Value::from(1i64)).unwrap_err();
    assert!(matches!(err, ContainerError::Protocol(_)));
    // Only the client's own NRO is logged — nothing from the server.
    assert_eq!(client.log().len(), 1);

    bus.fault_plan().recover(server.org());
    bus.fault_plan()
        .recover(&nonrep::core::b2b_address(server.org()));
    assert!(proxy.invoke("work", Value::from(2i64)).is_ok());
}

#[test]
fn partition_blocks_but_evidence_stays_consistent() {
    let bus = LocalBus::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();
    let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
        .retry(RetryPolicy::new(2))
        .build();
    let server = OrgMiddleware::builder("server", bus.clone(), dir, clock).build();
    deploy_echo(&server);
    let proxy = client.nr_proxy(server.org(), "urn:svc");
    proxy.invoke("work", Value::from(1i64)).unwrap();

    bus.fault_plan().partition(
        &OrgId::new("client"),
        &nonrep::core::b2b_address(server.org()),
    );
    assert!(proxy.invoke("work", Value::from(2i64)).is_err());
    bus.fault_plan().heal(
        &OrgId::new("client"),
        &nonrep::core::b2b_address(server.org()),
    );
    proxy.invoke("work", Value::from(3i64)).unwrap();

    // Two completed exchanges: 8 records each side, chains intact.
    assert_eq!(server.log().len(), 8);
    client.log().verify().unwrap();
    server.log().verify().unwrap();
}

#[test]
fn sharing_round_survives_lossy_links() {
    use std::collections::BTreeSet;
    let bus = LocalBus::with_config(
        FaultPlan::lossy(0.3, 3, 555).with_response_drop_share(0.0),
        LatencyModel::Zero,
        0,
    );
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();
    let a = OrgMiddleware::builder("a", bus.clone(), dir.clone(), clock.clone()).build();
    let b = OrgMiddleware::builder("b", bus.clone(), dir.clone(), clock.clone()).build();
    let c = OrgMiddleware::builder("c", bus.clone(), dir, clock).build();
    let group = GroupId::new("ve");
    let set: BTreeSet<OrgId> = [OrgId::new("a"), OrgId::new("b"), OrgId::new("c")].into();
    for mw in [&a, &b, &c] {
        mw.install_group(group.clone(), set.clone());
    }
    for i in 0..10u8 {
        let out = a.propose_update(&group, "doc", vec![i; 16]).unwrap();
        assert!(out.accepted, "round {i}");
    }
    assert!(bus.stats().dropped > 0);
    for mw in [&a, &b, &c] {
        assert_eq!(mw.store().history("doc").len(), 10);
    }
}

#[test]
fn adjudication_after_interrupted_exchange_favours_the_honest_party() {
    // The response is lost after execution: the client retries and
    // completes; both logs agree. Then the server denies having executed —
    // refuted by the client's verified NRO_resp.
    let bus = LocalBus::with_config(
        FaultPlan::lossy(0.6, 2, 99).with_response_drop_share(1.0),
        LatencyModel::Zero,
        0,
    );
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();
    let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
        .retry(RetryPolicy::new(10))
        .build();
    let server = OrgMiddleware::builder("server", bus, dir.clone(), clock).build();
    deploy_echo(&server);
    let proxy = client.nr_proxy(server.org(), "urn:svc");
    proxy.invoke("work", Value::from(1i64)).unwrap();

    let run = client.log().snapshot_range(0..1)[0].draft.run_id;
    let adjudicator = Adjudicator::new(dir as Arc<dyn KeyDirectory>);
    let verdict = adjudicator.adjudicate_windows(run, &[client.submit_full_window()]);
    assert!(verdict.cannot_deny(&OrgId::new("server"), TokenKind::NroResp));
    assert!(verdict.cannot_deny(&OrgId::new("server"), TokenKind::NrrReq));
}

#[test]
fn fair_exchange_defeats_defecting_server_end_to_end() {
    use nonrep::protocols::invocation::fair_offline::ServerConduct;
    let bus = LocalBus::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();
    let ttp_org = OrgId::new("ttp");
    let client = OrgMiddleware::builder("client", bus.clone(), dir.clone(), clock.clone())
        .domain(TrustDomain::FairOffline {
            ttp: ttp_org.clone(),
        })
        .build();
    let server = OrgMiddleware::builder("server", bus.clone(), dir.clone(), clock.clone())
        .offline_ttp(ttp_org.clone())
        .server_conduct(ServerConduct::WithholdKey)
        .build();
    let ttp = OrgMiddleware::builder("ttp", bus, dir, clock).build();
    ttp.serve_as_offline_ttp();
    deploy_echo(&server);
    // Despite the server withholding the key, the client gets the result
    // (resolved through the TTP).
    let proxy = client.nr_proxy(server.org(), "urn:svc");
    let out = proxy.invoke("work", Value::from(5i64)).unwrap();
    assert_eq!(out, Value::from(5i64));
    // The TTP logged the resolution.
    assert_eq!(ttp.log().count_where(&|r| r.draft.kind == "resolve"), 1);
}
