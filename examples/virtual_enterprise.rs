//! The paper's motivating example (Fig 1): a virtual enterprise building a
//! specialist car.
//!
//! Five organisations — a car dealer, a specialist manufacturer and three
//! part suppliers — collaborate:
//!
//! 1. the dealer places a car order with the manufacturer
//!    (NR-invocation);
//! 2. the manufacturer requests quotes from all three suppliers
//!    (NR-invocation);
//! 3. manufacturer + suppliers A and B share the component specification
//!    and negotiate it (NR-sharing with validation, including a veto and a
//!    renegotiation);
//! 4. supplier C is brought into the sharing group later (connect
//!    protocol).
//!
//! The manufacturer — the busiest party — runs its evidence on a
//! **group-commit** file log: epochs of evidence are sealed by one
//! signature and handed to a dedicated sync thread, so its append path
//! never waits on an fsync, and its deployment descriptor *declares*
//! that requirement (`EvidenceDurability::GroupCommit`) so a
//! misconfigured stack refuses to deploy.
//!
//! Run with: `cargo run --example virtual_enterprise`

use std::collections::BTreeSet;
use std::error::Error;
use std::sync::Arc;

use nonrep::prelude::*;

fn org_stack(
    name: &str,
    bus: &Arc<LocalBus>,
    dir: &Arc<StaticKeyDirectory>,
    clock: &LogicalClock,
) -> Arc<OrgMiddleware> {
    OrgMiddleware::builder(name, bus.clone(), dir.clone(), clock.clone()).build()
}

fn main() -> Result<(), Box<dyn Error>> {
    let bus = LocalBus::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();

    let dealer = org_stack("dealer", &bus, &dir, &clock);
    // The manufacturer's evidence goes to a durable, group-committed
    // file log: batched commitments (one signature per sealed epoch,
    // sealed within 500 ms), each sealed epoch enqueued to the log's sync
    // thread instead of fsyncing inline.
    let log_path = std::env::temp_dir().join(format!("nonrep-ve-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let manufacturer_builder =
        OrgMiddleware::builder("manufacturer", bus.clone(), dir.clone(), clock.clone());
    let manufacturer = manufacturer_builder
        .commitment(CommitmentMode::auto(500))
        .evidence_file(&log_path, SyncPolicy::GroupCommit)?
        .build();
    let supplier_a = org_stack("supplier-a", &bus, &dir, &clock);
    let supplier_b = org_stack("supplier-b", &bus, &dir, &clock);
    let supplier_c = org_stack("supplier-c", &bus, &dir, &clock);

    // ---- Services ---------------------------------------------------
    manufacturer.deploy(
        DeploymentDescriptor::new("urn:cars", [MethodName::new("order")]).with_non_repudiation(
            // Declarative: this component requires the async
            // group-commit durability class — deploying it on a
            // middleware without one is a configuration error.
            NrConfig::protocol("direct").with_evidence_durability(EvidenceDurability::GroupCommit),
        ),
        Arc::new(FnComponent::new().method("order", |args| {
            let model = args.get("model").and_then(Value::as_str).unwrap_or("?");
            Ok(Value::map([
                ("order_id", Value::from(1001u64)),
                ("model", Value::from(model)),
                ("status", Value::from("accepted")),
            ]))
        })),
    )?;
    for (mw, base) in [
        (&supplier_a, 700i64),
        (&supplier_b, 850),
        (&supplier_c, 620),
    ] {
        mw.deploy(
            DeploymentDescriptor::new("urn:parts", [MethodName::new("quote")])
                .with_non_repudiation(NrConfig::protocol("direct")),
            Arc::new(FnComponent::new().method("quote", move |args| {
                let part = args.get("part").and_then(Value::as_str).unwrap_or("?");
                Ok(Value::map([
                    ("part", Value::from(part)),
                    ("price", Value::from(base)),
                ]))
            })),
        )?;
    }

    // ---- 1. Dealer orders a car --------------------------------------
    let order = dealer
        .nr_proxy(manufacturer.org(), "urn:cars")
        .invoke("order", Value::map([("model", Value::from("GT-Special"))]))?;
    println!("dealer order: {order}");

    // ---- 2. Manufacturer collects quotes ------------------------------
    for supplier in [&supplier_a, &supplier_b, &supplier_c] {
        let quote = manufacturer
            .nr_proxy(supplier.org(), "urn:parts")
            .invoke("quote", Value::map([("part", Value::from("gearbox"))]))?;
        println!("quote from {}: {quote}", supplier.org());
    }

    // ---- 3. Shared component specification ---------------------------
    let group = GroupId::new("gearbox-spec");
    let members: BTreeSet<OrgId> = [
        manufacturer.org().clone(),
        supplier_a.org().clone(),
        supplier_b.org().clone(),
    ]
    .into();
    for mw in [&manufacturer, &supplier_a, &supplier_b] {
        mw.install_group(group.clone(), members.clone());
    }
    // Supplier B refuses specifications with a delivery time over 90 days.
    supplier_b.add_validator(Arc::new(
        |_obj: &str, _cur: Option<&[u8]>, proposed: &[u8]| {
            let text = String::from_utf8_lossy(proposed);
            if let Some(days) = text
                .split("delivery_days=")
                .nth(1)
                .and_then(|s| s.split(';').next())
                .and_then(|s| s.parse::<u32>().ok())
            {
                if days > 90 {
                    return Err(format!("delivery of {days} days exceeds the 90-day limit"));
                }
            }
            Ok(())
        },
    ));

    // First proposal: too slow — supplier B vetoes.
    let slow = b"part=gearbox;ratio=4.1;delivery_days=120;".to_vec();
    let outcome = manufacturer.propose_update(&group, "spec", slow)?;
    println!("\nproposal 1 accepted: {}", outcome.accepted);
    for vote in &outcome.votes {
        println!(
            "  vote by {:<12} accept={} reason={:?}",
            vote.voter, vote.accept, vote.reason
        );
    }
    assert!(!outcome.accepted);
    assert!(
        manufacturer.current_state("spec").is_none(),
        "veto leaves replicas untouched"
    );

    // Renegotiated proposal: accepted unanimously and applied everywhere.
    let fast = b"part=gearbox;ratio=4.1;delivery_days=60;".to_vec();
    let outcome = manufacturer.propose_update(&group, "spec", fast.clone())?;
    println!("proposal 2 accepted: {}", outcome.accepted);
    assert!(outcome.accepted);
    for mw in [&manufacturer, &supplier_a, &supplier_b] {
        assert_eq!(mw.current_state("spec").unwrap(), fast);
    }

    // ---- 4. Supplier C joins the sharing group ------------------------
    let joined = manufacturer.connect(&group, supplier_c.org())?;
    println!("supplier-c connect accepted: {}", joined.accepted);
    assert!(joined.accepted);
    assert_eq!(manufacturer.group_members(&group)?.len(), 4);
    assert_eq!(supplier_c.group_members(&group)?.len(), 4);

    // Supplier C can immediately propose (and the others validate).
    let outcome = supplier_c.propose_update(
        &group,
        "spec",
        b"part=gearbox;ratio=4.3;delivery_days=45;".to_vec(),
    )?;
    println!("supplier-c proposal accepted: {}", outcome.accepted);
    assert!(outcome.accepted);

    // ---- Audit summary -------------------------------------------------
    // Seal + wait out the manufacturer's device barrier: after this,
    // every record of its history is on stable storage.
    manufacturer.flush_evidence()?;
    println!("\nevidence held:");
    for mw in [
        &dealer,
        &manufacturer,
        &supplier_a,
        &supplier_b,
        &supplier_c,
    ] {
        mw.log().verify()?;
        println!(
            "  {:<12} {:>3} records, {:>6} bytes, chain OK",
            mw.org().to_string(),
            mw.log().len(),
            mw.log().total_bytes()
        );
    }
    // The manufacturer's durable log survives this process: prove it by
    // reopening the file strictly and re-verifying the chain.
    let manufacturer_records = manufacturer.log().len();
    drop(manufacturer);
    let reopened = FileLog::open(&log_path)?;
    assert_eq!(reopened.len(), manufacturer_records);
    reopened
        .verify()
        .map_err(nonrep::store::StoreError::Chain)?;
    println!(
        "\nmanufacturer log reopened from disk: {} records, chain OK",
        reopened.len()
    );
    drop(reopened);
    let _ = std::fs::remove_file(&log_path);
    println!("\nvirtual enterprise scenario complete");
    Ok(())
}
