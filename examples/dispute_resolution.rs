//! Dispute resolution: a cheating organisation is defeated by evidence.
//!
//! Paper §3.1: "the guarantee is that trusted interceptors will support
//! the conclusion of dispute resolution in favour of honest parties."
//!
//! Scenario: a dealer orders a car; later the manufacturer *denies ever
//! receiving the order* and submits a doctored evidence window. Both
//! organisations run the **batched commitment pipeline** (one signature
//! seals a whole epoch of evidence) and submit `snapshot_range` *windows*
//! plus their chain heads — never a clone of the full log. The
//! adjudicator (i) catches the tampering via the chain and the epoch's
//! batch proof, and (ii) establishes the manufacturer's receipt from the
//! dealer's window alone.
//!
//! Run with: `cargo run --example dispute_resolution`

use std::error::Error;
use std::sync::Arc;

use nonrep::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    let bus = LocalBus::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let clock = LogicalClock::new();
    // Both organisations batch their evidence: one MSS signature per
    // sealed epoch instead of one per record.
    let dealer = OrgMiddleware::builder("dealer", bus.clone(), dir.clone(), clock.clone())
        .commitment(CommitmentMode::auto(500))
        .build();
    let manufacturer = OrgMiddleware::builder("manufacturer", bus, dir.clone(), clock)
        .commitment(CommitmentMode::auto(500))
        .build();

    manufacturer.deploy(
        DeploymentDescriptor::new("urn:cars", [MethodName::new("order")])
            .with_non_repudiation(NrConfig::protocol("direct")),
        Arc::new(FnComponent::new().method("order", |_args| {
            Ok(Value::map([("status", Value::from("accepted"))]))
        })),
    )?;

    // Some ordinary business before and after the disputed order, so the
    // manufacturer's log has history around it (erasing the middle of a
    // hash chain is detectable; truncating the very end would not be —
    // which is exactly why windows carry the chain head and are
    // cross-checked against counterparties).
    let proxy = dealer.nr_proxy(manufacturer.org(), "urn:cars");
    proxy.invoke("order", Value::map([("model", Value::from("Roadster"))]))?;

    // The interaction that will later be disputed.
    let order = proxy.invoke("order", Value::map([("model", Value::from("GT-Special"))]))?;
    println!("order placed: {order}");
    let run_id = dealer.log().snapshot_range(5..6)[0].draft.run_id;

    // Later business.
    proxy.invoke("order", Value::map([("model", Value::from("Estate"))]))?;

    // Seal any pending evidence so every record is covered by an epoch
    // commitment (a batch proof) before submission.
    dealer.flush_evidence()?;
    manufacturer.flush_evidence()?;

    // --- The dispute -----------------------------------------------------
    // Each side submits a *window* of its log plus its chain head — the
    // epoch-commitment records inside the window are the batch proofs.
    // The manufacturer doctors its window to erase the order: it drops
    // the records of this run before submitting.
    let honest = manufacturer.submit_full_window();
    let doctored = WindowSubmission {
        submitter: OrgId::new("manufacturer"),
        records: honest
            .records
            .iter()
            .filter(|r| r.draft.run_id != run_id)
            .cloned()
            .collect(),
        ..honest
    };
    println!(
        "\nmanufacturer submits a doctored window ({} of {} records)",
        doctored.records.len(),
        manufacturer.log().len()
    );

    let adjudicator = Adjudicator::new(dir as Arc<dyn KeyDirectory>);
    let verdict = adjudicator.adjudicate_windows(run_id, &[dealer.submit_full_window(), doctored]);
    println!("{verdict}");

    // 1. The doctored window fails verification: the chain has gaps and
    //    the sealed epoch's batch proof no longer covers its records.
    assert_eq!(
        verdict.suspect_submitters(),
        vec![OrgId::new("manufacturer")]
    );
    println!("=> the manufacturer's submission is flagged as tampered");

    // 2. The dealer's window alone proves the manufacturer's signed
    //    receipt: the denial is refuted.
    assert!(verdict.cannot_deny(&OrgId::new("manufacturer"), TokenKind::NrrReq));
    assert!(verdict.cannot_deny(&OrgId::new("manufacturer"), TokenKind::NroResp));
    println!("=> the manufacturer cannot deny receiving the order (NRR_req verified)");
    println!("=> the manufacturer cannot deny producing the response (NRO_resp verified)");

    // 3. Symmetrically, the dealer cannot deny having placed the order.
    assert!(verdict.cannot_deny(&OrgId::new("dealer"), TokenKind::NroReq));
    println!("=> the dealer cannot deny having placed the order (NRO_req verified)");

    println!("\ndispute resolved in favour of the honest party");
    Ok(())
}
