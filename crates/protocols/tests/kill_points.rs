//! The crash kill-point matrix: a journalled party killed at every
//! choreography step of every variant either **resumes to the same
//! facts** as an uninterrupted run or **aborts safely**, and no kill
//! point ever manufactures an accusation against an honest peer.
//!
//! "Kill" means the driving code stops mid-choreography (the session is
//! dropped); the party's evidence log — progress markers included —
//! survives, exactly as a durable log would across a process crash.
//! "Recovery" reads the log's open runs with
//! [`RunJournal::recovered_open_runs`] and acts on what it finds. Each
//! row runs on the party that never stopped; the `_after_a_reopen` rows
//! rebuild the party over its reopened `FileLog` (same keys, fresh
//! journal), so the open runs come from the build's one pass over the
//! file:
//!
//! - last completed step < the variant's commitment point → the run is
//!   re-driven from the top (server caches make redelivery idempotent)
//!   or aborted, whichever the recovering party prefers — both are safe
//!   because nothing irrevocable happened yet;
//! - last completed step ≥ the final wire step → the run is materially
//!   complete, recovery just closes and seals it;
//! - a fair *server* recovering with an open receipt window escalates
//!   to the TTP's abort choreography, which is safe precisely because
//!   the receipt never arrived.

use std::path::PathBuf;
use std::sync::Arc;

use nonrep_crypto::digest::sha256;
use nonrep_crypto::rng::SecureRandom;
use nonrep_net::bus::LocalBus;
use nonrep_net::retry::{ReliableRequester, RetryPolicy};
use nonrep_protocols::invocation::direct::{DirectChoreography, DirectClient, DirectServerHandler};
use nonrep_protocols::invocation::fair_offline::{
    FairChoreography, FairClient, FairServerHandler, FairServerRuntime, FairStep2, KeySource,
    OfflineTtpHandler, ResolveChoreography, ServerConduct, STEP_KEY, STEP_RECEIPT, STEP_RESOLVE,
};
use nonrep_protocols::invocation::inline_ttp::{
    InlineChoreography, InlineStep1, InlineTtpClient, InlineTtpHandler,
};
use nonrep_protocols::invocation::voluntary::{
    VoluntaryChoreography, VoluntaryClient, VoluntaryServerHandler,
};
use nonrep_protocols::invocation::{direct, voluntary, ServerResponse};
use nonrep_protocols::party::{Party, StaticKeyDirectory};
use nonrep_protocols::session::{Branch, Client, Session};
use nonrep_protocols::tokens::TokenKind;
use nonrep_protocols::{
    B2BCoordinator, EscalationOutcome, ExchangeSupervisor, RunJournal, TokenSpec,
};
use nonrep_store::{FileLog, MarkerPhase, SyncPolicy};
use nonrep_types::codec::Encode;
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

/// Where a row's recovering party reads its log back from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Restart {
    /// The party that never stopped, over a memory log.
    Live,
    /// A party rebuilt over its reopened write-through `FileLog`.
    Reopen,
}

/// One process-wide fixture: client, server and TTP parties wired over
/// a local bus, with every variant's server handler registered and a
/// journal on the client party.
struct World {
    clock: LogicalClock,
    dir: Arc<StaticKeyDirectory>,
    /// The client's and the server's log files (`Restart::Reopen` only).
    files: Option<(PathBuf, PathBuf)>,
    client_party: Arc<Party>,
    server_party: Arc<Party>,
    client_coord: Arc<B2BCoordinator>,
    server_coord: Arc<B2BCoordinator>,
    journal: Arc<RunJournal>,
    server_journal: Arc<RunJournal>,
    fair_server: Arc<FairServerHandler>,
    ttp_party: Arc<Party>,
    supervisor: Arc<ExchangeSupervisor>,
    server: OrgId,
    ttp: OrgId,
}

const RECEIPT_WINDOW_MS: u64 = 200;

fn echo() -> Arc<dyn nonrep_protocols::invocation::RequestExecutor> {
    Arc::new(|_: &OrgId, req: &[u8]| Ok([b"res:".as_slice(), req].concat()))
}

/// `Party::quick`'s party, over a write-through `FileLog` at `file`.
fn durable_party(
    org: &str,
    seed: u64,
    clock: &LogicalClock,
    dir: &Arc<StaticKeyDirectory>,
    file: &PathBuf,
) -> Arc<Party> {
    let _ = std::fs::remove_file(file);
    let keys = Party::quick(org, seed, clock, dir).keys().clone();
    Party::new(
        org,
        keys,
        Arc::new(clock.clone()),
        Arc::new(FileLog::open(file).unwrap()),
        dir.clone(),
        SecureRandom::from_seed(seed),
    )
}

fn world() -> World {
    world_with(Restart::Live, "")
}

/// A world whose client and server logs are files named after `row`
/// under `Restart::Reopen`.
fn world_with(restart: Restart, row: &str) -> World {
    let bus = LocalBus::new();
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let files = (restart == Restart::Reopen).then(|| {
        let file = |org: &str| {
            std::env::temp_dir().join(format!(
                "nonrep-kill-{row}-{org}-{}.log",
                std::process::id()
            ))
        };
        (file("client"), file("server"))
    });
    let (client_party, server_party) = match &files {
        Some((client, server)) => (
            durable_party("client", 1, &clock, &dir, client),
            durable_party("server", 2, &clock, &dir, server),
        ),
        None => (
            Party::quick("client", 1, &clock, &dir),
            Party::quick("server", 2, &clock, &dir),
        ),
    };
    let ttp_party = Party::quick("ttp", 3, &clock, &dir);
    let supervisor = ExchangeSupervisor::new(Arc::new(clock.clone()));

    let mk = |org: &str| {
        let c = B2BCoordinator::new(
            org,
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        bus.register(OrgId::new(org), c.clone());
        c
    };
    let client_coord = mk("client");
    let server_coord = mk("server");
    let ttp_coord = mk("ttp");

    server_coord.register_handler(DirectServerHandler::new(server_party.clone(), echo()));
    server_coord.register_handler(VoluntaryServerHandler::new(server_party.clone(), echo()));
    let server_journal = RunJournal::new(server_party.clone());
    let fair_server = FairServerHandler::with_runtime(
        server_party.clone(),
        server_coord.clone(),
        echo(),
        OrgId::new("ttp"),
        ServerConduct::Honest,
        FairServerRuntime {
            supervision: Some((supervisor.clone(), RECEIPT_WINDOW_MS)),
            journal: Some(server_journal.clone()),
        },
    );
    server_coord.register_handler(fair_server.clone());
    ttp_coord.register_handler(OfflineTtpHandler::new(ttp_party.clone()));
    ttp_coord.register_handler(InlineTtpHandler::terminal(
        ttp_party.clone(),
        ttp_coord.clone(),
    ));

    let journal = RunJournal::new(client_party.clone());
    World {
        clock,
        dir,
        files,
        client_party,
        server_party,
        client_coord,
        server_coord,
        journal,
        server_journal,
        fair_server,
        ttp_party,
        supervisor,
        server: OrgId::new("server"),
        ttp: OrgId::new("ttp"),
    }
}

impl World {
    fn direct_client(&self) -> DirectClient {
        DirectClient::new(self.client_party.clone(), self.client_coord.clone())
            .with_journal(self.journal.clone())
    }

    fn voluntary_client(&self) -> VoluntaryClient {
        VoluntaryClient::new(self.client_party.clone(), self.client_coord.clone())
            .with_journal(self.journal.clone())
    }

    fn inline_client(&self) -> InlineTtpClient {
        InlineTtpClient::new(
            self.client_party.clone(),
            self.client_coord.clone(),
            self.ttp.clone(),
        )
        .with_journal(self.journal.clone())
    }

    fn fair_client(&self) -> FairClient {
        FairClient::new(
            self.client_party.clone(),
            self.client_coord.clone(),
            self.ttp.clone(),
        )
        .with_journal(self.journal.clone())
    }

    /// The single open run the client journal reports, asserting there
    /// is exactly one.
    fn sole_open_run(&self) -> nonrep_protocols::OpenRun {
        sole_open_run(&self.journal)
    }

    /// `party` as recovery finds it after the kill: the live party and
    /// `journal`, or, under `Restart::Reopen`, a party rebuilt over its
    /// reopened `file` with the same keys and a fresh journal.
    fn recover(
        &self,
        party: &Arc<Party>,
        journal: &Arc<RunJournal>,
        file: Option<&PathBuf>,
    ) -> (Arc<Party>, Arc<RunJournal>) {
        let Some(file) = file else {
            return (party.clone(), journal.clone());
        };
        let log = FileLog::open_recover_with(file, SyncPolicy::WriteThrough).unwrap();
        let party = Party::new(
            party.org().as_str(),
            party.keys().clone(),
            party.clock().clone(),
            Arc::new(log),
            self.dir.clone(),
            SecureRandom::from_seed(99),
        );
        let journal = RunJournal::new(party.clone());
        (party, journal)
    }

    fn recovered_client(&self) -> (Arc<Party>, Arc<RunJournal>) {
        let file = self.files.as_ref().map(|(client, _)| client);
        self.recover(&self.client_party, &self.journal, file)
    }

    fn recovered_server(&self) -> (Arc<Party>, Arc<RunJournal>) {
        let file = self.files.as_ref().map(|(_, server)| server);
        self.recover(&self.server_party, &self.server_journal, file)
    }

    /// `true` if the TTP's own log holds a `kind` token it issued for
    /// `run` — the evidence of an abort or resolve, not the TTP's memory.
    fn ttp_logged(&self, run: RunId, kind: TokenKind) -> bool {
        self.ttp_party
            .log()
            .by_run(&run)
            .iter()
            .any(|r| r.draft.kind == kind.label() && r.draft.actor == self.ttp)
    }

    fn assert_recovered_clean(&self) {
        assert_recovered_clean(&self.client_party, &self.journal);
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some((client, server)) = &self.files {
            let _ = std::fs::remove_file(client);
            let _ = std::fs::remove_file(server);
        }
    }
}

/// The single open run `journal` reports, asserting there is exactly one.
fn sole_open_run(journal: &RunJournal) -> nonrep_protocols::OpenRun {
    let open = journal.recovered_open_runs();
    assert_eq!(open.len(), 1, "exactly one in-flight run expected");
    open.into_iter().next().unwrap()
}

fn assert_recovered_clean(party: &Party, journal: &RunJournal) {
    assert!(
        journal.recovered_open_runs().is_empty(),
        "recovery must leave no open runs"
    );
    party.log().verify().unwrap();
}

// ---------------------------------------------------------------- direct

#[test]
fn direct_killed_after_step1_resumes_to_the_same_facts() {
    direct_killed_after_step1(Restart::Live);
}

#[test]
fn direct_killed_after_step1_resumes_after_a_reopen() {
    direct_killed_after_step1(Restart::Reopen);
}

fn direct_killed_after_step1(restart: Restart) {
    let w = world_with(restart, "direct-step1");
    let client = w.direct_client();
    // Control: an uninterrupted run.
    let control = client
        .invoke_with(w.client_party.new_run_id(), &w.server, b"req".to_vec())
        .unwrap();

    // Crash run: the step-1/2 round completes, then the process dies
    // before the receipt is sent.
    let run = w.client_party.new_run_id();
    let engine = client.engine();
    let session = engine.session::<Client, DirectChoreography>(run);
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, sha256(b"req"));
    let (_msg2, session) = session
        .call(&w.server, b"req".to_vec(), &[nro_req])
        .unwrap();
    drop(session); // crash

    // Recovery: the journal shows the run open at step 1; before the
    // receipt is committed a re-drive is safe — the server's run cache
    // replays step 2 instead of re-executing.
    let (party, journal) = w.recovered_client();
    let open = sole_open_run(&journal);
    assert_eq!(open.run, run);
    assert_eq!(open.last_step, 1);
    assert_eq!(open.variant.as_str(), direct::PROTOCOL_ID);
    let client =
        DirectClient::new(party.clone(), w.client_coord.clone()).with_journal(journal.clone());
    let recovered = client.invoke_with(run, &w.server, b"req".to_vec()).unwrap();
    assert_eq!(recovered.response, control.response);
    assert_eq!(recovered.nrr_req.kind, TokenKind::NrrReq);
    assert!(recovered.receipt_acked);
    assert_recovered_clean(&party, &journal);
}

#[test]
fn direct_killed_after_step3_closes_on_recovery() {
    let w = world();
    let client = w.direct_client();
    let run = w.client_party.new_run_id();
    let engine = client.engine();
    let session = engine.session::<Client, DirectChoreography>(run);
    let req_digest = sha256(b"req");
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, req_digest);
    let (msg2, session) = session
        .call(&w.server, b"req".to_vec(), &[nro_req])
        .unwrap();
    let response: ServerResponse = engine.decode_body(&msg2.body).unwrap();
    let resp_digest = sha256(&response.encode_to_vec());
    engine
        .party()
        .absorb_carried(
            &msg2,
            [
                (TokenKind::NrrReq, req_digest),
                (TokenKind::NroResp, resp_digest),
            ],
        )
        .unwrap();
    let nrr_resp = TokenSpec::new(TokenKind::NrrResp, run, resp_digest);
    let (_acked, session) = session
        .call_lossy(&w.server, Vec::new(), &[nrr_resp])
        .unwrap();
    drop(session); // crash before the seal

    // Recovery: the final wire step completed — the evidence set is
    // whole, the run just closes.
    let open = w.sole_open_run();
    assert_eq!(open.last_step, 3);
    client
        .engine()
        .journal(run, 3, MarkerPhase::Closed)
        .unwrap();
    w.assert_recovered_clean();
    // The server saw the receipt: no party has grounds to accuse.
    assert!(w
        .server_party
        .log()
        .by_run(&run)
        .iter()
        .any(|r| r.draft.kind == TokenKind::NrrResp.label()));
}

// ------------------------------------------------------------- voluntary

#[test]
fn voluntary_killed_after_its_single_round_closes_on_recovery() {
    let w = world();
    let client = w.voluntary_client();
    let run = w.client_party.new_run_id();
    let engine = client.engine();
    let session = engine.session::<Client, VoluntaryChoreography>(run);
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, sha256(b"req"));
    let (_msg2, session) = session
        .call_open(&w.server, b"req".to_vec(), &[nro_req])
        .unwrap();
    drop(session); // crash before the seal

    let open = w.sole_open_run();
    assert_eq!(open.last_step, 1);
    assert_eq!(open.variant.as_str(), voluntary::PROTOCOL_ID);
    client
        .engine()
        .journal(run, 1, MarkerPhase::Closed)
        .unwrap();
    w.assert_recovered_clean();
}

#[test]
fn voluntary_killed_before_any_step_leaves_nothing_behind() {
    // The degenerate kill point: the process died before any wire step
    // completed. No journal entry, no open run, nothing to recover.
    let w = world();
    let client = w.voluntary_client();
    let run = w.client_party.new_run_id();
    let engine = client.engine();
    let session = engine.session::<Client, VoluntaryChoreography>(run);
    // The step-1 frame is signed, and its NRO_req logged, but never sent.
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, sha256(b"req"));
    let _frame = engine
        .request_frame(run, 1, b"req".to_vec(), &[nro_req])
        .unwrap();
    drop(session); // crash before step 1 even went out
    assert!(w.journal.recovered_open_runs().is_empty());
    // The issued token is still in the tamper-evident log — a dangling
    // NRO_req accuses nobody.
    w.client_party.log().verify().unwrap();
}

// ------------------------------------------------------------ inline TTP

#[test]
fn inline_killed_after_its_relayed_round_closes_on_recovery() {
    let w = world();
    let client = w.inline_client();
    let run = w.client_party.new_run_id();
    let engine = client.engine();
    let session = engine.session::<Client, InlineChoreography>(run);
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, sha256(b"req"));
    let step1 = InlineStep1 {
        server: w.server.clone(),
        request: b"req".to_vec(),
    };
    let (_msg2, session) = session
        .call_relayed(&w.ttp, step1.encode_to_vec(), &[nro_req])
        .unwrap();
    drop(session); // crash before the seal

    let open = w.sole_open_run();
    assert_eq!(open.last_step, 1);
    client
        .engine()
        .journal(run, 1, MarkerPhase::Closed)
        .unwrap();
    w.assert_recovered_clean();
}

// ---------------------------------------------------------- fair client

#[test]
fn fair_client_killed_before_receipt_aborts_with_no_accusation() {
    fair_client_killed_before_receipt(Restart::Live);
}

#[test]
fn fair_client_killed_before_receipt_aborts_after_a_reopen() {
    fair_client_killed_before_receipt(Restart::Reopen);
}

fn fair_client_killed_before_receipt(restart: Restart) {
    // Killed after the step-1/2 round but before committing the
    // receipt: the commitment point was never crossed, so recovery
    // declines to resume and closes the run. Nobody can be accused —
    // and the *server's* supervisor independently reclaims its side.
    let w = world_with(restart, "fair-client");
    let client = w.fair_client();
    let run = w.client_party.new_run_id();
    // invoke_stalling is exactly "drive to step 2 and die".
    client
        .invoke_stalling(run, &w.server, b"req".to_vec())
        .unwrap();

    let (party, journal) = w.recovered_client();
    let open = sole_open_run(&journal);
    assert_eq!(open.run, run);
    assert_eq!(open.last_step, 1);
    let client = FairClient::new(party.clone(), w.client_coord.clone(), w.ttp.clone())
        .with_journal(journal.clone());
    client
        .engine()
        .journal(run, STEP_RECEIPT, MarkerPhase::Aborted)
        .unwrap();
    assert_recovered_clean(&party, &journal);

    // The server's receipt window expires; its supervisor aborts at the
    // TTP. No NRR_resp ever reached it, so no false accusation arises.
    w.clock.advance(RECEIPT_WINDOW_MS);
    let reports = w.supervisor.sweep();
    assert_eq!(reports.len(), 1);
    assert!(w.ttp_logged(run, TokenKind::Abort));
    let server_records = w.server_party.log().by_run(&run);
    assert!(!server_records.iter().any(
        |r| r.draft.kind == TokenKind::NrrResp.label() && r.draft.actor == OrgId::new("client")
    ));
}

#[test]
fn fair_client_killed_after_key_arrival_closes_on_recovery() {
    let w = world();
    let client = w.fair_client();
    let run = w.client_party.new_run_id();
    let engine = client.engine();
    let session = engine.session::<Client, FairChoreography>(run);
    let req_digest = sha256(b"req");
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, req_digest);
    let (msg2, session) = session
        .call(&w.server, b"req".to_vec(), &[nro_req])
        .unwrap();
    let step2: FairStep2 = engine.decode_body(&msg2.body).unwrap();
    engine
        .party()
        .absorb_carried(
            &msg2,
            [
                (TokenKind::NrrReq, req_digest),
                (TokenKind::NroResp, step2.resp_digest),
            ],
        )
        .unwrap();
    let nrr_resp = TokenSpec::new(TokenKind::NrrResp, run, step2.resp_digest);
    let branch: Branch<Client, _, _> = session
        .call_or(&w.server, Vec::new(), &[nrr_resp], |m| m.body.len() == 32)
        .unwrap();
    let session: Session<Client, nonrep_protocols::session::End> = match branch {
        Branch::Primary(_msg4, s) => s,
        Branch::Diverted(..) => panic!("honest server must deliver the key"),
    };
    drop(session); // crash after the key arrived, before the seal

    let open = w.sole_open_run();
    assert_eq!(open.last_step, STEP_RECEIPT);
    client
        .engine()
        .journal(run, STEP_KEY, MarkerPhase::Closed)
        .unwrap();
    w.assert_recovered_clean();
    // Both items changed hands before the kill: receipt at the server,
    // key at the client — fairness held through the crash.
    assert!(w.fair_server.receipt_received(&run));
}

#[test]
fn fair_client_killed_mid_resolve_still_holds_the_conviction() {
    // Crash inside the dispute sub-protocol, after the TTP answered but
    // before the seal: the Decision token is already in the log, so
    // recovery closes the run and the conviction survives.
    let w = world();
    // A second, defecting fair server on its own org.
    let bus_server = {
        let dir_entry = w.client_party.key_of(&w.server).is_ok();
        assert!(dir_entry);
        &w.server
    };
    let _ = bus_server;
    let w2 = {
        // Rebuild a world whose fair server withholds the key.
        let bus = LocalBus::new();
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let client_party = Party::quick("client", 1, &clock, &dir);
        let server_party = Party::quick("server", 2, &clock, &dir);
        let ttp_party = Party::quick("ttp", 3, &clock, &dir);
        let mk = |org: &str| {
            let c = B2BCoordinator::new(
                org,
                ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
            );
            bus.register(OrgId::new(org), c.clone());
            c
        };
        let client_coord = mk("client");
        let server_coord = mk("server");
        let ttp_coord = mk("ttp");
        server_coord.register_handler(FairServerHandler::with_runtime(
            server_party.clone(),
            server_coord.clone(),
            Arc::new(|_: &OrgId, req: &[u8]| Ok([b"res:".as_slice(), req].concat())),
            OrgId::new("ttp"),
            ServerConduct::WithholdKey,
            FairServerRuntime::default(),
        ));
        let ttp_handler = OfflineTtpHandler::new(ttp_party);
        ttp_coord.register_handler(ttp_handler);
        let journal = RunJournal::new(client_party.clone());
        (
            FairClient::new(client_party.clone(), client_coord, OrgId::new("ttp"))
                .with_journal(journal.clone()),
            client_party,
            journal,
            server_party,
        )
    };
    let (client, client_party, journal, _server_party) = w2;

    let run = client_party.new_run_id();
    let engine = client.engine();
    let session = engine.session::<Client, FairChoreography>(run);
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, sha256(b"req"));
    let (msg2, session) = session
        .call(&OrgId::new("server"), b"req".to_vec(), &[nro_req])
        .unwrap();
    let step2: FairStep2 = engine.decode_body(&msg2.body).unwrap();
    let nrr_resp = TokenSpec::new(TokenKind::NrrResp, run, step2.resp_digest);
    // The withholding server answers step 3 with a useless frame → the
    // session diverts into the dispute sub-protocol.
    let branch: Branch<Client, _, _> = session
        .call_or(&OrgId::new("server"), Vec::new(), &[nrr_resp], |m| {
            m.body.len() == 32
        })
        .unwrap();
    let (sent, dispute): (_, Session<Client, ResolveChoreography>) = match branch {
        Branch::Diverted(sent, d) => (sent, d),
        Branch::Primary(..) => panic!("withholding server must not deliver the key"),
    };
    let (_reply, session) = dispute
        .call_open(&OrgId::new("ttp"), sent[0].encode_to_vec(), &[])
        .unwrap();
    drop(session); // crash after the TTP resolved, before the seal

    let open = journal.recovered_open_runs();
    assert_eq!(open.len(), 1);
    assert_eq!(open[0].last_step, STEP_RESOLVE);
    engine
        .journal(run, STEP_RESOLVE, MarkerPhase::Closed)
        .unwrap();
    assert!(journal.recovered_open_runs().is_empty());
    client_party.log().verify().unwrap();
}

// ---------------------------------------------------------- fair server

#[test]
fn fair_server_recovering_an_open_receipt_window_aborts_safely() {
    fair_server_recovering_an_open_receipt_window(Restart::Live);
}

#[test]
fn fair_server_recovering_an_open_receipt_window_aborts_after_a_reopen() {
    fair_server_recovering_an_open_receipt_window(Restart::Reopen);
}

fn fair_server_recovering_an_open_receipt_window(restart: Restart) {
    // The server crashes after step 2 went out (receipt window open,
    // supervisor state lost with the process). On reopen its journal
    // shows the run in flight; recovery escalates to the TTP's abort
    // choreography rather than waiting on a receipt that may never
    // come — safe, because the receipt never arrived.
    let w = world_with(restart, "fair-server");
    let client = w.fair_client();
    let run = w.client_party.new_run_id();
    client
        .invoke_stalling(run, &w.server, b"req".to_vec())
        .unwrap();

    let (party, journal) = w.recovered_server();
    let open = sole_open_run(&journal);
    assert_eq!(open.run, run);
    // The key escrow (sub-protocol step 10) is its deepest step.
    assert_eq!(open.last_step, 10);
    // Recovery action: abort at the TTP (its `Aborted` mark closes
    // the server's journal entry and seals).
    let server = match restart {
        Restart::Live => w.fair_server.clone(),
        Restart::Reopen => FairServerHandler::with_runtime(
            party.clone(),
            w.server_coord.clone(),
            echo(),
            w.ttp.clone(),
            ServerConduct::Honest,
            FairServerRuntime {
                supervision: None,
                journal: Some(journal.clone()),
            },
        ),
    };
    server.abort(run).unwrap();
    assert!(w.ttp_logged(run, TokenKind::Abort));
    assert_recovered_clean(&party, &journal);

    // No false accusation: Abort present, client NRR_resp absent.
    let records = party.log().by_run(&run);
    assert!(records
        .iter()
        .any(|r| r.draft.kind == TokenKind::Abort.label()));
    assert!(!records.iter().any(
        |r| r.draft.kind == TokenKind::NrrResp.label() && r.draft.actor == OrgId::new("client")
    ));
}

#[test]
fn fair_server_whose_receipt_was_lost_closes_on_the_ttp_answer() {
    // The step-3 frame never reaches the server; the client resolves at
    // the TTP instead. The server's timeout abort is answered with the
    // client's receipt: the run closes in the server's journal, with the
    // receipt in its log and nothing aborted.
    let w = world();
    let client = w.fair_client();
    let run = w.client_party.new_run_id();
    let engine = client.engine();
    let nro_req = TokenSpec::new(TokenKind::NroReq, run, sha256(b"req"));
    let (msg2, _lost) = engine
        .session::<Client, FairChoreography>(run)
        .call(&w.server, b"req".to_vec(), &[nro_req])
        .unwrap();
    let step2: FairStep2 = engine.decode_body(&msg2.body).unwrap();
    let nrr_resp = w
        .client_party
        .issue_token(TokenKind::NrrResp, run, step2.resp_digest)
        .unwrap();
    engine
        .session::<Client, ResolveChoreography>(run)
        .call_open(&w.ttp, nrr_resp.encode_to_vec(), &[])
        .unwrap();
    assert_eq!(w.server_journal.recovered_open_runs().len(), 1);

    w.clock.advance(RECEIPT_WINDOW_MS);
    let reports = w.supervisor.sweep();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, EscalationOutcome::AlreadyComplete);
    assert!(w.fair_server.receipt_received(&run));
    assert!(w.server_journal.recovered_open_runs().is_empty());
    assert!(!w.ttp_logged(run, TokenKind::Abort));
    w.server_party.log().verify().unwrap();
}

#[test]
fn fair_recovery_composes_with_a_full_honest_rerun() {
    // After a crash-and-abort cycle the parties are not poisoned: a
    // fresh run between the same parties completes normally.
    let w = world();
    let client = w.fair_client();
    let crashed = w.client_party.new_run_id();
    client
        .invoke_stalling(crashed, &w.server, b"req".to_vec())
        .unwrap();
    client
        .engine()
        .journal(crashed, STEP_RECEIPT, MarkerPhase::Aborted)
        .unwrap();
    w.clock.advance(RECEIPT_WINDOW_MS);
    assert_eq!(w.supervisor.sweep().len(), 1);

    let out = client
        .invoke_with(w.client_party.new_run_id(), &w.server, b"again".to_vec())
        .unwrap();
    assert_eq!(out.key_source, KeySource::Server);
    w.assert_recovered_clean();
}

#[test]
fn all_variant_traces_have_kill_coverage() {
    // Structural guard: the matrix above kills at every wire step the
    // four client choreographies can take. If a choreography grows a
    // step, this inventory breaks before the matrix silently thins.
    use nonrep_protocols::session::State;
    let step_counts: Vec<usize> = DirectChoreography::traces()
        .iter()
        .chain(VoluntaryChoreography::traces().iter())
        .chain(InlineChoreography::traces().iter())
        .chain(FairChoreography::traces().iter())
        .map(Vec::len)
        .collect();
    // direct: one 2-step trace; voluntary/inline: one 1-step trace
    // each; fair: the 2-step primary and 3-step dispute traces.
    assert_eq!(step_counts, vec![2, 1, 1, 2, 3]);
}
