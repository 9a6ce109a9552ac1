//! Layers with no seam to tap — crypto, codec, the bus hop, the plain
//! container path — are costed by replaying calls to their public
//! functions and timing them. The traced run multiplies these unit
//! costs by exact counts.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nonrep_container::Invocation;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_net::bus::{BusEndpoint, LocalBus, RequestBus};
use nonrep_net::fault::FaultPlan;
use nonrep_net::latency::LatencyModel;
use nonrep_protocols::ProtocolMessage;
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::OrgId;
use nonrep_types::value::Value;

use crate::hist::{median, Histogram};
use crate::run::on_threads;
use crate::stack::{Config, Role, World, METHOD, SERVICE};
use crate::workload::{op_args, Op, OpKind};

/// Unit costs of the signature scheme.
pub struct CryptoCosts {
    pub sign_us: f64,
    pub verify_us: f64,
    pub sig_bytes: f64,
}

const SIGN_CALLS: usize = 400;

/// Replays `KeyPair::sign` and `VerifyingKey::verify` on a fresh key of
/// `scheme`, over token-sized messages. The medians exclude the calls
/// that cross a subtree rollover; [`rollover`] costs those.
pub fn crypto(scheme: SignatureScheme, seed: u64) -> CryptoCosts {
    let keys = KeyPair::generate(scheme, &mut SecureRandom::from_seed(seed ^ 0x5157));
    let key = keys.verifying_key();
    let mut sign = Histogram::new();
    let mut verify = Histogram::new();
    let mut sig_bytes = 0;
    for i in 0..SIGN_CALLS {
        let message = [i as u8; 32];
        let t0 = Instant::now();
        let sig = keys
            .sign(black_box(&message))
            .expect("replay key has capacity");
        sign.record(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let ok = key.verify(black_box(&message), black_box(&sig));
        verify.record(t0.elapsed().as_nanos() as u64);
        assert!(ok, "replayed signature does not verify");
        sig_bytes = sig.byte_len();
    }
    CryptoCosts {
        sign_us: sign.quantile_unchecked_us(0.5),
        verify_us: verify.quantile_unchecked_us(0.5),
        sig_bytes: sig_bytes as f64,
    }
}

/// What the `sign` call that exhausts a subtree and activates the next
/// costs, in ms. A hierarchical key builds its next subtree on a
/// background thread once the active one is half spent, so the cost
/// depends on whether that build is done when the crossing comes.
pub struct RolloverCosts {
    /// Signing back to back: the crossing call waits out the rest of the
    /// build. What an op pays when every core is busy.
    pub saturated_ms: f64,
    /// After a pause long enough for the build to finish: certifying and
    /// activating the new subtree only. What an op pays on an idle core.
    pub settled_ms: f64,
}

/// Replays rollovers on a fresh key of the `hss_durable` shape: the first
/// crossing back to back, two more after a pause. Arbitrated keys never
/// roll; their workloads report these figures of the crypto layer all the
/// same, next to a rollover count of zero.
pub fn rollover(seed: u64) -> RolloverCosts {
    const SETTLE: Duration = Duration::from_millis(100);
    let scheme = Config::HssDurable.scheme();
    let SignatureScheme::Hss { subtree_height, .. } = scheme else {
        unreachable!("hss_durable signs with a hierarchical key");
    };
    let keys = KeyPair::generate(scheme, &mut SecureRandom::from_seed(seed ^ 0x7011));
    let mut crossings = Vec::new();
    for i in 0..=3usize << subtree_height {
        if keys.subtree_remaining() == Some(0) && !crossings.is_empty() {
            std::thread::sleep(SETTLE);
        }
        let before = keys.generation();
        let t0 = Instant::now();
        keys.sign(black_box(&[i as u8; 32]))
            .expect("replay key has capacity");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if keys.generation() != before {
            crossings.push(ms);
        }
    }
    RolloverCosts {
        saturated_ms: crossings.first().copied().unwrap_or(0.0),
        settled_ms: median(crossings.get(1..).unwrap_or(&[])),
    }
}

/// Decode + encode of every captured wire message, plus the invocation
/// and result round trip of every captured invocation op, in µs per op.
/// Each captured message was encoded once by its sender and decoded once
/// by its receiver, which is what one replay pass repeats.
pub fn codec_us_per_op(seed: u64, messages: &[Vec<u8>], ops: &[Op]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let pass = || {
        let t0 = Instant::now();
        for bytes in messages {
            let msg = ProtocolMessage::decode_from_slice(black_box(bytes))
                .expect("captured message decodes");
            black_box(msg.encode_to_vec());
        }
        for op in ops.iter().filter(|op| op.kind != OpKind::Sharing) {
            let args = op_args(seed, op);
            let inv = Invocation::new(Role::Client.org(), SERVICE, METHOD, args.clone());
            let wire = inv.encode_to_vec();
            black_box(Invocation::decode_from_slice(black_box(&wire)).expect("invocation decodes"));
            let result = args.encode_to_vec();
            black_box(Value::decode_from_slice(black_box(&result)).expect("value decodes"));
        }
        t0.elapsed().as_secs_f64() * 1e6 / ops.len() as f64
    };
    let passes: Vec<f64> = (0..5).map(|_| pass()).collect();
    median(&passes)
}

struct NoOp;

impl BusEndpoint for NoOp {
    fn handle_oneway(&self, _: &OrgId, _: &[u8]) -> Result<(), String> {
        Ok(())
    }
    fn handle_request(&self, _: &OrgId, payload: &[u8]) -> Result<Vec<u8>, String> {
        Ok(payload[..payload.len().min(64)].to_vec())
    }
}

const BUS_REQUESTS: usize = 20_000;

/// `LocalBus::request` against a no-op endpoint, from `threads` threads at
/// once so contention on the bus's statistics and latency locks shows;
/// µs per message (a request is two).
pub fn bus_us_per_msg(seed: u64, threads: usize) -> f64 {
    let bus = LocalBus::with_config(FaultPlan::none(), LatencyModel::Lan, seed);
    let to = OrgId::new("sink");
    bus.register(to.clone(), Arc::new(NoOp));
    let payload = vec![b'x'; 1024];
    let per_thread = on_threads(threads, |t| {
        let from = OrgId::new(format!("source-{t}"));
        let t0 = Instant::now();
        for _ in 0..BUS_REQUESTS {
            black_box(
                bus.request(&from, &to, black_box(&payload))
                    .expect("no-op request"),
            );
        }
        t0.elapsed().as_secs_f64() * 1e6 / (2 * BUS_REQUESTS) as f64
    });
    bus.unregister(&to);
    median(&per_thread)
}

const PLAIN_CALLS: u64 = 2000;

/// The paper's Fig 4(a) baseline: the same echo through a plain proxy —
/// container and bus, no evidence. Median µs per call, 1 KiB payload.
pub fn plain_invoke_us(world: &World, seed: u64) -> f64 {
    let proxy = world
        .org(Role::Client)
        .mw
        .plain_proxy(&Role::Server.org(), SERVICE);
    let mut hist = Histogram::new();
    for index in 0..PLAIN_CALLS {
        let args = op_args(
            seed,
            &Op {
                kind: OpKind::Direct,
                size: 1024,
                client: 0xfffd,
                index,
            },
        );
        let t0 = Instant::now();
        let out = proxy.invoke(METHOD, args.clone());
        hist.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(out.ok(), Some(args), "plain echo differs from input");
    }
    hist.quantile_unchecked_us(0.5)
}
