//! Shard workers: each owns a disjoint set of tenant sessions and a
//! bounded op inbox.
//!
//! Tenants are assigned to shards by an FNV-1a hash of the tenant id
//! ([`shard_of`]) — fixed hash-sharding, so a tenant's ops always land
//! on the same worker and sessions never migrate. Because every
//! tenant's [`StreamSession`] is fully isolated (estimators are pure
//! functions of their own stream), the rows a tenant receives are
//! bit-identical for **any** shard count; sharding buys parallelism,
//! never a different answer.
//!
//! Ops are tagged with the admission generation of the connection that
//! produced them: a stale op (from a connection that hung up and whose
//! tenant already reconnected) is ignored instead of corrupting the
//! surviving session.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};

use gdp_experiments::{session_state_key, ExperimentConfig, StreamSession, Technique};
use gdp_telemetry::log_info;
use gdp_trace::{TraceCache, TraceInterval};

use crate::proto::{encode_server, ServerMsg};
use crate::server::ServeMetrics;
use crate::transport::ConnWrite;

/// Map a tenant id to its shard: FNV-1a over the id's little-endian
/// bytes, reduced mod `shards`. Stable across runs and platforms.
pub fn shard_of(tenant: u64, shards: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in tenant.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % shards.max(1) as u64) as usize
}

/// One operation on a shard's inbox. Every tenant-scoped op carries the
/// admission generation that produced it (see the module docs).
pub enum ShardOp {
    /// Admit a tenant: build (or restore) its session and send
    /// [`ServerMsg::Welcome`] down `tx`.
    Admit {
        /// Tenant id.
        tenant: u64,
        /// Admission generation.
        gen: u64,
        /// Validated technique set.
        techniques: Vec<Technique>,
        /// The connection's sending half (owned by the shard from now
        /// on).
        tx: Box<dyn ConnWrite>,
    },
    /// Feed one interval and stream the estimate row back.
    Interval {
        /// Tenant id.
        tenant: u64,
        /// Admission generation.
        gen: u64,
        /// The decoded interval.
        iv: TraceInterval,
    },
    /// Clean end of stream: discard any snapshot, release, acknowledge.
    Finish {
        /// Tenant id.
        tenant: u64,
        /// Admission generation.
        gen: u64,
    },
    /// The tenant's reader failed (corrupt frame, protocol violation):
    /// report the typed error, suspend, release.
    Fail {
        /// Tenant id.
        tenant: u64,
        /// Admission generation.
        gen: u64,
        /// Human-readable failure (sent as [`ServerMsg::Error`]).
        msg: String,
    },
    /// The connection ended without [`ShardOp::Finish`]: suspend the
    /// session to disk (if snapshots are configured) and release.
    Hangup {
        /// Tenant id.
        tenant: u64,
        /// Admission generation.
        gen: u64,
    },
    /// Graceful drain: suspend every remaining session and exit.
    Drain,
}

/// State shared by every shard worker.
pub struct ShardCtx {
    /// The one experiment configuration this server serves.
    pub xcfg: ExperimentConfig,
    /// Snapshot store for suspended tenants (`None`: evicted sessions
    /// are dropped and reconnects start fresh).
    pub snapshots: Option<TraceCache>,
    /// Global admission table: tenant → current generation. Shards
    /// release slots here after suspend/finish, so a tenant can
    /// reconnect the moment its old session is safely on disk.
    pub admission: Mutex<HashMap<u64, u64>>,
    /// Resolved `serve.*` telemetry handles.
    pub metrics: Option<ServeMetrics>,
}

impl ShardCtx {
    /// Release `tenant`'s admission slot if it still belongs to `gen`.
    pub fn release(&self, tenant: u64, gen: u64) {
        let mut adm = self.admission.lock().expect("admission lock");
        if adm.get(&tenant) == Some(&gen) {
            adm.remove(&tenant);
            if let Some(mx) = &self.metrics {
                mx.active.set(adm.len() as u64);
            }
        }
    }
}

/// One tenant's serving state inside a shard.
struct Tenant {
    gen: u64,
    techniques: Vec<Technique>,
    session: StreamSession,
    tx: Box<dyn ConnWrite>,
}

impl ShardOp {
    /// The session a tenant-scoped op acts on: `(tenant, gen)`.
    fn session(&self) -> Option<(u64, u64)> {
        match *self {
            ShardOp::Interval { tenant, gen, .. }
            | ShardOp::Finish { tenant, gen }
            | ShardOp::Fail { tenant, gen, .. }
            | ShardOp::Hangup { tenant, gen } => Some((tenant, gen)),
            ShardOp::Admit { .. } | ShardOp::Drain => None,
        }
    }
}

/// Run one shard worker until its inbox closes or a
/// [`ShardOp::Drain`] arrives. Never panics on tenant input: malformed
/// streams become per-tenant [`ServerMsg::Error`] replies.
pub fn run_shard(shard: usize, inbox: Receiver<ShardOp>, ctx: Arc<ShardCtx>) {
    let span = ctx.metrics.as_ref().map(|mx| mx.shard_span(shard));
    let mut tenants: HashMap<u64, Tenant> = HashMap::new();
    loop {
        let Ok(op) = inbox.recv() else { break };
        let _g = span.as_ref().map(|s| s.enter());
        // The one stale-op guard: a tenant-scoped op acts only on the
        // session its own connection's admission produced. That session
        // leaves the map for the op, and goes back only while it is
        // still being served.
        let current = op.session().and_then(|(tenant, gen)| match tenants.entry(tenant) {
            Entry::Occupied(e) if e.get().gen == gen => Some(e.remove()),
            _ => None,
        });
        match (op, current) {
            (ShardOp::Admit { tenant, gen, techniques, tx }, _) => {
                admit(&ctx, &mut tenants, tenant, gen, techniques, tx);
            }
            (ShardOp::Interval { tenant, iv, .. }, Some(mut t)) => {
                if iv.boundaries.len() != t.session.cores() {
                    let msg = format!(
                        "interval carries {} boundaries for a {}-core server",
                        iv.boundaries.len(),
                        t.session.cores()
                    );
                    fail_tenant(&ctx, tenant, t, &msg);
                    continue;
                }
                let index = t.session.intervals_fed();
                let row = t.session.feed_interval(&iv.events, &iv.boundaries);
                if let Some(mx) = &ctx.metrics {
                    mx.events.add(iv.events.len() as u64);
                    mx.intervals.inc();
                }
                let frame = encode_server(&ServerMsg::Row { index, cores: row });
                if t.tx.send(&frame).is_ok() {
                    tenants.insert(tenant, t);
                } else {
                    // The client vanished mid-stream: treat as hangup
                    // (suspend; the row just fed is part of the
                    // suspended position).
                    suspend_tenant(&ctx, tenant, t);
                }
            }
            (ShardOp::Finish { tenant, gen }, Some(mut t)) => {
                if let Some(cache) = &ctx.snapshots {
                    // A finished stream has no resume point: drop any
                    // stale snapshot so a future reconnect starts fresh.
                    let key = session_state_key(&ctx.xcfg, tenant, &t.techniques);
                    let _ = std::fs::remove_file(cache.path("state", &key));
                }
                if let Some(mx) = &ctx.metrics {
                    mx.done.inc();
                }
                // Release before Done: a client that has read Done holds
                // no slot, so its next Hello (or anyone's) is admitted.
                ctx.release(tenant, gen);
                let done = encode_server(&ServerMsg::Done { intervals: t.session.intervals_fed() });
                let _ = t.tx.send(&done);
            }
            (ShardOp::Fail { tenant, msg, .. }, Some(t)) => fail_tenant(&ctx, tenant, t, &msg),
            (ShardOp::Hangup { tenant, .. }, Some(t)) => suspend_tenant(&ctx, tenant, t),
            (ShardOp::Drain, _) => break,
            (_, None) => {} // stale op from a replaced or ended connection
        }
    }
    // Graceful drain: suspend every remaining session so reconnects
    // after a restart resume bit-exactly.
    let _g = span.as_ref().map(|s| s.enter());
    for (tenant, t) in tenants.drain() {
        suspend_tenant(&ctx, tenant, t);
    }
}

fn admit(
    ctx: &Arc<ShardCtx>,
    tenants: &mut HashMap<u64, Tenant>,
    tenant: u64,
    gen: u64,
    techniques: Vec<Technique>,
    mut tx: Box<dyn ConnWrite>,
) {
    let mut session = StreamSession::new(&ctx.xcfg, &techniques);
    let techniques = session.techniques().to_vec(); // canonical order
    let mut resumed_at = 0u64;
    if let Some(cache) = &ctx.snapshots {
        let key = session_state_key(&ctx.xcfg, tenant, &techniques);
        if let Some(cp) = cache.load_state(&key) {
            match session.resume_from(&cp) {
                Ok(()) => {
                    resumed_at = cp.at;
                    if let Some(mx) = &ctx.metrics {
                        mx.resume.inc();
                    }
                }
                Err(e) => {
                    // A snapshot that does not restore bit-exactly must
                    // not silently serve a diverged stream. Drop it
                    // before replying, so the tenant's next Hello starts
                    // fresh instead of failing on the same bytes.
                    let _ = std::fs::remove_file(cache.path("state", &key));
                    let msg = format!("cannot restore tenant snapshot: {e:?}");
                    let _ = tx.send(&encode_server(&ServerMsg::Error(msg)));
                    if let Some(mx) = &ctx.metrics {
                        mx.errors.inc();
                    }
                    ctx.release(tenant, gen);
                    return;
                }
            }
        }
    }
    let welcome = ServerMsg::Welcome {
        resumed_at,
        techniques: techniques.iter().map(|t| t.id().to_string()).collect(),
    };
    if tx.send(&encode_server(&welcome)).is_err() {
        ctx.release(tenant, gen);
        return;
    }
    if let Some(mx) = &ctx.metrics {
        mx.tenants.inc();
    }
    tenants.insert(tenant, Tenant { gen, techniques, session, tx });
}

/// Suspend a tenant's session to the snapshot store (when configured),
/// drop it, and release its admission slot.
fn suspend_tenant(ctx: &Arc<ShardCtx>, tenant: u64, t: Tenant) {
    if let Some(cache) = &ctx.snapshots {
        let key = session_state_key(&ctx.xcfg, tenant, &t.techniques);
        match cache.store_state(&key, &t.session.suspend()) {
            Ok(path) => log_info!("gdp-serve: suspended tenant {tenant} to {}", path.display()),
            Err(e) => log_info!("gdp-serve: cannot suspend tenant {tenant}: {e}"),
        }
    }
    if let Some(mx) = &ctx.metrics {
        mx.suspends.inc();
    }
    ctx.release(tenant, t.gen);
}

/// Report a typed per-tenant failure, suspend what was consistently fed
/// so far, and release. The events of the failing frame were never fed,
/// so the suspended position is exact.
fn fail_tenant(ctx: &Arc<ShardCtx>, tenant: u64, mut t: Tenant, msg: &str) {
    let _ = t.tx.send(&encode_server(&ServerMsg::Error(msg.to_string())));
    if let Some(mx) = &ctx.metrics {
        mx.errors.inc();
    }
    suspend_tenant(ctx, tenant, t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for tenant in 0..64u64 {
                let s = shard_of(tenant, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(tenant, shards), "stable");
            }
        }
        // Not all tenants on one shard (sanity, not uniformity).
        let hit: std::collections::HashSet<usize> = (0..64u64).map(|t| shard_of(t, 4)).collect();
        assert!(hit.len() > 1);
    }
}
