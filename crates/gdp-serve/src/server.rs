//! The serving core: accept loop, per-connection readers, global
//! admission, and the shard fan-out.
//!
//! Thread shape: one accept thread blocked in the transport listener's
//! accept, one reader thread per live connection (blocking reads feed a
//! [`FrameAssembler`]), and `shards` worker threads owning the tenant
//! sessions. Every one of them waits on its event, never on a timer:
//! [`Server::shutdown`] wakes the accept thread through the listener's
//! closer and each reader through its connection's. Readers forward
//! decoded ops to their tenant's shard over a bounded `sync_channel` of
//! [`INBOX_CAPACITY`] ops — when a shard falls behind, its readers
//! block, which propagates backpressure down the transport to the
//! tenant. Admitted tenants therefore never lose messages.
//!
//! A connection holds server resources only while it is open: its
//! reader deregisters itself when the connection ends, which releases
//! the connection's closer (for TCP, the last server-side clone of the
//! socket) and detaches the finished thread. Only connections still
//! open at [`Server::shutdown`] are closed and joined there.
//!
//! ## Load shedding
//!
//! Admission is the *only* shed point, and it is global: the server
//! admits at most [`ServeConfig::max_tenants`] concurrent tenants, and
//! a Hello beyond capacity is answered with [`ServerMsg::Shed`] and
//! closed — the tenant was never admitted, nothing was fed, nothing is
//! retained. Because the decision depends only on arrival order at the
//! admission table (never on shard occupancy), the shed set is
//! deterministic for a deterministic client schedule and **identical
//! for every `--shards N`** — the property `tests/shed_policy.rs` pins.
//! Established streams are never shed: overload inside a stream is
//! backpressure, not loss, so a surviving session can never be
//! corrupted by its neighbors' volume.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gdp_experiments::{ExperimentConfig, Technique};
use gdp_telemetry::{log_info, Counter, Gauge, MetricsRegistry, SpanHandle};
use gdp_trace::{FrameAssembler, TraceCache};

use crate::proto::{decode_client, encode_server, ClientMsg, ServerMsg};
use crate::shard::{run_shard, shard_of, ShardCtx, ShardOp};
use crate::transport::{
    ChannelConnector, ChannelTransport, Closer, Connection, Listener, TcpTransport,
};

/// Depth of each shard's bounded op inbox, in ops: how far a shard may
/// fall behind before its readers block (backpressure).
pub const INBOX_CAPACITY: usize = 64;

/// Most events one interval frame may carry. A tenant exceeding it gets
/// a typed error; the cap bounds a single frame's memory.
pub const MAX_EVENTS_PER_INTERVAL: usize = 1 << 20;

/// Server configuration. One server serves one experiment
/// configuration: every tenant's CMP size and estimator parameters are
/// fixed at start, which is what lets a suspended session restore
/// bit-exactly.
#[derive(Clone)]
pub struct ServeConfig {
    /// The experiment configuration every tenant session is built from.
    pub xcfg: ExperimentConfig,
    /// Worker threads owning tenant sessions (≥ 1).
    pub shards: usize,
    /// Global concurrent-tenant capacity; Hellos beyond it are shed.
    pub max_tenants: usize,
    /// Snapshot directory for suspended tenants (`None` disables
    /// evict/resume; hangups then drop session state).
    pub snapshot_dir: Option<PathBuf>,
    /// Telemetry registry for the `serve.*` glossary (see crate docs).
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl ServeConfig {
    /// Defaults: 2 shards, 1024 tenants, no snapshots, no telemetry.
    pub fn new(xcfg: ExperimentConfig) -> ServeConfig {
        ServeConfig { xcfg, shards: 2, max_tenants: 1024, snapshot_dir: None, metrics: None }
    }
}

/// Resolved `serve.*` telemetry handles (resolved once at start; the
/// hot path touches only atomics).
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    /// `serve.tenants`: admissions accepted.
    pub tenants: Counter,
    /// `serve.resume`: admissions restored from a snapshot.
    pub resume: Counter,
    /// `serve.shed`: tenants shed at admission.
    pub shed: Counter,
    /// `serve.events`: probe events fed to tenant sessions.
    pub events: Counter,
    /// `serve.intervals`: interval frames fed (= rows served).
    pub intervals: Counter,
    /// `serve.suspends`: sessions checkpointed on hangup/drain.
    pub suspends: Counter,
    /// `serve.errors`: per-tenant failures, and connections refused
    /// because no reader thread could be spawned.
    pub errors: Counter,
    /// `serve.done`: tenants that finished cleanly.
    pub done: Counter,
    /// `serve.active`: currently admitted tenants.
    pub active: Gauge,
}

impl ServeMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> ServeMetrics {
        ServeMetrics {
            tenants: registry.counter("serve.tenants"),
            resume: registry.counter("serve.resume"),
            shed: registry.counter("serve.shed"),
            events: registry.counter("serve.events"),
            intervals: registry.counter("serve.intervals"),
            suspends: registry.counter("serve.suspends"),
            errors: registry.counter("serve.errors"),
            done: registry.counter("serve.done"),
            active: registry.gauge("serve.active"),
            registry,
        }
    }

    /// The wall-clock span for shard `i` (`serve.shard.<i>`).
    pub fn shard_span(&self, shard: usize) -> SpanHandle {
        self.registry.span(&format!("serve.shard.{shard}"))
    }
}

struct Inner {
    cfg: ServeConfig,
    next_gen: AtomicU64,
    ctx: Arc<ShardCtx>,
    shard_txs: Vec<SyncSender<ShardOp>>,
    /// Open connections by accept sequence number; each reader removes
    /// its own entry when its connection ends.
    live: Mutex<HashMap<u64, LiveConn>>,
}

/// What the server holds of one open connection: the closer that
/// unblocks its reader at shutdown, and the reader thread to join.
struct LiveConn {
    closer: Closer,
    reader: JoinHandle<()>,
}

/// A running server. Dropping it without [`Server::shutdown`] detaches
/// the threads; call `shutdown` for a graceful drain (suspend every
/// live session, then join).
pub struct Server {
    inner: Arc<Inner>,
    /// Closes the listener, which wakes and ends the accept thread.
    stop_accept: Closer,
    accept: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

/// Start a server over the in-process channel transport; returns the
/// server and the connector tenants dial with.
pub fn serve_channel(cfg: ServeConfig) -> (Server, ChannelConnector) {
    let (listener, connector) = ChannelTransport::pair();
    (Server::start(cfg, Box::new(listener)), connector)
}

/// Start a server over TCP; returns the server and the bound address
/// (use `127.0.0.1:0` for an ephemeral port).
pub fn serve_tcp(cfg: ServeConfig, addr: &str) -> io::Result<(Server, std::net::SocketAddr)> {
    let t = TcpTransport::bind(addr)?;
    let addr = t.addr;
    Ok((Server::start(cfg, Box::new(t)), addr))
}

impl Server {
    /// Start serving connections from `listener` under `cfg`.
    pub fn start(cfg: ServeConfig, mut listener: Box<dyn Listener>) -> Server {
        let metrics = cfg.metrics.clone().map(ServeMetrics::new);
        let snapshots = cfg.snapshot_dir.clone().map(TraceCache::new);
        let ctx = Arc::new(ShardCtx {
            xcfg: cfg.xcfg.clone(),
            snapshots,
            admission: Mutex::new(HashMap::new()),
            metrics,
        });
        let shards = cfg.shards.max(1);
        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_handles = Vec::with_capacity(shards);
        for s in 0..shards {
            let (tx, rx) = mpsc::sync_channel(INBOX_CAPACITY);
            let ctx = Arc::clone(&ctx);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("gdp-serve-shard-{s}"))
                    .spawn(move || run_shard(s, rx, ctx))
                    .expect("spawn shard"),
            );
            shard_txs.push(tx);
        }
        let inner = Arc::new(Inner {
            next_gen: AtomicU64::new(1),
            ctx,
            shard_txs,
            live: Mutex::new(HashMap::new()),
            cfg,
        });
        let stop_accept = listener.closer();
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("gdp-serve-accept".into())
            .spawn(move || {
                let mut next_conn = 0u64;
                loop {
                    match listener.accept() {
                        Ok(Some(conn)) => {
                            spawn_reader(&accept_inner, next_conn, conn);
                            next_conn += 1;
                        }
                        Ok(None) => break, // closed by `Server::shutdown`
                        // An accept error (say, out of descriptors) may
                        // repeat at once: back off instead of spinning.
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
            .expect("spawn accept loop");
        Server { inner, stop_accept, accept: Some(accept), shards: shard_handles }
    }

    /// Graceful drain: stop accepting, close every live connection,
    /// join the readers, then have every shard suspend its remaining
    /// sessions and exit. Returns when all state is on disk (when
    /// snapshots are configured) and every thread has joined. With a
    /// registry attached, the snapshot store's counters are exported
    /// at this point as `cache.{hits,misses,stores,quarantines}`.
    pub fn shutdown(mut self) {
        (self.stop_accept)();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Unblock readers stuck in transport reads.
        let live = std::mem::take(&mut *self.inner.live.lock().expect("live connections"));
        for conn in live.values() {
            (conn.closer)();
        }
        for (_, conn) in live {
            let _ = conn.reader.join();
        }
        for tx in &self.inner.shard_txs {
            let _ = tx.send(ShardOp::Drain);
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        if let (Some(registry), Some(cache)) = (&self.inner.cfg.metrics, &self.inner.ctx.snapshots)
        {
            cache.stats().export(registry);
        }
    }
}

/// Spawn the reader thread for connection `id` and register it as
/// live; the reader deregisters itself once the connection is over. A
/// connection whose reader cannot be spawned is closed unserved and
/// counted in `serve.errors`.
fn spawn_reader(inner: &Arc<Inner>, id: u64, conn: Connection) {
    let Connection { rx, tx, closer } = conn;
    let inner2 = Arc::clone(inner);
    // The table stays locked across the spawn, so the reader cannot
    // deregister before it is registered.
    let mut live = inner.live.lock().expect("live connections");
    let spawned = std::thread::Builder::new().name("gdp-serve-reader".into()).spawn(move || {
        read_connection(&inner2, rx, tx);
        // Dropping our own entry releases the closer and detaches this
        // thread, which is about to exit.
        inner2.live.lock().expect("live connections").remove(&id);
    });
    match spawned {
        Ok(reader) => {
            live.insert(id, LiveConn { closer, reader });
        }
        Err(e) => {
            closer();
            if let Some(mx) = &inner.ctx.metrics {
                mx.errors.inc();
            }
            log_info!("gdp-serve: connection refused, cannot spawn its reader: {e}");
        }
    }
}

/// Read one connection to completion: Hello → admission → forward ops
/// to the tenant's shard. Corrupt frames and protocol violations are
/// typed per-tenant errors — the reader dies, the shard (and every
/// other tenant) lives on.
fn read_connection(
    inner: &Arc<Inner>,
    mut rx: Box<dyn crate::transport::ConnRead>,
    mut tx: Box<dyn crate::transport::ConnWrite>,
) {
    let cfg = &inner.cfg;
    let cores = cfg.xcfg.sim.cores;
    let mut asm = FrameAssembler::new();
    // Identity of the admitted tenant this reader serves, once Hello
    // succeeds: (tenant, generation, shard sender).
    let mut admitted: Option<(u64, u64, SyncSender<ShardOp>)> = None;
    let mut finished = false;
    'conn: loop {
        // Decode every complete frame currently buffered.
        loop {
            let msg = match asm.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => decode_client(&frame, cores, MAX_EVENTS_PER_INTERVAL)
                    .map_err(|e| format!("bad message: {e:?}")),
                Err(e) => Err(format!("corrupt frame: {e:?}")),
            };
            let msg = match msg {
                Ok(m) => m,
                Err(msg) => {
                    // Framing is lost or the protocol is broken: the
                    // connection is unrecoverable. Typed error, then
                    // hang up.
                    fail_connection(inner, admitted.as_ref(), tx.as_mut(), msg);
                    finished = true; // Fail already suspends/releases
                    break 'conn;
                }
            };
            match (msg, &admitted) {
                (ClientMsg::Hello { tenant, cores: want, techniques }, None) => {
                    match admit_hello(inner, tenant, want, &techniques, &mut tx) {
                        Some((gen, shard_tx)) => admitted = Some((tenant, gen, shard_tx)),
                        None => {
                            finished = true;
                            break 'conn;
                        }
                    }
                }
                (ClientMsg::Hello { .. }, Some(conn)) => {
                    fail_connection(inner, Some(conn), tx.as_mut(), "duplicate Hello".into());
                    finished = true;
                    break 'conn;
                }
                (ClientMsg::Interval(iv), Some((tenant, gen, shard))) => {
                    // Bounded shard inbox: this send blocks when the
                    // shard is behind — backpressure, not loss.
                    if shard.send(ShardOp::Interval { tenant: *tenant, gen: *gen, iv }).is_err() {
                        break 'conn; // server draining
                    }
                }
                (ClientMsg::Finish, Some((tenant, gen, shard))) => {
                    let _ = shard.send(ShardOp::Finish { tenant: *tenant, gen: *gen });
                    finished = true;
                }
                (ClientMsg::Interval(_) | ClientMsg::Finish, None) => {
                    let msg = "stream must start with Hello".to_string();
                    fail_connection(inner, None, tx.as_mut(), msg);
                    finished = true;
                    break 'conn;
                }
            }
        }
        match rx.recv_chunk() {
            Ok(Some(chunk)) => asm.push(&chunk),
            Ok(None) => break,
            Err(_) => break,
        }
    }
    // Connection over. A stream that ended without Finish hangs up: the
    // shard suspends the session so the tenant can resume bit-exactly.
    if let (Some((tenant, gen, shard)), false) = (&admitted, finished) {
        let _ = shard.send(ShardOp::Hangup { tenant: *tenant, gen: *gen });
    }
}

/// End a connection with a typed error. An admitted tenant's shard
/// reports it (and suspends and releases the session); before admission
/// the reader sends it down `tx` and counts it itself.
fn fail_connection(
    inner: &Inner,
    admitted: Option<&(u64, u64, SyncSender<ShardOp>)>,
    tx: &mut dyn crate::transport::ConnWrite,
    msg: String,
) {
    match admitted {
        Some((tenant, gen, shard)) => {
            let _ = shard.send(ShardOp::Fail { tenant: *tenant, gen: *gen, msg });
        }
        None => {
            let _ = tx.send(&encode_server(&ServerMsg::Error(msg)));
            if let Some(mx) = &inner.ctx.metrics {
                mx.errors.inc();
            }
        }
    }
}

/// Process a Hello: validate, apply the global admission policy, and on
/// success enqueue the `Admit` op (handing the connection's sending
/// half to the shard). Returns `None` when the connection is over
/// (shed, validation error, or shard gone).
fn admit_hello(
    inner: &Arc<Inner>,
    tenant: u64,
    want_cores: usize,
    technique_ids: &[String],
    tx: &mut Box<dyn crate::transport::ConnWrite>,
) -> Option<(u64, SyncSender<ShardOp>)> {
    let cfg = &inner.cfg;
    if want_cores != cfg.xcfg.sim.cores {
        let msg =
            format!("server is a {}-core CMP, stream declares {want_cores}", cfg.xcfg.sim.cores);
        fail_connection(inner, None, tx.as_mut(), msg);
        return None;
    }
    let mut techniques = Vec::with_capacity(technique_ids.len());
    for id in technique_ids {
        match Technique::from_id(id) {
            Some(t) => techniques.push(t),
            None => {
                fail_connection(inner, None, tx.as_mut(), format!("unknown technique id {id:?}"));
                return None;
            }
        }
    }
    if techniques.is_empty() {
        fail_connection(inner, None, tx.as_mut(), "at least one technique is required".into());
        return None;
    }
    // The one shed point (see the module docs): global capacity check
    // under the admission lock, in arrival order.
    let gen = {
        let mut adm = inner.ctx.admission.lock().expect("admission lock");
        if adm.contains_key(&tenant) {
            drop(adm);
            fail_connection(inner, None, tx.as_mut(), format!("tenant {tenant} already connected"));
            return None;
        }
        if adm.len() >= inner.cfg.max_tenants {
            drop(adm);
            let _ = tx.send(&encode_server(&ServerMsg::Shed));
            if let Some(mx) = &inner.ctx.metrics {
                mx.shed.inc();
            }
            return None;
        }
        let gen = inner.next_gen.fetch_add(1, Ordering::Relaxed);
        adm.insert(tenant, gen);
        if let Some(mx) = &inner.ctx.metrics {
            mx.active.set_max(adm.len() as u64);
        }
        gen
    };
    let shard_tx = inner.shard_txs[shard_of(tenant, inner.shard_txs.len())].clone();
    // Hand the sending half to the shard; a placeholder writer stays
    // with the reader (it only writes pre-admission messages, and this
    // tenant is past that point).
    let owned_tx = std::mem::replace(tx, Box::new(NullWrite));
    if shard_tx.send(ShardOp::Admit { tenant, gen, techniques, tx: owned_tx }).is_err() {
        inner.ctx.release(tenant, gen);
        return None;
    }
    Some((gen, shard_tx))
}

/// Post-admission placeholder for the reader's writer half (the real
/// one lives with the shard).
struct NullWrite;

impl crate::transport::ConnWrite for NullWrite {
    fn send(&mut self, _bytes: &[u8]) -> io::Result<()> {
        Ok(())
    }
}
