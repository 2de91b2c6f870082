//! Session evict/resume: a killed connection's session is checkpointed
//! to the snapshot store and restored bit-exactly on reconnect, and a
//! graceful shutdown drains every live session the same way so a
//! restarted server resumes them. A snapshot that is corrupt, or that
//! decodes but does not restore, never locks its tenant out: the next
//! admission starts over at interval 0.

mod common;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use common::{assert_rows_bit_identical, embedded_rows, recorded, unique_dir, xcfg};

use gdp_experiments::{session_state_key, Technique};
use gdp_serve::{serve_channel, ChannelConnector, ClientError, ServeConfig, Server, TenantClient};
use gdp_telemetry::MetricsRegistry;
use gdp_trace::{decode_state, encode_state, SharedTrace, TraceCache};

/// Reconnect `tenant`, retrying while the previous connection's hangup
/// is still being processed (the slot frees only once the old session
/// is safely on disk).
fn reconnect(
    connector: &ChannelConnector,
    tenant: u64,
    set: &[Technique],
    want_at: u64,
) -> TenantClient {
    for _ in 0..1000 {
        let mut c = TenantClient::over(connector.connect().expect("dial"));
        match c.hello(tenant, 2, set) {
            Ok((at, _)) => {
                assert_eq!(at, want_at, "resume position");
                return c;
            }
            Err(ClientError::Server(m)) if m.contains("already connected") => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("tenant {tenant}: unexpected reconnect outcome: {e}"),
        }
    }
    panic!("tenant {tenant}: slot never released");
}

#[test]
fn killed_connection_resumes_bit_exactly() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(5, cores);
    let n = trace.intervals.len();
    let k = n / 2;
    assert!(k >= 1 && k < n, "need an interior cut, got {k} of {n}");
    let set = [Technique::GDP, Technique::GDP_O];
    let embedded = embedded_rows(&trace, &x, &set);

    let dir = unique_dir("kill-resume");
    let registry = MetricsRegistry::shared();
    let mut cfg = ServeConfig::new(x.clone());
    cfg.snapshot_dir = Some(dir.clone());
    cfg.metrics = Some(registry.clone());
    let (server, connector) = serve_channel(cfg);

    // Head: lock-step so exactly k rows are delivered, then kill the
    // connection with no Finish.
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    let (at, _) = c.hello(42, cores, &set).expect("admission");
    assert_eq!(at, 0);
    let mut rows = Vec::with_capacity(n);
    for iv in &trace.intervals[..k] {
        c.send_interval(iv).expect("send");
        let (idx, cores_row) = c.recv_row().expect("row");
        assert_eq!(idx as usize, rows.len(), "row indices are the interval sequence");
        rows.push(cores_row);
    }
    c.kill();

    // Tail: the reconnect resumes at k and the continued stream is the
    // embedded session's bits.
    let mut c = reconnect(&connector, 42, &set, k as u64);
    rows.extend(c.stream(&trace.intervals[k..], 2).expect("tail stream"));
    assert_rows_bit_identical(&rows, &embedded, "kill/resume vs embedded");

    server.shutdown();
    assert_eq!(registry.counter("serve.suspends").get(), 1, "one hangup checkpoint");
    assert_eq!(registry.counter("serve.resume").get(), 1, "one snapshot restore");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_a_restarted_server_resumes() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(19, cores);
    let n = trace.intervals.len();
    let k = (n + 1) / 2;
    assert!(k >= 1 && k < n);
    let set = [Technique::ITCA, Technique::GDP];
    let embedded = embedded_rows(&trace, &x, &set);
    let dir = unique_dir("drain-restart");

    // First server: feed k intervals, never Finish, then shut down —
    // the drain must suspend the live session.
    let mut cfg = ServeConfig::new(x.clone());
    cfg.snapshot_dir = Some(dir.clone());
    let (server, connector) = serve_channel(cfg);
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    c.hello(7, cores, &set).expect("admission");
    let mut rows = Vec::with_capacity(n);
    for iv in &trace.intervals[..k] {
        c.send_interval(iv).expect("send");
        rows.push(c.recv_row().expect("row").1);
    }
    server.shutdown();
    drop(c); // connection was hard-closed by the drain

    // Second server over the same snapshot store: the tenant resumes at
    // k and the continuation matches the uninterrupted embedded run.
    let mut cfg = ServeConfig::new(x.clone());
    cfg.snapshot_dir = Some(dir.clone());
    let (server, connector) = serve_channel(cfg);
    let mut c = reconnect(&connector, 7, &set, k as u64);
    rows.extend(c.stream(&trace.intervals[k..], 1).expect("tail stream"));
    assert_rows_bit_identical(&rows, &embedded, "drain/restart vs embedded");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finish_discards_the_snapshot_so_reconnects_start_fresh() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(3, cores);
    let set = [Technique::GDP];
    let dir = unique_dir("finish-fresh");
    let mut cfg = ServeConfig::new(x.clone());
    cfg.snapshot_dir = Some(dir.clone());
    let (server, connector) = serve_channel(cfg);

    let mut c = TenantClient::over(connector.connect().expect("dial"));
    c.hello(11, cores, &set).expect("admission");
    let first = c.stream(&trace.intervals, 2).expect("full stream");

    // Same tenant id again after a clean Finish: no resume point — the
    // session starts at 0 and serves the same full stream again.
    let mut c = reconnect(&connector, 11, &set, 0);
    let second = c.stream(&trace.intervals, 2).expect("second stream");
    assert_rows_bit_identical(&first, &second, "fresh restart after Finish");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_a_snapshot_store_a_hangup_starts_over() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(3, cores);
    let set = [Technique::GDP];
    let (server, connector) = serve_channel(ServeConfig::new(x.clone()));

    let mut c = TenantClient::over(connector.connect().expect("dial"));
    c.hello(2, cores, &set).expect("admission");
    c.send_interval(&trace.intervals[0]).expect("send");
    c.recv_row().expect("row");
    c.kill();

    // No snapshot_dir: the evicted session is dropped, the reconnect
    // starts from interval 0.
    let mut c = reconnect(&connector, 2, &set, 0);
    let rows = c.stream(&trace.intervals, 2).expect("fresh stream");
    assert_rows_bit_identical(&rows, &embedded_rows(&trace, &x, &set), "fresh after drop");
    server.shutdown();
}

/// Start a snapshot-backed server, stream `k` intervals as `tenant`, kill
/// the connection, and return the server once the hangup has suspended
/// the session to its STATE entry, with that entry's path.
fn suspend_after(
    trace: &SharedTrace,
    k: usize,
    tenant: u64,
    set: &[Technique],
    tag: &str,
) -> (Server, ChannelConnector, Arc<MetricsRegistry>, PathBuf) {
    let x = xcfg(trace.cores);
    let dir = unique_dir(tag);
    let path = TraceCache::new(&dir).path("state", &session_state_key(&x, tenant, set));
    let registry = MetricsRegistry::shared();
    let mut cfg = ServeConfig::new(x);
    cfg.snapshot_dir = Some(dir);
    cfg.metrics = Some(registry.clone());
    let (server, connector) = serve_channel(cfg);
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    c.hello(tenant, trace.cores, set).expect("admission");
    for iv in &trace.intervals[..k] {
        c.send_interval(iv).expect("send");
        c.recv_row().expect("row");
    }
    c.kill();
    for _ in 0..1000 {
        if path.exists() {
            return (server, connector, registry, path);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("tenant {tenant}: no snapshot at {}", path.display());
}

#[test]
fn a_corrupt_snapshot_is_a_quarantined_miss() {
    let trace = recorded(5, 2);
    let set = [Technique::GDP, Technique::GDP_O];
    let embedded = embedded_rows(&trace, &xcfg(2), &set);
    let k = trace.intervals.len() / 2;
    let (server, connector, registry, path) = suspend_after(&trace, k, 42, &set, "corrupt");

    // One flipped byte in the middle of the entry: inside its STATE
    // payload, which is all but the ~20 bytes of header, framing and CRC.
    let mut bytes = std::fs::read(&path).expect("snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");

    // The reconnect is welcomed at interval 0, the entry is already gone
    // when the Welcome arrives, and the full stream is the embedded one.
    let mut c = reconnect(&connector, 42, &set, 0);
    assert!(!path.exists(), "the corrupt snapshot must be quarantined");
    let rows = c.stream(&trace.intervals, 2).expect("full stream");
    assert_rows_bit_identical(&rows, &embedded, "fresh stream after a corrupt snapshot");

    server.shutdown();
    assert_eq!(registry.counter("serve.resume").get(), 0, "nothing was restored");
    let _ = std::fs::remove_dir_all(path.parent().expect("snapshot dir"));
}

#[test]
fn an_unrestorable_snapshot_is_refused_once_then_dropped() {
    let trace = recorded(11, 2);
    let set = [Technique::GDP, Technique::GDP_O];
    let embedded = embedded_rows(&trace, &xcfg(2), &set);
    let k = trace.intervals.len() / 2;
    let (server, connector, registry, path) = suspend_after(&trace, k, 9, &set, "unrestorable");

    // A CRC-valid snapshot that lacks the GDP units' state.
    let mut cp = decode_state(&std::fs::read(&path).expect("snapshot")).expect("clean entry");
    let before = cp.states.len();
    cp.states.retain(|(id, _)| id != "gdp-units");
    assert_eq!(cp.states.len(), before - 1, "the snapshot held the GDP units' state");
    std::fs::write(&path, encode_state(&cp)).expect("rewrite");

    // The first Hello gets the typed restore error, and the entry is
    // gone by the time it arrives…
    let mut err = None;
    for _ in 0..1000 {
        let mut c = TenantClient::over(connector.connect().expect("dial"));
        match c.hello(9, 2, &set) {
            Err(ClientError::Server(m)) if m.contains("already connected") => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(ClientError::Server(m)) => {
                err = Some(m);
                break;
            }
            other => panic!("expected a restore error, got {other:?}"),
        }
    }
    let err = err.expect("tenant 9: slot never released");
    assert!(err.contains("cannot restore tenant snapshot"), "{err}");
    assert!(!path.exists(), "the unrestorable snapshot must be dropped");

    // …so the next is welcomed at interval 0 with the embedded rows.
    let mut c = reconnect(&connector, 9, &set, 0);
    let rows = c.stream(&trace.intervals, 2).expect("full stream");
    assert_rows_bit_identical(&rows, &embedded, "fresh stream after an unrestorable snapshot");

    server.shutdown();
    assert_eq!(registry.counter("serve.resume").get(), 0, "nothing was restored");
    let _ = std::fs::remove_dir_all(path.parent().expect("snapshot dir"));
}
