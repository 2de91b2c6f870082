//! Fault isolation: a tenant's corrupt or out-of-protocol stream
//! becomes a typed per-tenant error — never a shard crash, never a
//! perturbation of any other tenant's bits.

mod common;

use common::{assert_rows_bit_identical, embedded_rows, recorded, xcfg};

use gdp_experiments::Technique;
use gdp_serve::proto::{encode_client, ClientMsg};
use gdp_serve::{serve_channel, ClientError, ServeConfig, ServerMsg, TenantClient};
use gdp_sim::probe::ProbeEvent;
use gdp_sim::types::{CoreId, ReqId};
use gdp_telemetry::MetricsRegistry;

#[test]
fn corrupt_frame_is_a_typed_error_and_neighbors_are_unaffected() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(11, cores);
    let set = [Technique::GDP];
    let embedded = embedded_rows(&trace, &x, &set);
    let registry = MetricsRegistry::shared();
    let mut cfg = ServeConfig::new(x.clone());
    cfg.shards = 2;
    cfg.metrics = Some(registry.clone());
    let (server, connector) = serve_channel(cfg);

    // The victim-to-be streams a valid prefix…
    let mut bad = TenantClient::over(connector.connect().expect("dial"));
    bad.hello(1, cores, &set).expect("admission");
    bad.send_interval(&trace.intervals[0]).expect("send");
    bad.recv_row().expect("row");
    // …then its stream corrupts: framing is unrecoverable, the server
    // must answer with a typed error.
    bad.send_raw(&[0xFF; 64]).expect("inject garbage");
    match bad.recv_msg() {
        Ok(ServerMsg::Error(m)) => {
            assert!(m.contains("corrupt frame"), "typed corruption error, got {m:?}")
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    // A healthy tenant sharing the server (sequentially and, by shard
    // hash, possibly the same worker) still gets the embedded bits.
    let mut good = TenantClient::over(connector.connect().expect("dial"));
    good.hello(2, cores, &set).expect("admission");
    let rows = good.stream(&trace.intervals, 2).expect("healthy stream");
    assert_rows_bit_identical(&rows, &embedded, "healthy tenant next to a corrupt one");

    server.shutdown();
    assert_eq!(registry.counter("serve.errors").get(), 1, "exactly the corrupt tenant errored");
    assert_eq!(registry.counter("serve.done").get(), 1, "the healthy tenant finished");
}

#[test]
fn admission_validation_rejects_bad_hellos_with_typed_errors() {
    let cores = 2;
    let x = xcfg(cores);
    let (server, connector) = serve_channel(ServeConfig::new(x.clone()));

    // Wrong CMP width.
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    match c.hello(1, 4, &[Technique::GDP]) {
        Err(ClientError::Server(m)) => assert!(m.contains("2-core"), "{m:?}"),
        other => panic!("expected a core-count refusal, got {other:?}"),
    }

    // Unknown technique id (hand-encoded — the typed client can't
    // produce one).
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    let hello =
        ClientMsg::Hello { tenant: 2, cores, techniques: vec!["gdp".into(), "nope".into()] };
    c.send_raw(&encode_client(&hello)).expect("send");
    match c.recv_msg() {
        Ok(ServerMsg::Error(m)) => assert!(m.contains("unknown technique"), "{m:?}"),
        other => panic!("expected an unknown-technique refusal, got {other:?}"),
    }

    // Empty technique set.
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    let hello = ClientMsg::Hello { tenant: 3, cores, techniques: vec![] };
    c.send_raw(&encode_client(&hello)).expect("send");
    match c.recv_msg() {
        Ok(ServerMsg::Error(m)) => assert!(m.contains("at least one technique"), "{m:?}"),
        other => panic!("expected an empty-set refusal, got {other:?}"),
    }

    // Interval before Hello.
    let trace = recorded(3, cores);
    let mut c = TenantClient::over(connector.connect().expect("dial"));
    c.send_interval(&trace.intervals[0]).expect("send");
    match c.recv_msg() {
        Ok(ServerMsg::Error(m)) => assert!(m.contains("start with Hello"), "{m:?}"),
        other => panic!("expected a stream-order refusal, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn wrong_boundary_count_fails_only_that_tenant() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(7, cores);
    let set = [Technique::GDP];
    let (server, connector) = serve_channel(ServeConfig::new(x.clone()));

    let mut bad = TenantClient::over(connector.connect().expect("dial"));
    bad.hello(1, cores, &set).expect("admission");
    let mut iv = trace.intervals[0].clone();
    iv.boundaries.truncate(1);
    bad.send_interval(&iv).expect("send");
    match bad.recv_msg() {
        Ok(ServerMsg::Error(m)) => assert!(m.contains("boundaries"), "{m:?}"),
        other => panic!("expected a boundary-count error, got {other:?}"),
    }

    let mut good = TenantClient::over(connector.connect().expect("dial"));
    good.hello(2, cores, &set).expect("admission");
    let rows = good.stream(&trace.intervals, 1).expect("healthy stream");
    assert_rows_bit_identical(
        &rows,
        &embedded_rows(&trace, &x, &set),
        "healthy tenant next to a malformed one",
    );
    server.shutdown();
}

#[test]
fn an_event_on_a_core_the_cmp_lacks_fails_only_that_tenant() {
    // A 2-core CMP, one shard: the bad tenant and its neighbour share the
    // shard thread, which must survive an event naming core 7.
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(5, cores);
    let set = [Technique::ITCA];
    let mut cfg = ServeConfig::new(x.clone());
    cfg.shards = 1;
    let (server, connector) = serve_channel(cfg);

    let mut bad = TenantClient::over(connector.connect().expect("dial"));
    bad.hello(1, cores, &set).expect("admission");
    let mut iv = trace.intervals[0].clone();
    let cycle = iv.events.last().map_or(0, ProbeEvent::cycle);
    iv.events.push(ProbeEvent::LlcAccess {
        core: CoreId(7),
        block: 0x40,
        cycle,
        hit: false,
        req: ReqId(u64::MAX),
    });
    bad.send_interval(&iv).expect("send");
    match bad.recv_msg() {
        Ok(ServerMsg::Error(m)) => assert!(m.contains("INTERVAL"), "typed decode error, got {m:?}"),
        other => panic!("expected a typed error, got {other:?}"),
    }

    let mut good = TenantClient::over(connector.connect().expect("dial"));
    good.hello(2, cores, &set).expect("admission on the same shard");
    let rows = good.stream(&trace.intervals, 1).expect("healthy stream");
    assert_rows_bit_identical(
        &rows,
        &embedded_rows(&trace, &x, &set),
        "healthy tenant next to one naming a missing core",
    );
    server.shutdown();
}
