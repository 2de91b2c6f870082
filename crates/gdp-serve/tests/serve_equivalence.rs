//! The serving correctness contract: rows streamed back by a serve
//! instance are bit-identical to an embedded session fed the same
//! events — for every transparent technique subset, any event-frame
//! chunking, any pipelining window, any shard count, and over both
//! transports.

mod common;

use common::{
    assert_rows_bit_identical, embedded_rows, recorded, subset_from_mask, unique_dir, xcfg,
};
use proptest::prelude::*;

use gdp_experiments::Technique;
use gdp_serve::proto::encode_client;
use gdp_serve::transport::duplex;
use gdp_serve::{serve_channel, serve_tcp, ClientMsg, ServeConfig, TenantClient};
use gdp_telemetry::MetricsRegistry;

#[test]
fn send_interval_puts_the_encode_client_frame_on_the_wire() {
    let trace = recorded(11, 2);
    let (client_end, mut server_end) = duplex();
    let mut client = TenantClient::over(client_end);
    for iv in &trace.intervals {
        client.send_interval(iv).expect("send");
        let sent = server_end.rx.recv_chunk().expect("read").expect("one chunk per frame");
        assert_eq!(sent, encode_client(&ClientMsg::Interval(iv.clone())));
    }
}

#[test]
fn channel_rows_match_embedded_for_any_sharding_and_chunking() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(11, cores);
    let sets: [&[Technique]; 3] = [
        &[Technique::GDP],
        &[Technique::ITCA, Technique::GDP_O],
        &[Technique::ITCA, Technique::PTCA, Technique::GDP, Technique::GDP_O, Technique::DIEF],
    ];
    let embedded: Vec<_> = sets.iter().map(|s| embedded_rows(&trace, &x, s)).collect();
    let mut tenant = 0u64;
    for shards in [1usize, 2, 4] {
        let mut cfg = ServeConfig::new(x.clone());
        cfg.shards = shards;
        let (server, connector) = serve_channel(cfg);
        for (si, set) in sets.iter().enumerate() {
            for (chunk, window) in [(None, 1), (Some(1), 2), (Some(7), 4), (Some(4096), 3)] {
                tenant += 1;
                let mut c = TenantClient::over(connector.connect().expect("dial"));
                if let Some(n) = chunk {
                    c = c.with_chunk(n);
                }
                let (at, ids) = c.hello(tenant, cores, set).expect("admission");
                assert_eq!(at, 0, "fresh tenant starts at interval 0");
                assert_eq!(ids.len(), set.len(), "every requested technique is estimated");
                let rows = c.stream(&trace.intervals, window).expect("stream");
                assert_rows_bit_identical(
                    &rows,
                    &embedded[si],
                    &format!("shards={shards} set#{si} chunk={chunk:?} window={window}"),
                );
            }
        }
        server.shutdown();
    }
}

#[test]
fn concurrent_tenants_each_get_their_own_stream_back() {
    let cores = 2;
    let x = xcfg(cores);
    let traces = [recorded(11, cores), recorded(29, cores)];
    let set = [Technique::GDP, Technique::DIEF];
    let embedded: Vec<_> = traces.iter().map(|t| embedded_rows(t, &x, &set)).collect();

    let mut cfg = ServeConfig::new(x.clone());
    cfg.shards = 2;
    let (server, connector) = serve_channel(cfg);
    std::thread::scope(|scope| {
        for tenant in 0..8u64 {
            let connector = connector.clone();
            let trace = &traces[tenant as usize % 2];
            let expect = &embedded[tenant as usize % 2];
            let set = &set;
            scope.spawn(move || {
                let mut c = TenantClient::over(connector.connect().expect("dial"))
                    .with_chunk(3 + tenant as usize);
                let (at, _) = c.hello(tenant, cores, set).expect("admission");
                assert_eq!(at, 0);
                let rows = c.stream(&trace.intervals, 2).expect("stream");
                assert_rows_bit_identical(&rows, expect, &format!("tenant {tenant}"));
            });
        }
    });
    server.shutdown();
}

#[test]
fn tcp_transport_serves_bit_identical_rows() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(7, cores);
    let set = [Technique::GDP, Technique::GDP_O];
    let embedded = embedded_rows(&trace, &x, &set);

    let mut cfg = ServeConfig::new(x.clone());
    cfg.shards = 2;
    let (server, addr) = serve_tcp(cfg, "127.0.0.1:0").expect("bind");
    for (tenant, chunk) in [(1u64, 1usize), (2, 13), (3, 64 * 1024)] {
        let mut c = TenantClient::connect_tcp(&addr.to_string()).expect("dial").with_chunk(chunk);
        let (at, _) = c.hello(tenant, cores, &set).expect("admission");
        assert_eq!(at, 0);
        let rows = c.stream(&trace.intervals, 2).expect("stream");
        assert_rows_bit_identical(&rows, &embedded, &format!("tcp tenant {tenant}"));
    }
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized corner of the contract: random transparent subsets ×
    /// chunk sizes × windows × shard counts all serve the embedded rows.
    #[test]
    fn served_rows_are_chunking_and_sharding_invariant(
        mask in 1usize..64,
        chunk in 1usize..96,
        window in 1usize..6,
        shards in 1usize..5,
    ) {
        let cores = 2;
        let x = xcfg(cores);
        let trace = recorded(3, cores);
        let set = subset_from_mask(mask);
        let embedded = embedded_rows(&trace, &x, &set);
        let mut cfg = ServeConfig::new(x.clone());
        cfg.shards = shards;
        let (server, connector) = serve_channel(cfg);
        let mut c = TenantClient::over(connector.connect().expect("dial")).with_chunk(chunk);
        let (at, _) = c.hello(9, cores, &set).expect("admission");
        prop_assert_eq!(at, 0);
        let rows = c.stream(&trace.intervals, window).expect("stream");
        assert_rows_bit_identical(
            &rows,
            &embedded,
            &format!("mask={mask} chunk={chunk} window={window} shards={shards}"),
        );
        server.shutdown();
    }
}

#[test]
fn serve_metrics_tell_the_sessions_story() {
    let cores = 2;
    let x = xcfg(cores);
    let trace = recorded(13, cores);
    let n = trace.intervals.len() as u64;
    let events: u64 = trace.intervals.iter().map(|iv| iv.events.len() as u64).sum();
    let registry = MetricsRegistry::shared();

    let mut cfg = ServeConfig::new(x.clone());
    cfg.metrics = Some(registry.clone());
    cfg.snapshot_dir = Some(unique_dir("metrics"));
    let snapshot_dir = cfg.snapshot_dir.clone().expect("just set");
    let (server, connector) = serve_channel(cfg);
    for tenant in [4u64, 5] {
        let mut c = TenantClient::over(connector.connect().expect("dial"));
        c.hello(tenant, cores, &[Technique::GDP]).expect("admission");
        c.stream(&trace.intervals, 2).expect("stream");
    }
    server.shutdown();

    assert_eq!(registry.counter("serve.tenants").get(), 2);
    assert_eq!(registry.counter("serve.done").get(), 2);
    assert_eq!(registry.counter("serve.intervals").get(), 2 * n);
    assert_eq!(registry.counter("serve.events").get(), 2 * events);
    assert_eq!(registry.counter("serve.shed").get(), 0);
    assert_eq!(registry.counter("serve.errors").get(), 0);
    assert_eq!(registry.counter("serve.suspends").get(), 0, "clean finishes never suspend");
    assert_eq!(registry.gauge("serve.active").get(), 0, "all slots released");
    let json = registry.snapshot().counters_json();
    assert!(json.contains("serve.tenants"), "counters export under the serve.* glossary: {json}");
    let _ = std::fs::remove_dir_all(snapshot_dir);
}
