//! A finished connection releases what the server held for it while the
//! server keeps running: after 200 sequential tenants, over TCP and then
//! over the in-process channel transport, the process has no more open
//! file descriptors than before, and far fewer new memory mappings than
//! connections (a reader thread's stack is released once its connection
//! ends, not at shutdown).

#![cfg(target_os = "linux")]

mod common;

use std::time::{Duration, Instant};

use common::{recorded, xcfg};

use gdp_experiments::Technique;
use gdp_serve::{serve_channel, serve_tcp, ServeConfig, TenantClient};
use gdp_trace::TraceInterval;

const TENANTS: u64 = 200;
/// Descriptors allowed above the starting count once every tenant is done.
const FD_SLACK: usize = 4;
/// New mappings allowed for all `TENANTS` connections together: room
/// for the first reader's malloc arena and cached thread stack, far
/// below the two mappings each unreleased reader stack would add.
const MAPS_SLACK: usize = TENANTS as usize / 4;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count()
}

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps").lines().count()
}

/// Serve `TENANTS` tenants one after another, each dialed by `dial`,
/// streaming `head` and finishing cleanly; then wait for the server's
/// readers to wind down and check that nothing grew per connection.
fn assert_released(transport: &str, head: &[TraceInterval], dial: impl Fn() -> TenantClient) {
    let (fds, maps) = (open_fds(), mappings());
    for tenant in 0..TENANTS {
        let mut c = dial();
        c.hello(tenant, 2, &[Technique::GDP]).expect("admission");
        c.stream(head, 1).expect("stream");
    }
    // The last readers wind down after their clients have gone.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (open_fds() > fds + FD_SLACK || mappings() > maps + MAPS_SLACK)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let (fds_after, maps_after) = (open_fds(), mappings());
    assert!(
        fds_after <= fds + FD_SLACK,
        "{transport}: {fds} open fds before {TENANTS} tenants, {fds_after} after"
    );
    assert!(
        maps_after <= maps + MAPS_SLACK,
        "{transport}: {maps} mappings before {TENANTS} tenants, {maps_after} after"
    );
}

#[test]
fn finished_connections_release_their_fds_and_reader_stacks() {
    let trace = recorded(3, 2);
    let head = &trace.intervals[..1];

    let (server, addr) = serve_tcp(ServeConfig::new(xcfg(2)), "127.0.0.1:0").expect("bind");
    let addr = addr.to_string();
    assert_released("tcp", head, || TenantClient::connect_tcp(&addr).expect("dial"));
    server.shutdown();

    let (server, connector) = serve_channel(ServeConfig::new(xcfg(2)));
    assert_released("channel", head, || TenantClient::over(connector.connect().expect("dial")));
    server.shutdown();
}
