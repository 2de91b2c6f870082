//! Load-shed determinism: admission is the only shed point and it is
//! global, so overloading a server sheds the *same* tenants — and
//! serves the survivors the *same* bits — for any shard count and
//! across reruns.

mod common;

use common::{assert_rows_bit_identical, embedded_rows, recorded, xcfg};

use gdp_experiments::{CoreInterval, ExperimentConfig, Technique};
use gdp_serve::{serve_channel, ClientError, ServeConfig, TenantClient};
use gdp_trace::SharedTrace;

const CAPACITY: usize = 3;
const OFFERED: u64 = 8;

/// Each surviving tenant's id and served rows.
type Survivors = Vec<(u64, Vec<Vec<CoreInterval>>)>;

/// Offer `OFFERED` tenants in id order to a capacity-`CAPACITY` server
/// with `shards` shards; return the shed tenant ids and each survivor's
/// served rows.
fn run_overloaded(
    shards: usize,
    trace: &SharedTrace,
    x: &ExperimentConfig,
) -> (Vec<u64>, Survivors) {
    let mut cfg = ServeConfig::new(x.clone());
    cfg.shards = shards;
    cfg.max_tenants = CAPACITY;
    let (server, connector) = serve_channel(cfg);

    // Admission phase: sequential Hellos, every admitted connection held
    // open, so the server stays at capacity while the rest arrive.
    let mut shed = Vec::new();
    let mut live: Vec<(u64, TenantClient)> = Vec::new();
    for tenant in 0..OFFERED {
        let mut c = TenantClient::over(connector.connect().expect("dial"));
        match c.hello(tenant, 2, &[Technique::GDP]) {
            Ok((at, _)) => {
                assert_eq!(at, 0);
                live.push((tenant, c));
            }
            Err(ClientError::Shed) => shed.push(tenant),
            Err(e) => panic!("tenant {tenant}: unexpected admission outcome: {e}"),
        }
    }

    let mut rows = Vec::new();
    for (tenant, mut c) in live {
        rows.push((tenant, c.stream(&trace.intervals, 2).expect("surviving stream")));
    }
    server.shutdown();
    (shed, rows)
}

#[test]
fn shed_set_and_surviving_rows_are_shard_count_invariant() {
    let x = xcfg(2);
    let trace = recorded(17, 2);

    let (base_shed, base_rows) = run_overloaded(2, &trace, &x);
    // Admission order *is* the policy: the first CAPACITY tenants live,
    // everyone after is shed.
    assert_eq!(base_shed, (CAPACITY as u64..OFFERED).collect::<Vec<_>>());
    assert_eq!(
        base_rows.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
        (0..CAPACITY as u64).collect::<Vec<_>>()
    );

    // Identical across shard counts AND across a rerun of the same
    // shard count: byte-identical shed set, bit-identical rows.
    for (what, shards) in [("rerun", 2usize), ("shards=1", 1), ("shards=4", 4)] {
        let (shed, rows) = run_overloaded(shards, &trace, &x);
        assert_eq!(shed, base_shed, "{what}: shed set");
        assert_eq!(rows.len(), base_rows.len(), "{what}: survivor count");
        for ((ta, ra), (tb, rb)) in base_rows.iter().zip(&rows) {
            assert_eq!(ta, tb, "{what}: survivor identity");
            assert_rows_bit_identical(ra, rb, &format!("{what}: tenant {ta}"));
        }
    }

    // Survivors are served the embedded session's bits — overload never
    // perturbs an admitted stream.
    let embedded = embedded_rows(&trace, &x, &[Technique::GDP]);
    for (tenant, rows) in &base_rows {
        assert_rows_bit_identical(rows, &embedded, &format!("tenant {tenant} vs embedded"));
    }
}

#[test]
fn shed_slots_reopen_after_a_survivor_finishes() {
    let x = xcfg(2);
    let trace = recorded(17, 2);
    let mut cfg = ServeConfig::new(x.clone());
    cfg.max_tenants = 1;
    let (server, connector) = serve_channel(cfg);

    let mut first = TenantClient::over(connector.connect().expect("dial"));
    first.hello(1, 2, &[Technique::GDP]).expect("first admission");

    let mut second = TenantClient::over(connector.connect().expect("dial"));
    assert!(
        matches!(second.hello(2, 2, &[Technique::GDP]), Err(ClientError::Shed)),
        "second tenant is shed while the slot is held"
    );

    first.stream(&trace.intervals, 1).expect("first stream");
    // The slot is released before Done is sent, so the next arrival is
    // admitted on its first Hello.
    let mut third = TenantClient::over(connector.connect().expect("dial"));
    let (at, _) = third.hello(3, 2, &[Technique::GDP]).expect("slot reopens after a clean finish");
    assert_eq!(at, 0);
    server.shutdown();
}

#[test]
fn a_connected_tenant_id_is_refused_until_its_done() {
    let x = xcfg(2);
    let trace = recorded(17, 2);
    let (server, connector) = serve_channel(ServeConfig::new(x));

    let mut first = TenantClient::over(connector.connect().expect("dial"));
    first.hello(5, 2, &[Technique::GDP]).expect("first admission");

    // The same id again while its connection is open: a typed refusal,
    // not a second session.
    let mut twin = TenantClient::over(connector.connect().expect("dial"));
    match twin.hello(5, 2, &[Technique::GDP]) {
        Err(ClientError::Server(m)) => assert!(m.contains("already connected"), "{m}"),
        other => panic!("expected an already-connected refusal, got {other:?}"),
    }

    // Once the tenant has read Done its slot is gone: the same id is
    // admitted at once, as a fresh session.
    first.stream(&trace.intervals, 1).expect("first stream");
    let mut again = TenantClient::over(connector.connect().expect("dial"));
    let (at, _) = again.hello(5, 2, &[Technique::GDP]).expect("admitted right after Done");
    assert_eq!(at, 0);
    server.shutdown();
}
