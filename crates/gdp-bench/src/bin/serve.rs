//! serve: load driver and correctness harness for the `gdp-serve`
//! estimation-as-a-service subsystem.
//!
//! Records (or loads from the trace cache) one 2-core H-class shared
//! trace, starts a sharded serve instance, drives `--tenants N`
//! concurrent tenant sessions through it, and byte-verifies every
//! served row against the embedded `ReplaySession` oracle. Reports
//! sustained event throughput; exits non-zero on any row mismatch.
//!
//! `--kill-resume` additionally runs the evict/resume check: one
//! lock-step tenant is killed mid-stream, reconnects, must resume at
//! exactly the cut interval, and the concatenated rows must equal the
//! uninterrupted oracle bit for bit.
//!
//! `--rows-out DIR` writes `served.txt` / `embedded.txt` row dumps
//! (every float as raw bits) for tenant 1 — the CI smoke job byte-diffs
//! them.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gdp_bench::{class_workloads, Scale, SWEEP_SEED};
use gdp_experiments::{
    record_shared, shared_trace_key_for, CoreInterval, ExperimentConfig, ReplaySession, Technique,
};
use gdp_runner::{Campaign, Json};
use gdp_serve::{
    serve_channel, serve_tcp, ChannelConnector, ClientError, ServeConfig, TenantClient,
};
use gdp_telemetry::MetricsRegistry;
use gdp_trace::{SharedTrace, TraceCache, TraceError};
use gdp_workloads::{LlcClass, Workload};

const USAGE: &str = "\
usage: serve [options]
  --tiny | --quick | --full   trace scale (default --tiny)
  --tenants N                 concurrent tenant sessions (default 64)
  --shards N                  server shard threads (default 2)
  --max-tenants N             admission capacity (default: tenants)
  --window N                  client pipelining window (default 4)
  --chunk N                   split client writes into N-byte chunks
  --tcp                       drive over TCP instead of in-process pipes
  --techniques a,b,c          technique set (default gdp,gdp-o)
  --kill-resume               kill one tenant mid-stream, verify resume
  --trace-dir DIR             shared-trace cache (default results/traces)
  --snapshot-dir DIR          tenant snapshot store (default: temp, removed)
  --rows-out DIR              write served/embedded row dumps for tenant 1
  --metrics-out PATH          write the serve.* metrics snapshot JSON
  --json                      write results/serve.json
  --quiet                     suppress stderr progress
  -h | --help                 this text";

struct Args {
    scale: Scale,
    tenants: usize,
    shards: usize,
    max_tenants: Option<usize>,
    window: usize,
    chunk: Option<usize>,
    tcp: bool,
    techniques: Vec<Technique>,
    kill_resume: bool,
    trace_dir: String,
    snapshot_dir: Option<String>,
    rows_out: Option<String>,
    metrics_out: Option<String>,
    json: bool,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        scale: Scale::Tiny,
        tenants: 64,
        shards: 2,
        max_tenants: None,
        window: 4,
        chunk: None,
        tcp: false,
        techniques: vec![Technique::GDP, Technique::GDP_O],
        kill_resume: false,
        trace_dir: "results/traces".into(),
        snapshot_dir: None,
        rows_out: None,
        metrics_out: None,
        json: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("serve: {flag} needs a value\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tiny" => a.scale = Scale::Tiny,
            "--quick" => a.scale = Scale::Quick,
            "--full" => a.scale = Scale::Full,
            "--tenants" => a.tenants = parse_num(&value(&mut it, "--tenants"), "--tenants"),
            "--shards" => a.shards = parse_num(&value(&mut it, "--shards"), "--shards"),
            "--max-tenants" => {
                a.max_tenants = Some(parse_num(&value(&mut it, "--max-tenants"), "--max-tenants"))
            }
            "--window" => a.window = parse_num(&value(&mut it, "--window"), "--window"),
            "--chunk" => a.chunk = Some(parse_num(&value(&mut it, "--chunk"), "--chunk")),
            "--tcp" => a.tcp = true,
            "--techniques" => match Technique::parse_list(&value(&mut it, "--techniques")) {
                Ok(set) => a.techniques = set,
                Err(e) => {
                    eprintln!("serve: {e}");
                    std::process::exit(2);
                }
            },
            "--kill-resume" => a.kill_resume = true,
            "--trace-dir" => a.trace_dir = value(&mut it, "--trace-dir"),
            "--snapshot-dir" => a.snapshot_dir = Some(value(&mut it, "--snapshot-dir")),
            "--rows-out" => a.rows_out = Some(value(&mut it, "--rows-out")),
            "--metrics-out" => a.metrics_out = Some(value(&mut it, "--metrics-out")),
            "--json" => a.json = true,
            "--quiet" => a.quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("serve: unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if a.tenants == 0 || a.shards == 0 || a.window == 0 {
        eprintln!("serve: --tenants/--shards/--window must be >= 1");
        std::process::exit(2);
    }
    a
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("serve: {flag} expects a number, got {s:?}");
        std::process::exit(2);
    })
}

/// The shared trace of `w` under `x` and `set` from `cache`, or a fresh
/// recording stored there on a miss; the flag says which. An entry of
/// another core count is refused like a corrupt one — a quarantined miss
/// — since replaying it would break the session's one-boundary-per-core
/// contract.
fn driver_trace(
    cache: &TraceCache,
    w: &Workload,
    x: &ExperimentConfig,
    set: &[Technique],
) -> (SharedTrace, bool) {
    let key = shared_trace_key_for(x, w, set);
    let cached = cache.stream_shared(&key, |reader| {
        if reader.cores() != x.sim.cores {
            return Err(TraceError::BadSection { section: "META" });
        }
        reader.into_trace()
    });
    if let Some(t) = cached {
        return (t, true);
    }
    let (_, trace) = record_shared(w, x, set);
    if let Err(e) = cache.store_shared(&key, &trace) {
        eprintln!("serve: cannot cache trace in {}: {e}", cache.dir().display());
    }
    (trace, false)
}

/// How each tenant thread dials the server.
#[derive(Clone)]
enum Dial {
    Channel(ChannelConnector),
    Tcp(String),
}

impl Dial {
    fn client(&self) -> Result<TenantClient, std::io::Error> {
        match self {
            Dial::Channel(c) => Ok(TenantClient::over(c.connect()?)),
            Dial::Tcp(addr) => TenantClient::connect_tcp(addr),
        }
    }
}

/// Bit-level row equality (no tolerance: the serving contract).
fn rows_bit_equal(a: &[Vec<CoreInterval>], b: &[Vec<CoreInterval>]) -> bool {
    fn core_eq(x: &CoreInterval, y: &CoreInterval) -> bool {
        x.instr_start == y.instr_start
            && x.instr_end == y.instr_end
            && x.stats == y.stats
            && x.lambda.to_bits() == y.lambda.to_bits()
            && x.shared_latency.to_bits() == y.shared_latency.to_bits()
            && x.estimates.len() == y.estimates.len()
            && x.estimates.iter().zip(&y.estimates).all(|(e, f)| {
                e.cpi.to_bits() == f.cpi.to_bits()
                    && e.sigma_sms.to_bits() == f.sigma_sms.to_bits()
                    && e.cpl == f.cpl
                    && e.overlap.to_bits() == f.overlap.to_bits()
            })
    }
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(ra, rb)| ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| core_eq(x, y)))
}

/// Deterministic text dump of rows, every float as raw bits (the
/// byte-diff surface of the CI smoke job).
fn dump_rows(rows: &[Vec<CoreInterval>]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (c, iv) in row.iter().enumerate() {
            out += &format!(
                "iv {i} core {c}: instr {}..{} lambda {:016x} shared {:016x} stats {:?}\n",
                iv.instr_start,
                iv.instr_end,
                iv.lambda.to_bits(),
                iv.shared_latency.to_bits(),
                iv.stats
            );
            for (e, est) in iv.estimates.iter().enumerate() {
                out += &format!(
                    "  est {e}: cpi {:016x} sigma {:016x} cpl {} overlap {:016x}\n",
                    est.cpi.to_bits(),
                    est.sigma_sms.to_bits(),
                    est.cpl,
                    est.overlap.to_bits()
                );
            }
        }
    }
    out
}

/// Reconnect `tenant`, retrying while the killed connection's hangup is
/// still being checkpointed.
fn reconnect(
    dial: &Dial,
    tenant: u64,
    cores: usize,
    set: &[Technique],
) -> Result<(TenantClient, u64), String> {
    for _ in 0..2000 {
        let mut c = dial.client().map_err(|e| format!("dial: {e}"))?;
        match c.hello(tenant, cores, set) {
            Ok((at, _)) => return Ok((c, at)),
            Err(ClientError::Server(m)) if m.contains("already connected") => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(format!("reconnect: {e}")),
        }
    }
    Err("tenant slot never released".into())
}

/// The evict/resume check: lock-step to the cut, kill, reconnect,
/// verify the resume position and the concatenated bits.
fn kill_resume_check(
    dial: &Dial,
    tenant: u64,
    trace: &SharedTrace,
    set: &[Technique],
    embedded: &[Vec<CoreInterval>],
) -> Result<u64, String> {
    let n = trace.intervals.len();
    let k = n / 2;
    if k == 0 {
        return Err("trace too short for a kill/resume cut".into());
    }
    let mut c = dial.client().map_err(|e| format!("dial: {e}"))?;
    let (at, _) = c.hello(tenant, trace.cores, set).map_err(|e| format!("hello: {e}"))?;
    if at != 0 {
        return Err(format!("fresh tenant resumed at {at}"));
    }
    let mut rows = Vec::with_capacity(n);
    for iv in &trace.intervals[..k] {
        c.send_interval(iv).map_err(|e| format!("send: {e}"))?;
        rows.push(c.recv_row().map_err(|e| format!("row: {e}"))?.1);
    }
    c.kill();
    let (mut c, at) = reconnect(dial, tenant, trace.cores, set)?;
    if at != k as u64 {
        return Err(format!("resumed at {at}, expected {k}"));
    }
    rows.extend(c.stream(&trace.intervals[k..], 2).map_err(|e| format!("tail: {e}"))?);
    if !rows_bit_equal(&rows, embedded) {
        return Err("resumed rows diverge from the embedded session".into());
    }
    Ok(k as u64)
}

fn main() {
    let args = parse_args();
    let cores = 2;
    let x = args.scale.xcfg(cores);
    let set = args.techniques.clone();

    let w = &class_workloads(cores, LlcClass::H, args.scale)[0];
    let (trace, cached) = driver_trace(&TraceCache::new(&args.trace_dir), w, &x, &set);
    let n = trace.intervals.len();
    let events_per_tenant: u64 = trace.intervals.iter().map(|iv| iv.events.len() as u64).sum();
    let embedded = Arc::new(ReplaySession::new(&trace, &x, &set).into_report().intervals);
    let trace = Arc::new(trace);
    if !args.quiet {
        eprintln!(
            "[serve] trace: {} ({n} intervals, {events_per_tenant} events) [{}]",
            trace.workload,
            if cached { "cached" } else { "recorded" }
        );
    }

    // Snapshot store: explicit dir, or a private temp one (removed on
    // exit) so kill-resume and drain always have somewhere to land.
    let (snapshot_dir, snapshot_is_temp) = match &args.snapshot_dir {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => {
            (std::env::temp_dir().join(format!("gdp-serve-driver-{}", std::process::id())), true)
        }
    };

    let registry = MetricsRegistry::shared();
    let mut cfg = ServeConfig::new(x.clone());
    cfg.shards = args.shards;
    cfg.max_tenants = args.max_tenants.unwrap_or(args.tenants.max(1) + 1);
    cfg.snapshot_dir = Some(snapshot_dir.clone());
    cfg.metrics = Some(registry.clone());

    let campaign = Campaign::new("serve", args.scale.name(), SWEEP_SEED, args.tenants);
    let (server, dial) = if args.tcp {
        let (server, addr) = match serve_tcp(cfg, "127.0.0.1:0") {
            Ok(v) => v,
            Err(e) => {
                eprintln!("serve: cannot bind TCP: {e}");
                std::process::exit(1);
            }
        };
        (server, Dial::Tcp(addr.to_string()))
    } else {
        let (server, connector) = serve_channel(cfg);
        (server, Dial::Channel(connector))
    };

    // Load phase: one small-stack thread per tenant, each streaming the
    // whole trace and bit-verifying its rows against the oracle.
    let verified = Arc::new(AtomicU64::new(0));
    let mismatched = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(Mutex::new(Vec::<String>::new()));
    let tenant1_rows = Arc::new(Mutex::new(Vec::<Vec<CoreInterval>>::new()));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(args.tenants);
    for tenant in 1..=args.tenants as u64 {
        let dial = dial.clone();
        let trace = Arc::clone(&trace);
        let embedded = Arc::clone(&embedded);
        let set = set.clone();
        let verified = Arc::clone(&verified);
        let mismatched = Arc::clone(&mismatched);
        let shed = Arc::clone(&shed);
        let failed = Arc::clone(&failed);
        let tenant1_rows = Arc::clone(&tenant1_rows);
        let (window, chunk) = (args.window, args.chunk);
        let h = std::thread::Builder::new()
            .name(format!("tenant-{tenant}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                let run = || -> Result<(), ClientError> {
                    let mut c = dial.client()?;
                    if let Some(nbytes) = chunk {
                        c = c.with_chunk(nbytes);
                    }
                    c.hello(tenant, trace.cores, &set)?;
                    let rows = c.stream(&trace.intervals, window)?;
                    if rows_bit_equal(&rows, &embedded) {
                        verified.fetch_add(1, Ordering::Relaxed);
                    } else {
                        mismatched.fetch_add(1, Ordering::Relaxed);
                    }
                    if tenant == 1 {
                        *tenant1_rows.lock().expect("rows") = rows;
                    }
                    Ok(())
                };
                match run() {
                    Ok(()) => {}
                    Err(ClientError::Shed) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        failed.lock().expect("failures").push(format!("tenant {tenant}: {e}"));
                    }
                }
            })
            .expect("spawn tenant");
        handles.push(h);
    }
    for h in handles {
        let _ = h.join();
    }
    let wall = started.elapsed();
    let verified = verified.load(Ordering::Relaxed);
    let mismatched = mismatched.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    let failures = std::mem::take(&mut *failed.lock().expect("failures"));
    let events_total = verified.saturating_add(mismatched) * events_per_tenant;
    let events_per_s = events_total as f64 / wall.as_secs_f64().max(1e-9);

    // Evict/resume check after the load phase (quiet server).
    let resume_cut = if args.kill_resume {
        match kill_resume_check(&dial, args.tenants as u64 + 1, &trace, &set, &embedded) {
            Ok(k) => Some(k),
            Err(e) => {
                eprintln!("serve: kill-resume check failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    server.shutdown();

    if let Some(dir) = &args.rows_out {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("serve: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let served = tenant1_rows.lock().expect("rows");
        for (name, rows) in [("served.txt", &*served), ("embedded.txt", &embedded)] {
            let path = dir.join(name);
            match std::fs::File::create(&path)
                .and_then(|mut f| f.write_all(dump_rows(rows).as_bytes()))
            {
                Ok(()) => {
                    if !args.quiet {
                        eprintln!("[serve] wrote {}", path.display());
                    }
                }
                Err(e) => {
                    eprintln!("serve: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }

    if let Some(path) = &args.metrics_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        match std::fs::write(path, registry.snapshot().to_json()) {
            Ok(()) => {
                if !args.quiet {
                    eprintln!("[serve] wrote {path}");
                }
            }
            Err(e) => {
                eprintln!("serve: cannot write metrics to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if snapshot_is_temp {
        let _ = std::fs::remove_dir_all(&snapshot_dir);
    }

    let transport = if args.tcp { "tcp" } else { "channel" };
    let ids: Vec<&str> = set.iter().map(|t| t.id()).collect();
    println!("serve: sharded multi-tenant estimation service, load-driver report");
    println!(
        "  transport={transport} shards={} tenants={} window={} chunk={} techniques={}",
        args.shards,
        args.tenants,
        args.window,
        args.chunk.map_or("off".to_string(), |c| c.to_string()),
        ids.join(",")
    );
    println!("  trace: {} — {n} intervals, {events_per_tenant} events per tenant", trace.workload);
    println!("  verified={verified} mismatched={mismatched} shed={shed} errors={}", failures.len());
    println!(
        "  wall={:.2}s throughput={:.2}M events/s rows={}",
        wall.as_secs_f64(),
        events_per_s / 1e6,
        verified as usize * n
    );
    match resume_cut {
        Some(k) => println!("  kill-resume: resumed at interval {k}, tail bit-exact"),
        None => println!("  kill-resume: not requested"),
    }
    for f in failures.iter().take(8) {
        eprintln!("serve: {f}");
    }

    if args.json {
        let data = Json::obj(vec![
            ("transport", Json::Str(transport.into())),
            ("shards", Json::Num(args.shards as f64)),
            ("tenants", Json::Num(args.tenants as f64)),
            ("window", Json::Num(args.window as f64)),
            ("techniques", Json::Arr(ids.iter().map(|s| Json::Str(s.to_string())).collect())),
            ("intervals_per_tenant", Json::Num(n as f64)),
            ("events_per_tenant", Json::Num(events_per_tenant as f64)),
            ("verified", Json::Num(verified as f64)),
            ("mismatched", Json::Num(mismatched as f64)),
            ("shed", Json::Num(shed as f64)),
            ("client_errors", Json::Num(failures.len() as f64)),
            ("wall_s", Json::Num(wall.as_secs_f64())),
            ("events_per_s", Json::Num(events_per_s)),
            ("kill_resume_cut", resume_cut.map_or(Json::Null, |k| Json::Num(k as f64))),
        ]);
        match campaign.write(args.tenants, data) {
            Ok(path) => eprintln!("[serve] wrote {}", path.display()),
            Err(e) => {
                eprintln!("serve: cannot write results: {e}");
                std::process::exit(1);
            }
        }
    }

    if mismatched > 0 || !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_trace::{Boundary, TraceInterval};

    /// A CRC-valid cached trace of another core count under the driver's
    /// key is a quarantined miss that re-records; handed to the 2-core
    /// replay it would panic on its first interval.
    #[test]
    fn a_cached_trace_of_another_core_count_is_re_recorded() {
        let dir =
            std::env::temp_dir().join(format!("gdp-serve-driver-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new(&dir);
        let mut x = Scale::Tiny.xcfg(2);
        x.sample_instrs = 5_000;
        x.interval_cycles = 9_000;
        let w = &class_workloads(2, LlcClass::H, Scale::Tiny)[0];
        let set = [Technique::GDP];
        let key = shared_trace_key_for(&x, w, &set);

        // Two well-formed intervals with one boundary each: the entry
        // decodes; only its core count is wrong for the driver.
        let interval = |k: u64| TraceInterval {
            events: Vec::new(),
            boundaries: vec![Boundary {
                instr_start: 100 * k,
                instr_end: 100 * (k + 1),
                stats: Default::default(),
                lambda: 0.0,
                shared_latency: 0.0,
            }],
        };
        let one_core = SharedTrace {
            cores: 1,
            workload: w.name.clone(),
            cycles: 1_000,
            final_stats: vec![Default::default()],
            intervals: vec![interval(0), interval(1)],
        };
        assert!(gdp_trace::decode_shared(&gdp_trace::encode_shared(&one_core)).is_ok());
        cache.store_shared(&key, &one_core).expect("store the 1-core entry");

        let (trace, cached) = driver_trace(&cache, w, &x, &set);
        assert!(!cached, "the 1-core entry is a miss");
        assert_eq!(trace.cores, 2, "a fresh 2-core recording");
        assert_eq!(cache.stats().quarantines, 1, "the bad entry is quarantined");
        assert_eq!(cache.load_shared(&key).map(|t| t.cores), Some(2), "and replaced");
        // The trace replays under the driver's configuration.
        let rows = ReplaySession::new(&trace, &x, &set).into_report().intervals;
        assert_eq!(rows.len(), trace.intervals.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
