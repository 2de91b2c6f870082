//! The serve workloads: a closed loop of tenants against an in-process
//! `gdp-serve` instance (`serve_channel`), each tenant dialling a fresh
//! connection with `TenantClient`.
//!
//! * `serve_stream`: each tenant streams one whole 2-core trace with a
//!   window of 4 intervals in flight, then finishes.
//! * `serve_churn`: each tenant is killed after its middle interval,
//!   reconnects, resumes from the server's snapshot and streams the rest.
//!
//! Every served row is compared bit for bit with an embedded
//! `ReplaySession` over the same trace.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::inputs;
use crate::layers::{self, ProbeTrace};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, tail};
use crate::{secs, Ctx};
use gdp_experiments::{CoreInterval, ExperimentConfig, ReplaySession, Technique};
use gdp_serve::proto::ServerMsg;
use gdp_serve::{serve_channel, ChannelConnector, ClientError, ServeConfig, Server, TenantClient};
use gdp_telemetry::{MetricsRegistry, SpanHandle, TraceRecorder};
use gdp_trace::{SharedTrace, TraceInterval};

/// The techniques every tenant asks for.
const TECHNIQUES: [Technique; 2] = [Technique::GDP, Technique::GDP_O];

/// Intervals a tenant keeps in flight.
const WINDOW: usize = 4;

/// Server shard threads.
const SHARDS: usize = 2;

/// Pause between reconnect attempts while the server still holds a
/// killed tenant's slot (it releases it once the snapshot is on disk).
const RETRY_PAUSE: Duration = Duration::from_micros(200);

/// Give up on a reconnect after this long.
const RETRY_LIMIT: Duration = Duration::from_secs(5);

/// Throughput and memory are taken per window of this length.
const SAMPLE_WINDOW: Duration = Duration::from_secs(1);

/// How often the window clock is checked.
const POLL: Duration = Duration::from_millis(10);

/// The tenant streams of a seed (see [`inputs::serve_workloads`]) and
/// their embedded oracle rows.
struct Inputs {
    xcfg: ExperimentConfig,
    traces: Vec<SharedTrace>,
    oracles: Vec<Vec<Vec<CoreInterval>>>,
}

fn inputs(seed: u64) -> Inputs {
    let xcfg = ExperimentConfig::tiny(2);
    let traces: Vec<SharedTrace> = inputs::serve_workloads(seed)
        .iter()
        .map(|w| inputs::record_prefix(w, &xcfg, &TECHNIQUES))
        .collect();
    let oracles = traces
        .iter()
        .map(|t| ReplaySession::new(t, &xcfg, &TECHNIQUES).into_report().intervals)
        .collect();
    Inputs { xcfg, traces, oracles }
}

/// Start a server keeping tenant snapshots in `snapshots` under the
/// run's scratch space.
fn start_server(
    ctx: &Ctx,
    snapshots: &str,
    xcfg: &ExperimentConfig,
    metrics: Option<Arc<MetricsRegistry>>,
) -> (Server, ChannelConnector) {
    // Admission capacity stays at its default, far above what a closed
    // loop of `ctx.clients` can hold, so no tenant is ever shed.
    let mut cfg = ServeConfig::new(xcfg.clone());
    cfg.shards = SHARDS;
    cfg.snapshot_dir = Some(ctx.work.join(snapshots));
    cfg.metrics = metrics;
    serve_channel(cfg)
}

/// Bit-level row equality (the serving contract: no tolerance).
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

/// Client-side timings of the tenants one server was sent.
#[derive(Default)]
struct Load {
    tenant: Vec<f64>,
    admit: Vec<f64>,
    first_row: Vec<f64>,
    rtt: Vec<f64>,
    resume: Vec<f64>,
    retries: u64,
    events: u64,
    results: Vec<Option<String>>,
}

impl Load {
    fn merge(&mut self, o: Load) {
        self.tenant.extend(o.tenant);
        self.admit.extend(o.admit);
        self.first_row.extend(o.first_row);
        self.rtt.extend(o.rtt);
        self.resume.extend(o.resume);
        self.retries += o.retries;
        self.events += o.events;
        self.results.extend(o.results);
    }
}

/// A server tenants are sent to, with the bench spans of a traced one.
struct Target<'a> {
    dial: &'a ChannelConnector,
    spans: Option<&'a ServeSpans>,
}

/// What a load phase measured: client timings per target, and served
/// throughput and peak heap per `SAMPLE_WINDOW` over all targets.
struct Phase {
    loads: Vec<Load>,
    rates: Vec<f64>,
    peaks: Vec<f64>,
    wall: f64,
}

/// One tenant's connection state while streaming.
struct Stream<'a> {
    client: TenantClient,
    load: &'a mut Load,
    start: Instant,
    rows: Vec<Vec<CoreInterval>>,
}

impl Stream<'_> {
    /// Stream `ivs`, the intervals after the rows already received, with
    /// up to `WINDOW` in flight, timing each interval's round trip.
    fn pump(&mut self, ivs: &[TraceInterval]) -> Result<(), String> {
        let mut sent: VecDeque<Instant> = VecDeque::with_capacity(WINDOW);
        let mut next = ivs.iter();
        loop {
            if sent.len() < WINDOW {
                if let Some(iv) = next.next() {
                    sent.push_back(Instant::now());
                    self.client.send_interval(iv).map_err(|e| format!("send: {e}"))?;
                    continue;
                }
            }
            let Some(t) = sent.pop_front() else { return Ok(()) };
            let (index, row) = self.client.recv_row().map_err(|e| format!("row: {e}"))?;
            self.load.rtt.push(secs(t.elapsed()));
            if self.rows.is_empty() {
                self.load.first_row.push(secs(self.start.elapsed()));
            }
            // A resumed stream continues the server's interval numbering.
            if index as usize != self.rows.len() {
                return Err(format!("row index {index}, expected {}", self.rows.len()));
            }
            self.rows.push(row);
        }
    }

    fn finish(mut self) -> Result<Vec<Vec<CoreInterval>>, String> {
        self.client.finish().map_err(|e| format!("finish: {e}"))?;
        match self.client.recv_msg().map_err(|e| format!("done: {e}"))? {
            ServerMsg::Done { .. } => Ok(self.rows),
            other => Err(format!("expected Done, got {other:?}")),
        }
    }
}

/// Bench-side spans around the client calls of a traced load phase.
struct ServeSpans {
    tenant: SpanHandle,
    admit: SpanHandle,
    resume: SpanHandle,
}

/// Dial and introduce `tenant`; returns the client and its resume point.
fn admit(
    dial: &ChannelConnector,
    tenant: u64,
    span: Option<&SpanHandle>,
) -> Result<(TenantClient, u64), ClientError> {
    let _g = span.map(SpanHandle::enter);
    let mut c = TenantClient::over(dial.connect()?);
    let (at, _) = c.hello(tenant, 2, &TECHNIQUES)?;
    Ok((c, at))
}

/// Run one tenant end to end; `Ok` holds the rows served.
fn tenant(
    dial: &ChannelConnector,
    id: u64,
    trace: &SharedTrace,
    churn: bool,
    load: &mut Load,
    spans: Option<&ServeSpans>,
) -> Result<Vec<Vec<CoreInterval>>, String> {
    let _g = spans.map(|s| s.tenant.enter());
    let start = Instant::now();
    let (client, at) =
        admit(dial, id, spans.map(|s| &s.admit)).map_err(|e| format!("hello: {e}"))?;
    load.admit.push(secs(start.elapsed()));
    if at != 0 {
        return Err(format!("fresh tenant resumed at {at}"));
    }
    let ivs = &trace.intervals;
    let cut = if churn { ivs.len() / 2 } else { ivs.len() };
    let mut s = Stream { client, load, start, rows: Vec::with_capacity(ivs.len()) };
    s.pump(&ivs[..cut])?;
    if cut < ivs.len() {
        // Kill after every row up to the cut arrived, so the server's
        // snapshot sits exactly at the cut; then reconnect and resume.
        let Stream { client, load, rows, .. } = s;
        client.kill();
        let t = Instant::now();
        let resume_span = spans.map(|s| s.resume.enter());
        let (client, at) = loop {
            match admit(dial, id, None) {
                Ok(ok) => break ok,
                Err(ClientError::Server(m)) if m.contains("already connected") => {
                    load.retries += 1;
                    if t.elapsed() > RETRY_LIMIT {
                        return Err("tenant slot never released".into());
                    }
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(e) => return Err(format!("reconnect: {e}")),
            }
        };
        load.resume.push(secs(t.elapsed()));
        drop(resume_span);
        if at != cut as u64 {
            return Err(format!("resumed at {at}, expected {cut}"));
        }
        s = Stream { client, load, start, rows };
        s.pump(&ivs[cut..])?;
    }
    s.finish()
}

/// Drive `ctx.clients` closed-loop client threads for `seconds`, or
/// until each has run `limit` tenants, sending tenants to the targets in
/// turn.
fn load_phase(
    ctx: &Ctx,
    inputs: &Inputs,
    targets: &[Target],
    churn: bool,
    seconds: f64,
    limit: u64,
) -> Phase {
    let totals: Mutex<Vec<Load>> = Mutex::new(targets.iter().map(|_| Load::default()).collect());
    let served = AtomicU64::new(0);
    let active = AtomicUsize::new(ctx.clients);
    let (mut rates, mut peaks) = (Vec::new(), Vec::new());
    crate::heap::take_peak_mb();
    let begin = Instant::now();
    std::thread::scope(|s| {
        for k in 0..ctx.clients {
            let (totals, served, active) = (&totals, &served, &active);
            s.spawn(move || {
                let mut loads: Vec<Load> = targets.iter().map(|_| Load::default()).collect();
                let mut i = 0u64;
                while i < limit && secs(begin.elapsed()) < seconds {
                    let id = (k as u64) << 32 | i;
                    let which = (k + i as usize) % inputs.traces.len();
                    let to = i as usize % targets.len();
                    let (target, load) = (&targets[to], &mut loads[to]);
                    let t = Instant::now();
                    let trace = &inputs.traces[which];
                    let res = match tenant(target.dial, id, trace, churn, load, target.spans) {
                        Ok(rows) if rows_bit_equal(&rows, &inputs.oracles[which]) => {
                            load.tenant.push(secs(t.elapsed()));
                            let events = trace.event_count() as u64;
                            load.events += events;
                            served.fetch_add(events, Ordering::Relaxed);
                            None
                        }
                        Ok(_) => Some(format!(
                            "tenant {id}: served rows differ from the embedded session"
                        )),
                        Err(e) => Some(format!("tenant {id}: {e}")),
                    };
                    load.results.push(res);
                    i += 1;
                }
                let mut totals = totals.lock().expect("load totals");
                for (total, load) in totals.iter_mut().zip(loads) {
                    total.merge(load);
                }
                active.fetch_sub(1, Ordering::Relaxed);
            });
        }
        // Whole windows inside the measured time; the tail in which the
        // clients finish their last tenants is left out.
        let (mut from, mut from_events) = (begin, 0u64);
        while active.load(Ordering::Relaxed) > 0 {
            std::thread::sleep(POLL);
            let now = Instant::now();
            if secs(now - begin) > seconds {
                break;
            }
            if now - from >= SAMPLE_WINDOW {
                let events = served.load(Ordering::Relaxed);
                rates.push((events - from_events) as f64 / secs(now - from));
                peaks.push(crate::heap::take_peak_mb());
                (from, from_events) = (now, events);
            }
        }
    });
    let loads = totals.into_inner().expect("load totals");
    let wall = secs(begin.elapsed());
    if rates.is_empty() {
        rates.push(loads.iter().map(|l| l.events).sum::<u64>() as f64 / wall);
        peaks.push(crate::heap::take_peak_mb());
    }
    Phase { loads, rates, peaks, wall }
}

/// The attachments of a traced run: a server with the `serve.*`
/// registry, the timeline, and the benchmark's own spans.
struct Traced {
    tracer: Arc<TraceRecorder>,
    registry: Arc<MetricsRegistry>,
    bench: Arc<MetricsRegistry>,
    spans: ServeSpans,
    server: Server,
    dial: ChannelConnector,
}

impl Traced {
    fn start(ctx: &Ctx, xcfg: &ExperimentConfig) -> Traced {
        let tracer = TraceRecorder::shared();
        let registry = MetricsRegistry::shared();
        registry.set_tracer(Arc::clone(&tracer));
        let bench = MetricsRegistry::shared();
        bench.set_tracer(Arc::clone(&tracer));
        let spans = ServeSpans {
            tenant: bench.span("bench.serve.tenant"),
            admit: bench.span("bench.serve.admit"),
            resume: bench.span("bench.serve.resume"),
        };
        let (server, dial) =
            start_server(ctx, "snapshots-traced", xcfg, Some(Arc::clone(&registry)));
        Traced { tracer, registry, bench, spans, server, dial }
    }
}

/// Run `serve_stream` (`churn == false`) or `serve_churn`.
pub fn run(ctx: &Ctx, churn: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: record the tenant streams, replay their oracle rows,
    // start the server.
    let (inputs, server, dial) = crate::set_up(
        &mut out.metrics,
        || {
            let inputs = inputs(ctx.seed);
            let (server, dial) = start_server(ctx, "snapshots", &inputs.xcfg, None);
            (inputs, server, dial)
        },
        |(_, server, _)| server.shutdown(),
    );

    // Under --trace every other tenant goes to a second server with the
    // trace attachments, so the two halves share the host's conditions.
    let traced = ctx.trace.then(|| Traced::start(ctx, &inputs.xcfg));
    let mut targets = vec![Target { dial: &dial, spans: None }];
    if let Some(t) = &traced {
        targets.push(Target { dial: &t.dial, spans: Some(&t.spans) });
    }
    let phase = load_phase(ctx, &inputs, &targets, churn, ctx.seconds, u64::MAX);
    drop(targets);
    server.shutdown();
    report_load(&mut out.metrics, &phase);

    if let Some(t) = traced {
        t.server.shutdown();
        let m = &mut out.metrics;
        let snap = t.registry.snapshot();
        for name in ["tenants", "events", "intervals", "suspends", "resume", "shed"] {
            let v = snap.counter(&format!("serve.{name}")).unwrap_or(0);
            m.set(&format!("serve.{name}"), "count", v as f64);
        }
        let (plain, traced) = (&phase.loads[0], &phase.loads[1]);
        if let (Some(a), Some(b)) = (median(&plain.tenant), median(&traced.tenant)) {
            m.set("telemetry.overhead_pct", "%", 100.0 * (b / a - 1.0));
        }
        let busy: f64 = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("serve.shard."))
            .map(|s| secs(s.total))
            .sum();
        m.set("serve.shard_busy_frac", "fraction", busy / (phase.wall * SHARDS as f64));
        let probes: Vec<ProbeTrace> = inputs
            .traces
            .iter()
            .map(|t| ProbeTrace { trace: t.clone(), xcfg: inputs.xcfg.clone(), invasive: false })
            .collect();
        m.extend(layers::probe(&probes, &ctx.work.join("probe"), ctx.clients, &t.bench));
        crate::write_timeline(ctx, &t.tracer);
    }
    for load in phase.loads {
        for r in load.results {
            out.check(r);
        }
    }
    out
}

/// The end-to-end numbers of a load phase, and the client-side serve
/// latencies of the tenants sent to the untraced server.
fn report_load(m: &mut Metrics, phase: &Phase) {
    let (rates, peaks) = (&phase.rates, &phase.peaks);
    m.sampled("events_per_s", "events/s", median(rates).expect("a window"), rates.len());
    m.sampled("peak_heap_mb", "MB", median(peaks).expect("a window"), peaks.len());
    let l = &phase.loads[0];
    let us = |xs: &[f64]| xs.iter().map(|x| x * 1e6).collect::<Vec<f64>>();
    if let Some(v) = median(&l.tenant) {
        m.sampled("op_p50_ms", "ms", v * 1e3, l.tenant.len());
    }
    for (name, xs) in [
        ("serve.admit", us(&l.admit)),
        ("serve.first_row", us(&l.first_row)),
        ("serve.interval_rtt", us(&l.rtt)),
        ("serve.resume", us(&l.resume)),
    ] {
        if let Some(v) = median(&xs) {
            m.sampled(&format!("{name}_p50_us"), "us", v, xs.len());
        }
        if let Some(t) = tail(&xs) {
            m.tail(&format!("{name}_tail_us"), "us", t, xs.len());
        }
    }
    m.set("serve.resume_retries", "count", l.retries as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four churned tenants: each is killed mid-stream, resumes at its
    /// cut and is served rows bit-equal to the embedded session.
    #[test]
    fn short_churn_run_has_no_failures() {
        let dir = std::env::temp_dir().join(format!("gdpbench-churn-{}", std::process::id()));
        let ctx = Ctx {
            workload: "serve_churn",
            seed: gdp_bench::SWEEP_SEED,
            seconds: f64::MAX,
            trace: false,
            nproc: 2,
            clients: 2,
            work: dir.join("work"),
            dir: dir.clone(),
        };
        let inputs = inputs(ctx.seed);
        let (server, dial) = start_server(&ctx, "snapshots", &inputs.xcfg, None);
        let targets = [Target { dial: &dial, spans: None }];
        let mut phase = load_phase(&ctx, &inputs, &targets, true, ctx.seconds, 2);
        server.shutdown();
        let load = phase.loads.remove(0);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(load.results.len(), 4);
        assert_eq!(load.results.iter().flatten().collect::<Vec<_>>(), Vec::<&String>::new());
        assert_eq!(load.resume.len(), 4, "every tenant resumed once");
        assert!(load.events > 0);
    }
}
