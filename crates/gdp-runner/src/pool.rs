//! A std-only work-stealing job pool with deterministic result order.
//!
//! Campaign jobs are pure, independent and of wildly varying cost (an
//! 8-core shared-mode simulation vs. a 2-core private run), which is the
//! classic work-stealing setting: jobs are dealt round-robin onto
//! per-worker deques, each worker pops its own deque from the front and
//! steals from the *back* of its neighbours' deques when it runs dry.
//!
//! Results are reassembled **in job-submission order**, so a campaign
//! executed on eight workers produces output byte-identical to the same
//! campaign on one worker. The workspace denies `unsafe_code`, so the
//! pool borrows jobs safely through [`std::thread::scope`] rather than
//! smuggling non-`'static` closures into long-lived threads; workers are
//! spawned per [`Pool::run`] call, which is noise next to the
//! seconds-long simulations they execute.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gdp_telemetry::trace_event::set_lane;
use gdp_telemetry::{Histogram, MetricsRegistry, TraceRecorder};

/// Scheduling telemetry accumulated across [`Pool::run`] calls.
///
/// `jobs` and total job time are deterministic for a given campaign;
/// steals, per-worker job counts and the queue high-water mark depend on
/// worker count and OS scheduling and are exported as **gauges** (kept
/// out of the deterministic counters-only snapshot).
#[derive(Debug, Default)]
pub struct PoolTelemetry {
    jobs: AtomicU64,
    job_ns: AtomicU64,
    steals: AtomicU64,
    depth_hwm: AtomicU64,
    worker_jobs: Mutex<Vec<u64>>,
    job_hist: Histogram,
}

impl PoolTelemetry {
    /// A fresh sink behind an `Arc` (the shape [`Pool::with_telemetry`]
    /// takes).
    pub fn shared() -> Arc<PoolTelemetry> {
        Arc::new(PoolTelemetry::default())
    }

    /// Jobs executed so far.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Total wall-clock spent inside jobs (summed across workers, so it
    /// exceeds elapsed time on parallel runs).
    pub fn total_job_time(&self) -> Duration {
        Duration::from_nanos(self.job_ns.load(Ordering::Relaxed))
    }

    /// Jobs taken from another worker's deque.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    fn record_job(&self, elapsed: Duration) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.job_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.job_hist.record_duration(elapsed);
    }

    fn record_worker_jobs(&self, worker: usize, jobs: u64) {
        let mut per = self.worker_jobs.lock().expect("pool telemetry poisoned");
        if per.len() <= worker {
            per.resize(worker + 1, 0);
        }
        per[worker] += jobs;
    }

    /// Export the accumulated telemetry into `registry` under the
    /// `pool.*` names (see the README metric glossary).
    pub fn export(&self, registry: &MetricsRegistry) {
        registry.counter("pool.jobs").add(self.jobs());
        registry.gauge("pool.steals").add(self.steals());
        registry.gauge("pool.queue_depth_hwm").set_max(self.depth_hwm.load(Ordering::Relaxed));
        registry.span("pool.job").add(self.jobs(), self.total_job_time());
        registry.adopt_histogram("pool.job_ns", &self.job_hist);
        let per = self.worker_jobs.lock().expect("pool telemetry poisoned");
        for (w, n) in per.iter().enumerate() {
            registry.gauge(&format!("pool.worker.{w}.jobs")).add(*n);
        }
    }
}

/// Execution context for a batch of independent jobs.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
    telemetry: Option<Arc<PoolTelemetry>>,
    tracer: Option<Arc<TraceRecorder>>,
}

impl Pool {
    /// A pool with `workers` parallel workers (clamped to at least 1).
    pub fn new(workers: usize) -> Pool {
        Pool { workers: workers.max(1), telemetry: None, tracer: None }
    }

    /// A pool sized by [`std::thread::available_parallelism`] (1 if the
    /// runtime cannot tell).
    pub fn from_available_parallelism() -> Pool {
        Pool::new(default_parallelism())
    }

    /// Attach a telemetry sink; every subsequent [`Pool::run`] times its
    /// jobs and counts steals into it.
    pub fn with_telemetry(mut self, t: Arc<PoolTelemetry>) -> Pool {
        self.telemetry = Some(t);
        self
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<PoolTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Attach a trace recorder; every subsequent [`Pool::run`] records
    /// each job as a `job#<index>` slice on its worker's timeline lane
    /// (lane `w + 1`; spans entered inside the job nest under the slice
    /// by time containment on the same lane).
    pub fn with_tracer(mut self, t: Arc<TraceRecorder>) -> Pool {
        self.tracer = Some(t);
        self
    }

    /// The attached trace recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every job and return the results **in job order**,
    /// regardless of which worker finished which job when.
    ///
    /// With one worker (or at most one job) the jobs run inline on the
    /// calling thread in submission order — the serial reference
    /// behaviour that parallel runs must reproduce byte-for-byte.
    ///
    /// # Panics
    ///
    /// Propagates the panic of any job.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            if self.telemetry.is_none() && self.tracer.is_none() {
                return jobs.into_iter().map(|f| f()).collect();
            }
            // An inline serial run still executes on the "worker 0"
            // lane, so trace consumers always see at least one worker
            // lane regardless of `--jobs`.
            if self.tracer.is_some() {
                set_lane(1);
            }
            let out = jobs
                .into_iter()
                .enumerate()
                .map(|(i, f)| {
                    let start = Instant::now();
                    let v = f();
                    let elapsed = start.elapsed();
                    if let Some(t) = &self.telemetry {
                        t.record_job(elapsed);
                    }
                    if let Some(tr) = &self.tracer {
                        tr.record_complete(&format!("job#{i}"), 1, start, elapsed);
                    }
                    v
                })
                .collect();
            if self.tracer.is_some() {
                set_lane(0);
            }
            if let Some(t) = &self.telemetry {
                t.record_worker_jobs(0, n as u64);
            }
            return out;
        }

        // Deal jobs round-robin onto per-worker deques, tagged with
        // their submission index.
        let queues: Vec<Mutex<VecDeque<(usize, F)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, f) in jobs.into_iter().enumerate() {
            queues[i % workers].lock().expect("queue poisoned").push_back((i, f));
        }
        if let Some(t) = &self.telemetry {
            // Deques only shrink once dealing is done, so the high-water
            // mark is the post-deal depth of the fullest deque.
            t.depth_hwm.fetch_max(n.div_ceil(workers) as u64, Ordering::Relaxed);
        }

        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            for w in 0..workers {
                let tx = tx.clone();
                let queues = &queues;
                let telemetry = self.telemetry.as_deref();
                let tracer = self.tracer.as_deref();
                s.spawn(move || {
                    // Publish this worker's timeline lane so spans
                    // entered inside jobs land on it.
                    if tracer.is_some() {
                        set_lane(w as u32 + 1);
                    }
                    let mut ran = 0u64;
                    while let Some((stolen, (i, f))) = take(queues, w) {
                        let start = Instant::now();
                        let v = f();
                        let elapsed = start.elapsed();
                        if let Some(t) = telemetry {
                            t.record_job(elapsed);
                            if stolen {
                                t.steals.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if let Some(tr) = tracer {
                            tr.record_complete(&format!("job#{i}"), w as u32 + 1, start, elapsed);
                        }
                        ran += 1;
                        if tx.send((i, v)).is_err() {
                            break;
                        }
                    }
                    if let Some(t) = telemetry {
                        t.record_worker_jobs(w, ran);
                    }
                });
            }
            drop(tx);
            // The channel closes once every worker has exited; a job
            // panic unwinds its worker, and `scope` re-raises the panic
            // when it joins the threads below.
            for (i, v) in rx {
                out[i] = Some(v);
            }
        });

        out.into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} produced no result")))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_available_parallelism()
    }
}

/// The machine's available parallelism (1 when undeterminable).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pop from our own deque's front, else steal from the back of the
/// nearest non-empty neighbour. The flag reports whether the job was
/// stolen rather than popped locally.
fn take<J>(queues: &[Mutex<VecDeque<J>>], me: usize) -> Option<(bool, J)> {
    if let Some(j) = queues[me].lock().expect("queue poisoned").pop_front() {
        return Some((false, j));
    }
    let n = queues.len();
    for off in 1..n {
        if let Some(j) = queues[(me + off) % n].lock().expect("queue poisoned").pop_back() {
            return Some((true, j));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        let pool = Pool::new(4);
        // Jobs deliberately finish out of order: later jobs are cheaper.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    let spin = (32 - i) * 2_000;
                    let mut acc = 0u64;
                    for k in 0..spin {
                        acc = acc.wrapping_add(k * k);
                    }
                    (i, acc & 1)
                }
            })
            .collect();
        let out = pool.run(jobs);
        let ids: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_pure_jobs() {
        let mk = || (0..100u64).map(|i| move || i * i + 1).collect::<Vec<_>>();
        let serial = Pool::new(1).run(mk());
        let parallel = Pool::new(8).run(mk());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn all_jobs_execute_exactly_once() {
        let count = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..257)
            .map(|_| {
                let count = &count;
                move || count.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let out = Pool::new(3).run(jobs);
        assert_eq!(out.len(), 257);
        assert_eq!(count.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn empty_and_single_job_batches() {
        let pool = Pool::new(4);
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(pool.run(empty).is_empty());
        assert_eq!(pool.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert!(Pool::from_available_parallelism().workers() >= 1);
    }

    #[test]
    fn telemetry_counts_jobs_and_time() {
        let t = PoolTelemetry::shared();
        let pool = Pool::new(4).with_telemetry(t.clone());
        // Uneven jobs so the fast workers must steal.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    let spin = if i % 4 == 0 { 400_000 } else { 100 };
                    let mut acc = 0u64;
                    for k in 0..spin {
                        acc = acc.wrapping_add(k * k);
                    }
                    acc
                }
            })
            .collect();
        pool.run(jobs);
        assert_eq!(t.jobs(), 16);
        assert!(t.total_job_time() > Duration::ZERO);
        let per: u64 = t.worker_jobs.lock().unwrap().iter().sum();
        assert_eq!(per, 16, "per-worker counts must cover every job");

        // Export shape: pool.jobs is a counter, scheduling facts are gauges.
        let reg = MetricsRegistry::new();
        t.export(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pool.jobs"), Some(16));
        assert!(snap.gauges.iter().any(|(k, _)| k == "pool.queue_depth_hwm"));
        assert!(snap.spans.iter().any(|s| s.name == "pool.job" && s.count == 16));

        // Serial pool with telemetry still times jobs.
        let t1 = PoolTelemetry::shared();
        Pool::new(1).with_telemetry(t1.clone()).run(vec![|| 1u32, || 2]);
        assert_eq!(t1.jobs(), 2);
    }

    #[test]
    fn tracer_records_job_slices_on_worker_lanes() {
        // A 2-participant barrier inside the first job of each worker's
        // deque guarantees both workers execute at least one job.
        let tr = TraceRecorder::shared();
        let barrier = std::sync::Barrier::new(2);
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let b = &barrier;
                move || {
                    b.wait();
                    1u8
                }
            })
            .collect();
        Pool::new(2).with_tracer(tr.clone()).run(jobs);
        assert_eq!(tr.len(), 2);
        let j = tr.to_json();
        assert!(j.contains("\"worker 0\"") && j.contains("\"worker 1\""), "{j}");
        assert!(j.contains("job#0") && j.contains("job#1"), "{j}");

        // A serial (inline) run still lands its jobs on the worker-0
        // lane and restores the main lane afterwards.
        let tr1 = TraceRecorder::shared();
        Pool::new(1).with_tracer(tr1.clone()).run(vec![|| 1u8]);
        assert!(tr1.to_json().contains("\"worker 0\""));
        assert!(tr1.to_json().contains("job#0"));
        assert_eq!(gdp_telemetry::trace_event::current_lane(), 0);
    }

    #[test]
    fn boxed_jobs_are_supported() {
        // Heterogeneous closures unify behind Box<dyn FnOnce>.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| 2 + 3), Box::new(|| 42)];
        assert_eq!(Pool::new(2).run(jobs), vec![1, 5, 42]);
    }
}
