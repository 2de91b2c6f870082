//! Chrome trace-event (Perfetto-loadable) span timeline export.
//!
//! A [`TraceRecorder`] collects *complete* (`"ph": "X"`) slices — one
//! per pool job and one per entered [`Span`](crate::Span) — onto a
//! wall-clock timeline with **one lane per pool worker**: lane 0 is the
//! main thread, lane `w + 1` is pool worker `w` (workers publish their
//! lane through a thread-local, so spans entered inside a job land on
//! that job's lane, nested under it by time containment). The JSON
//! written by [`TraceRecorder::write_json`] loads directly into
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The timeline is **wall-clock by construction** — slice placement
//! varies with scheduling and machine speed — so the trace file lives
//! strictly outside every byte-compared `data` section and stdout
//! surface, exactly like the `spans` group of the metrics snapshot.
//! Recording is bounded: past [`TraceRecorder::MAX_EVENTS`] slices the
//! recorder counts drops instead of growing, and the drop count is
//! reported as `gdp.dropped_events` metadata.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// The trace lane (Perfetto `tid`) slices from this thread land on:
    /// 0 = main, `w + 1` = pool worker `w`.
    static LANE: Cell<u32> = const { Cell::new(0) };
}

/// Set the current thread's trace lane (pool workers call this with
/// `worker + 1` before running jobs; 0 restores the main lane).
pub fn set_lane(lane: u32) {
    LANE.with(|l| l.set(lane));
}

/// The current thread's trace lane.
pub fn current_lane() -> u32 {
    LANE.with(|l| l.get())
}

#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    lane: u32,
    /// Microseconds since the recorder epoch.
    start_us: u64,
    dur_ns: u64,
}

/// A bounded wall-clock slice recorder (see the module docs).
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceRecorder {
    /// Slice cap: past this the recorder counts drops instead of
    /// growing (a full-scale campaign emits one slice per technique per
    /// core per interval — bounded memory beats a silent OOM).
    pub const MAX_EVENTS: usize = 250_000;

    /// A fresh recorder; its creation instant is the timeline origin.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A fresh recorder behind an `Arc` (the shape every attachment
    /// point takes).
    pub fn shared() -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder::new())
    }

    /// Record one complete slice on `lane`. `start` must come from the
    /// same monotonic clock as the recorder (any `Instant::now()` after
    /// construction); earlier starts clamp to the epoch.
    pub fn record_complete(&self, name: &str, lane: u32, start: Instant, dur: Duration) {
        let mut events = self.events.lock().expect("trace recorder poisoned");
        if events.len() >= Self::MAX_EVENTS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(TraceEvent {
            name: name.to_string(),
            lane,
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Slices recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace recorder poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slices dropped past [`TraceRecorder::MAX_EVENTS`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The Chrome trace-event JSON document: per-lane `thread_name`
    /// metadata, then every slice as a `"ph": "X"` complete event
    /// (`ts`/`dur` in microseconds), sorted by lane then start so the
    /// output is stable for a fixed recording.
    pub fn to_json(&self) -> String {
        let mut events = self.events.lock().expect("trace recorder poisoned").clone();
        events.sort_by(|a, b| (a.lane, a.start_us, &a.name).cmp(&(b.lane, b.start_us, &b.name)));
        let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        let mut first = true;
        for lane in &lanes {
            let label =
                if *lane == 0 { "main".to_string() } else { format!("worker {}", lane - 1) };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {lane}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{label}\"}}}}"
            ));
        }
        for e in &events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let mut name = String::new();
            crate::registry::push_json_str(&mut name, &e.name);
            out.push_str(&format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {:.3}, \
                 \"name\": {name}}}",
                e.lane,
                e.start_us,
                e.dur_ns as f64 / 1_000.0,
            ));
        }
        out.push_str(&format!(
            "\n],\n\"gdp.dropped_events\": {},\n\"gdp.lanes\": {}\n}}\n",
            self.dropped(),
            lanes.len()
        ));
        out
    }

    /// Write the trace document to `path`, creating parent directories.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_is_a_thread_local() {
        assert_eq!(current_lane(), 0);
        set_lane(3);
        assert_eq!(current_lane(), 3);
        std::thread::spawn(|| assert_eq!(current_lane(), 0, "fresh threads start on main"))
            .join()
            .unwrap();
        set_lane(0);
    }

    #[test]
    fn records_slices_and_emits_chrome_trace_json() {
        let tr = TraceRecorder::new();
        assert!(tr.is_empty());
        let start = Instant::now();
        tr.record_complete("job#0", 1, start, Duration::from_micros(1500));
        tr.record_complete("session.advance", 1, start, Duration::from_micros(900));
        tr.record_complete("job#1", 2, start, Duration::from_micros(10));
        assert_eq!(tr.len(), 3);
        let j = tr.to_json();
        for key in [
            "\"traceEvents\"",
            "\"ph\": \"X\"",
            "\"ph\": \"M\"",
            "\"worker 0\"",
            "\"worker 1\"",
            "\"session.advance\"",
            "\"gdp.dropped_events\": 0",
            "\"gdp.lanes\": 2",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Slices sort by lane: worker 0's events precede worker 1's.
        assert!(j.find("job#0").unwrap() < j.find("job#1").unwrap());
    }

    #[test]
    fn starts_before_the_epoch_clamp_instead_of_panicking() {
        let early = Instant::now();
        let tr = TraceRecorder::new();
        tr.record_complete("x", 0, early, Duration::from_nanos(5));
        assert!(tr.to_json().contains("\"ts\": 0"));
    }

    #[test]
    fn hostile_names_are_escaped() {
        let tr = TraceRecorder::new();
        tr.record_complete("we\"ird\\name", 0, Instant::now(), Duration::ZERO);
        assert!(tr.to_json().contains("we\\\"ird\\\\name"));
    }
}
