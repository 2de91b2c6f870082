//! The content-addressed campaign cache.
//!
//! Traces live under a directory (default `results/traces/`) in files
//! named `<kind>-<16-hex-key>.gdpt`, where the key is an FNV-1a-64 hash
//! fed with every input that determines the run: simulator configuration,
//! experiment parameters, workload spec and the trace format version.
//! Loads count hits and misses (a corrupt or version-skewed file is a
//! miss, never an error — the campaign falls back to simulating, and the
//! bad entry is quarantined so later runs do not re-fail on the same
//! bytes); stores write via a temp file that is fsynced before the
//! rename, so concurrent campaign jobs never observe half-written traces
//! and a crash never publishes a truncated entry.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gdp_telemetry::{log_info, MetricsRegistry};

use crate::codec::TraceError;
use crate::format::{
    decode_checkpoints_salvage, decode_private, decode_shared, encode_checkpoints, encode_private,
    encode_shared, SharedTraceReader,
};
use crate::model::{CheckpointFile, PrivateTrace, SharedTrace};

// The campaign-facing default directory lives in `gdp-runner::cli`
// (`DEFAULT_TRACE_DIR`, "results/traces"); the cache itself always takes
// an explicit root so library users stay in control.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a-64 content hash under construction. Feed it every value
/// that determines a run's outcome; the digest names the cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Start a key for a `domain` (e.g. `"shared"`; keeps kinds disjoint
    /// even if their field feeds collide).
    pub fn new(domain: &str) -> CacheKey {
        let mut k = CacheKey(FNV_OFFSET);
        k.str(domain);
        k
    }

    /// Feed raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feed a string (length-delimited, so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }

    /// Feed a u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feed a usize.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Feed a bool.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u64(u64::from(v))
    }

    /// Feed an f64's exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The 64-bit digest.
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// The digest as the 16-hex-char file-name stem.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A snapshot of the cache's hit/miss/store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Loads that found and decoded a trace.
    pub hits: u64,
    /// Loads that found nothing usable (absent, corrupt, or stale).
    pub misses: u64,
    /// Traces written.
    pub stores: u64,
    /// Corrupt entries quarantined (removed) on load.
    pub quarantines: u64,
    /// Checkpoint records dropped by the salvage decoder on load.
    pub salvage_dropped: u64,
}

impl CacheStatsSnapshot {
    /// Export the counters into `registry` under the `cache.*` names.
    /// All five are deterministic for a given campaign + cache state, so
    /// they register as counters.
    pub fn export(&self, registry: &MetricsRegistry) {
        registry.counter("cache.hits").add(self.hits);
        registry.counter("cache.misses").add(self.misses);
        registry.counter("cache.stores").add(self.stores);
        registry.counter("cache.quarantines").add(self.quarantines);
        registry.counter("cache.salvage_dropped").add(self.salvage_dropped);
    }
}

/// The content-addressed trace store. Thread-safe: campaign jobs share
/// one instance by reference (distinct jobs use distinct keys).
#[derive(Debug)]
pub struct TraceCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantines: AtomicU64,
    salvage_dropped: AtomicU64,
}

impl TraceCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> TraceCache {
        TraceCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            salvage_dropped: AtomicU64::new(0),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot (for the campaign run record).
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            salvage_dropped: self.salvage_dropped.load(Ordering::Relaxed),
        }
    }

    /// Path of the entry `key` under `kind` (`"shared"`/`"private"`).
    pub fn path(&self, kind: &str, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{kind}-{}.gdpt", key.hex()))
    }

    /// Load a shared trace; `None` (a counted miss) when absent, corrupt
    /// or written by a different format version.
    pub fn load_shared(&self, key: &CacheKey) -> Option<SharedTrace> {
        self.load(&self.path("shared", key), decode_shared)
    }

    /// Stream a shared trace into `replay` without building a
    /// [`SharedTrace`]: the entry is read and verified by
    /// [`SharedTraceReader::new`] — header, every section CRC, META and
    /// FINAL — before `replay` sees the reader, which then decodes one
    /// interval at a time. `None` (a counted miss) when the entry is
    /// absent, fails verification, or `replay` returns a decode error
    /// part-way through; a corrupt entry is quarantined either way, and
    /// whatever `replay` built before the error is dropped.
    pub fn stream_shared<T>(
        &self,
        key: &CacheKey,
        replay: impl FnOnce(SharedTraceReader<'_>) -> Result<T, TraceError>,
    ) -> Option<T> {
        self.load(&self.path("shared", key), |bytes| replay(SharedTraceReader::new(bytes)?))
    }

    /// Load a private trace; `None` (a counted miss) on any failure.
    pub fn load_private(&self, key: &CacheKey) -> Option<PrivateTrace> {
        self.load(&self.path("private", key), decode_private)
    }

    /// Store a shared trace; returns the entry path.
    pub fn store_shared(&self, key: &CacheKey, t: &SharedTrace) -> io::Result<PathBuf> {
        self.store(self.path("shared", key), encode_shared(t))
    }

    /// Store a private trace; returns the entry path.
    pub fn store_private(&self, key: &CacheKey, t: &PrivateTrace) -> io::Result<PathBuf> {
        self.store(self.path("private", key), encode_private(t))
    }

    /// Load a checkpoint (estimator-state) file — a serving tenant's
    /// suspended snapshot, stored by gdp-serve's evict path and read back
    /// on resume; `None` (a counted miss) when absent or when the
    /// header/META is unreadable. Individual corrupt STATE sections are
    /// *salvaged around*, not fatal: the caller gets the records that
    /// survived (counted in `salvage_dropped`), and a tenant whose
    /// snapshot is gone starts from the cold state.
    pub fn load_checkpoints(&self, key: &CacheKey) -> Option<CheckpointFile> {
        self.load(&self.path("state", key), |b| {
            decode_checkpoints_salvage(b).map(|(f, dropped)| {
                if dropped > 0 {
                    self.salvage_dropped.fetch_add(dropped as u64, Ordering::Relaxed);
                    log_info!(
                        "gdp-trace: salvaged checkpoint file dropped {dropped} corrupt record(s)"
                    );
                }
                f
            })
        })
    }

    /// Store a checkpoint file; returns the entry path.
    pub fn store_checkpoints(&self, key: &CacheKey, f: &CheckpointFile) -> io::Result<PathBuf> {
        self.store(self.path("state", key), encode_checkpoints(f))
    }

    fn load<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, TraceError>,
    ) -> Option<T> {
        let bytes = match std::fs::read(path) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => {
                // Permission problems, I/O failures etc. are worth a
                // diagnostic: silently treating them as misses hides a
                // misconfigured cache from the operator.
                log_info!("gdp-trace: cannot read cache entry {}: {e}", path.display());
                None
            }
        };
        let corrupt_len = bytes.as_ref().map(|b| b.len() as u64);
        match bytes.and_then(|b| decode(&b).ok()) {
            Some(t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(t)
            }
            None => {
                if let Some(len) = corrupt_len {
                    // Corrupt or version-skewed bytes: quarantine the
                    // entry so the next run re-simulates and re-stores a
                    // good one instead of re-reading and re-failing on
                    // the same bytes forever. A concurrent writer may
                    // have just renamed a fresh entry over the path; the
                    // size guard (and NotFound tolerance) keeps the
                    // common replacement race from deleting it — a
                    // same-size race merely costs one extra re-simulate.
                    let replaced = std::fs::metadata(path).map(|m| m.len() != len).unwrap_or(true);
                    if !replaced {
                        match std::fs::remove_file(path) {
                            Ok(()) => {
                                self.quarantines.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                            Err(e) => {
                                log_info!(
                                    "gdp-trace: cannot quarantine corrupt cache entry {}: {e}",
                                    path.display()
                                );
                            }
                        }
                    }
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, path: PathBuf, bytes: Vec<u8>) -> io::Result<PathBuf> {
        use std::io::Write as _;
        std::fs::create_dir_all(&self.dir)?;
        // Temp-then-rename: concurrent readers only ever see complete
        // entries. Keys are content hashes, so writers of the same key
        // write identical bytes and either rename wins — provided each
        // writer owns its temp file, so the name carries both the
        // process id and a process-wide counter (same-key jobs can run
        // concurrently inside one campaign, e.g. fig7's repeated
        // baseline variant).
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        let publish = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            // Durability: without the fsync, a crash after the rename
            // can leave a *published* entry with truncated content on
            // filesystems that journal metadata before data.
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, &path)
        })();
        if let Err(e) = publish {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceCheckpoint;
    use gdp_sim::stats::CoreStats;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gdp-trace-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_key_is_order_and_length_sensitive() {
        let mut a = CacheKey::new("k");
        a.str("ab").str("c");
        let mut b = CacheKey::new("k");
        b.str("a").str("bc");
        assert_ne!(a.digest(), b.digest(), "length delimiting must matter");
        let mut c = CacheKey::new("k");
        c.u64(1).u64(2);
        let mut d = CacheKey::new("k");
        d.u64(2).u64(1);
        assert_ne!(c.digest(), d.digest(), "order must matter");
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn domains_separate_identical_feeds() {
        let mut a = CacheKey::new("shared");
        a.u64(7);
        let mut b = CacheKey::new("private");
        b.u64(7);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn store_then_load_hits() {
        let cache = TraceCache::new(tmpdir("hit"));
        let mut key = CacheKey::new("private");
        key.str("ammp").u64(0);
        let t = PrivateTrace {
            bench: "ammp".into(),
            base: 0,
            checkpoints: vec![TraceCheckpoint {
                instrs: 100,
                cycle: 900,
                stats: CoreStats { cycles: 900, ..Default::default() },
                cpl: 4,
            }],
            total: CoreStats { cycles: 900, ..Default::default() },
        };
        assert!(cache.load_private(&key).is_none(), "cold cache misses");
        cache.store_private(&key, &t).expect("stores");
        assert_eq!(cache.load_private(&key), Some(t));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_counted_misses_and_quarantined() {
        let cache = TraceCache::new(tmpdir("corrupt"));
        let mut key = CacheKey::new("shared");
        key.u64(1);
        cache.store_shared(&key, &SharedTrace::default()).expect("stores");
        // Corrupt the file in place.
        let path = cache.path("shared", &key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load_shared(&key).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().quarantines, 1, "quarantine must be counted");
        // The corrupt entry must be quarantined (deleted), so the next
        // load is a plain absent-entry miss instead of a re-decode of
        // the same bad bytes.
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert!(cache.load_shared(&key).is_none());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().quarantines, 1, "absent-entry misses are not quarantines");
        // And a re-store heals the entry for good.
        cache.store_shared(&key, &SharedTrace::default()).expect("stores");
        assert!(cache.load_shared(&key).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn streamed_loads_count_hits_and_quarantine_mid_stream_failures() {
        use crate::model::{Boundary, TraceInterval};

        let cache = TraceCache::new(tmpdir("stream"));
        let mut key = CacheKey::new("shared");
        key.u64(5);
        let b = |start: u64| Boundary {
            instr_start: start,
            instr_end: start + 10,
            stats: CoreStats::default(),
            lambda: 1.0,
            shared_latency: 2.0,
        };
        let iv = |start| TraceInterval { events: Vec::new(), boundaries: vec![b(start)] };
        let mut t = SharedTrace {
            cores: 1,
            workload: "w".into(),
            cycles: 9,
            final_stats: vec![CoreStats::default()],
            intervals: vec![iv(0), iv(10), iv(20)],
        };
        let count = |mut r: SharedTraceReader<'_>| {
            let mut iv = TraceInterval::default();
            let mut n = 0;
            while r.read_interval(&mut iv)? {
                n += 1;
            }
            Ok(n)
        };
        assert_eq!(cache.stream_shared(&key, count), None, "cold cache misses");
        cache.store_shared(&key, &t).expect("stores");
        assert_eq!(cache.stream_shared(&key, count), Some(3));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        // CRC-valid bytes that fail on the third interval: the replay saw
        // two intervals, and the load is still a miss that quarantines.
        t.intervals[2] = iv(5);
        cache.store_shared(&key, &t).expect("stores");
        let mut seen = 0;
        let got = cache.stream_shared(&key, |mut r| {
            let mut iv = TraceInterval::default();
            while r.read_interval(&mut iv)? {
                seen += 1;
            }
            Ok(seen)
        });
        assert_eq!((got, seen), (None, 2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.quarantines), (1, 2, 1));
        assert!(!cache.path("shared", &key).exists(), "the failed entry is quarantined");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_same_key_stores_leave_a_clean_decodable_entry() {
        // Same-key jobs can run concurrently in one campaign (fig7's
        // repeated baseline variant): every writer must own its temp
        // file, the final entry must decode, and no temp files may leak.
        let cache = TraceCache::new(tmpdir("race"));
        let mut key = CacheKey::new("shared");
        key.u64(42);
        let t = SharedTrace { cores: 2, workload: "w".into(), ..Default::default() };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.store_shared(&key, &t).expect("stores"));
            }
        });
        assert_eq!(cache.load_shared(&key), Some(t));
        let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "gdpt"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn checkpoint_entries_store_load_and_salvage() {
        use crate::model::StateCheckpoint;
        use gdp_core::state::{EstimatorState, StateValue};

        let cache = TraceCache::new(tmpdir("state"));
        let mut key = CacheKey::new("state");
        key.u64(3);
        let f = CheckpointFile {
            workload: "2c-H-00".into(),
            cores: 2,
            intervals: 4,
            checkpoints: vec![
                StateCheckpoint {
                    at: 1,
                    states: vec![("gdp".into(), EstimatorState::new("GDP", StateValue::U64(7)))],
                },
                StateCheckpoint {
                    at: 3,
                    states: vec![("gdp".into(), EstimatorState::new("GDP", StateValue::U64(9)))],
                },
            ],
        };
        assert!(cache.load_checkpoints(&key).is_none(), "cold cache misses");
        cache.store_checkpoints(&key, &f).expect("stores");
        assert_eq!(cache.load_checkpoints(&key), Some(f.clone()));

        // Corrupt the *last* STATE section's bytes in place: the salvage
        // loader still returns the file, minus that checkpoint.
        let path = cache.path("state", &key);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let got = cache.load_checkpoints(&key).expect("salvaged");
        assert_eq!(got.checkpoints, f.checkpoints[..1]);
        assert!(path.exists(), "partially-salvaged entries are kept, not quarantined");
        assert_eq!(cache.stats().salvage_dropped, 1, "dropped records must be counted");

        // A corrupt header is beyond salvage: counted miss + quarantine.
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load_checkpoints(&key).is_none());
        assert!(!path.exists(), "unsalvageable entry must be quarantined");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_same_key_checkpoint_stores_leave_a_clean_entry() {
        // Checkpoint entries are content-addressed exactly like traces:
        // two writers of one key race their stores, and the survivor
        // must decode with nothing leaked.
        use crate::model::StateCheckpoint;
        use gdp_core::state::{EstimatorState, StateValue};

        let cache = TraceCache::new(tmpdir("state-race"));
        let mut key = CacheKey::new("state");
        key.u64(11);
        let f = CheckpointFile {
            workload: "w".into(),
            cores: 1,
            intervals: 2,
            checkpoints: vec![StateCheckpoint {
                at: 1,
                states: vec![("gdp".into(), EstimatorState::new("GDP", StateValue::U64(1)))],
            }],
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.store_checkpoints(&key, &f).expect("stores"));
            }
        });
        assert_eq!(cache.load_checkpoints(&key), Some(f));
        let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "gdpt"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_export_registers_cache_counters() {
        let snap = CacheStatsSnapshot {
            hits: 3,
            misses: 1,
            stores: 2,
            quarantines: 1,
            salvage_dropped: 5,
        };
        let reg = MetricsRegistry::new();
        snap.export(&reg);
        let s = reg.snapshot();
        assert_eq!(s.counter("cache.hits"), Some(3));
        assert_eq!(s.counter("cache.misses"), Some(1));
        assert_eq!(s.counter("cache.stores"), Some(2));
        assert_eq!(s.counter("cache.quarantines"), Some(1));
        assert_eq!(s.counter("cache.salvage_dropped"), Some(5));
        assert!(s.gauges.is_empty(), "cache counters are all deterministic");
    }

    #[test]
    fn kinds_do_not_collide_on_disk() {
        let cache = TraceCache::new(tmpdir("kinds"));
        let mut key = CacheKey::new("x");
        key.u64(9);
        assert_ne!(cache.path("shared", &key), cache.path("private", &key));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
