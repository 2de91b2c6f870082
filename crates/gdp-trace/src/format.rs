//! The versioned binary trace-file format.
//!
//! ```text
//! file   := magic "GDPTRACE" | version u32le | kind u8 | section*
//! section:= name-tag u8 | payload-len varint | payload | crc32(payload) u32le
//! ```
//!
//! Shared traces carry sections META, INTERVALS, FINAL; private traces
//! META, CHECKPOINTS; a STATE entry — one suspended session's observer
//! snapshots — exactly one STATE section. Integers are LEB128 varints,
//! signed values zigzag, floats exact little-endian bits, and event
//! timestamps are delta-encoded against the previous event's visibility
//! cycle (probe streams are near-sorted, so deltas stay short). Each kind
//! has one decoder, and it is strict: unknown tags, truncation, CRC
//! mismatches and trailing bytes are all typed [`TraceError`]s — a
//! corrupt cache entry can never decode into a silently-wrong campaign
//! or a diverged tenant session.

use gdp_core::state::{EstimatorState, StateValue};
use gdp_sim::mem::Interference;
use gdp_sim::probe::{ProbeEvent, StallCause};
use gdp_sim::stats::CoreStats;
use gdp_sim::types::{CoreId, ReqId};

use crate::codec::{crc32, Reader, TraceError, Writer};
use crate::model::{
    Boundary, PrivateTrace, SharedTrace, StateCheckpoint, TraceCheckpoint, TraceInterval,
};

/// Current format version; bump on any layout change (also folded into
/// cache keys, so stale traces are invalidated rather than misdecoded).
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"GDPTRACE";

/// Header kind byte of a shared-mode trace.
pub const KIND_SHARED: u8 = 0;
/// Header kind byte of a private-mode trace.
pub const KIND_PRIVATE: u8 = 1;
/// Header kind byte of a STATE entry (a suspended session's snapshot).
pub const KIND_STATE: u8 = 2;

const SEC_META: u8 = 1;
const SEC_INTERVALS: u8 = 2;
const SEC_FINAL: u8 = 3;
const SEC_CHECKPOINTS: u8 = 4;
const SEC_STATE: u8 = 5;

// ------------------------------------------------------------- encoding

fn write_section(out: &mut Writer, tag: u8, payload: Writer) {
    let bytes = payload.into_bytes();
    out.u8(tag);
    out.varint(bytes.len() as u64);
    let crc = crc32(&bytes);
    out.bytes(&bytes);
    out.u32_le(crc);
}

/// Encode one [`CoreStats`] record (16 varints, fixed field order).
/// Public for the serve wire protocol, which transports boundary rows
/// outside a trace file; the encoding is the file format's.
pub fn encode_stats(w: &mut Writer, s: &CoreStats) {
    w.varint(s.committed_instrs);
    w.varint(s.commit_cycles);
    w.varint(s.stall_ind);
    w.varint(s.stall_pms);
    w.varint(s.stall_sms);
    w.varint(s.stall_other);
    w.varint(s.cycles);
    w.varint(s.sms_loads);
    w.varint(s.sms_latency_sum);
    w.varint(s.sms_pre_llc_latency_sum);
    w.varint(s.sms_post_llc_latency_sum);
    w.varint(s.llc_misses);
    w.varint(s.llc_accesses);
    w.varint(s.pms_loads);
    w.varint(s.overlap_cycles);
    w.varint(s.interference_sum);
}

/// Decode one [`CoreStats`] record (inverse of [`encode_stats`]).
pub fn decode_stats(r: &mut Reader<'_>) -> Result<CoreStats, TraceError> {
    Ok(CoreStats {
        committed_instrs: r.varint()?,
        commit_cycles: r.varint()?,
        stall_ind: r.varint()?,
        stall_pms: r.varint()?,
        stall_sms: r.varint()?,
        stall_other: r.varint()?,
        cycles: r.varint()?,
        sms_loads: r.varint()?,
        sms_latency_sum: r.varint()?,
        sms_pre_llc_latency_sum: r.varint()?,
        sms_post_llc_latency_sum: r.varint()?,
        llc_misses: r.varint()?,
        llc_accesses: r.varint()?,
        pms_loads: r.varint()?,
        overlap_cycles: r.varint()?,
        interference_sum: r.varint()?,
    })
}

fn encode_interference(w: &mut Writer, i: &Interference) {
    w.varint(i.ring);
    w.varint(i.mc_queue);
    w.zigzag(i.mc_row);
}

fn decode_interference(r: &mut Reader<'_>) -> Result<Interference, TraceError> {
    Ok(Interference { ring: r.varint()?, mc_queue: r.varint()?, mc_row: r.zigzag()? })
}

fn encode_opt_interference(w: &mut Writer, i: &Option<Interference>) {
    match i {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            encode_interference(w, v);
        }
    }
}

fn decode_opt_interference(r: &mut Reader<'_>) -> Result<Option<Interference>, TraceError> {
    let at = r.pos();
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_interference(r)?)),
        tag => Err(TraceError::BadTag { what: "opt-interference", tag, at }),
    }
}

fn encode_opt_u64(w: &mut Writer, v: &Option<u64>) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            w.varint(*x);
        }
    }
}

fn decode_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, TraceError> {
    let at = r.pos();
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.varint()?)),
        tag => Err(TraceError::BadTag { what: "optional", tag, at }),
    }
}

fn encode_opt_bool(w: &mut Writer, v: &Option<bool>) {
    w.u8(match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

fn decode_opt_bool(r: &mut Reader<'_>) -> Result<Option<bool>, TraceError> {
    let at = r.pos();
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(false)),
        2 => Ok(Some(true)),
        tag => Err(TraceError::BadTag { what: "opt-bool", tag, at }),
    }
}

fn stall_cause_tag(c: StallCause) -> u8 {
    match c {
        StallCause::Load => 0,
        StallCause::StoreBufferFull => 1,
        StallCause::L1Blocked => 2,
        StallCause::BranchRedirect => 3,
        StallCause::MemoryIndependent => 4,
    }
}

fn decode_stall_cause(r: &mut Reader<'_>) -> Result<StallCause, TraceError> {
    let at = r.pos();
    match r.u8()? {
        0 => Ok(StallCause::Load),
        1 => Ok(StallCause::StoreBufferFull),
        2 => Ok(StallCause::L1Blocked),
        3 => Ok(StallCause::BranchRedirect),
        4 => Ok(StallCause::MemoryIndependent),
        tag => Err(TraceError::BadTag { what: "stall-cause", tag, at }),
    }
}

const EV_L1_MISS: u8 = 0;
const EV_L1_MISS_DONE: u8 = 1;
const EV_LLC_ACCESS: u8 = 2;
const EV_STALL: u8 = 3;
const EV_INTERVAL_END: u8 = 4;

/// Encode one event; `prev` is the previous event's visibility cycle
/// (the delta base), updated to this event's.
fn encode_event(w: &mut Writer, ev: &ProbeEvent, prev: &mut u64) {
    match ev {
        ProbeEvent::LoadL1Miss { core, req, block, cycle } => {
            w.u8(EV_L1_MISS);
            w.u8(core.0);
            w.varint(req.0);
            w.varint(*block);
            w.zigzag(*cycle as i64 - *prev as i64);
            *prev = *cycle;
        }
        ProbeEvent::LoadL1MissDone {
            core,
            req,
            block,
            cycle,
            sms,
            latency,
            interference,
            llc_hit,
            post_llc,
        } => {
            w.u8(EV_L1_MISS_DONE);
            w.u8(core.0);
            w.varint(req.0);
            w.varint(*block);
            w.zigzag(*cycle as i64 - *prev as i64);
            w.u8(u8::from(*sms));
            w.varint(*latency);
            encode_interference(w, interference);
            encode_opt_bool(w, llc_hit);
            w.varint(*post_llc);
            *prev = *cycle;
        }
        ProbeEvent::LlcAccess { core, block, cycle, hit, req } => {
            w.u8(EV_LLC_ACCESS);
            w.u8(core.0);
            w.varint(*block);
            w.zigzag(*cycle as i64 - *prev as i64);
            w.u8(u8::from(*hit));
            w.varint(req.0);
            *prev = *cycle;
        }
        ProbeEvent::Stall {
            core,
            start,
            end,
            cause,
            blocking_block,
            blocking_req,
            blocking_sms,
            blocking_interference,
        } => {
            w.u8(EV_STALL);
            w.u8(core.0);
            w.zigzag(*start as i64 - *prev as i64);
            w.varint(end - start);
            w.u8(stall_cause_tag(*cause));
            encode_opt_u64(w, blocking_block);
            encode_opt_u64(w, &blocking_req.map(|r| r.0));
            encode_opt_bool(w, blocking_sms);
            encode_opt_interference(w, blocking_interference);
            *prev = *end; // stalls become visible when they end
        }
        ProbeEvent::IntervalEnd { cycle } => {
            w.u8(EV_INTERVAL_END);
            w.zigzag(*cycle as i64 - *prev as i64);
            *prev = *cycle;
        }
    }
}

fn decode_event(r: &mut Reader<'_>, prev: &mut u64) -> Result<ProbeEvent, TraceError> {
    let at = r.pos();
    let tag = r.u8()?;
    match tag {
        EV_L1_MISS => {
            let core = CoreId(r.u8()?);
            let req = ReqId(r.varint()?);
            let block = r.varint()?;
            let cycle = (*prev as i64 + r.zigzag()?) as u64;
            *prev = cycle;
            Ok(ProbeEvent::LoadL1Miss { core, req, block, cycle })
        }
        EV_L1_MISS_DONE => {
            let core = CoreId(r.u8()?);
            let req = ReqId(r.varint()?);
            let block = r.varint()?;
            let cycle = (*prev as i64 + r.zigzag()?) as u64;
            let sms = r.u8()? != 0;
            let latency = r.varint()?;
            let interference = decode_interference(r)?;
            let llc_hit = decode_opt_bool(r)?;
            let post_llc = r.varint()?;
            *prev = cycle;
            Ok(ProbeEvent::LoadL1MissDone {
                core,
                req,
                block,
                cycle,
                sms,
                latency,
                interference,
                llc_hit,
                post_llc,
            })
        }
        EV_LLC_ACCESS => {
            let core = CoreId(r.u8()?);
            let block = r.varint()?;
            let cycle = (*prev as i64 + r.zigzag()?) as u64;
            let hit = r.u8()? != 0;
            let req = ReqId(r.varint()?);
            *prev = cycle;
            Ok(ProbeEvent::LlcAccess { core, block, cycle, hit, req })
        }
        EV_STALL => {
            let core = CoreId(r.u8()?);
            let start = (*prev as i64 + r.zigzag()?) as u64;
            let end = start + r.varint()?;
            let cause = decode_stall_cause(r)?;
            let blocking_block = decode_opt_u64(r)?;
            let blocking_req = decode_opt_u64(r)?.map(ReqId);
            let blocking_sms = decode_opt_bool(r)?;
            let blocking_interference = decode_opt_interference(r)?;
            *prev = end;
            Ok(ProbeEvent::Stall {
                core,
                start,
                end,
                cause,
                blocking_block,
                blocking_req,
                blocking_sms,
                blocking_interference,
            })
        }
        EV_INTERVAL_END => {
            let cycle = (*prev as i64 + r.zigzag()?) as u64;
            *prev = cycle;
            Ok(ProbeEvent::IntervalEnd { cycle })
        }
        tag => Err(TraceError::BadTag { what: "event", tag, at }),
    }
}

/// Encode one [`Boundary`] record (instruction window, stats delta,
/// exact λ̂ and shared-latency bits). Public for the serve wire protocol.
pub fn encode_boundary(w: &mut Writer, b: &Boundary) {
    w.varint(b.instr_start);
    w.varint(b.instr_end);
    encode_stats(w, &b.stats);
    w.f64_bits(b.lambda);
    w.f64_bits(b.shared_latency);
}

/// Decode one [`Boundary`] record (inverse of [`encode_boundary`]).
pub fn decode_boundary(r: &mut Reader<'_>) -> Result<Boundary, TraceError> {
    Ok(Boundary {
        instr_start: r.varint()?,
        instr_end: r.varint()?,
        stats: decode_stats(r)?,
        lambda: r.f64_bits()?,
        shared_latency: r.f64_bits()?,
    })
}

/// Encode one accounting interval as a **self-contained** payload for
/// the stream protocol: events (timestamps delta-encoded against a base
/// that resets to zero per payload, unlike the file's section-wide
/// running base — a stream frame must decode without its predecessors)
/// followed by the per-core boundary records.
pub fn encode_interval_payload(iv: &TraceInterval) -> Vec<u8> {
    let mut w = Writer::new();
    w.varint(iv.events.len() as u64);
    let mut prev = 0u64;
    for ev in &iv.events {
        encode_event(&mut w, ev, &mut prev);
    }
    w.varint(iv.boundaries.len() as u64);
    for b in &iv.boundaries {
        encode_boundary(&mut w, b);
    }
    w.into_bytes()
}

/// Decode one self-contained interval payload (inverse of
/// [`encode_interval_payload`]); strict — every byte accounted for,
/// instruction windows non-negative, at most `max_cores` boundaries and
/// at most `max_events` events. A declared event count above
/// `max_events` is rejected before anything is reserved for it.
pub fn decode_interval_payload(
    bytes: &[u8],
    max_cores: usize,
    max_events: usize,
) -> Result<TraceInterval, TraceError> {
    let mut r = Reader::new(bytes);
    let mut iv = TraceInterval::default();
    let limits = IntervalLimits { max_events, max_cores, section: "INTERVAL" };
    decode_interval_into(&mut r, &mut 0, None, &limits, &mut iv)?;
    expect_drained(&r, "INTERVAL")?;
    Ok(iv)
}

// Minimum encoded sizes, for bounding what a declared count may reserve:
// a count can only claim as many items as the bytes left could hold.
/// `IntervalEnd`: tag and a one-byte delta.
const MIN_EVENT_BYTES: usize = 2;
/// An interval with no events and no boundaries: two zero counts.
const MIN_INTERVAL_BYTES: usize = 2;
/// Two instruction varints, 16 stats varints and two raw f64s.
const MIN_BOUNDARY_BYTES: usize = 2 + MIN_STATS_BYTES + 16;
/// 16 one-byte varints.
const MIN_STATS_BYTES: usize = 16;
/// Instruction count, cycle, stats and CPL.
const MIN_PRIVATE_CHECKPOINT_BYTES: usize = 3 + MIN_STATS_BYTES;
/// A state value: tag and a one-byte payload.
const MIN_STATE_VALUE_BYTES: usize = 2;
/// An observer id, a technique name, a version and a state value.
const MIN_STATE_ENTRY_BYTES: usize = 3 + MIN_STATE_VALUE_BYTES;

/// How many items a declared count may reserve: no more than the bytes
/// left in `r` could hold at `min_bytes` apiece.
fn bounded(declared: usize, r: &Reader<'_>, min_bytes: usize) -> usize {
    declared.min(r.remaining() / min_bytes)
}

/// The structural bounds of one interval record.
struct IntervalLimits {
    /// Most events one interval may declare.
    max_events: usize,
    /// Most boundaries one interval may carry (the CMP's core count).
    max_cores: usize,
    /// Section named by errors.
    section: &'static str,
}

/// Decode one interval record — event count, events, boundary count,
/// boundaries — into `iv`, reusing its buffers. The one event-decoding
/// loop of the format: shared trace files (whole or streamed) and serve
/// frames both come through here. `prev` is the delta base of the event
/// timestamps; `watermark`, when given, holds each core's last
/// instruction count, which a boundary may not run back below.
fn decode_interval_into(
    r: &mut Reader<'_>,
    prev: &mut u64,
    mut watermark: Option<&mut [u64]>,
    limits: &IntervalLimits,
    iv: &mut TraceInterval,
) -> Result<(), TraceError> {
    let bad = TraceError::BadSection { section: limits.section };
    let n_events = r.varint()?;
    if n_events > limits.max_events as u64 {
        return Err(bad);
    }
    let n_events = n_events as usize;
    iv.events.clear();
    iv.events.reserve(bounded(n_events, r, MIN_EVENT_BYTES));
    for _ in 0..n_events {
        iv.events.push(decode_event(r, prev)?);
    }
    // At most one boundary per core: more would hand replay an
    // out-of-range core index.
    let n_bounds = r.varint()?;
    if n_bounds > limits.max_cores as u64 {
        return Err(bad);
    }
    iv.boundaries.clear();
    iv.boundaries.reserve(bounded(n_bounds as usize, r, MIN_BOUNDARY_BYTES));
    for core in 0..n_bounds as usize {
        let b = decode_boundary(r)?;
        if b.instr_end < b.instr_start {
            return Err(bad);
        }
        if let Some(w) = watermark.as_deref_mut() {
            if b.instr_start < w[core] {
                return Err(bad);
            }
            w[core] = b.instr_end;
        }
        iv.boundaries.push(b);
    }
    Ok(())
}

/// Encode a shared-mode trace to bytes.
pub fn encode_shared(t: &SharedTrace) -> Vec<u8> {
    let mut out = Writer::new();
    out.bytes(MAGIC);
    out.u32_le(FORMAT_VERSION);
    out.u8(KIND_SHARED);

    let mut meta = Writer::new();
    meta.varint(t.cores as u64);
    meta.str(&t.workload);
    write_section(&mut out, SEC_META, meta);

    let mut ivs = Writer::new();
    ivs.varint(t.intervals.len() as u64);
    let mut prev = 0u64;
    for iv in &t.intervals {
        ivs.varint(iv.events.len() as u64);
        for ev in &iv.events {
            encode_event(&mut ivs, ev, &mut prev);
        }
        ivs.varint(iv.boundaries.len() as u64);
        for b in &iv.boundaries {
            encode_boundary(&mut ivs, b);
        }
    }
    write_section(&mut out, SEC_INTERVALS, ivs);

    let mut fin = Writer::new();
    fin.varint(t.cycles);
    fin.varint(t.final_stats.len() as u64);
    for s in &t.final_stats {
        encode_stats(&mut fin, s);
    }
    write_section(&mut out, SEC_FINAL, fin);

    out.into_bytes()
}

/// Encode a private-mode trace to bytes.
pub fn encode_private(t: &PrivateTrace) -> Vec<u8> {
    let mut out = Writer::new();
    out.bytes(MAGIC);
    out.u32_le(FORMAT_VERSION);
    out.u8(KIND_PRIVATE);

    let mut meta = Writer::new();
    meta.str(&t.bench);
    meta.varint(t.base);
    write_section(&mut out, SEC_META, meta);

    let mut cks = Writer::new();
    cks.varint(t.checkpoints.len() as u64);
    for c in &t.checkpoints {
        cks.varint(c.instrs);
        cks.varint(c.cycle);
        encode_stats(&mut cks, &c.stats);
        cks.varint(c.cpl);
    }
    encode_stats(&mut cks, &t.total);
    write_section(&mut out, SEC_CHECKPOINTS, cks);

    out.into_bytes()
}

// ------------------------------------------------ estimator-state codec

const SV_U64: u8 = 0;
const SV_I64: u8 = 1;
const SV_F64: u8 = 2;
const SV_BOOL: u8 = 3;
const SV_LIST: u8 = 4;

/// Maximum nesting of a state tree. Real snapshots are 3–4 deep; the
/// guard keeps a corrupt length byte from recursing the decoder away.
const STATE_MAX_DEPTH: u32 = 32;

fn encode_state_value(w: &mut Writer, v: &StateValue) {
    match v {
        StateValue::U64(x) => {
            w.u8(SV_U64);
            w.varint(*x);
        }
        StateValue::I64(x) => {
            w.u8(SV_I64);
            w.zigzag(*x);
        }
        StateValue::F64Bits(bits) => {
            w.u8(SV_F64);
            w.f64_bits(f64::from_bits(*bits));
        }
        StateValue::Bool(x) => {
            w.u8(SV_BOOL);
            w.u8(u8::from(*x));
        }
        StateValue::List(xs) => {
            w.u8(SV_LIST);
            w.varint(xs.len() as u64);
            for x in xs {
                encode_state_value(w, x);
            }
        }
    }
}

fn decode_state_value(r: &mut Reader<'_>, depth: u32) -> Result<StateValue, TraceError> {
    if depth > STATE_MAX_DEPTH {
        return Err(TraceError::BadSection { section: "STATE" });
    }
    let at = r.pos();
    match r.u8()? {
        SV_U64 => Ok(StateValue::U64(r.varint()?)),
        SV_I64 => Ok(StateValue::I64(r.zigzag()?)),
        SV_F64 => Ok(StateValue::F64Bits(r.f64_bits()?.to_bits())),
        SV_BOOL => match r.u8()? {
            0 => Ok(StateValue::Bool(false)),
            1 => Ok(StateValue::Bool(true)),
            tag => Err(TraceError::BadTag { what: "state-bool", tag, at }),
        },
        SV_LIST => {
            let n = r.varint()? as usize;
            let mut xs = Vec::with_capacity(bounded(n, r, MIN_STATE_VALUE_BYTES));
            for _ in 0..n {
                xs.push(decode_state_value(r, depth + 1)?);
            }
            Ok(StateValue::List(xs))
        }
        tag => Err(TraceError::BadTag { what: "state-value", tag, at }),
    }
}

fn encode_estimator_state(w: &mut Writer, s: &EstimatorState) {
    w.str(&s.technique);
    w.varint(u64::from(s.version));
    encode_state_value(w, &s.root);
}

fn decode_estimator_state(r: &mut Reader<'_>) -> Result<EstimatorState, TraceError> {
    let technique = r.str()?;
    let version = r.varint()?;
    if version > u64::from(u32::MAX) {
        return Err(TraceError::BadSection { section: "STATE" });
    }
    let root = decode_state_value(r, 0)?;
    Ok(EstimatorState { technique, version: version as u32, root })
}

/// Payload of one STATE section: the boundary index and the
/// per-technique snapshots captured there.
fn encode_checkpoint_payload(c: &StateCheckpoint) -> Writer {
    let mut w = Writer::new();
    w.varint(c.at);
    w.varint(c.states.len() as u64);
    for (id, state) in &c.states {
        w.str(id);
        encode_estimator_state(&mut w, state);
    }
    w
}

fn decode_checkpoint_payload(p: &mut Reader<'_>) -> Result<StateCheckpoint, TraceError> {
    let at = p.varint()?;
    let n = p.varint()? as usize;
    let mut states = Vec::with_capacity(bounded(n, p, MIN_STATE_ENTRY_BYTES));
    for _ in 0..n {
        let id = p.str()?;
        states.push((id, decode_estimator_state(p)?));
    }
    expect_drained(p, "STATE")?;
    Ok(StateCheckpoint { at, states })
}

/// Encode a suspended session's snapshot as one STATE entry: the header
/// and exactly one CRC'd STATE section carrying `c`.
pub fn encode_state(c: &StateCheckpoint) -> Vec<u8> {
    let mut out = Writer::new();
    out.bytes(MAGIC);
    out.u32_le(FORMAT_VERSION);
    out.u8(KIND_STATE);
    write_section(&mut out, SEC_STATE, encode_checkpoint_payload(c));
    out.into_bytes()
}

// ------------------------------------------------------------- decoding

fn decode_header(r: &mut Reader<'_>, want_kind: u8) -> Result<(), TraceError> {
    let magic = r.bytes(8).map_err(|_| TraceError::BadMagic)?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = r.u32_le()?;
    if version != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != want_kind {
        return Err(TraceError::WrongKind { want: want_kind, got: kind });
    }
    Ok(())
}

/// Read one section, verify its CRC, and return a reader over its payload.
fn read_section<'a>(
    r: &mut Reader<'a>,
    want_tag: u8,
    name: &'static str,
) -> Result<Reader<'a>, TraceError> {
    let tag = r.u8().map_err(|_| TraceError::BadSection { section: name })?;
    if tag != want_tag {
        return Err(TraceError::BadSection { section: name });
    }
    let len = r.varint()? as usize;
    let payload = r.bytes(len)?;
    let stored = r.u32_le()?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(TraceError::Crc { section: name, stored, computed });
    }
    Ok(Reader::new(payload))
}

fn expect_drained(r: &Reader<'_>, section: &'static str) -> Result<(), TraceError> {
    if r.remaining() != 0 {
        return Err(TraceError::BadSection { section });
    }
    Ok(())
}

/// A streaming decoder of a shared-mode trace: the whole file is
/// verified up front, then intervals are decoded one at a time on demand.
///
/// [`SharedTraceReader::new`] checks the header, every section's CRC,
/// META, FINAL and that no bytes trail the last section, so no interval
/// is handed out of a file that fails any of those. The INTERVALS
/// payload is then decoded lazily by [`SharedTraceReader::read_interval`]
/// with the strict checks of [`decode_shared`] — tags, bounds, at most
/// one boundary per core, the per-core instruction watermark, and a
/// fully consumed section after the last declared interval — so a
/// structural error can still surface mid-stream, after earlier
/// intervals were handed out.
#[derive(Debug)]
pub struct SharedTraceReader<'a> {
    cores: usize,
    workload: String,
    cycles: u64,
    final_stats: Vec<CoreStats>,
    /// The INTERVALS payload, positioned at the next interval record.
    ivs: Reader<'a>,
    /// Declared intervals not yet read.
    left: u64,
    /// Delta base of the next event timestamp (runs across intervals).
    prev: u64,
    /// Per-core committed-instruction watermark: boundary windows must
    /// be non-decreasing (gaps are fine — not every interval reports
    /// every core — but a window running backwards would replay garbage).
    watermark: Vec<u64>,
}

impl<'a> SharedTraceReader<'a> {
    /// Verify a shared-mode trace file (see the type docs) and position
    /// the reader at its first interval.
    pub fn new(bytes: &'a [u8]) -> Result<SharedTraceReader<'a>, TraceError> {
        let mut r = Reader::new(bytes);
        decode_header(&mut r, KIND_SHARED)?;

        let mut meta = read_section(&mut r, SEC_META, "META")?;
        let cores = meta.varint()? as usize;
        // CoreId is a u8: a claimed core count past 256 could silently
        // wrap during replay, so reject it as malformed rather than
        // decode it.
        if cores > 256 {
            return Err(TraceError::BadSection { section: "META" });
        }
        let workload = meta.str()?;
        expect_drained(&meta, "META")?;

        let mut ivs = read_section(&mut r, SEC_INTERVALS, "INTERVALS")?;
        let left = ivs.varint()?;

        let mut fin = read_section(&mut r, SEC_FINAL, "FINAL")?;
        let cycles = fin.varint()?;
        let n_stats = fin.varint()? as usize;
        let mut final_stats = Vec::with_capacity(bounded(n_stats, &fin, MIN_STATS_BYTES));
        for _ in 0..n_stats {
            final_stats.push(decode_stats(&mut fin)?);
        }
        expect_drained(&fin, "FINAL")?;

        if r.remaining() != 0 {
            return Err(TraceError::TrailingBytes { len: r.remaining() });
        }
        Ok(SharedTraceReader {
            cores,
            workload,
            cycles,
            final_stats,
            ivs,
            left,
            prev: 0,
            watermark: vec![0; cores],
        })
    }

    /// Total cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Final cumulative per-core statistics.
    pub fn final_stats(&self) -> &[CoreStats] {
        &self.final_stats
    }

    /// Decode the next interval into `iv`, reusing its buffers. Returns
    /// `Ok(false)` once every declared interval has been read and the
    /// INTERVALS section is fully consumed.
    pub fn read_interval(&mut self, iv: &mut TraceInterval) -> Result<bool, TraceError> {
        if self.left == 0 {
            expect_drained(&self.ivs, "INTERVALS")?;
            return Ok(false);
        }
        self.left -= 1;
        let limits =
            IntervalLimits { max_events: usize::MAX, max_cores: self.cores, section: "INTERVALS" };
        decode_interval_into(
            &mut self.ivs,
            &mut self.prev,
            Some(&mut self.watermark),
            &limits,
            iv,
        )?;
        Ok(true)
    }
}

/// Decode a shared-mode trace; strict (every byte accounted for, every
/// section CRC-verified). This is [`SharedTraceReader`] collected.
pub fn decode_shared(bytes: &[u8]) -> Result<SharedTrace, TraceError> {
    let mut r = SharedTraceReader::new(bytes)?;
    let declared = usize::try_from(r.left).unwrap_or(usize::MAX);
    let mut intervals = Vec::with_capacity(bounded(declared, &r.ivs, MIN_INTERVAL_BYTES));
    let mut iv = TraceInterval::default();
    while r.read_interval(&mut iv)? {
        intervals.push(std::mem::take(&mut iv));
    }
    let SharedTraceReader { cores, workload, cycles, final_stats, .. } = r;
    Ok(SharedTrace { cores, workload, cycles, final_stats, intervals })
}

/// Decode a private-mode trace; strict.
pub fn decode_private(bytes: &[u8]) -> Result<PrivateTrace, TraceError> {
    let mut r = Reader::new(bytes);
    decode_header(&mut r, KIND_PRIVATE)?;

    let mut meta = read_section(&mut r, SEC_META, "META")?;
    let bench = meta.str()?;
    let base = meta.varint()?;
    expect_drained(&meta, "META")?;

    let mut cks = read_section(&mut r, SEC_CHECKPOINTS, "CHECKPOINTS")?;
    let n = cks.varint()? as usize;
    let mut checkpoints = Vec::with_capacity(bounded(n, &cks, MIN_PRIVATE_CHECKPOINT_BYTES));
    for _ in 0..n {
        checkpoints.push(TraceCheckpoint {
            instrs: cks.varint()?,
            cycle: cks.varint()?,
            stats: decode_stats(&mut cks)?,
            cpl: cks.varint()?,
        });
    }
    let total = decode_stats(&mut cks)?;
    expect_drained(&cks, "CHECKPOINTS")?;

    if r.remaining() != 0 {
        return Err(TraceError::TrailingBytes { len: r.remaining() });
    }
    Ok(PrivateTrace { bench, base, checkpoints, total })
}

/// Decode a STATE entry (inverse of [`encode_state`]); strict — the
/// header, the one STATE section's CRC, a fully consumed payload and no
/// trailing bytes.
pub fn decode_state(bytes: &[u8]) -> Result<StateCheckpoint, TraceError> {
    let mut r = Reader::new(bytes);
    decode_header(&mut r, KIND_STATE)?;
    let c = decode_checkpoint_payload(&mut read_section(&mut r, SEC_STATE, "STATE")?)?;
    if r.remaining() != 0 {
        return Err(TraceError::TrailingBytes { len: r.remaining() });
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(seed: u64) -> CoreStats {
        CoreStats {
            committed_instrs: seed,
            commit_cycles: seed + 1,
            stall_ind: seed % 7,
            stall_pms: seed % 5,
            stall_sms: seed * 3,
            stall_other: seed % 2,
            cycles: seed * 5,
            sms_loads: seed % 11,
            sms_latency_sum: seed * 7,
            sms_pre_llc_latency_sum: seed,
            sms_post_llc_latency_sum: seed / 2,
            llc_misses: seed % 4,
            llc_accesses: seed % 9,
            pms_loads: seed % 13,
            overlap_cycles: seed % 17,
            interference_sum: seed % 19,
        }
    }

    fn sample_shared() -> SharedTrace {
        let events = vec![
            ProbeEvent::LoadL1Miss { core: CoreId(0), req: ReqId(9), block: 0x1240, cycle: 10 },
            ProbeEvent::LlcAccess {
                core: CoreId(1),
                block: 0x80,
                cycle: 14,
                hit: true,
                req: ReqId(10),
            },
            ProbeEvent::LoadL1MissDone {
                core: CoreId(0),
                req: ReqId(9),
                block: 0x1240,
                cycle: 150,
                sms: true,
                latency: 140,
                interference: Interference { ring: 3, mc_queue: 9, mc_row: -4 },
                llc_hit: Some(false),
                post_llc: 80,
            },
            ProbeEvent::Stall {
                core: CoreId(0),
                start: 50,
                end: 155,
                cause: StallCause::Load,
                blocking_block: Some(0x1240),
                blocking_req: Some(ReqId(9)),
                blocking_sms: Some(true),
                blocking_interference: Some(Interference { ring: 1, mc_queue: 0, mc_row: 2 }),
            },
            ProbeEvent::IntervalEnd { cycle: 200 },
        ];
        let b = |i: u64| Boundary {
            instr_start: i * 100,
            instr_end: i * 100 + 100,
            stats: sample_stats(i + 3),
            lambda: 140.0 + i as f64 / 3.0,
            shared_latency: 181.5 - i as f64,
        };
        SharedTrace {
            cores: 2,
            workload: "2c-H-00".to_string(),
            cycles: 12_345,
            final_stats: vec![sample_stats(100), sample_stats(200)],
            intervals: vec![
                TraceInterval { events, boundaries: vec![b(0), b(1)] },
                TraceInterval { events: vec![], boundaries: vec![b(2), b(3)] },
            ],
        }
    }

    #[test]
    fn shared_trace_round_trips_exactly() {
        let t = sample_shared();
        let bytes = encode_shared(&t);
        let back = decode_shared(&bytes).expect("decodes");
        assert_eq!(back, t);
    }

    /// Every interval `reader` still holds, decoded into one reused buffer.
    fn stream_all(reader: &mut SharedTraceReader<'_>) -> Result<Vec<TraceInterval>, TraceError> {
        let mut out = Vec::new();
        let mut iv = TraceInterval::default();
        while reader.read_interval(&mut iv)? {
            out.push(iv.clone());
        }
        Ok(out)
    }

    #[test]
    fn streamed_intervals_equal_the_whole_decode() {
        let t = sample_shared();
        let bytes = encode_shared(&t);
        let mut reader = SharedTraceReader::new(&bytes).expect("verifies");
        assert_eq!((reader.cycles(), reader.final_stats()), (t.cycles, t.final_stats.as_slice()));
        assert_eq!(stream_all(&mut reader).unwrap(), t.intervals);
        assert_eq!(reader.read_interval(&mut TraceInterval::default()), Ok(false), "stays done");
    }

    #[test]
    fn structural_errors_surface_mid_stream_after_verification() {
        // CRC-valid bytes whose second interval runs a core's window back
        // below its watermark: verification passes, the first interval is
        // handed out, and the second is a typed error.
        let mut t = sample_shared();
        t.intervals[1].boundaries[0] = t.intervals[0].boundaries[0];
        let bytes = encode_shared(&t);
        let mut reader = SharedTraceReader::new(&bytes).expect("every CRC holds");
        let mut iv = TraceInterval::default();
        assert_eq!(reader.read_interval(&mut iv), Ok(true));
        assert_eq!(iv, t.intervals[0]);
        assert_eq!(
            reader.read_interval(&mut iv),
            Err(TraceError::BadSection { section: "INTERVALS" })
        );

        // An INTERVALS section holding more records than it declares is
        // rejected once the declared ones are read.
        let t = sample_shared();
        let mut bytes = encode_shared(&t);
        let mut r = Reader::new(&bytes);
        r.bytes(13).unwrap(); // magic + version + kind
        read_section(&mut r, SEC_META, "META").unwrap();
        r.u8().unwrap(); // INTERVALS tag
        let len = r.varint().unwrap() as usize;
        let start = r.pos();
        assert_eq!(bytes[start], 2, "two intervals declared");
        bytes[start] = 1;
        let crc = crc32(&bytes[start..start + len]).to_le_bytes();
        bytes[start + len..start + len + 4].copy_from_slice(&crc);
        let mut reader = SharedTraceReader::new(&bytes).expect("every CRC holds");
        assert_eq!(stream_all(&mut reader), Err(TraceError::BadSection { section: "INTERVALS" }));
        assert_eq!(decode_shared(&bytes), Err(TraceError::BadSection { section: "INTERVALS" }));
    }

    #[test]
    fn interval_payloads_are_self_contained() {
        // Each interval must decode alone (stream frames have no
        // predecessor context), exactly, including the delta-encoded
        // event timestamps re-based per payload.
        let t = sample_shared();
        for iv in &t.intervals {
            let bytes = encode_interval_payload(iv);
            let back = decode_interval_payload(&bytes, t.cores, usize::MAX).expect("decodes");
            assert_eq!(&back, iv);
        }
        // Boundary-count and window sanity are enforced.
        let iv = &t.intervals[0];
        let bytes = encode_interval_payload(iv);
        assert_eq!(
            decode_interval_payload(&bytes, 1, usize::MAX),
            Err(TraceError::BadSection { section: "INTERVAL" }),
            "more boundaries than cores must be rejected"
        );
        assert_eq!(
            decode_interval_payload(&bytes, 2, iv.events.len() - 1),
            Err(TraceError::BadSection { section: "INTERVAL" }),
            "more events than the cap must be rejected"
        );
        let mut bad = iv.clone();
        bad.boundaries[0].instr_start = bad.boundaries[0].instr_end + 1;
        assert_eq!(
            decode_interval_payload(&encode_interval_payload(&bad), 2, usize::MAX),
            Err(TraceError::BadSection { section: "INTERVAL" }),
            "a backwards instruction window must be rejected"
        );
        let mut trailing = encode_interval_payload(iv);
        trailing.push(0);
        assert!(
            decode_interval_payload(&trailing, 2, usize::MAX).is_err(),
            "trailing bytes rejected"
        );
    }

    #[test]
    fn private_trace_round_trips_exactly() {
        let t = PrivateTrace {
            bench: "ammp".to_string(),
            base: 1 << 36,
            checkpoints: (0..5)
                .map(|i| TraceCheckpoint {
                    instrs: i * 2000,
                    cycle: i * 9000 + 7,
                    stats: sample_stats(i + 40),
                    cpl: i * 3,
                })
                .collect(),
            total: sample_stats(77),
        };
        let bytes = encode_private(&t);
        assert_eq!(decode_private(&bytes).expect("decodes"), t);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let t = sample_shared();
        let mut bytes = encode_shared(&t);
        // Flip a byte inside the INTERVALS payload (well past the header).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match decode_shared(&bytes) {
            Err(TraceError::Crc { .. })
            | Err(TraceError::BadTag { .. })
            | Err(TraceError::Truncated { .. })
            | Err(TraceError::BadSection { .. }) => {}
            other => panic!("corruption must be detected, got {other:?}"),
        }
    }

    #[test]
    fn crc_catches_bitflips_that_still_parse() {
        // Flip a low bit in a varint payload byte: structure often still
        // parses, so only the CRC catches it.
        let t = sample_shared();
        let clean = encode_shared(&t);
        let mut caught = 0;
        for pos in 20..clean.len().saturating_sub(8) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            if decode_shared(&bytes).is_err() {
                caught += 1;
            }
        }
        assert_eq!(caught, clean.len().saturating_sub(8) - 20, "every bitflip must be detected");
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(decode_shared(b"NOTTRACE"), Err(TraceError::BadMagic));
        let mut bytes = encode_shared(&sample_shared());
        bytes[8] = 0xFE; // version low byte
        assert!(matches!(decode_shared(&bytes), Err(TraceError::UnsupportedVersion(_))));
        let priv_bytes = encode_private(&PrivateTrace::default());
        assert_eq!(
            decode_shared(&priv_bytes),
            Err(TraceError::WrongKind { want: KIND_SHARED, got: KIND_PRIVATE })
        );
    }

    #[test]
    fn truncated_files_are_rejected() {
        let bytes = encode_shared(&sample_shared());
        for cut in [0, 5, 12, 13, 20, bytes.len() - 1] {
            assert!(decode_shared(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_shared(&sample_shared());
        bytes.push(0);
        assert_eq!(decode_shared(&bytes), Err(TraceError::TrailingBytes { len: 1 }));
    }

    #[test]
    fn core_count_and_boundary_overflows_are_rejected() {
        // A CRC-valid trace claiming > 256 cores (CoreId is a u8) or
        // more boundaries than cores must not decode: replay would wrap
        // core indices and produce silently wrong estimates.
        let mut t = sample_shared();
        t.cores = 300;
        assert_eq!(
            decode_shared(&encode_shared(&t)),
            Err(TraceError::BadSection { section: "META" })
        );
        let mut t = sample_shared();
        t.cores = 1; // fewer cores than the 2 boundaries per interval
        assert_eq!(
            decode_shared(&encode_shared(&t)),
            Err(TraceError::BadSection { section: "INTERVALS" })
        );
    }

    #[test]
    fn empty_traces_round_trip() {
        let t = SharedTrace { cores: 0, ..Default::default() };
        assert_eq!(decode_shared(&encode_shared(&t)).unwrap(), t);
        let p = PrivateTrace::default();
        assert_eq!(decode_private(&encode_private(&p)).unwrap(), p);
    }

    #[test]
    fn non_monotone_boundaries_are_rejected() {
        // Gaps are fine: sample_shared's per-core windows are already
        // non-contiguous (core 0 runs 0..100 then 200..300).
        assert!(decode_shared(&encode_shared(&sample_shared())).is_ok());

        // A window running backwards within one boundary.
        let mut t = sample_shared();
        t.intervals[0].boundaries[0].instr_start = 50;
        t.intervals[0].boundaries[0].instr_end = 40;
        assert_eq!(
            decode_shared(&encode_shared(&t)),
            Err(TraceError::BadSection { section: "INTERVALS" })
        );

        // A later interval restarting below the core's watermark.
        let mut t = sample_shared();
        t.intervals[1].boundaries[0] = t.intervals[0].boundaries[0];
        assert_eq!(
            decode_shared(&encode_shared(&t)),
            Err(TraceError::BadSection { section: "INTERVALS" })
        );
    }

    // ------------------------------------------------------ STATE entries

    fn sample_state(seed: u64) -> EstimatorState {
        EstimatorState::new(
            "GDP",
            StateValue::List(vec![
                StateValue::U64(seed),
                StateValue::I64(-(seed as i64) - 1),
                StateValue::f64(140.25 + seed as f64),
                StateValue::f64(f64::NAN),
                StateValue::Bool(seed % 2 == 0),
                StateValue::List(vec![StateValue::U64(7), StateValue::List(vec![])]),
            ]),
        )
    }

    fn sample_checkpoint() -> StateCheckpoint {
        StateCheckpoint {
            at: 4,
            states: vec![
                ("gdp-units".to_string(), sample_state(4)),
                ("dief".to_string(), sample_state(13)),
            ],
        }
    }

    #[test]
    fn state_entries_round_trip_exactly() {
        // NaN bits survive: PartialEq on F64Bits compares bit patterns.
        let c = sample_checkpoint();
        assert_eq!(decode_state(&encode_state(&c)).unwrap(), c);
        let cold = StateCheckpoint { at: 0, states: Vec::new() };
        assert_eq!(decode_state(&encode_state(&cold)).unwrap(), cold);
    }

    #[test]
    fn state_bitflips_are_all_detected() {
        // Every single-bit corruption anywhere in the entry — header,
        // section framing, payload or CRC — is a typed error.
        let clean = encode_state(&sample_checkpoint());
        for pos in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << bit;
                assert!(decode_state(&bytes).is_err(), "flip of bit {bit} at byte {pos} accepted");
            }
        }
    }

    #[test]
    fn state_truncation_and_trailing_bytes_are_rejected() {
        let bytes = encode_state(&sample_checkpoint());
        for cut in 0..bytes.len() {
            assert!(decode_state(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut bytes = bytes;
        bytes.push(0);
        assert_eq!(decode_state(&bytes), Err(TraceError::TrailingBytes { len: 1 }));
    }

    #[test]
    fn state_decoder_rejects_other_kinds() {
        assert_eq!(
            decode_state(&encode_shared(&sample_shared())),
            Err(TraceError::WrongKind { want: KIND_STATE, got: KIND_SHARED })
        );
        assert_eq!(
            decode_shared(&encode_state(&sample_checkpoint())),
            Err(TraceError::WrongKind { want: KIND_SHARED, got: KIND_STATE })
        );
    }
}
