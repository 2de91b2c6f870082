//! The serve wire protocol: typed client/server messages over
//! `gdp-trace` stream frames.
//!
//! Every message is one CRC-checked frame
//! ([`encode_frame`]): `tag | len | payload |
//! crc32(tag ‖ payload)`. Interval payloads are *exactly* the trace file
//! format's event/boundary codecs
//! ([`encode_interval_payload`]), so
//! a recorded `SharedTrace` streams to the server without re-encoding
//! loss: every `f64` travels as raw bits, which is what makes the
//! served-vs-embedded bit-equality contract possible at all.
//!
//! Tag space: client→server tags are `1..=15`, server→client `16..=31`.
//! A decoder seeing a tag from the wrong direction reports a typed
//! [`TraceError::BadTag`] — a per-tenant error, never a panic.

use gdp_core::model::PrivateEstimate;
use gdp_experiments::CoreInterval;
use gdp_trace::codec::{Reader, TraceError, Writer};
use gdp_trace::format::{decode_boundary, encode_boundary};
use gdp_trace::{
    decode_interval_payload, encode_frame, encode_interval_payload, Boundary, Frame, TraceInterval,
};

/// Client→server: stream introduction (must be the first frame).
pub const MSG_HELLO: u8 = 1;
/// Client→server: one accounting interval (events + per-core boundaries).
pub const MSG_INTERVAL: u8 = 2;
/// Client→server: clean end of stream.
pub const MSG_FINISH: u8 = 3;
/// Server→client: admission accepted; carries the resume position.
pub const MSG_WELCOME: u8 = 16;
/// Server→client: one served estimate row.
pub const MSG_ROW: u8 = 17;
/// Server→client: admission refused — capacity load-shed.
pub const MSG_SHED: u8 = 18;
/// Server→client: typed per-tenant failure (the session is over).
pub const MSG_ERROR: u8 = 19;
/// Server→client: clean end acknowledgement.
pub const MSG_DONE: u8 = 20;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Stream introduction: tenant identity, CMP core count and the
    /// technique ids the tenant wants estimates for.
    Hello {
        /// Tenant identity — the sharding and admission key.
        tenant: u64,
        /// Core count of every fed interval (must match the server's
        /// configuration).
        cores: usize,
        /// Registered technique ids (validated at admission).
        techniques: Vec<String>,
    },
    /// One accounting interval of the tenant's probe stream.
    Interval(TraceInterval),
    /// Clean end of stream: the server replies [`ServerMsg::Done`] and
    /// discards any suspended snapshot.
    Finish,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Admission accepted. `resumed_at` is the interval index the
    /// session continues from: 0 for a fresh session, the suspended
    /// position when a snapshot was restored.
    Welcome {
        /// First interval index the server expects/serves.
        resumed_at: u64,
        /// Canonical technique ids (estimate-vector order).
        techniques: Vec<String>,
    },
    /// One estimate row: `cores[c]` carries the echoed boundary
    /// measurement plus one estimate per technique, bit-identical to an
    /// embedded session.
    Row {
        /// Interval index of this row.
        index: u64,
        /// Per-core measurement + estimates.
        cores: Vec<CoreInterval>,
    },
    /// Admission refused: the server is at `max_tenants` capacity. The
    /// tenant was never admitted; nothing was fed or retained.
    Shed,
    /// Typed per-tenant failure; the connection is closing.
    Error(String),
    /// Clean end acknowledgement, echoing the total interval count.
    Done {
        /// Intervals served over the session's lifetime.
        intervals: u64,
    },
}

// ------------------------------------------------------------- encoding

/// Encode a client message as one wire frame.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    match msg {
        ClientMsg::Hello { tenant, cores, techniques } => {
            let mut w = Writer::new();
            w.varint(*tenant);
            w.varint(*cores as u64);
            w.varint(techniques.len() as u64);
            for t in techniques {
                w.str(t);
            }
            encode_frame(MSG_HELLO, &w.into_bytes())
        }
        ClientMsg::Interval(iv) => encode_interval(iv),
        ClientMsg::Finish => encode_frame(MSG_FINISH, &[]),
    }
}

/// Encode a borrowed interval as one [`ClientMsg::Interval`] wire frame,
/// so a client streams a recorded trace without cloning its events.
pub fn encode_interval(iv: &TraceInterval) -> Vec<u8> {
    encode_frame(MSG_INTERVAL, &encode_interval_payload(iv))
}

/// Encode a server message as one wire frame.
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    match msg {
        ServerMsg::Welcome { resumed_at, techniques } => {
            let mut w = Writer::new();
            w.varint(*resumed_at);
            w.varint(techniques.len() as u64);
            for t in techniques {
                w.str(t);
            }
            encode_frame(MSG_WELCOME, &w.into_bytes())
        }
        ServerMsg::Row { index, cores } => {
            let mut w = Writer::new();
            w.varint(*index);
            w.varint(cores.len() as u64);
            for c in cores {
                // A row's measurement half is exactly a trace boundary,
                // so it reuses the file codec (f64s as raw bits).
                encode_boundary(
                    &mut w,
                    &Boundary {
                        instr_start: c.instr_start,
                        instr_end: c.instr_end,
                        stats: c.stats,
                        lambda: c.lambda,
                        shared_latency: c.shared_latency,
                    },
                );
                w.varint(c.estimates.len() as u64);
                for e in &c.estimates {
                    w.f64_bits(e.cpi);
                    w.f64_bits(e.sigma_sms);
                    w.varint(e.cpl);
                    w.f64_bits(e.overlap);
                }
            }
            encode_frame(MSG_ROW, &w.into_bytes())
        }
        ServerMsg::Shed => encode_frame(MSG_SHED, &[]),
        ServerMsg::Error(msg) => {
            let mut w = Writer::new();
            w.str(msg);
            encode_frame(MSG_ERROR, &w.into_bytes())
        }
        ServerMsg::Done { intervals } => {
            let mut w = Writer::new();
            w.varint(*intervals);
            encode_frame(MSG_DONE, &w.into_bytes())
        }
    }
}

// ------------------------------------------------------------- decoding

fn expect_drained(r: &Reader<'_>) -> Result<(), TraceError> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(TraceError::TrailingBytes { len: r.remaining() })
    }
}

/// Decode a reassembled client frame. `max_cores` bounds interval
/// boundary counts (the server's CMP size); `max_events` bounds a single
/// interval's event batch (the per-frame load-shedding guard — a tenant
/// exceeding it gets a typed error, not an unbounded allocation).
pub fn decode_client(
    frame: &Frame,
    max_cores: usize,
    max_events: usize,
) -> Result<ClientMsg, TraceError> {
    match frame.tag {
        MSG_HELLO => {
            let mut r = Reader::new(&frame.payload);
            let tenant = r.varint()?;
            let cores = r.varint()? as usize;
            let n = r.varint()? as usize;
            if n > 64 {
                return Err(TraceError::BadSection { section: "HELLO" });
            }
            let mut techniques = Vec::with_capacity(n);
            for _ in 0..n {
                techniques.push(r.str()?);
            }
            expect_drained(&r)?;
            Ok(ClientMsg::Hello { tenant, cores, techniques })
        }
        MSG_INTERVAL => {
            Ok(ClientMsg::Interval(decode_interval_payload(&frame.payload, max_cores, max_events)?))
        }
        MSG_FINISH => {
            if frame.payload.is_empty() {
                Ok(ClientMsg::Finish)
            } else {
                Err(TraceError::TrailingBytes { len: frame.payload.len() })
            }
        }
        tag => Err(TraceError::BadTag { what: "client message", tag, at: 0 }),
    }
}

/// Decode a reassembled server frame.
pub fn decode_server(frame: &Frame) -> Result<ServerMsg, TraceError> {
    match frame.tag {
        MSG_WELCOME => {
            let mut r = Reader::new(&frame.payload);
            let resumed_at = r.varint()?;
            let n = r.varint()? as usize;
            if n > 64 {
                return Err(TraceError::BadSection { section: "WELCOME" });
            }
            let mut techniques = Vec::with_capacity(n);
            for _ in 0..n {
                techniques.push(r.str()?);
            }
            expect_drained(&r)?;
            Ok(ServerMsg::Welcome { resumed_at, techniques })
        }
        MSG_ROW => {
            let mut r = Reader::new(&frame.payload);
            let index = r.varint()?;
            let n = r.varint()? as usize;
            if n > 256 {
                return Err(TraceError::BadSection { section: "ROW" });
            }
            let mut cores = Vec::with_capacity(n);
            for _ in 0..n {
                let b = decode_boundary(&mut r)?;
                let ne = r.varint()? as usize;
                if ne > 64 {
                    return Err(TraceError::BadSection { section: "ROW" });
                }
                let mut estimates = Vec::with_capacity(ne);
                for _ in 0..ne {
                    estimates.push(PrivateEstimate {
                        cpi: r.f64_bits()?,
                        sigma_sms: r.f64_bits()?,
                        cpl: r.varint()?,
                        overlap: r.f64_bits()?,
                    });
                }
                cores.push(CoreInterval {
                    instr_start: b.instr_start,
                    instr_end: b.instr_end,
                    stats: b.stats,
                    lambda: b.lambda,
                    shared_latency: b.shared_latency,
                    estimates,
                });
            }
            expect_drained(&r)?;
            Ok(ServerMsg::Row { index, cores })
        }
        MSG_SHED => {
            if frame.payload.is_empty() {
                Ok(ServerMsg::Shed)
            } else {
                Err(TraceError::TrailingBytes { len: frame.payload.len() })
            }
        }
        MSG_ERROR => {
            let mut r = Reader::new(&frame.payload);
            let msg = r.str()?;
            expect_drained(&r)?;
            Ok(ServerMsg::Error(msg))
        }
        MSG_DONE => {
            let mut r = Reader::new(&frame.payload);
            let intervals = r.varint()?;
            expect_drained(&r)?;
            Ok(ServerMsg::Done { intervals })
        }
        tag => Err(TraceError::BadTag { what: "server message", tag, at: 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::probe::ProbeEvent;
    use gdp_sim::stats::CoreStats;
    use gdp_sim::types::{CoreId, ReqId};
    use gdp_trace::FrameAssembler;

    fn one_frame(bytes: &[u8]) -> Frame {
        let mut asm = FrameAssembler::new();
        asm.push(bytes);
        let f = asm.next_frame().expect("valid").expect("complete");
        assert_eq!(asm.buffered(), 0);
        f
    }

    fn sample_interval() -> TraceInterval {
        TraceInterval {
            events: vec![
                ProbeEvent::LlcAccess {
                    core: CoreId(0),
                    block: 0x40,
                    cycle: 100,
                    hit: false,
                    req: ReqId(7),
                },
                ProbeEvent::LlcAccess {
                    core: CoreId(1),
                    block: 0x80,
                    cycle: 220,
                    hit: true,
                    req: ReqId(9),
                },
            ],
            boundaries: vec![
                Boundary {
                    instr_start: 0,
                    instr_end: 500,
                    stats: CoreStats { committed_instrs: 500, ..Default::default() },
                    lambda: 1.25,
                    shared_latency: 80.5,
                },
                Boundary {
                    instr_start: 0,
                    instr_end: 480,
                    stats: CoreStats { committed_instrs: 480, ..Default::default() },
                    lambda: f64::from_bits(0x3FF0_0000_0000_0001), // bit-odd value
                    shared_latency: 77.25,
                },
            ],
        }
    }

    #[test]
    fn client_messages_round_trip() {
        let msgs = [
            ClientMsg::Hello {
                tenant: 42,
                cores: 2,
                techniques: vec!["gdp".into(), "itca".into()],
            },
            ClientMsg::Interval(sample_interval()),
            ClientMsg::Finish,
        ];
        for m in &msgs {
            let f = one_frame(&encode_client(m));
            assert_eq!(&decode_client(&f, 2, 1 << 20).expect("decode"), m);
        }
    }

    #[test]
    fn server_messages_round_trip_bit_exactly() {
        let row = ServerMsg::Row {
            index: 7,
            cores: vec![CoreInterval {
                instr_start: 10,
                instr_end: 510,
                stats: CoreStats { committed_instrs: 500, llc_misses: 3, ..Default::default() },
                lambda: f64::from_bits(0x3FF8_0000_0000_0003),
                shared_latency: f64::from_bits(0x4053_0000_0000_0007),
                estimates: vec![PrivateEstimate {
                    cpi: f64::from_bits(0x3FF2_3456_789A_BCDE),
                    sigma_sms: 123.5,
                    cpl: 9,
                    overlap: 0.75,
                }],
            }],
        };
        let msgs = [
            ServerMsg::Welcome { resumed_at: 3, techniques: vec!["gdp".into()] },
            row,
            ServerMsg::Shed,
            ServerMsg::Error("tenant already connected".into()),
            ServerMsg::Done { intervals: 11 },
        ];
        for m in &msgs {
            let f = one_frame(&encode_server(m));
            assert_eq!(&decode_server(&f).expect("decode"), m);
        }
    }

    #[test]
    fn wrong_direction_tags_are_typed_errors() {
        let f = one_frame(&encode_server(&ServerMsg::Shed));
        assert!(matches!(
            decode_client(&f, 2, 1 << 20),
            Err(TraceError::BadTag { what: "client message", .. })
        ));
        let f = one_frame(&encode_client(&ClientMsg::Finish));
        assert!(matches!(
            decode_server(&f),
            Err(TraceError::BadTag { what: "server message", .. })
        ));
    }

    #[test]
    fn oversized_interval_batches_are_rejected() {
        let iv = sample_interval();
        let f = one_frame(&encode_client(&ClientMsg::Interval(iv)));
        // max_events below the sample's two events → typed rejection.
        assert!(matches!(
            decode_client(&f, 2, 1),
            Err(TraceError::BadSection { section: "INTERVAL" })
        ));
        // Boundary count above the server's CMP size → typed rejection.
        assert!(matches!(
            decode_client(&f, 1, 1 << 20),
            Err(TraceError::BadSection { section: "INTERVAL" })
        ));
        // A few-byte payload declaring one event over the cap is refused
        // on the declared count, before anything is reserved for it.
        let max_events = 1 << 20;
        let mut w = Writer::new();
        w.varint(max_events as u64 + 1);
        let f = one_frame(&encode_frame(MSG_INTERVAL, &w.into_bytes()));
        assert_eq!(f.payload.len(), 3);
        assert_eq!(
            decode_client(&f, 2, max_events),
            Err(TraceError::BadSection { section: "INTERVAL" })
        );
    }
}
