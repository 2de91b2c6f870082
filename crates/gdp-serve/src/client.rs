//! A blocking tenant client over either transport.
//!
//! The client frames outgoing messages with the same codec the server
//! decodes, optionally splitting the byte stream into fixed-size chunks
//! ([`TenantClient::with_chunk`]) — the knob the chunking-invariance
//! tests turn to prove the server's reassembly is boundary-blind.
//!
//! [`TenantClient::stream`] implements windowed pipelining: up to
//! `window` intervals in flight before the client blocks on rows. A
//! window of 1 is fully lock-step (send, wait for the row); larger
//! windows overlap the transport with estimation without risking a
//! send/receive deadlock against the server's bounded buffers.

use std::collections::VecDeque;
use std::io;

use gdp_experiments::{CoreInterval, Technique};
use gdp_trace::codec::TraceError;
use gdp_trace::{FrameAssembler, TraceInterval};

use crate::proto::{decode_server, encode_client, encode_interval, ClientMsg, ServerMsg};
use crate::transport::{Closer, Connection, TcpTransport};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's byte stream failed to decode (corrupt frame).
    Trace(TraceError),
    /// The server closed or answered out of protocol.
    Protocol(String),
    /// Admission was refused: the server is at capacity.
    Shed,
    /// The server reported a typed per-tenant error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Trace(e) => write!(f, "corrupt server stream: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Shed => write!(f, "shed: server at tenant capacity"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<TraceError> for ClientError {
    fn from(e: TraceError) -> ClientError {
        ClientError::Trace(e)
    }
}

/// A tenant's blocking connection to a serve instance.
pub struct TenantClient {
    rx: Box<dyn crate::transport::ConnRead>,
    tx: Box<dyn crate::transport::ConnWrite>,
    closer: Closer,
    asm: FrameAssembler,
    chunk: Option<usize>,
}

impl TenantClient {
    /// Wrap an established connection (channel or TCP).
    pub fn over(conn: Connection) -> TenantClient {
        TenantClient {
            rx: conn.rx,
            tx: conn.tx,
            closer: conn.closer,
            asm: FrameAssembler::new(),
            chunk: None,
        }
    }

    /// Dial a TCP serve instance.
    pub fn connect_tcp(addr: &str) -> io::Result<TenantClient> {
        Ok(TenantClient::over(TcpTransport::connect(addr)?))
    }

    /// Split every outgoing write into `n`-byte chunks (n ≥ 1). The
    /// server must reassemble identically for any value — the
    /// chunking-invariance test knob.
    pub fn with_chunk(mut self, n: usize) -> TenantClient {
        self.chunk = Some(n.max(1));
        self
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.chunk {
            None => self.tx.send(bytes),
            Some(n) => {
                for piece in bytes.chunks(n) {
                    self.tx.send(piece)?;
                }
                Ok(())
            }
        }
    }

    /// Send raw bytes, bypassing the framing codec — a fault-injection
    /// knob for corruption tests (the server must answer a corrupt
    /// stream with a typed error, never a crash).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.send_bytes(bytes)
    }

    /// Introduce the stream and wait for admission. Returns the resume
    /// position (0 for a fresh session) and the canonical technique ids
    /// the server will estimate, in estimate-vector order.
    pub fn hello(
        &mut self,
        tenant: u64,
        cores: usize,
        techniques: &[Technique],
    ) -> Result<(u64, Vec<String>), ClientError> {
        let ids: Vec<String> = techniques.iter().map(|t| t.id().to_string()).collect();
        let msg = ClientMsg::Hello { tenant, cores, techniques: ids };
        let bytes = encode_client(&msg);
        self.send_bytes(&bytes)?;
        match self.recv_msg()? {
            ServerMsg::Welcome { resumed_at, techniques } => Ok((resumed_at, techniques)),
            ServerMsg::Shed => Err(ClientError::Shed),
            ServerMsg::Error(m) => Err(ClientError::Server(m)),
            other => Err(ClientError::Protocol(format!("unexpected admission reply: {other:?}"))),
        }
    }

    /// Send one interval (does not wait for the row — pipeline with
    /// [`TenantClient::recv_row`]).
    pub fn send_interval(&mut self, iv: &TraceInterval) -> Result<(), ClientError> {
        self.send_bytes(&encode_interval(iv))?;
        Ok(())
    }

    /// Send the clean end-of-stream marker.
    pub fn finish(&mut self) -> Result<(), ClientError> {
        let bytes = encode_client(&ClientMsg::Finish);
        self.send_bytes(&bytes)?;
        Ok(())
    }

    /// Block for the next server message.
    pub fn recv_msg(&mut self) -> Result<ServerMsg, ClientError> {
        loop {
            if let Some(frame) = self.asm.next_frame()? {
                return Ok(decode_server(&frame)?);
            }
            match self.rx.recv_chunk()? {
                Some(chunk) => self.asm.push(&chunk),
                None => {
                    return Err(ClientError::Protocol("server closed the stream".into()));
                }
            }
        }
    }

    /// Block for the next estimate row; a typed server error or shed
    /// becomes `Err`.
    pub fn recv_row(&mut self) -> Result<(u64, Vec<CoreInterval>), ClientError> {
        match self.recv_msg()? {
            ServerMsg::Row { index, cores } => Ok((index, cores)),
            ServerMsg::Error(m) => Err(ClientError::Server(m)),
            ServerMsg::Shed => Err(ClientError::Shed),
            other => Err(ClientError::Protocol(format!("expected a row, got {other:?}"))),
        }
    }

    /// Stream `intervals` with up to `window` frames in flight, collect
    /// every row, then Finish and wait for Done. Returns the rows in
    /// interval order.
    pub fn stream(
        &mut self,
        intervals: &[TraceInterval],
        window: usize,
    ) -> Result<Vec<Vec<CoreInterval>>, ClientError> {
        let window = window.max(1);
        let mut rows: VecDeque<(u64, Vec<CoreInterval>)> = VecDeque::new();
        let mut in_flight = 0usize;
        for iv in intervals {
            if in_flight >= window {
                rows.push_back(self.recv_row()?);
                in_flight -= 1;
            }
            self.send_interval(iv)?;
            in_flight += 1;
        }
        while in_flight > 0 {
            rows.push_back(self.recv_row()?);
            in_flight -= 1;
        }
        self.finish()?;
        match self.recv_msg()? {
            ServerMsg::Done { .. } => {}
            other => return Err(ClientError::Protocol(format!("expected Done, got {other:?}"))),
        }
        let mut out = Vec::with_capacity(rows.len());
        for (_, cores) in rows {
            out.push(cores);
        }
        Ok(out)
    }

    /// Abruptly kill the connection (no Finish): the server suspends
    /// the session, and a later [`TenantClient::hello`] with the same
    /// tenant id resumes it bit-exactly.
    pub fn kill(self) {
        (self.closer)();
    }
}
