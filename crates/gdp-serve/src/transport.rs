//! The transport seam: byte-chunk connections behind one trait surface,
//! with a TCP implementation and an in-process channel implementation.
//!
//! The server never sees which transport produced a connection — both
//! deliver arbitrary byte chunks into the same
//! [`FrameAssembler`](gdp_trace::FrameAssembler), so the protocol and
//! every bit-equality property are transport-invariant by construction.
//! The channel transport exists for tests and embedded hosts (a
//! scheduler linking the server in-process pays no socket tax); TCP is
//! the deployment path.
//!
//! Every wait blocks until its event happens; nothing polls. A channel
//! pipe direction and the channel listener's connection queue are each
//! one bounded blocking queue (a `Mutex` and two `Condvar`s): a close,
//! or a dropped pipe end, wakes every waiter. A TCP accept blocks in the
//! kernel; its [`Listener::closer`] wakes it by dialling the listener's
//! own address.
//!
//! Backpressure: both transports are *bounded*. TCP inherits the kernel
//! socket buffers; a channel pipe holds at most [`PIPE_CHUNKS`] chunks.
//! A slow consumer therefore blocks the producer's `send` — admitted
//! tenants experience backpressure, never message loss.

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Chunk capacity of one in-process pipe direction (bounded memory:
/// at most `PIPE_CHUNKS` in-flight chunks per direction per tenant).
pub const PIPE_CHUNKS: usize = 64;

/// Size of a TCP connection's read buffer: the most one
/// [`ConnRead::recv_chunk`] returns.
const TCP_READ_BYTES: usize = 64 * 1024;

/// Receiving half of a connection: blocking, chunk-oriented.
pub trait ConnRead: Send {
    /// Receive the next byte chunk; `Ok(None)` is end-of-stream. Chunk
    /// boundaries carry no meaning — the frame assembler reassembles.
    fn recv_chunk(&mut self) -> io::Result<Option<Vec<u8>>>;
}

/// Sending half of a connection: blocking, bounded.
pub trait ConnWrite: Send {
    /// Send one byte chunk, blocking while the peer's buffer is full.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// Closes something from any thread, waking whoever is blocked on it:
/// both directions of a connection (a reader stuck in
/// [`ConnRead::recv_chunk`], a writer stuck in [`ConnWrite::send`]), or
/// a listener (a blocked [`Listener::accept`]). Idempotent.
pub type Closer = Arc<dyn Fn() + Send + Sync>;

/// One accepted (or dialed) connection: two independent halves plus an
/// out-of-band closer.
pub struct Connection {
    /// Receiving half.
    pub rx: Box<dyn ConnRead>,
    /// Sending half.
    pub tx: Box<dyn ConnWrite>,
    /// Out-of-band hard close (idempotent).
    pub closer: Closer,
}

/// A transport listener the server accepts connections from.
pub trait Listener: Send {
    /// Block until the next connection arrives; `Ok(None)` once the
    /// listener is closed (at once if it already is).
    fn accept(&mut self) -> io::Result<Option<Connection>>;

    /// A closer for this listener: it wakes a blocked
    /// [`Listener::accept`], and every later accept returns `Ok(None)`.
    fn closer(&self) -> Closer;
}

// ------------------------------------------------------ blocking queue

/// A bounded blocking FIFO: `push` blocks while it is full, `pop` while
/// it is empty, and a close wakes both for good.
struct Queue<T> {
    state: Mutex<QueueState<T>>,
    /// Signalled when an item arrives or the queue closes.
    readable: Condvar,
    /// Signalled when an item leaves or the queue closes.
    writable: Condvar,
    cap: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Queue<T> {
    fn new(cap: usize) -> Arc<Queue<T>> {
        Arc::new(Queue {
            state: Mutex::new(QueueState { items: VecDeque::with_capacity(cap), closed: false }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            cap,
        })
    }

    /// Every critical section is one push, pop or flag store, so a lock
    /// poisoned by a panicking peer still guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `item`, blocking while the queue is full; `Err(item)` once
    /// the queue is closed.
    fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        while !s.closed && s.items.len() >= self.cap {
            s = self.writable.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.closed {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.readable.notify_one();
        Ok(())
    }

    /// Take the oldest item, blocking while the queue is empty and open.
    /// Items queued before a close are still handed out; `None` once the
    /// queue is closed and empty.
    fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.writable.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.readable.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close for good and wake every waiter. With `discard`, the items
    /// still queued are taken out (for the caller to drop outside the
    /// lock), so the next pop returns `None` at once; otherwise they stay
    /// poppable.
    fn close(&self, discard: bool) -> VecDeque<T> {
        let left = {
            let mut s = self.lock();
            s.closed = true;
            if discard {
                std::mem::take(&mut s.items)
            } else {
                VecDeque::new()
            }
        };
        self.readable.notify_all();
        self.writable.notify_all();
        left
    }
}

// ------------------------------------------------------- channel pipes

/// Receiving end of one pipe direction. Dropping it closes the pipe, so
/// its writer fails instead of blocking on a pipe nobody drains.
struct PipeRead(Arc<Queue<Vec<u8>>>);

impl ConnRead for PipeRead {
    fn recv_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        // Chunks queued before a close drain first — a half-sent stream
        // stays readable to its end, like a TCP FIN — then end-of-stream.
        Ok(self.0.pop())
    }
}

impl Drop for PipeRead {
    fn drop(&mut self) {
        self.0.close(false);
    }
}

/// Sending end of one pipe direction. Dropping it closes the pipe: its
/// reader drains what was sent, then sees end-of-stream.
struct PipeWrite(Arc<Queue<Vec<u8>>>);

impl ConnWrite for PipeWrite {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Blocks while the pipe is full (backpressure); a close wakes it.
        self.0
            .push(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"))
    }
}

impl Drop for PipeWrite {
    fn drop(&mut self) {
        self.0.close(false);
    }
}

/// Build one in-process duplex connection pair: `(client, server)`
/// ends. Each end's closer hard-closes **both** directions.
pub fn duplex() -> (Connection, Connection) {
    let c2s = Queue::new(PIPE_CHUNKS);
    let s2c = Queue::new(PIPE_CHUNKS);
    let closer: Closer = {
        let (a, b) = (Arc::clone(&c2s), Arc::clone(&s2c));
        Arc::new(move || {
            a.close(false);
            b.close(false);
        })
    };
    let client = Connection {
        rx: Box::new(PipeRead(Arc::clone(&s2c))),
        tx: Box::new(PipeWrite(Arc::clone(&c2s))),
        closer: Arc::clone(&closer),
    };
    let server = Connection { rx: Box::new(PipeRead(c2s)), tx: Box::new(PipeWrite(s2c)), closer };
    (client, server)
}

/// The in-process transport: a [`Listener`] plus a cloneable connector.
pub struct ChannelTransport;

/// Dials new in-process connections into a [`ChannelTransport`]
/// listener. Clone freely across tenant threads.
#[derive(Clone)]
pub struct ChannelConnector {
    queue: Arc<Queue<Connection>>,
}

/// The listener half of a [`ChannelTransport`]. It serves until it is
/// closed or dropped, whether or not any connector is left.
pub struct ChannelListener {
    queue: Arc<Queue<Connection>>,
}

impl ChannelTransport {
    /// Create the in-process transport: `(listener, connector)`.
    pub fn pair() -> (ChannelListener, ChannelConnector) {
        let queue = Queue::new(PIPE_CHUNKS);
        (ChannelListener { queue: Arc::clone(&queue) }, ChannelConnector { queue })
    }
}

impl ChannelConnector {
    /// Dial a new connection; `ConnectionRefused` once the listener is
    /// closed or dropped.
    pub fn connect(&self) -> io::Result<Connection> {
        let (client, server) = duplex();
        self.queue
            .push(server)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "server stopped"))?;
        Ok(client)
    }
}

impl Listener for ChannelListener {
    fn accept(&mut self) -> io::Result<Option<Connection>> {
        Ok(self.queue.pop())
    }

    fn closer(&self) -> Closer {
        let queue = Arc::clone(&self.queue);
        // Dialled connections never accepted are dropped with the close,
        // which ends their clients' streams.
        Arc::new(move || drop(queue.close(true)))
    }
}

impl Drop for ChannelListener {
    fn drop(&mut self) {
        self.queue.close(true);
    }
}

// --------------------------------------------------------------- TCP

struct TcpRead {
    stream: TcpStream,
    /// One read buffer for the connection's lifetime.
    buf: Box<[u8]>,
}

impl ConnRead for TcpRead {
    fn recv_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        use std::io::Read;
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Ok(None),
                Ok(n) => return Ok(Some(self.buf[..n].to_vec())),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A hard local close (shutdown) surfaces as reset/not-
                // connected on some platforms; report end-of-stream so
                // the reader runs its normal hangup path.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::NotConnected
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

struct TcpWrite {
    stream: TcpStream,
}

impl ConnWrite for TcpWrite {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.stream.write_all(bytes)
    }
}

/// Wrap an established TCP stream as a [`Connection`].
pub fn tcp_connection(stream: TcpStream) -> io::Result<Connection> {
    stream.set_nodelay(true)?;
    let rd = stream.try_clone()?;
    let wr = stream.try_clone()?;
    let closer: Closer = Arc::new(move || {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    });
    Ok(Connection {
        rx: Box::new(TcpRead { stream: rd, buf: vec![0; TCP_READ_BYTES].into_boxed_slice() }),
        tx: Box::new(TcpWrite { stream: wr }),
        closer,
    })
}

/// A TCP [`Listener`]: accept blocks in the kernel until a connection
/// arrives or the listener's closer dials it awake.
pub struct TcpTransport {
    listener: TcpListener,
    closed: Arc<AtomicBool>,
    /// Bound address (use with port 0 binds).
    pub addr: SocketAddr,
}

impl TcpTransport {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, closed: Arc::new(AtomicBool::new(false)), addr })
    }

    /// Dial a serving [`TcpTransport`] as a tenant.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        tcp_connection(TcpStream::connect(addr)?)
    }
}

impl Listener for TcpTransport {
    fn accept(&mut self) -> io::Result<Option<Connection>> {
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Ok(None);
            }
            match self.listener.accept() {
                // The closer's wake-up dial (or a tenant racing the
                // close) is dropped unserved.
                Ok(_) if self.closed.load(Ordering::Acquire) => return Ok(None),
                Ok((stream, _peer)) => return tcp_connection(stream).map(Some),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn closer(&self) -> Closer {
        let closed = Arc::clone(&self.closed);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Arc::new(move || {
            // Set the flag, then dial: an accept blocked in the kernel
            // takes this connection, sees the flag and returns. An accept
            // not yet blocked sees the flag first.
            if !closed.swap(true, Ordering::AcqRel) {
                let _ = TcpStream::connect(wake);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_round_trips_chunks_in_both_directions() {
        let (mut client, mut server) = duplex();
        client.tx.send(b"hello").unwrap();
        assert_eq!(server.rx.recv_chunk().unwrap().unwrap(), b"hello");
        server.tx.send(b"world").unwrap();
        assert_eq!(client.rx.recv_chunk().unwrap().unwrap(), b"world");
    }

    #[test]
    fn close_unblocks_reader_and_fails_writer() {
        let (client, mut server) = duplex();
        (client.closer)();
        assert!(server.rx.recv_chunk().unwrap().is_none(), "reader sees EOF after close");
        let mut tx = client.tx;
        assert!(tx.send(b"late").is_err(), "writes after close fail");
    }

    #[test]
    fn queued_chunks_survive_a_close() {
        let (mut client, mut server) = duplex();
        client.tx.send(b"in-flight").unwrap();
        (client.closer)();
        assert_eq!(
            server.rx.recv_chunk().unwrap().unwrap(),
            b"in-flight",
            "close drains like FIN, not RST"
        );
        assert!(server.rx.recv_chunk().unwrap().is_none());
    }

    #[test]
    fn tcp_transport_round_trips() {
        let mut t = TcpTransport::bind("127.0.0.1:0").expect("bind");
        let addr = t.addr;
        let h = std::thread::spawn(move || {
            let mut c = TcpTransport::connect(addr).expect("connect");
            c.tx.send(b"over tcp").unwrap();
            let echo = c.rx.recv_chunk().unwrap().unwrap();
            assert_eq!(echo, b"tcp over");
            c.tx.send(b"x").unwrap();
        });
        let mut server = t.accept().expect("accept").expect("dialed connection");
        assert_eq!(server.rx.recv_chunk().unwrap().unwrap(), b"over tcp");
        server.tx.send(b"tcp over").unwrap();
        // The reused read buffer hands out only the bytes just read.
        assert_eq!(server.rx.recv_chunk().unwrap().unwrap(), b"x");
        h.join().unwrap();
    }
}
