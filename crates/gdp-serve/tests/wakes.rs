//! Every wait on the serving path blocks on its event: a close (or a
//! dropped pipe end) wakes each blocked call, and nothing returns before
//! its event happens. A missed wake would hang, so each blocked call runs
//! on its own thread and the test fails if the call has not returned
//! within `WAKE_LIMIT`.

mod common;

use std::io;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

use gdp_experiments::Technique;
use gdp_serve::transport::{duplex, ChannelTransport, TcpTransport, PIPE_CHUNKS};
use gdp_serve::{serve_tcp, Listener, ServeConfig, TenantClient};

/// How long a woken call may take to return before the test fails.
const WAKE_LIMIT: Duration = Duration::from_secs(5);

/// How long a call must stay blocked before it is woken: long enough to
/// catch a call that returns without its event.
const STILL_BLOCKED: Duration = Duration::from_millis(50);

/// Run `call` on its own thread; the receiver yields its result.
fn spawn_call<T: Send + 'static>(call: impl FnOnce() -> T + Send + 'static) -> Receiver<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(call());
    });
    rx
}

/// Start `call` on its own thread and check that it is still blocked
/// after `STILL_BLOCKED`; the receiver yields its result once it returns.
fn blocked<T: Send + 'static>(
    what: &str,
    call: impl FnOnce() -> T + Send + 'static,
) -> Receiver<T> {
    let rx = spawn_call(call);
    assert!(
        matches!(rx.recv_timeout(STILL_BLOCKED), Err(RecvTimeoutError::Timeout)),
        "{what}: returned before its event"
    );
    rx
}

/// The result of a call expected to return now; fails the test if it
/// has not returned within `WAKE_LIMIT`.
fn returned<T>(what: &str, rx: &Receiver<T>) -> T {
    rx.recv_timeout(WAKE_LIMIT).unwrap_or_else(|_| panic!("{what}: not returned within 5 s"))
}

/// Run a call that must not stay blocked on its own thread; its result,
/// or a test failure after `WAKE_LIMIT`.
fn in_time<T: Send + 'static>(what: &str, call: impl FnOnce() -> T + Send + 'static) -> T {
    returned(what, &spawn_call(call))
}

#[test]
fn channel_listener_hands_out_dialed_connections() {
    let (mut listener, connector) = ChannelTransport::pair();
    let accepted = blocked("accept with nothing dialled", move || {
        let conn = listener.accept();
        (listener, conn)
    });
    let mut client = connector.connect().unwrap();
    let (_listener, conn) = returned("accept of a dialled connection", &accepted);
    let mut server = conn.unwrap().expect("dialed connection");
    client.tx.send(b"ping").unwrap();
    assert_eq!(server.rx.recv_chunk().unwrap().unwrap(), b"ping");
}

#[test]
fn close_wakes_a_blocked_channel_accept() {
    let (mut listener, connector) = ChannelTransport::pair();
    let close = listener.closer();
    let accepted = blocked("channel accept", move || listener.accept().map(|c| c.is_some()));
    close();
    assert!(!returned("channel accept after close", &accepted).unwrap(), "closed: Ok(None)");
    let refused = connector.connect().err().map(|e| e.kind());
    assert_eq!(refused, Some(io::ErrorKind::ConnectionRefused), "connect after close");
}

#[test]
fn a_channel_listener_without_connectors_blocks_until_closed() {
    let (mut listener, connector) = ChannelTransport::pair();
    let close = listener.closer();
    drop(connector);
    let accepted = blocked("accept with every connector dropped", move || {
        let conn = listener.accept().map(|c| c.is_some());
        // Closed now: a second accept returns at once.
        (conn, listener.accept().map(|c| c.is_some()))
    });
    close();
    let (first, second) = returned("accept after close", &accepted);
    assert!(!first.unwrap() && !second.unwrap(), "a closed listener accepts nothing");
}

#[test]
fn closing_a_channel_listener_ends_connections_it_never_accepted() {
    let (listener, connector) = ChannelTransport::pair();
    let mut client = connector.connect().unwrap();
    (listener.closer())();
    let eof = in_time("read of an unaccepted connection", move || client.rx.recv_chunk());
    assert!(eof.unwrap().is_none(), "the dropped server end is end-of-stream");
}

#[test]
fn close_wakes_a_blocked_tcp_accept() {
    // Unspecified binds are woken through loopback.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let mut listener = TcpTransport::bind(bind).expect("bind");
        let close = listener.closer();
        let accepted =
            blocked("tcp accept", move || (listener.accept().map(|c| c.is_some()), listener));
        close();
        let (conn, mut listener) = returned("tcp accept after close", &accepted);
        assert!(!conn.unwrap(), "{bind}: the wake dial is dropped, accept is Ok(None)");
        assert!(listener.accept().unwrap().is_none(), "{bind}: closed, so Ok(None) at once");
    }
}

#[test]
fn close_wakes_a_blocked_pipe_reader() {
    let (client, mut server) = duplex();
    let read = blocked("pipe read", move || server.rx.recv_chunk());
    (client.closer)();
    assert!(returned("pipe read after close", &read).unwrap().is_none(), "end-of-stream");
}

#[test]
fn dropping_the_writer_ends_a_blocked_pipe_reader() {
    let (client, mut server) = duplex();
    let read = blocked("pipe read", move || server.rx.recv_chunk());
    drop(client.tx);
    assert!(returned("pipe read after writer drop", &read).unwrap().is_none(), "end-of-stream");
}

#[test]
fn close_wakes_a_writer_blocked_on_a_full_pipe() {
    let (mut client, server) = duplex();
    for _ in 0..PIPE_CHUNKS {
        client.tx.send(b"chunk").unwrap();
    }
    let mut tx = client.tx;
    let sent = blocked("send to a full pipe", move || tx.send(b"one too many"));
    (server.closer)();
    assert!(returned("send after close", &sent).is_err(), "a closed pipe fails its writer");
}

#[test]
fn dropping_the_reader_fails_its_writer() {
    let (mut client, server) = duplex();
    for _ in 0..PIPE_CHUNKS {
        client.tx.send(b"chunk").unwrap();
    }
    let mut tx = client.tx;
    let sent = blocked("send to a full pipe", move || tx.send(b"one too many"));
    drop(server.rx);
    assert!(returned("send after reader drop", &sent).is_err(), "nobody drains the pipe");
}

#[test]
fn shutdown_returns_with_an_idle_tcp_connection_open() {
    let (server, addr) = serve_tcp(ServeConfig::new(common::xcfg(2)), "127.0.0.1:0").unwrap();
    // Admitted and then idle: its reader is blocked in a socket read.
    let mut idle = TenantClient::connect_tcp(&addr.to_string()).expect("dial");
    idle.hello(1, 2, &[Technique::GDP]).expect("admission");
    in_time("Server::shutdown", move || server.shutdown());
    drop(idle);
}
