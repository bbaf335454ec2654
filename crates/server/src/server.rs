//! The serving layer: newline-delimited JSON over TCP and stdio.
//!
//! ## TCP ([`Server`])
//!
//! One acceptor thread owns the listener. Each connection gets its own
//! thread, which reads a frame, executes it inline and writes the
//! response, so responses stay in request order per connection while
//! different connections run in parallel. An [`Admission`] gate bounds
//! how many requests execute at once (`threads`) and how many may wait
//! for a slot (`queue_cap`); beyond that a request is answered with the
//! typed `overloaded` error immediately. A connection is deregistered
//! when its thread exits, and `accept` errors (e.g. out of file
//! descriptors) back off instead of spinning.
//!
//! Graceful shutdown (wire verb `shutdown`, or
//! [`Service::begin_shutdown`] from a ctrl channel) drains: the acceptor
//! stops, the gate closes and waiting and in-flight requests complete
//! and their responses are written, then client sockets are
//! read-shutdown to unblock readers and every thread is joined.
//!
//! ## stdio ([`serve_stdio`])
//!
//! The same protocol, one request per line on stdin, one response per
//! line on stdout — single-threaded, for pipes and tests.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sit_obs::clock::MonotonicClock;
use sit_obs::sync::lock_recover;

use crate::admission::Admission;
use crate::persist::PersistConfig;
use crate::proto::{ErrorCode, ServerError};
use crate::service::Service;
use crate::storage::{DirStorage, Storage};
use crate::store::StoreConfig;
use crate::transport::{Interrupter, TcpTransport, Transport};
use crate::wire::{FrameBuffer, Framed};

/// Where and how the server persists sessions.
#[derive(Clone, Debug)]
pub struct PersistOptions {
    /// Directory holding journals and snapshots (created if missing).
    pub data_dir: PathBuf,
    /// Journal/snapshot policies.
    pub config: PersistConfig,
}

/// Serving limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Requests executing at once.
    pub threads: usize,
    /// Requests that may wait for an executing slot; beyond it they get
    /// `overloaded`.
    pub queue_cap: usize,
    /// Session-store limits.
    pub store: StoreConfig,
    /// Durable sessions (`--data-dir`); `None` keeps sessions
    /// in-memory only.
    pub persist: Option<PersistOptions>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            queue_cap: 128,
            store: StoreConfig::default(),
            persist: None,
        }
    }
}

/// Build the service a config describes: plain in-memory, or durable
/// with recovery already run over `--data-dir`.
pub fn build_service(config: &ServerConfig) -> std::io::Result<Service> {
    match &config.persist {
        None => Ok(Service::new(config.store)),
        Some(opts) => Service::with_persistence(
            config.store,
            Arc::new(MonotonicClock::new()),
            Arc::new(DirStorage::open(&opts.data_dir)?) as Arc<dyn Storage>,
            opts.config,
        ),
    }
}

/// How long the acceptor sleeps after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A bound (not yet running) TCP server.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    config: ServerConfig,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) and prepare the
    /// service. The returned server is not accepting yet — call
    /// [`Server::run`] or [`Server::spawn`].
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let service = Arc::new(build_service(&config)?);
        // The shutdown hook unblocks the acceptor with a throwaway
        // connection to our own port.
        let local = listener.local_addr()?;
        service.set_shutdown_hook(Box::new(move || {
            let _ = TcpStream::connect(local);
        }));
        Ok(Server {
            listener,
            service,
            config,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service (for ctrl-channel shutdown and stats).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Accept and serve until shutdown, then drain and return.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            service,
            config,
        } = self;
        let gate = Arc::new(Admission::new(config.threads, config.queue_cap));
        // Live connections' interrupters by connection id: each thread
        // removes its own on exit, and the acceptor joins finished
        // threads, so neither grows with the connections served.
        let interrupters: Arc<Mutex<HashMap<u64, Interrupter>>> = Arc::default();
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();

        for (id, stream) in (0u64..).zip(listener.incoming()) {
            if service.is_draining() {
                break;
            }
            let Ok(stream) = stream else {
                // Out of descriptors (EMFILE) and the like: the pending
                // connection stays queued, so retrying at once would spin.
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            };
            for handle in std::mem::take(&mut conn_threads) {
                if handle.is_finished() {
                    let _ = handle.join();
                } else {
                    conn_threads.push(handle);
                }
            }
            let transport = TcpTransport::new(stream);
            lock_recover(&interrupters).insert(id, transport.interrupter());
            let service = Arc::clone(&service);
            let gate = Arc::clone(&gate);
            let registry = Arc::clone(&interrupters);
            let handle = std::thread::Builder::new()
                .name("sit-conn".into())
                .spawn(move || {
                    serve_connection(transport, &service, &gate);
                    lock_recover(&registry).remove(&id);
                })
                .expect("spawn connection thread");
            conn_threads.push(handle);
        }

        // Drain: finish waiting + in-flight work (responses are written by
        // the connection threads as they complete)...
        gate.shutdown();
        // ...then unblock any reader still waiting for a next request.
        for interrupter in lock_recover(&interrupters).values() {
            interrupter.interrupt();
        }
        for handle in conn_threads {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Run on a background thread; returns a handle with the address and
    /// service.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let service = self.service();
        let thread = std::thread::Builder::new()
            .name("sit-serve".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            service,
            thread,
        })
    }
}

/// A running background server.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (stats, ctrl-channel shutdown).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Trigger a graceful shutdown and wait for the drain to finish.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.service.begin_shutdown();
        self.thread.join().unwrap_or(Ok(()))
    }

    /// Wait for the server to stop on its own (e.g. a wire `shutdown`).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().unwrap_or(Ok(()))
    }
}

/// Serve one connection over any [`Transport`] until the peer hangs up
/// (EOF), a write fails, or an unrecoverable frame arrives.
///
/// This is the loop both the TCP acceptor and the simulated/chaos
/// transports run: bytes are reassembled into newline-delimited frames by
/// a [`FrameBuffer`] (so torn and coalesced reads behave identically on
/// every transport), each frame executes on this thread once the shared
/// [`Admission`] gate lets it, and the response is written back in
/// request order. A frame that exceeds [`crate::wire::MAX_LINE`] without
/// a newline gets a typed `parse` error and the connection is closed —
/// there is no way to resynchronize a stream mid-flood. A request that
/// panics closes its connection; its slot is released and the server
/// keeps serving.
pub fn serve_connection<T: Transport>(
    mut transport: T,
    service: &Arc<Service>,
    gate: &Arc<Admission>,
) {
    let tracer = service.tracer().clone();
    tracer.instant("accept");
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(framed) = frames.next_frame() {
            let line = match framed {
                Framed::Line(line) => line,
                Framed::Overflow => {
                    let error = ServerError {
                        code: ErrorCode::Parse,
                        message: "frame exceeds maximum length without a newline".into(),
                    };
                    let _ = write_frame(&mut transport, &error.to_response().encode());
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            tracer.instant("frame");
            let response = match gate.admit() {
                Some(_slot) => {
                    match catch_unwind(AssertUnwindSafe(|| service.handle_line(&line))) {
                        Ok(handled) => handled.frame,
                        Err(_) => return,
                    }
                }
                None if service.is_draining() => {
                    ServerError::shutting_down().to_response().encode()
                }
                None => ServerError::overloaded().to_response().encode(),
            };
            let written = {
                let _write = tracer.span("write");
                write_frame(&mut transport, &response)
            };
            if written.is_err() {
                return;
            }
        }
        match transport.read(&mut chunk) {
            Ok(0) | Err(_) => return, // disconnect (or drain unblocked us)
            Ok(n) => frames.push(&chunk[..n]),
        }
    }
}

/// Write one response frame (payload + newline) and flush it.
fn write_frame<T: Transport>(transport: &mut T, frame: &str) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(frame.len() + 1);
    out.extend_from_slice(frame.as_bytes());
    out.push(b'\n');
    transport.write_all(&out)?;
    transport.flush()
}

/// Serve the protocol over arbitrary reader/writer pairs (stdin/stdout in
/// `sit serve --stdio`). Returns after EOF or a `shutdown` request.
pub fn serve_stdio(
    service: &Service,
    reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let handled = service.handle_line(&line);
        writeln!(writer, "{}", handled.frame)?;
        writer.flush()?;
        if handled.shutdown {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Json;

    #[test]
    fn stdio_round_trip_and_shutdown() {
        let service = Service::new(StoreConfig::default());
        let input = b"{\"op\":\"ping\"}\n{\"op\":\"open\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n".to_vec();
        let mut out = Vec::new();
        serve_stdio(&service, &input[..], &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        // The trailing ping after shutdown is never answered.
        assert_eq!(lines.len(), 3);
        for l in &lines {
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{l}");
        }
    }

    #[test]
    fn tcp_serves_and_drains_on_wire_shutdown() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();

        let mut client = crate::client::Client::connect(addr).unwrap();
        let pong = client.call_raw("{\"op\":\"ping\"}").unwrap();
        assert!(pong.contains("\"pong\":true"), "{pong}");
        let opened = client.call_raw("{\"op\":\"open\"}").unwrap();
        assert!(opened.contains("\"session\""), "{opened}");
        let bye = client.call_raw("{\"op\":\"shutdown\"}").unwrap();
        assert!(bye.contains("\"draining\":true"), "{bye}");

        handle.join().unwrap();
    }

    #[test]
    fn tcp_ctrl_channel_shutdown_drains() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();
        let mut client = crate::client::Client::connect(addr).unwrap();
        assert!(client.call_raw("{\"op\":\"ping\"}").unwrap().contains("pong"));
        handle.shutdown().unwrap();
    }
}
