//! `sit serve` under a low file-descriptor limit.
//!
//! A finished connection must give its sockets back at once, and a
//! failing `accept` (`EMFILE`) must back off instead of spinning. These
//! tests run the real binary under `ulimit -n 64`: many more sequential
//! connections than the limit must all be served, a flood of concurrent
//! connections past the limit must not make the acceptor spin, and
//! `shutdown` must drain promptly afterwards.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FD_LIMIT: u32 = 64;

/// The server process; killed if a test fails before it drains.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `sit serve` on an ephemeral port with the descriptor limit
/// lowered in a child shell; returns the process and its address.
fn spawn_limited_serve() -> (Serve, String) {
    let mut child = Command::new("sh")
        .args([
            "-c",
            &format!("ulimit -n {FD_LIMIT} && exec \"$0\" serve --addr 127.0.0.1:0 --threads 2"),
            env!("CARGO_BIN_EXE_sit"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sit serve under ulimit");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();
    (Serve(child), addr)
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to sit serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

/// Send one frame and return the response line.
fn call(stream: &mut TcpStream, frame: &str) -> String {
    stream.write_all(frame.as_bytes()).expect("send frame");
    stream.write_all(b"\n").expect("send newline");
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) if byte[0] == b'\n' => break,
            Ok(1) => line.push(byte[0]),
            other => panic!("no response to {frame}: {other:?} after {line:?}"),
        }
    }
    String::from_utf8(line).expect("utf-8 response")
}

/// Ask the server to shut down and require it to exit within 2 s.
fn shutdown_drains_within_2s(mut serve: Serve, addr: &str) {
    let mut conn = connect(addr);
    let bye = call(&mut conn, r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    let asked = Instant::now();
    while asked.elapsed() < Duration::from_secs(2) {
        if let Some(status) = serve.0.try_wait().expect("poll sit serve") {
            assert!(status.success(), "sit serve exited with {status}");
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("sit serve did not drain within 2 s of shutdown");
}

/// User plus system CPU time of a process, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn serves_many_more_sequential_connections_than_its_fd_limit() {
    let (serve, addr) = spawn_limited_serve();
    for i in 0..300 {
        let mut conn = connect(&addr);
        let pong = call(&mut conn, r#"{"op":"ping"}"#);
        assert!(pong.contains("\"pong\":true"), "connection {i}: {pong}");
    }
    shutdown_drains_within_2s(serve, &addr);
}

#[test]
fn accept_errors_back_off_instead_of_spinning() {
    let (serve, addr) = spawn_limited_serve();
    // Hold more connections open than the server has descriptors: the
    // ones past the limit wait in the listen backlog and make `accept`
    // fail with EMFILE until descriptors free up.
    let held: Vec<TcpStream> = (0..FD_LIMIT + 16).map(|_| connect(&addr)).collect();
    std::thread::sleep(Duration::from_millis(200));
    let ticks_before = cpu_ticks(serve.0.id());
    std::thread::sleep(Duration::from_millis(1000));
    let spent = cpu_ticks(serve.0.id()) - ticks_before;
    // Clock ticks are 10 ms on Linux; a spinning acceptor burns ~100.
    assert!(spent < 20, "acceptor spun: {spent} ticks of CPU in 1 s");
    // Hanging up frees the descriptors; the backlog is then served and
    // the server still drains.
    drop(held);
    shutdown_drains_within_2s(serve, &addr);
}
