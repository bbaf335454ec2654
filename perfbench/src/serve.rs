//! The end-to-end phase: a real `sit_server::Server` on loopback, driven
//! in a closed loop by one blocking client.
//!
//! A DDA waits for each screen's answer before the next action, so the
//! client sends its next request only after the previous response has
//! arrived and been parsed. One connection, not two: on the two cores the
//! benchmark is tuned on, a second client's threads contend with the
//! server's and the run-to-run spread of every latency rose from ~5% to
//! ~20%. The server runs exactly as `sit serve` ships it (default limits,
//! its own tracer at default) except for `threads`, which matches those
//! two cores.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sit_server::persist::{FsyncPolicy, PersistConfig};
use sit_server::server::{PersistOptions, Server, ServerConfig, ServerHandle};
use sit_server::{Client, Json, Request};

use crate::mirror::Fault;
use crate::plan::{Kind, Plan, SessionPlan};
use crate::probe::Probes;
use crate::stats;

/// Server worker threads (`sit serve --threads 2`).
pub const SERVER_THREADS: usize = 2;
/// Untimed set-ups that warm the probe helper (thread creation, the
/// allocator, loopback) before any set-up is timed: the first few of a
/// process ran 2-5x slower than the rest.
const SETUP_WARMUP: usize = 8;
/// Timed set-ups before the timed window, so a short run still has a
/// median to report.
const SETUP_BEFORE: usize = 5;
/// Recoveries timed before the timed window, after the helper's
/// untimed, checked one.
const RECOVER_BEFORE: usize = 3;
/// Once per this much of the timed window, between sessions and with
/// the window's clock paused, the probe helper (`crate::probe`) runs
/// one untimed set-up (the workload has evicted set-up's code and data
/// from the caches), two timed ones, and one timed recovery. `setup_s`
/// and `recover_s` are the medians of every timed set-up and recovery:
/// spread over the whole run, like the slices the other metrics take
/// their medians over, they follow the same drift of the machine's
/// speed. Taken in one burst before or after the window, their medians
/// moved by 30% between sets of runs.
const PROBE_EVERY: Duration = Duration::from_millis(400);
/// Sessions recovery brings back: the odd-numbered ones among the first
/// `2 * LEFT_OPEN`, which a durable run leaves open. A fixed set, so
/// recovery does the same work whatever the speed, and small enough
/// that the store (64 sessions by default) never evicts.
const LEFT_OPEN: usize = 48;

/// The durable workload's flush policy: fsync every 8 journal records,
/// snapshot (and compact) every 8, so each session snapshots at least
/// once.
pub fn persist_config() -> PersistConfig {
    PersistConfig {
        fsync: FsyncPolicy::EveryN(8),
        snapshot_every: 8,
    }
}

fn server_config(data_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        threads: SERVER_THREADS,
        persist: data_dir.map(|dir| PersistOptions {
            data_dir: dir.to_path_buf(),
            config: persist_config(),
        }),
        ..ServerConfig::default()
    }
}

/// Requests attempted and how many failed, across every phase.
#[derive(Default)]
pub struct Tally {
    /// Requests sent and checked.
    pub attempted: u64,
    /// Transport errors, refusals, and oracle mismatches.
    pub failed: u64,
    /// Responses that disagreed with the mirror.
    pub mismatches: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one checked request.
    pub fn record(&mut self, what: &str, result: Result<(), Fault>) {
        self.attempted += 1;
        let note = match result {
            Ok(()) => return,
            Err(Fault::Refused(code)) => format!("{what}: refused with `{code}`"),
            Err(Fault::Mismatch(msg)) => {
                self.mismatches += 1;
                format!("{what}: {msg}")
            }
        };
        self.fail(note);
    }

    /// Count one request that got no response.
    pub fn transport(&mut self, what: &str, err: &io::Error) {
        self.attempted += 1;
        self.fail(format!("{what}: transport error: {err}"));
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// One timed round trip, packed into 8 bytes: the sample buffer is
/// allocated and touched before the window opens, so the memory it holds
/// does not grow with throughput and `peak_rss_mib` measures the server.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Send to parsed response, in nanoseconds (saturating at ~4.3 s).
    pub ns: u32,
    /// Completion time, in ms since the timed window opened.
    pub at_ms: u16,
    /// Index of the verb in `sit_server::proto::VERBS`.
    pub verb: u8,
    /// Read/write class.
    pub kind: Kind,
}

/// Samples preallocated per second of the timed window, above the
/// fastest rate seen on the two-core machine the benchmark is tuned on.
const SAMPLES_PER_SECOND: usize = 25_000;

/// Per-verb `(count, total ns)`.
pub type VerbSums = BTreeMap<String, (u64, u64)>;

/// What the end-to-end phase measured.
pub struct Served {
    /// Median bind + spawn until the first `ping` is answered, over the
    /// probe helper's throwaway servers.
    pub setup_s: f64,
    /// Set-ups `setup_s` is the median of.
    pub setups: usize,
    /// Median time from a restart until the sessions left open are
    /// available again.
    pub recover_s: f64,
    /// Recoveries `recover_s` is the median of.
    pub recovers: usize,
    /// Every timed round trip.
    pub samples: Vec<Sample>,
    /// Open to last close of each completed session, in ms.
    pub session_ms: Vec<f64>,
    /// Length of the timed window.
    pub elapsed_s: f64,
    /// Server-side handling time per verb over the timed window, from
    /// `metrics_text` deltas of `sit_request_latency_ns_sum`/`_count`.
    pub server_sums: VerbSums,
    /// Sessions the store evicted (LRU + TTL); must stay 0.
    pub evictions: u64,
    /// Peak resident set size at the end of the timed window.
    pub peak_rss_mib: f64,
}

/// Bind, spawn, and wait for the first answered `ping`.
fn start(data_dir: Option<&Path>) -> io::Result<(ServerHandle, Client, f64)> {
    let t0 = Instant::now();
    let handle = Server::bind("127.0.0.1:0", server_config(data_dir))?.spawn()?;
    let mut client = Client::connect(handle.addr())?;
    client.expect_ok(&Request::Ping)?;
    Ok((handle, client, t0.elapsed().as_secs_f64()))
}

fn stop(handle: ServerHandle, client: Client) -> io::Result<()> {
    drop(client);
    handle.shutdown()
}

/// One timed set-up of a throwaway server over fresh state (an empty
/// `data_dir` when durable), torn down again.
pub fn setup_once(data_dir: Option<&Path>) -> io::Result<f64> {
    let (handle, client, secs) = start(data_dir)?;
    stop(handle, client)?;
    if let Some(dir) = data_dir {
        std::fs::remove_dir_all(dir)?;
    }
    Ok(secs)
}

/// A restart that brings back the sessions left open. A durable server
/// replays them from its data directory before it answers; after an
/// in-memory restart the client `load`s their saved scripts.
pub struct Recovery {
    /// The durable server's data directory, or `None` for in-memory.
    pub dir: Option<PathBuf>,
    /// Each session's plan index and, when durable, its session id.
    reopen: Vec<(usize, Option<String>)>,
}

impl Recovery {
    /// The recovery the timed probes repeat: the sessions a timed window
    /// leaves open, left open by a server of their own over `dir`, so
    /// that they can be recovered while the window's server still runs.
    pub fn fixture(plan: &Plan, dir: Option<PathBuf>, tally: &mut Tally) -> io::Result<Recovery> {
        let count = plan.sessions.len();
        let indices = (0..LEFT_OPEN).map(|k| (2 * k + 1) % count);
        let Some(dir) = dir else {
            return Ok(Recovery {
                dir: None,
                reopen: indices.map(|i| (i, None)).collect(),
            });
        };
        let (handle, mut client, _) = start(Some(&dir))?;
        let mode = Mode {
            leave_open: true,
            verify_save: false,
        };
        let mut reopen = Vec::with_capacity(LEFT_OPEN);
        for i in indices {
            let (ids, _) = run_session(&mut client, &plan.sessions[i], mode, None, tally);
            reopen.push((i, Some(ids[0].clone())));
        }
        stop(handle, client)?;
        Ok(Recovery {
            dir: Some(dir),
            reopen,
        })
    }

    /// Restart and time until every session is available again; with
    /// `check`, also compare each recovered session's `save` with its
    /// mirror.
    pub fn run(&self, plan: &Plan, check: bool, tally: &mut Tally) -> io::Result<f64> {
        let t0 = Instant::now();
        let (handle, mut client, _) = start(self.dir.as_deref())?;
        let mut ids = Vec::with_capacity(self.reopen.len());
        for (i, id) in &self.reopen {
            match id {
                Some(id) => ids.push(id.clone()),
                None => {
                    let step = &plan.sessions[*i].reload;
                    let loaded = Json::parse(&client.call_raw(&step.frame(&[]))?)
                        .map_err(io::Error::other)?;
                    tally.record("load", step.expect.check(&loaded));
                    let id = loaded.get("session").and_then(Json::as_str).unwrap_or("");
                    ids.push(id.to_owned());
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        if check {
            for ((i, _), id) in self.reopen.iter().zip(&ids) {
                check_save(
                    &mut client,
                    &plan.sessions[*i],
                    std::slice::from_ref(id),
                    tally,
                );
            }
        }
        stop(handle, client)?;
        Ok(secs)
    }
}

/// How a session is driven.
#[derive(Clone, Copy)]
struct Mode {
    /// Skip the `close` frames (durable sessions left for recovery).
    leave_open: bool,
    /// Check the final `save` before closing (the verification pass).
    verify_save: bool,
}

/// Drive one session over `client`; returns its session ids and, when
/// it ran to its last `close`, its duration in ms.
fn run_session(
    client: &mut Client,
    plan: &SessionPlan,
    mode: Mode,
    mut samples: Option<(&mut Vec<Sample>, Instant)>,
    tally: &mut Tally,
) -> (Vec<String>, Option<f64>) {
    let mut ids = vec![String::new(); plan.slots];
    let t0 = Instant::now();
    let closes = plan.steps.iter().filter(|s| s.verb == "close").count();
    for (i, step) in plan.steps.iter().enumerate() {
        if step.verb == "close" {
            if mode.leave_open {
                return (ids, None);
            }
            if mode.verify_save && i + closes == plan.steps.len() {
                check_save(client, plan, &ids, tally);
            }
        }
        let frame = step.frame(&ids);
        let sent = Instant::now();
        let response = client
            .call_raw(&frame)
            .and_then(|line| Json::parse(&line).map_err(io::Error::other));
        let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                tally.transport(step.verb, &e);
                let _ = client.reconnect();
                return (ids, None);
            }
        };
        if let Some((s, opened)) = samples.as_mut() {
            s.push(Sample {
                ns: u32::try_from(ns).unwrap_or(u32::MAX),
                at_ms: u16::try_from(opened.elapsed().as_millis()).unwrap_or(u16::MAX),
                verb: step.verb_id,
                kind: step.kind,
            });
        }
        tally.record(step.verb, step.expect.check(&response));
        if step.creates() {
            if let Some(id) = response.get("session").and_then(Json::as_str) {
                ids[step.slot] = id.to_owned();
            }
        }
    }
    (ids, Some(t0.elapsed().as_secs_f64() * 1e3))
}

fn check_save(client: &mut Client, plan: &SessionPlan, ids: &[String], tally: &mut Tally) {
    let step = &plan.final_save;
    match client
        .call_raw(&step.frame(ids))
        .and_then(|line| Json::parse(&line).map_err(io::Error::other))
    {
        Ok(r) => tally.record("final save", step.expect.check(&r)),
        Err(e) => tally.transport("final save", &e),
    }
}

/// `sit_request_latency_ns` count and sum per verb from a
/// `metrics_text` exposition.
fn latency_sums(text: &str) -> VerbSums {
    let mut out = VerbSums::new();
    for line in text.lines() {
        let (is_sum, rest) =
            if let Some(r) = line.strip_prefix("sit_request_latency_ns_sum{verb=\"") {
                (true, r)
            } else if let Some(r) = line.strip_prefix("sit_request_latency_ns_count{verb=\"") {
                (false, r)
            } else {
                continue;
            };
        let Some((verb, value)) = rest.split_once("\"} ") else {
            continue;
        };
        let value: u64 = value.trim().parse().unwrap_or(0);
        let entry = out.entry(verb.to_owned()).or_insert((0, 0));
        if is_sum {
            entry.1 = value;
        } else {
            entry.0 = value;
        }
    }
    out
}

fn delta(after: &VerbSums, before: &VerbSums) -> VerbSums {
    after
        .iter()
        .map(|(verb, &(c, s))| {
            let (c0, s0) = before.get(verb).copied().unwrap_or((0, 0));
            (verb.clone(), (c - c0, s - s0))
        })
        .filter(|(_, (c, _))| *c > 0)
        .collect()
}

/// Run the end-to-end phase of `plan` (generated from `seed`) for
/// `seconds`, with scratch space under `tmp`.
pub fn serve(
    plan: &Plan,
    seed: u64,
    seconds: u64,
    tmp: &Path,
    tally: &mut Tally,
) -> io::Result<Served> {
    let durable = plan.workload.durable();
    let mut probes = Probes::spawn(plan.workload, seed, &tmp.join("probes"))?;
    for _ in 0..SETUP_WARMUP {
        probes.setup()?;
    }
    let mut setups = Vec::new();
    for _ in 0..SETUP_BEFORE {
        setups.push(probes.setup()?);
    }
    let mut recovers = Vec::new();
    for _ in 0..RECOVER_BEFORE {
        recovers.push(probes.recover()?);
    }

    let dir = durable.then(|| tmp.join("data"));
    let (handle, mut client, _) = start(dir.as_deref())?;
    let service = handle.service();
    let verify = Mode {
        leave_open: false,
        verify_save: true,
    };
    // One untimed session warms the server.
    run_session(&mut client, &plan.sessions[0], verify, None, tally);

    // The timed window.
    let count = plan.sessions.len();
    let touched = Sample {
        ns: 1,
        at_ms: 1,
        verb: 1,
        kind: Kind::Other,
    };
    let mut samples = vec![touched; SAMPLES_PER_SECOND * seconds as usize];
    samples.clear();
    let mut session_ms = Vec::new();
    let mut left_open = Vec::new();
    let mut saved = vec![false; count];
    let before = latency_sums(&service.metrics_text());
    let started = Instant::now();
    let window = Duration::from_secs(seconds);
    // Wall time spent on probes inside the window, left out of it.
    let mut paused = Duration::ZERO;
    let mut next_probe = PROBE_EVERY;
    let mut i = 0;
    while started.elapsed() - paused < window {
        if started.elapsed() - paused >= next_probe {
            let t0 = Instant::now();
            probes.setup()?;
            setups.push(probes.setup()?);
            setups.push(probes.setup()?);
            recovers.push(probes.recover()?);
            paused += t0.elapsed();
            next_probe += PROBE_EVERY;
        }
        let leave_open = durable && i < 2 * LEFT_OPEN && i % 2 == 1;
        let mode = Mode {
            leave_open,
            verify_save: false,
        };
        let (ids, ms) = run_session(
            &mut client,
            &plan.sessions[i % count],
            mode,
            Some((&mut samples, started + paused)),
            tally,
        );
        match ms {
            Some(ms) => {
                session_ms.push(ms);
                saved[i % count] |= plan.sessions[i % count].saves_in_mix;
            }
            None if leave_open => left_open.push((i, ids[0].clone())),
            None => {}
        }
        i += 1;
    }
    let elapsed_s = (started.elapsed() - paused).as_secs_f64();
    let after = latency_sums(&service.metrics_text());
    let (lru, ttl) = service.store().evictions();
    let peak_rss_mib = stats::peak_rss_mib();
    drop(service);
    if durable && left_open.len() != LEFT_OPEN {
        tally.fail(format!(
            "the timed window ended after {} of the {LEFT_OPEN} sessions to leave open",
            left_open.len()
        ));
    }

    // Verification, untimed: every session whose final `save` the timed
    // window did not already check, run once with that check.
    for (session, _) in plan.sessions.iter().zip(&saved).filter(|(_, s)| !**s) {
        run_session(&mut client, session, verify, None, tally);
    }
    stop(handle, client)?;

    // A durable server restarted over the window's own data directory
    // must bring back the sessions the window left open, each equal to
    // its mirror.
    if durable {
        let reopen = left_open
            .into_iter()
            .map(|(i, id)| (i % count, Some(id)))
            .collect();
        Recovery { dir, reopen }.run(plan, true, tally)?;
    }
    probes.finish(tally)?;

    Ok(Served {
        setup_s: stats::median(&setups),
        setups: setups.len(),
        recover_s: stats::median(&recovers),
        recovers: recovers.len(),
        samples,
        session_ms,
        elapsed_s,
        server_sums: delta(&after, &before),
        evictions: lru + ttl,
        peak_rss_mib,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sums_reads_the_exposition() {
        let text = "# TYPE sit_request_latency_ns histogram\n\
sit_request_latency_ns_bucket{verb=\"ping\",le=\"+Inf\"} 2\n\
sit_request_latency_ns_sum{verb=\"ping\"} 300\n\
sit_request_latency_ns_count{verb=\"ping\"} 2\n";
        let sums = latency_sums(text);
        assert_eq!(sums.get("ping"), Some(&(2, 300)));
    }
}
