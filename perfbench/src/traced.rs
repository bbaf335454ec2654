//! The traced run: one in-process replay of the run's frames on one
//! thread, with a span of the benchmark's own [`Tracer`] around every
//! call into a layer's public functions, plus two probes.
//!
//! For each frame the replay calls, in order: `FrameBuffer::push` and
//! `next_frame` (`wire.frame`), `Json::parse` (`wire.parse_request`),
//! `Request::from_json` (`proto.decode`), the engine methods on a mirror
//! `Session` (`core.*`, `ecr.*`), `Service::handle_line`
//! (`service.handle_line`, with the `storage.*` spans of the
//! [`TimedStorage`] decorator nested inside it on durable runs), then
//! `Json::parse` and `Json::encode` of the response (`wire.parse_response`,
//! `wire.encode`). The layers measured outside `handle_line` are the work
//! `handle_line` itself does, so what they leave of its time is
//! `service.dispatch_self`: store lookup, the session lock, name
//! resolution and response building. The spans are exported as Chrome
//! trace JSON, and the per-request self time of every layer is printed
//! beside the server's own handling time measured under load, with the
//! remainder.
//!
//! The probes measure layers a workload's traffic may not reach, on that
//! workload's sessions, outside the ledger: `save`, `load` and the
//! assertion matrix on each probed session's final state, and the
//! persistence write and recovery paths on a durable service fed the
//! same frames.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sit_core::script;
use sit_core::session::Session;
use sit_obs::clock::MonotonicClock;
use sit_obs::trace::Tracer;
use sit_server::persist::{decode_records, MAX_JOURNAL_PAYLOAD};
use sit_server::wire::{FrameBuffer, Framed};
use sit_server::{DirStorage, Json, Request, Service, Storage, StoreConfig};

use crate::mirror::{Fault, Mirror};
use crate::plan::{Kind, Plan, SessionPlan};
use crate::serve::{persist_config, Tally};
use crate::stats::{self, ratio};
use crate::timed_storage::TimedStorage;
use crate::Metric;

/// Span ring size; large enough that no replay drops an event.
const TRACE_CAPACITY: usize = 1 << 20;
/// Minimum wall time of the interleaved tracer A/B measurement.
const AB_BUDGET: Duration = Duration::from_secs(2);
/// Sessions the probes run (the first ones of the plan).
const PROBE_SESSIONS: usize = 16;

/// Totals of one span name.
#[derive(Clone, Copy, Default)]
struct Agg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

impl Agg {
    fn per_call_us(self) -> f64 {
        ratio(self.total_ns as f64, self.calls as f64) / 1e3
    }
}

/// Fold a span ring into per-name totals and self times; a span is also
/// totalled as `<name>.<value>` for each of its argument values.
fn aggregate(tracer: &Tracer) -> BTreeMap<String, Agg> {
    let events = tracer.snapshot();
    let mut children: HashMap<u64, u64> = HashMap::new();
    for e in &events {
        if let Some(parent) = e.parent {
            *children.entry(parent).or_default() += e.dur_ns;
        }
    }
    let mut out: BTreeMap<String, Agg> = BTreeMap::new();
    for e in &events {
        let self_ns = e
            .dur_ns
            .saturating_sub(children.get(&e.id).copied().unwrap_or(0));
        let mut names = vec![e.name.to_owned()];
        names.extend(e.args.iter().map(|(_, v)| format!("{}.{v}", e.name)));
        for name in names {
            let agg = out.entry(name).or_default();
            agg.calls += 1;
            agg.total_ns += e.dur_ns;
            agg.self_ns += self_ns;
        }
    }
    out
}

/// What the replay leaves for the metrics.
#[derive(Default)]
struct Replay {
    requests: u64,
    spans: BTreeMap<String, Agg>,
    /// Every request line and response frame, for the size probe.
    frames: Vec<String>,
    facts: Vec<f64>,
    derived: Vec<f64>,
    candidate_pairs: u64,
    candidate_calls: u64,
    evictions: u64,
    /// Engine probe times, ns per call.
    save_ns: Vec<f64>,
    load_ns: Vec<f64>,
    matrix_ns: Vec<f64>,
}

fn elapsed_ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Time `save`, `load` of what it saved, and the assertion matrix on a
/// session's final state.
fn engine_probe(s: &Session, out: &mut Replay) {
    let t0 = Instant::now();
    let text = script::save(s);
    out.save_ns.push(elapsed_ns(t0));
    let t0 = Instant::now();
    black_box(script::load(&text).expect("a saved script loads"));
    out.load_ns.push(elapsed_ns(t0));
    let schemas: Vec<_> = s.catalog().schemas().map(|(id, _)| id).collect();
    let t0 = Instant::now();
    black_box(s.assertion_matrix(schemas[0], schemas[1]));
    out.matrix_ns.push(elapsed_ns(t0));
}

fn replay_session(
    service: &Service,
    tracer: &Tracer,
    session: &SessionPlan,
    probe: bool,
    out: &mut Replay,
    tally: &mut Tally,
) {
    let mut mirror = Mirror::new();
    let mut ids = vec![String::new(); session.slots];
    for step in &session.steps {
        if probe && step.verb == "close" && step.slot == 0 {
            engine_probe(mirror.session(0).expect("slot 0 is open"), out);
        }
        let frame = step.frame(&ids);
        let line = {
            let _span = tracer.span("wire.frame");
            let mut buffer = FrameBuffer::new();
            buffer.push(frame.as_bytes());
            buffer.push(b"\n");
            match buffer.next_frame() {
                Some(Framed::Line(line)) => line,
                other => panic!("a generated frame did not reassemble: {other:?}"),
            }
        };
        let value = {
            let _span = tracer.span("wire.parse_request");
            Json::parse(&line)
        }
        .expect("generated frames parse");
        let request = {
            let _span = tracer.span("proto.decode");
            Request::from_json(&value)
        }
        .expect("generated frames decode");
        if mirror.apply(&request, step.slot, tracer) != step.expect {
            let diverged = Fault::Mismatch("mirror replay diverged from the plan".into());
            tally.record(step.verb, Err(diverged));
        }
        let handled = {
            let mut span = tracer.span("service.handle_line");
            span.set_arg("kind", kind_label(step.kind));
            span.set_arg("verb", step.verb);
            service.handle_line(&line)
        };
        let response = {
            let _span = tracer.span("wire.parse_response");
            Json::parse(&handled.frame)
        };
        match response {
            Ok(response) => {
                {
                    let mut span = tracer.span("wire.encode");
                    span.set_arg("verb", step.verb);
                    black_box(response.encode());
                }
                tally.record(step.verb, step.expect.check(&response));
                if step.creates() {
                    if let Some(id) = response.get("session").and_then(Json::as_str) {
                        ids[step.slot] = id.to_owned();
                    }
                }
            }
            Err(e) => tally.record(step.verb, Err(Fault::Mismatch(format!("bad frame: {e}")))),
        }
        out.requests += 1;
        out.frames.push(line);
        out.frames.push(handled.frame);
    }
    if let Some(closed) = mirror.closed.first() {
        out.facts.push(closed.facts as f64);
        out.derived.push(closed.derived as f64);
    }
    out.candidate_pairs += mirror.candidate_pairs;
    out.candidate_calls += mirror.candidate_calls;
}

fn kind_label(kind: Kind) -> &'static str {
    match kind {
        Kind::Read => "read",
        Kind::Write => "write",
        Kind::Other => "other",
    }
}

/// One session's frames sent straight to `handle_line`.
struct Driven {
    ids: Vec<String>,
    handle_ns: u128,
    mutating_bytes: u64,
}

/// Send `session`'s frames to `service` (stopping before its `close`
/// when `leave_open`), checking each response when given a tally.
fn drive(
    service: &Service,
    session: &SessionPlan,
    leave_open: bool,
    mut tally: Option<&mut Tally>,
) -> Driven {
    let mut d = Driven {
        ids: vec![String::new(); session.slots],
        handle_ns: 0,
        mutating_bytes: 0,
    };
    for step in &session.steps {
        if leave_open && step.verb == "close" {
            break;
        }
        let frame = step.frame(&d.ids);
        let t0 = Instant::now();
        let handled = service.handle_line(&frame);
        d.handle_ns += t0.elapsed().as_nanos();
        if step.kind == Kind::Write {
            d.mutating_bytes += frame.len() as u64;
        }
        if tally.is_none() && !step.creates() {
            continue;
        }
        let response = Json::parse(&handled.frame).expect("service frames parse");
        if let Some(t) = tally.as_deref_mut() {
            t.record(step.verb, step.expect.check(&response));
        }
        if step.creates() {
            if let Some(id) = response.get("session").and_then(Json::as_str) {
                d.ids[step.slot] = id.to_owned();
            }
        }
    }
    d
}

/// Service tracer on versus off, in interleaved blocks of one session
/// each (alternating which side goes first), over fresh in-memory
/// services: the relative extra handling time with tracing on.
fn tracer_overhead(plan: &Plan) -> f64 {
    let on = Service::new(StoreConfig::default());
    let off = Service::new(StoreConfig::default());
    off.tracer().set_enabled(false);
    let (mut t_on, mut t_off) = (0u128, 0u128);
    let started = Instant::now();
    let mut block = 0usize;
    while block < 2 || started.elapsed() < AB_BUDGET {
        let session = &plan.sessions[block % plan.sessions.len()];
        let side = |service: &Service| drive(service, session, false, None).handle_ns;
        if block.is_multiple_of(2) {
            t_on += side(&on);
            t_off += side(&off);
        } else {
            t_off += side(&off);
            t_on += side(&on);
        }
        block += 1;
    }
    ratio(t_on as f64, t_off as f64) - 1.0
}

/// The persistence probe's results.
struct PersistProbe {
    storage: BTreeMap<String, Agg>,
    syncs: u64,
    snapshots: u64,
    write_amp: f64,
    recover_ms: f64,
    decode_us: f64,
}

/// Feed the first [`PROBE_SESSIONS`] sessions to a durable service over
/// the storage decorator (every other one left open), then recover a
/// fresh service from the directory and decode its journals.
fn persist_probe(plan: &Plan, dir: &Path, tally: &mut Tally) -> io::Result<PersistProbe> {
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), TRACE_CAPACITY);
    let storage = Arc::new(TimedStorage::new(DirStorage::open(dir)?, tracer.clone()));
    let service = Service::with_persistence(
        StoreConfig::default(),
        Arc::new(MonotonicClock::new()),
        Arc::clone(&storage) as Arc<dyn Storage>,
        persist_config(),
    )?;
    tracer.clear();
    let mut mutating_bytes = 0;
    let mut left_open = Vec::new();
    for (i, session) in plan.sessions.iter().take(PROBE_SESSIONS).enumerate() {
        let leave_open = i % 2 == 1;
        let d = drive(&service, session, leave_open, Some(tally));
        mutating_bytes += d.mutating_bytes;
        if leave_open {
            left_open.push((i, d.ids));
        }
    }
    let snapshots = service
        .persistence()
        .map_or(0, |p| p.metrics().snapshots.get());
    drop(service);

    let t0 = Instant::now();
    let recovered = Service::with_persistence(
        StoreConfig::default(),
        Arc::new(MonotonicClock::new()),
        Arc::new(DirStorage::open(dir)?) as Arc<dyn Storage>,
        persist_config(),
    )?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Recovered sessions keep the ids they were opened under.
    for (i, ids) in &left_open {
        let step = &plan.sessions[*i].final_save;
        let handled = recovered.handle_line(&step.frame(ids));
        match Json::parse(&handled.frame) {
            Ok(r) => tally.record("recovered save", step.expect.check(&r)),
            Err(e) => tally.record("recovered save", Err(Fault::Mismatch(e.to_string()))),
        }
    }
    drop(recovered);
    let mut decode_us = 0.0;
    let plain = DirStorage::open(dir)?;
    for name in plain.list()? {
        if name.ends_with(".journal") {
            let bytes = plain.read(&name)?;
            let t0 = Instant::now();
            black_box(decode_records(&bytes, MAX_JOURNAL_PAYLOAD));
            decode_us += t0.elapsed().as_secs_f64() * 1e6;
        }
    }
    std::fs::remove_dir_all(dir)?;
    Ok(PersistProbe {
        storage: aggregate(&tracer),
        syncs: storage.syncs.load(Ordering::Relaxed),
        snapshots,
        write_amp: ratio(
            storage.bytes_written.load(Ordering::Relaxed) as f64,
            mutating_bytes as f64,
        ),
        recover_ms,
        decode_us,
    })
}

/// Nanoseconds per byte to parse `frame`: the median of repeated parses.
fn parse_ns_per_byte(frame: &str) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (times.len() < 200 && started.elapsed() < Duration::from_millis(50)) {
        let t0 = Instant::now();
        black_box(Json::parse(black_box(frame)).expect("replayed frames parse"));
        times.push(elapsed_ns(t0));
    }
    stats::median(&times) / frame.len() as f64
}

/// What the closed loop measured, in µs.
pub struct Serving {
    /// Client mean round trip.
    pub rtt_mean_us: f64,
    /// Server mean handling, weighted by the client's per-verb counts.
    pub handle_mean_us: f64,
    /// Server mean handling per verb.
    pub handle_by_verb: BTreeMap<String, f64>,
}

/// Run the traced replay and the probes of `plan` and return every
/// per-layer metric.
pub fn run(
    plan: &Plan,
    serving: &Serving,
    evictions: u64,
    tmp: &Path,
    trace_out: &Path,
    tally: &mut Tally,
) -> io::Result<Vec<Metric>> {
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), TRACE_CAPACITY);
    let dir = tmp.join("traced");
    let service = if plan.workload.durable() {
        let storage = TimedStorage::new(DirStorage::open(&dir)?, tracer.clone());
        Service::with_persistence(
            StoreConfig::default(),
            Arc::new(MonotonicClock::new()),
            Arc::new(storage) as Arc<dyn Storage>,
            persist_config(),
        )?
    } else {
        Service::new(StoreConfig::default())
    };
    tracer.clear();

    // Every session runs to its close, the mix the closed loop sends, so
    // the ledger compares with the server's own handling time.
    let mut replay = Replay::default();
    for (i, session) in plan.sessions.iter().enumerate() {
        let probe = i < PROBE_SESSIONS;
        replay_session(&service, &tracer, session, probe, &mut replay, tally);
    }
    let (lru, ttl) = service.store().evictions();
    replay.evictions = lru + ttl;
    drop(service);
    if tracer.dropped() > 0 {
        tally.record("trace", Err(Fault::Refused("span ring overflowed".into())));
    }
    replay.spans = aggregate(&tracer);
    std::fs::create_dir_all(trace_out.parent().unwrap_or(Path::new(".")))?;
    std::fs::write(trace_out, tracer.export_chrome())?;
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }

    let persist = persist_probe(plan, &dir, tally)?;
    let ab = tracer_overhead(plan);
    Ok(metrics(&replay, &persist, serving, evictions, ab))
}

fn metrics(
    r: &Replay,
    p: &PersistProbe,
    serving: &Serving,
    evictions: u64,
    tracer_overhead: f64,
) -> Vec<Metric> {
    let n = r.requests as f64;
    let span = |name: &str| r.spans.get(name).copied().unwrap_or_default();
    let per_request = |name: &str| span(name).self_ns as f64 / n / 1e3;
    let per_call = |name: &str| span(name).per_call_us();
    let engine_ns: u64 = r
        .spans
        .iter()
        .filter(|(k, _)| k.starts_with("core.") || k.starts_with("ecr."))
        .map(|(_, a)| a.self_ns)
        .sum();
    let handle = span("service.handle_line");
    let measured_inside = span("wire.parse_request").self_ns
        + span("proto.decode").self_ns
        + engine_ns
        + span("wire.encode").self_ns;
    let dispatch_self_us = (handle.self_ns as f64 - measured_inside as f64) / n / 1e3;

    // The ledger of in-process handling, per request. The server's
    // per-verb means are weighted by the replay's verb counts, so a
    // window that ended mid-cycle does not skew the comparison.
    let handle_replay_us = handle.total_ns as f64 / n / 1e3;
    let encode_us = per_request("wire.encode");
    let server_us = serving
        .handle_by_verb
        .iter()
        .map(|(verb, us)| us * span(&format!("service.handle_line.{verb}")).calls as f64)
        .sum::<f64>()
        / n;
    let unaccounted_us = server_us - (handle_replay_us - encode_us);
    eprintln!("\n== per verb: server mean under load vs replay handling less encode (us) ==");
    for (verb, us) in &serving.handle_by_verb {
        let h = span(&format!("service.handle_line.{verb}"));
        let e = span(&format!("wire.encode.{verb}"));
        let replay_us = ratio(h.total_ns as f64 - e.total_ns as f64, h.calls as f64) / 1e3;
        eprintln!(
            "  {verb:<14} n={:<6} server {us:>10.2}  replay {replay_us:>10.2}",
            h.calls
        );
    }
    eprintln!(
        "\n== traced replay: {} requests, layer self time per request (us) ==",
        r.requests
    );
    let mut layers: Vec<(&str, f64)> = vec![
        ("wire.parse_request", per_request("wire.parse_request")),
        ("proto.decode", per_request("proto.decode")),
    ];
    for (name, agg) in &r.spans {
        if ["core.", "ecr.", "storage."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            layers.push((name, agg.self_ns as f64 / n / 1e3));
        }
    }
    layers.push(("service.dispatch_self", dispatch_self_us));
    layers.push(("wire.encode", encode_us));
    for (name, us) in &layers {
        eprintln!("  {name:<36} {us:>12.3}");
    }
    eprintln!(
        "  {:<36} {handle_replay_us:>12.3}",
        "= service.handle_line (replay)"
    );
    eprintln!(
        "outside handling: wire.frame {:.3}, wire.parse_response {:.3}",
        per_request("wire.frame"),
        per_request("wire.parse_response")
    );
    eprintln!(
        "server-side mean handling under load, replay's verb mix (sit_request_latency_ns, stops before encode): {server_us:.3} us"
    );
    eprintln!(
        "unaccounted = server mean - (replay handling - wire.encode) = {unaccounted_us:.3} us ({:.1}% of the server mean)",
        100.0 * ratio(unaccounted_us, server_us)
    );
    eprintln!(
        "client RTT mean {:.3} us = server mean {:.3} + server.rtt_minus_handle {:.3}",
        serving.rtt_mean_us,
        serving.handle_mean_us,
        serving.rtt_mean_us - serving.handle_mean_us
    );

    // Frame-size probe: parse cost per byte at the smallest, median and
    // largest frame (requests and responses alike).
    let mut sizes: Vec<&String> = r.frames.iter().collect();
    sizes.sort_by_key(|f| f.len());
    let probe = [
        sizes[0],
        stats::nearest_rank(&sizes, 1, 2),
        sizes[sizes.len() - 1],
    ];
    let per_byte: Vec<f64> = probe.iter().map(|f| parse_ns_per_byte(f)).collect();

    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let storage = |name: &str| {
        p.storage
            .get(name)
            .copied()
            .unwrap_or_default()
            .per_call_us()
    };
    let us = "us";
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("server.rtt_mean_us", serving.rtt_mean_us, us),
        m("server.handle_mean_us", serving.handle_mean_us, us),
        m(
            "server.rtt_minus_handle_us",
            serving.rtt_mean_us - serving.handle_mean_us,
            us,
        ),
        m("wire.frame_us", per_request("wire.frame"), us),
        m("proto.decode_us", per_request("proto.decode"), us),
        m("obs.tracer_overhead_frac", tracer_overhead, "frac"),
        m(
            "wire.parse_request_us",
            per_request("wire.parse_request"),
            us,
        ),
        m(
            "wire.parse_response_us",
            per_request("wire.parse_response"),
            us,
        ),
        m("wire.encode_us", encode_us, us),
        m("wire.parse_ns_per_byte.smallest", per_byte[0], "ns/B"),
        m("wire.parse_ns_per_byte.median", per_byte[1], "ns/B"),
        m("wire.parse_ns_per_byte.largest", per_byte[2], "ns/B"),
        m("wire.frame_bytes.smallest", probe[0].len() as f64, "B"),
        m("wire.frame_bytes.median", probe[1].len() as f64, "B"),
        m("wire.frame_bytes.largest", probe[2].len() as f64, "B"),
        m("ecr.ddl.parse_us", per_call("ecr.ddl.parse"), us),
        m(
            "core.session.add_schema_us",
            per_call("core.session.add_schema"),
            us,
        ),
        m(
            "core.session.declare_equivalent_us",
            per_call("core.session.declare_equivalent"),
            us,
        ),
        m(
            "core.session.assert_objects_us",
            per_call("core.session.assert_objects"),
            us,
        ),
        m(
            "core.session.integrate_us",
            per_call("core.session.integrate"),
            us,
        ),
        m("ecr.render_us", per_call("ecr.render"), us),
        m("core.closure.facts", mean(&r.facts), "count"),
        m("core.closure.derived", mean(&r.derived), "count"),
        m(
            "core.session.candidates_us",
            per_call("core.session.candidates"),
            us,
        ),
        m(
            "core.session.assertion_matrix_us",
            mean(&r.matrix_ns) / 1e3,
            us,
        ),
        m(
            "core.candidates.pairs",
            ratio(r.candidate_pairs as f64, r.candidate_calls as f64),
            "count",
        ),
        m("core.script.save_us", mean(&r.save_ns) / 1e3, us),
        m("core.script.load_us", mean(&r.load_ns) / 1e3, us),
        m("storage.append_us", storage("storage.append"), us),
        m("storage.sync_us", storage("storage.sync"), us),
        m(
            "storage.write_atomic_us",
            storage("storage.write_atomic"),
            us,
        ),
        m("storage.syncs", p.syncs as f64, "count"),
        m("persist.snapshots", p.snapshots as f64, "count"),
        m("persist.write_amp", p.write_amp, "ratio"),
        m("persist.recover_ms", p.recover_ms, "ms"),
        m("persist.decode_records_us", p.decode_us, us),
        m(
            "service.handle_line_read_us",
            per_call("service.handle_line.read"),
            us,
        ),
        m(
            "service.handle_line_write_us",
            per_call("service.handle_line.write"),
            us,
        ),
        m("service.dispatch_self_us", dispatch_self_us, us),
        m("ledger.handle_replay_us", handle_replay_us, us),
        m("ledger.unaccounted_us", unaccounted_us, us),
        m("store.evictions", (evictions + r.evictions) as f64, "count"),
    ]
}
