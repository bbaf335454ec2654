//! `sit-perfbench` — the benchmark of the `sit` session server.
//!
//! ```text
//! sit-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates every request frame of the workload from `--seed`
//! (before any clock starts), fixes each response's expected outcome on
//! a mirror session, starts a `sit_server::Server` in-process on
//! loopback, and drives it in a closed loop from one client for
//! `--seconds`. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it also replays the same frames in-process under the
//! benchmark's own tracer and prints the per-layer metrics instead. The
//! last line of stdout is one JSON object:
//! `{"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}`.
//! A human-readable report goes to stderr.
//!
//! The set-up and recovery probes behind `setup_s` and `recover_s` run
//! in a helper process, this executable started by the benchmark with
//! `--probe-helper` (see `probe`), so that they leave the benchmark's
//! own memory alone.
//!
//! Scratch data lives under `.perfbench/` in the working directory; the
//! traced run leaves its Chrome trace at
//! `.perfbench/traces/<workload>.trace.json`.

mod checks;
mod mirror;
mod plan;
mod probe;
mod serve;
mod stats;
mod timed_storage;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use plan::{Kind, Plan, Workload};
use serve::{Served, Tally};
use sit_server::proto::VERBS;
use stats::{nearest_rank, ratio};

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&format!("expected one of {names:?}")))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                if s == 0 {
                    return Err(bad("expected at least 1"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(probe::HELPER_FLAG) {
        return probe_helper(std::env::args().skip(2));
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sit-perfbench: {e}");
            eprintln!("usage: sit-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".perfbench").join(format!("tmp-{}", std::process::id()));
    let result = run(&args, &tmp);
    if tmp.exists() {
        let _ = std::fs::remove_dir_all(&tmp);
    }
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sit-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--probe-helper WORKLOAD SEED DIR`: the helper process of
/// `crate::probe`, started by the benchmark itself.
fn probe_helper(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let (Some(workload), Some(seed), Some(dir)) = (
        argv.next().as_deref().and_then(Workload::parse),
        argv.next().and_then(|s| s.parse().ok()),
        argv.next(),
    ) else {
        eprintln!(
            "usage: sit-perfbench {} WORKLOAD SEED DIR",
            probe::HELPER_FLAG
        );
        return ExitCode::from(2);
    };
    match probe::helper(workload, seed, std::path::Path::new(&dir)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sit-perfbench {}: {e}", probe::HELPER_FLAG);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, tmp: &std::path::Path) -> std::io::Result<String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let self_checks = checks::run_all(w);
    for failure in &self_checks {
        eprintln!("{failure}");
    }

    let plan = Plan::generate(w, args.seed, w.sessions());
    eprintln!(
        "{}: seed {}, {} distinct sessions, {} requests per cycle, 1 client x {} s closed loop, {} server threads",
        w.name(),
        args.seed,
        plan.sessions.len(),
        plan.requests(),
        args.seconds,
        serve::SERVER_THREADS,
    );
    std::fs::create_dir_all(tmp)?;
    let served = serve::serve(&plan, args.seed, args.seconds, tmp, &mut tally)?;
    let metrics = if args.trace {
        let serving = serving_means(&served);
        let out = PathBuf::from(".perfbench")
            .join("traces")
            .join(format!("{}.trace.json", w.name()));
        let layers = traced::run(&plan, &serving, served.evictions, tmp, &out, &mut tally)?;
        eprintln!("chrome trace: {}", out.display());
        layers
    } else {
        end_to_end(&served, args.seconds)
    };

    let correct = self_checks.is_empty() && tally.mismatches == 0 && tally.failed == 0;
    eprintln!(
        "attempted {} requests, failed {} (failed_frac {}), oracle mismatches {}, store evictions {}",
        tally.attempted,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.mismatches,
        served.evictions
    );
    for note in &tally.notes {
        eprintln!("  {note}");
    }
    for m in &metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(correct, &tally, &metrics))
}

fn serving_means(served: &Served) -> traced::Serving {
    let mut client: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for s in &served.samples {
        let e = client.entry(VERBS[usize::from(s.verb)]).or_default();
        e.0 += 1;
        e.1 += u64::from(s.ns);
    }
    let (mut n, mut rtt_ns, mut handle_ns) = (0.0, 0.0, 0.0);
    let mut handle_by_verb = std::collections::BTreeMap::new();
    eprintln!("\n== per verb: client mean RTT vs server mean handling (us) ==");
    for (verb, &(count, sum)) in &client {
        let (sc, ss) = served.server_sums.get(*verb).copied().unwrap_or((0, 0));
        let server_mean = ratio(ss as f64, sc as f64);
        let client_mean = sum as f64 / count as f64;
        eprintln!(
            "  {verb:<14} n={count:<7} rtt {:>10.2}  handle {:>10.2}  rtt-handle {:>10.2}",
            client_mean / 1e3,
            server_mean / 1e3,
            (client_mean - server_mean) / 1e3
        );
        handle_by_verb.insert(verb.to_string(), server_mean / 1e3);
        n += count as f64;
        rtt_ns += sum as f64;
        handle_ns += server_mean * count as f64;
    }
    traced::Serving {
        rtt_mean_us: ratio(rtt_ns, n) / 1e3,
        handle_mean_us: ratio(handle_ns, n) / 1e3,
        handle_by_verb,
    }
}

/// The timed window is cut into this many equal slices by completion
/// time; rates and percentiles are the median over slices, so a stretch
/// of the window slowed by something outside the benchmark moves them
/// less.
const SLICES: usize = 10;

fn end_to_end(s: &Served, seconds: u64) -> Vec<Metric> {
    let slice_ms = seconds * 1000 / SLICES as u64;
    let mut slices: Vec<[Vec<u32>; 3]> = vec![Default::default(); SLICES];
    for x in &s.samples {
        let slice = &mut slices[(u64::from(x.at_ms) / slice_ms).min(SLICES as u64 - 1) as usize];
        slice[0].push(x.ns);
        match x.kind {
            Kind::Read => slice[1].push(x.ns),
            Kind::Write => slice[2].push(x.ns),
            Kind::Other => {}
        }
    }
    // The last slice also holds the session that overran the deadline.
    let last_s = s.elapsed_s - (SLICES - 1) as f64 * slice_ms as f64 / 1e3;
    let mut rates = Vec::new();
    let mut p50 = [Vec::new(), Vec::new(), Vec::new()];
    for (i, slice) in slices.iter_mut().enumerate() {
        let secs = if i + 1 == SLICES {
            last_s
        } else {
            slice_ms as f64 / 1e3
        };
        rates.push(slice[0].len() as f64 / secs);
        for (k, v) in slice.iter_mut().enumerate() {
            if !v.is_empty() {
                v.sort_unstable();
                p50[k].push(nearest_rank(v, 1, 2) as f64 / 1e3);
            }
        }
    }
    let median = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    // The p99 takes pairs of slices, so each window holds enough samples
    // for ten or more beyond its p99 on the lighter workloads.
    let p99: Vec<f64> = slices
        .chunks(2)
        .filter_map(|pair| {
            let mut v: Vec<u32> = pair.iter().flat_map(|s| s[0].iter().copied()).collect();
            v.sort_unstable();
            v.last().map(|_| nearest_rank(&v, 99, 100) as f64 / 1e3)
        })
        .collect();
    let sessions = &s.session_ms;
    eprintln!(
        "samples: {} round trips ({} reads, {} writes) and {} sessions in {:.3} s, {} set-ups, {} recoveries",
        s.samples.len(),
        s.samples.iter().filter(|x| x.kind == Kind::Read).count(),
        s.samples.iter().filter(|x| x.kind == Kind::Write).count(),
        sessions.len(),
        s.elapsed_s,
        s.setups,
        s.recovers
    );
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", s.setup_s, "s"),
        m("requests_per_s", median(&rates), "1/s"),
        m("sessions_per_s", sessions.len() as f64 / s.elapsed_s, "1/s"),
        m("rtt_p50_us", median(&p50[0]), "us"),
        m("rtt_p99_us", median(&p99), "us"),
        m("read_rtt_p50_us", median(&p50[1]), "us"),
        m("write_rtt_p50_us", median(&p50[2]), "us"),
        m("session_p50_ms", median(sessions), "ms"),
        m("peak_rss_mib", s.peak_rss_mib, "MiB"),
        m("recover_s", s.recover_s, "s"),
    ]
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
