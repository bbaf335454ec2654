//! The set-up and recovery probes, run in a helper process.
//!
//! `setup_s` and `recover_s` are medians of probes spread over the
//! timed window, so that they follow the same drift of the machine's
//! speed as the window's own metrics. Each probe starts a throwaway
//! server while the window's server keeps running. Run in the
//! benchmark's own process, the probes' threads, allocator arenas and
//! recovered sessions raised its peak RSS by half and widened the
//! run-to-run spread of `peak_rss_mib` four-fold. So they run in a
//! helper: this executable started with [`HELPER_FLAG`], which answers
//! one probe per line on its stdin with the probe's seconds on its
//! stdout, and reports its checked requests when its stdin closes.

use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::plan::{Plan, Workload};
use crate::serve::{self, Recovery, Tally};

/// The first argument that makes this executable the probe helper:
/// `--probe-helper WORKLOAD SEED DIR`.
pub const HELPER_FLAG: &str = "--probe-helper";

/// The helper process, seen from the benchmark.
pub struct Probes {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Probes {
    /// Start the helper for `workload` and `seed`, with scratch space
    /// under `dir`, and wait until it is ready: it has generated the
    /// plan, left the sessions to recover open, and recovered them once,
    /// checked against their mirrors.
    pub fn spawn(workload: Workload, seed: u64, dir: &Path) -> io::Result<Probes> {
        let mut child = Command::new(std::env::current_exe()?)
            .args([HELPER_FLAG, workload.name(), &seed.to_string()])
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child.stdin.take();
        let from = child.stdout.take().map(BufReader::new);
        let mut probes = Probes {
            child,
            to,
            from: from.ok_or_else(|| io::Error::other("probe helper: no stdout"))?,
        };
        match probes.line()?.as_str() {
            "ready" => Ok(probes),
            other => Err(io::Error::other(format!(
                "probe helper: expected `ready`, got `{other}`"
            ))),
        }
    }

    /// One set-up of a fresh server, in seconds.
    pub fn setup(&mut self) -> io::Result<f64> {
        self.ask("setup")
    }

    /// One recovery of the sessions left open, in seconds.
    pub fn recover(&mut self) -> io::Result<f64> {
        self.ask("recover")
    }

    fn ask(&mut self, probe: &str) -> io::Result<f64> {
        let to = self.to.as_mut().expect("stdin is open until finish");
        writeln!(to, "{probe}")?;
        to.flush()?;
        let line = self.line()?;
        line.parse()
            .map_err(|_| io::Error::other(format!("probe helper: expected seconds, got `{line}`")))
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.from.read_line(&mut line)? == 0 {
            return Err(io::Error::other("probe helper exited early"));
        }
        Ok(line.trim_end().to_owned())
    }

    /// Close the helper's stdin, add the requests it checked to
    /// `tally`, and wait for it to exit.
    pub fn finish(mut self, tally: &mut Tally) -> io::Result<()> {
        drop(self.to.take());
        let counts = self.line()?;
        let counts: Vec<u64> = counts
            .strip_prefix("tally ")
            .map(|c| c.split(' ').filter_map(|n| n.parse().ok()).collect())
            .unwrap_or_default();
        let [attempted, failed, mismatches] = counts[..] else {
            return Err(io::Error::other("probe helper: no tally"));
        };
        tally.attempted += attempted;
        tally.failed += failed;
        tally.mismatches += mismatches;
        loop {
            let mut note = String::new();
            if self.from.read_line(&mut note)? == 0 {
                break;
            }
            if tally.notes.len() < 8 {
                tally
                    .notes
                    .push(format!("probe helper: {}", note.trim_end()));
            }
        }
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("probe helper: {status}")));
        }
        Ok(())
    }
}

impl Drop for Probes {
    /// On every way out, the helper is stopped and reaped.
    fn drop(&mut self) {
        drop(self.to.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The helper's side: serve probes until stdin closes, then print the
/// tally of every request it checked, and its first failures.
pub fn helper(workload: Workload, seed: u64, dir: &Path) -> io::Result<()> {
    let plan = Plan::generate(workload, seed, workload.sessions());
    let mut tally = Tally::default();
    std::fs::create_dir_all(dir)?;
    let data_dir = |name: &str| -> Option<PathBuf> { workload.durable().then(|| dir.join(name)) };
    let recovery = Recovery::fixture(&plan, data_dir("recover"), &mut tally)?;
    recovery.run(&plan, true, &mut tally)?;

    let mut out = io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    for line in io::stdin().lock().lines() {
        let secs = match line?.as_str() {
            "setup" => serve::setup_once(data_dir("setup").as_deref())?,
            "recover" => recovery.run(&plan, false, &mut tally)?,
            other => return Err(io::Error::other(format!("unknown probe `{other}`"))),
        };
        writeln!(out, "{secs}")?;
        out.flush()?;
    }
    if let Some(dir) = &recovery.dir {
        std::fs::remove_dir_all(dir)?;
    }

    writeln!(
        out,
        "tally {} {} {}",
        tally.attempted, tally.failed, tally.mismatches
    )?;
    for note in &tally.notes {
        writeln!(out, "{note}")?;
    }
    out.flush()
}
