//! Self-checks of the benchmark's own machinery, run before every
//! measurement (a failure makes the result `correct: false`) and as unit
//! tests.

use std::io;
use std::sync::Arc;

use sit_obs::clock::MonotonicClock;
use sit_obs::trace::Tracer;
use sit_server::{Json, MemStorage, Storage};

use crate::mirror::Fault;
use crate::plan::{Plan, Workload};
use crate::timed_storage::TimedStorage;

/// Run every self-check for `workload`; returns the failures.
pub fn run_all(workload: Workload) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, result) in [
        (
            "frames are a function of the seed",
            frames_are_deterministic(workload),
        ),
        (
            "the oracle flags tampered responses",
            oracle_flags_tampering(workload),
        ),
        (
            "the storage decorator passes calls through",
            storage_passes_through(),
        ),
    ] {
        if let Err(e) = result {
            failures.push(format!("self-check `{name}` failed: {e}"));
        }
    }
    failures
}

/// The same seed yields a byte-identical frame stream; another seed
/// does not.
pub fn frames_are_deterministic(workload: Workload) -> Result<(), String> {
    let first = Plan::generate(workload, 7, 2).stream();
    let again = Plan::generate(workload, 7, 2).stream();
    let other = Plan::generate(workload, 8, 2).stream();
    if first != again {
        return Err("seed 7 produced two different frame streams".into());
    }
    if first == other {
        return Err("seeds 7 and 8 produced the same frame stream".into());
    }
    Ok(())
}

/// A response the mirror agrees with passes; a flipped code, a flipped
/// success, or an altered `save` text is flagged as a mismatch.
pub fn oracle_flags_tampering(workload: Workload) -> Result<(), String> {
    let plan = Plan::generate(workload, 7, 1);
    let session = &plan.sessions[0];
    let ok = Json::obj(vec![("ok", Json::Bool(true))]);
    let error = |code: &str| {
        Json::obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj(vec![("code", Json::str(code)), ("message", Json::str("x"))]),
            ),
        ])
    };
    let mismatch = |r: Result<(), Fault>| matches!(r, Err(Fault::Mismatch(_)));

    let add = session
        .steps
        .iter()
        .find(|s| s.verb == "add_schema")
        .ok_or("no add_schema step")?;
    if add.expect.code.is_some() {
        return Err("the generated add_schema is expected to fail".into());
    }
    if add.expect.check(&ok).is_err() {
        return Err("a faithful ok response was rejected".into());
    }
    if !mismatch(add.expect.check(&error("core"))) {
        return Err("an error in place of ok was not flagged".into());
    }

    let save = &session.final_save;
    let script = save
        .expect
        .script
        .clone()
        .ok_or("final save has no script")?;
    let saved =
        |text: String| Json::obj(vec![("ok", Json::Bool(true)), ("script", Json::str(text))]);
    if save.expect.check(&saved(script.clone())).is_err() {
        return Err("a faithful save response was rejected".into());
    }
    if !mismatch(save.expect.check(&saved(format!("{script}#")))) {
        return Err("an altered save text was not flagged".into());
    }
    if let Some(failing) = session.steps.iter().find(|s| s.expect.code.is_some()) {
        if !mismatch(failing.expect.check(&ok)) {
            return Err("ok in place of an expected error was not flagged".into());
        }
    }
    Ok(())
}

/// Drive the same calls through a bare [`MemStorage`] and through the
/// decorator over another one: every result and the final contents
/// must be identical.
pub fn storage_passes_through() -> Result<(), String> {
    let bare = MemStorage::new();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 1024);
    let timed = TimedStorage::new(MemStorage::new(), tracer.clone());
    let script = |s: &dyn Storage| -> Vec<String> {
        fn show<T: std::fmt::Debug>(r: io::Result<T>) -> String {
            match r {
                Ok(v) => format!("ok {v:?}"),
                Err(e) => format!("err {:?}", e.kind()),
            }
        }
        vec![
            show(s.append("1.journal", b"abc")),
            show(s.append("1.journal", b"def")),
            show(s.sync("1.journal")),
            show(s.read("1.journal")),
            show(s.write_atomic("1.snap.1", b"snapshot")),
            show(s.append("2.journal", b"")),
            show(s.list()),
            show(s.remove("2.journal")),
            show(s.remove("missing")),
            show(s.read("missing")),
            show(s.append("bad/name", b"x")),
            show(s.write_atomic("1.journal", b"compacted")),
            show(s.read("1.journal")),
            show(s.list()),
        ]
    };
    let expected = script(&bare);
    let got = script(&timed);
    if expected != got {
        return Err(format!("bare {expected:?} vs decorated {got:?}"));
    }
    if tracer.is_empty() {
        return Err("the decorator recorded no spans".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_self_check_passes_on_every_workload() {
        for w in Workload::ALL {
            assert_eq!(run_all(w), Vec::<String>::new(), "{}", w.name());
        }
    }

    #[test]
    fn a_whole_run_plan_is_a_function_of_the_seed() {
        let w = Workload::WireSmall;
        let n = w.sessions();
        assert_eq!(
            Plan::generate(w, 42, n).stream(),
            Plan::generate(w, 42, n).stream()
        );
    }
}
