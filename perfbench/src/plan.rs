//! Workloads and their pre-generated request frames.
//!
//! A run's inputs are a function of `--seed` alone: each workload expands
//! the seed into a fixed number of distinct DDA sessions over
//! [`sit_datagen`] schema pairs, and each session into the exact frames
//! it sends. Everything here runs before any clock starts, including the
//! mirror pass that fixes each request's expected outcome (and the
//! script a later `load` sends).
//!
//! Session ids are assigned by the server at `open`/`load` time, so a
//! frame that addresses a session is stored as the two halves around its
//! id; sending it costs one concatenation.

use sit_datagen::{GeneratedPair, GeneratorConfig};
use sit_obs::clock::MonotonicClock;
use sit_obs::trace::Tracer;
use sit_prng::SplitMix64;
use sit_server::proto::{Request, VERBS};

use crate::mirror::{Mirror, Outcome};

/// Placeholder session id the frame templates are encoded with.
const SID: &str = "#SID#";

/// One benchmark workload (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small sessions on an in-memory server: the serving path dominates.
    WireSmall,
    /// 32-object sessions with reads beside writes: the engine dominates.
    /// Runnable by name but not listed in `BENCHMARK.json`: its p99 falls
    /// between the `load` and `integrate` round trips (`load` is ~1% of
    /// requests), so over ten seeds its `rtt_p99_us` and `recover_s`
    /// spread by 0.3, above 0.25, the largest bound `BENCHMARK.json` may set.
    EngineLarge,
    /// `WireSmall`'s traffic on a durable server, then recovery.
    DurableSmall,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [
        Workload::WireSmall,
        Workload::EngineLarge,
        Workload::DurableSmall,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::EngineLarge => "engine_large",
            Workload::DurableSmall => "durable_small",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the server journal to a data directory?
    pub fn durable(self) -> bool {
        self == Workload::DurableSmall
    }

    /// Distinct sessions a run generates; the closed loop cycles
    /// through them.
    pub fn sessions(self) -> usize {
        match self {
            Workload::WireSmall | Workload::DurableSmall => 192,
            Workload::EngineLarge => 32,
        }
    }

    fn generator(self, seed: u64) -> GeneratorConfig {
        match self {
            Workload::WireSmall | Workload::DurableSmall => GeneratorConfig {
                seed,
                objects_per_schema: 6,
                relationships_per_schema: 2,
                ..Default::default()
            },
            Workload::EngineLarge => GeneratorConfig {
                seed,
                objects_per_schema: 32,
                relationships_per_schema: 6,
                category_frac: 0.3,
                ..Default::default()
            },
        }
    }
}

/// How a verb is counted in the read/write latency split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Request::is_idempotent()`.
    Read,
    /// `Request::is_mutating()`.
    Write,
    /// Lifecycle verbs and `integrate`.
    Other,
}

/// One request of a session, ready to send.
#[derive(Clone, Debug)]
pub struct Step {
    /// Protocol verb.
    pub verb: &'static str,
    /// Index of `verb` in `sit_server::proto::VERBS`.
    pub verb_id: u8,
    /// Read/write class.
    pub kind: Kind,
    /// The request as generated (session ids are placeholders).
    pub request: Request,
    /// Slot of the session this request addresses, or — for `open` and
    /// `load` — creates.
    pub slot: usize,
    /// Whether the frame carries the session id of `slot`.
    addressed: bool,
    /// Frame text before the session id (the whole frame when the
    /// request carries none).
    head: String,
    /// Frame text after the session id.
    tail: String,
    /// What the server must answer.
    pub expect: Outcome,
}

impl Step {
    fn new(request: Request, slot: usize) -> Step {
        let frame = request.to_json().encode();
        let (head, tail, addressed) = match frame.split_once(SID) {
            Some((h, t)) => {
                assert!(!t.contains(SID), "one session id per frame: {frame}");
                (h.to_owned(), t.to_owned(), true)
            }
            None => (frame, String::new(), false),
        };
        let kind = if request.is_idempotent() {
            Kind::Read
        } else if request.is_mutating() {
            Kind::Write
        } else {
            Kind::Other
        };
        let verb_id = VERBS
            .iter()
            .position(|v| *v == request.op())
            .expect("every request's verb is in VERBS");
        Step {
            verb: request.op(),
            verb_id: u8::try_from(verb_id).expect("fewer than 256 verbs"),
            kind,
            request,
            slot,
            addressed,
            head,
            tail,
            expect: Outcome::default(),
        }
    }

    /// The wire frame (no newline) for a session whose slots hold `ids`.
    pub fn frame(&self, ids: &[String]) -> String {
        if !self.addressed {
            return self.head.clone();
        }
        let id = &ids[self.slot];
        let mut frame = String::with_capacity(self.head.len() + id.len() + self.tail.len());
        frame.push_str(&self.head);
        frame.push_str(id);
        frame.push_str(&self.tail);
        frame
    }

    /// Does the response carry a new session id (`open`, `load`)?
    pub fn creates(&self) -> bool {
        matches!(self.request, Request::Open | Request::Load { .. })
    }
}

/// One DDA session: its frames in order plus the final state to check.
#[derive(Clone, Debug)]
pub struct SessionPlan {
    /// Requests in send order.
    pub steps: Vec<Step>,
    /// Session slots the steps use (1, or 2 when a `load` opens one).
    pub slots: usize,
    /// `save` of slot 0 against its final state (just before its
    /// `close`), with the expected script.
    pub final_save: Step,
    /// Whether the steps already send that `save`.
    pub saves_in_mix: bool,
    /// `load` of the final `save`'s script: how a client gets the session
    /// back after an in-memory server restarts.
    pub reload: Step,
}

/// All sessions of one run.
pub struct Plan {
    /// The workload generated.
    pub workload: Workload,
    /// Distinct sessions, in generation order.
    pub sessions: Vec<SessionPlan>,
}

impl Plan {
    /// Generate `count` sessions of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, count: usize) -> Plan {
        let mut seeds = SplitMix64::new(seed ^ 0x5EED_BE4C);
        let sessions = (0..count)
            .map(|_| {
                let pair = workload.generator(seeds.next_u64()).generate_pair();
                session(workload, &pair)
            })
            .collect();
        Plan { workload, sessions }
    }

    /// Every frame of the run, newline-separated, with placeholder
    /// session ids — the stream the determinism self-check compares.
    pub fn stream(&self) -> Vec<u8> {
        let ids = [SID.to_owned(), SID.to_owned()];
        let mut out = Vec::new();
        for s in &self.sessions {
            for step in s.steps.iter().chain(std::iter::once(&s.final_save)) {
                out.extend_from_slice(step.frame(&ids).as_bytes());
                out.push(b'\n');
            }
        }
        out
    }

    /// Requests across all sessions.
    pub fn requests(&self) -> usize {
        self.sessions.iter().map(|s| s.steps.len()).sum()
    }
}

/// Builds a session's steps while applying each to the mirror, so every
/// step's expectation is fixed as it is generated.
struct Builder {
    mirror: Mirror,
    tracer: Tracer,
    steps: Vec<Step>,
}

impl Builder {
    fn push(&mut self, request: Request, slot: usize) -> &Step {
        let mut step = Step::new(request, slot);
        step.expect = self.mirror.apply(&step.request, slot, &self.tracer);
        self.steps.push(step);
        self.steps.last().expect("just pushed")
    }
}

fn sid() -> String {
    SID.to_owned()
}

fn session(workload: Workload, pair: &GeneratedPair) -> SessionPlan {
    let tracer = Tracer::new(std::sync::Arc::new(MonotonicClock::new()), 1);
    tracer.set_enabled(false);
    let mut b = Builder {
        mirror: Mirror::new(),
        tracer,
        steps: Vec::new(),
    };
    let (na, nb) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    let large = workload == Workload::EngineLarge;

    b.push(Request::Open, 0);
    for schema in [&pair.a, &pair.b] {
        let ddl = sit_ecr::ddl::print(schema);
        b.push(
            Request::AddSchema {
                session: sid(),
                ddl,
            },
            0,
        );
    }
    let candidates = || Request::Candidates {
        session: sid(),
        a: na.clone(),
        b: nb.clone(),
    };
    for (i, (oa, aa, ob, ab)) in pair.truth.attr_pairs.iter().enumerate() {
        let equiv = Request::Equiv {
            session: sid(),
            a: format!("{na}.{oa}.{aa}"),
            b: format!("{nb}.{ob}.{ab}"),
        };
        b.push(equiv, 0);
        if large && (i + 1) % 4 == 0 {
            b.push(candidates(), 0);
        }
    }
    if !large {
        b.push(candidates(), 0);
    }
    for t in &pair.truth.assertions {
        let assert = Request::Assert {
            session: sid(),
            a: format!("{na}.{}", t.a),
            b: format!("{nb}.{}", t.b),
            assertion: t.assertion,
        };
        b.push(assert, 0);
        if large {
            let matrix = Request::Matrix {
                session: sid(),
                a: na.clone(),
                b: nb.clone(),
            };
            b.push(matrix, 0);
        }
    }
    let integrate = Request::Integrate {
        session: sid(),
        a: na.clone(),
        b: nb.clone(),
        pull_up: false,
        mappings: large,
    };
    b.push(integrate, 0);

    let final_save = {
        let mut step = Step::new(Request::Save { session: sid() }, 0);
        step.expect = b.mirror.apply(&step.request, 0, &b.tracer);
        step
    };
    let reload = Step::new(
        Request::Load {
            script: final_save
                .expect
                .script
                .clone()
                .expect("save returns a script"),
        },
        0,
    );
    let slots = if large {
        let saved = b.push(Request::Save { session: sid() }, 0);
        let script = saved.expect.script.clone().expect("save returns a script");
        b.push(Request::Load { script }, 1);
        b.push(Request::Close { session: sid() }, 0);
        b.push(Request::Close { session: sid() }, 1);
        2
    } else {
        b.push(Request::Close { session: sid() }, 0);
        1
    };
    SessionPlan {
        steps: b.steps,
        slots,
        final_save,
        saves_in_mix: large,
        reload,
    }
}
