//! The mirror: applies decoded requests to in-process
//! [`sit_core::Session`]s through their public methods.
//!
//! It is the correctness oracle — every request's expected ok/error code
//! and every `save` text come from here, computed before any clock
//! starts — and, in the traced replay, the source of every `core.*` and
//! `ecr.*` timing: each engine call runs under a span of the
//! benchmark's own [`Tracer`]. Only the engine call itself is inside the
//! span; name resolution and response building stay outside, which is
//! what leaves them in `service.dispatch_self`.

use std::hint::black_box;

use sit_core::error::CoreError;
use sit_core::integrate::IntegrationOptions;
use sit_core::script;
use sit_core::session::Session;
use sit_ecr::SchemaId;
use sit_obs::trace::Tracer;
use sit_server::proto::Request;
use sit_server::{error_code, Json};

/// What one request must produce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// `None` for `ok:true`, else the wire error code.
    pub code: Option<&'static str>,
    /// The `script` field a successful `save` carries.
    pub script: Option<String>,
}

impl Outcome {
    fn ok() -> Outcome {
        Outcome::default()
    }

    fn err(code: &'static str) -> Outcome {
        Outcome {
            code: Some(code),
            script: None,
        }
    }
}

/// Why a response is not a success.
#[derive(Debug)]
pub enum Fault {
    /// The server refused or could not serve the request (`overloaded`,
    /// `shutting_down`, `internal`): a failure, but not a wrong answer.
    Refused(String),
    /// The response disagrees with the mirror.
    Mismatch(String),
}

impl Outcome {
    /// Hold a response frame to this expectation: the same ok/error
    /// code, and for `save` the same script text.
    pub fn check(&self, response: &Json) -> Result<(), Fault> {
        let ok = response.get("ok").and_then(Json::as_bool);
        let code = if ok == Some(true) {
            None
        } else {
            Some(error_code(response).unwrap_or("<malformed>"))
        };
        if let Some(c @ ("overloaded" | "shutting_down" | "internal")) = code {
            return Err(Fault::Refused(c.to_owned()));
        }
        if code != self.code {
            return Err(Fault::Mismatch(format!(
                "expected {:?}, got {}",
                self.code,
                response.encode()
            )));
        }
        if let Some(expected) = &self.script {
            if response.get("script").and_then(Json::as_str) != Some(expected.as_str()) {
                return Err(Fault::Mismatch(
                    "save text differs from the mirror's".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Engine-state counts of one closed session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClosedCounts {
    /// Facts recorded by the object assertion engine.
    pub facts: u64,
    /// Pinned pairs that were derived rather than asserted.
    pub derived: u64,
}

/// Mirror sessions, addressed by the slot a plan step names.
#[derive(Default)]
pub struct Mirror {
    slots: Vec<Option<Session>>,
    /// Pairs returned by every `candidates` call so far.
    pub candidate_pairs: u64,
    /// `candidates` calls so far.
    pub candidate_calls: u64,
    /// Engine counts of each session at its `close`.
    pub closed: Vec<ClosedCounts>,
}

fn core_code(e: &CoreError) -> &'static str {
    match e {
        CoreError::Conflict(_) => "conflict",
        _ => "core",
    }
}

impl Mirror {
    /// Empty mirror.
    pub fn new() -> Mirror {
        Mirror::default()
    }

    /// The session in `slot`, if open.
    pub fn session(&self, slot: usize) -> Option<&Session> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    fn slot(&mut self, slot: usize) -> Option<&mut Session> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    fn put(&mut self, slot: usize, session: Session) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(session);
    }

    /// Apply `request` to the session in `slot` (the slot `open`/`load`
    /// create, or the one a session verb addresses) and return what the
    /// server must answer.
    pub fn apply(&mut self, request: &Request, slot: usize, tracer: &Tracer) -> Outcome {
        match request {
            Request::Open => {
                self.put(slot, Session::new());
                Outcome::ok()
            }
            Request::Load { script: text } => {
                let loaded = {
                    let _span = tracer.span("core.script.load");
                    script::load(text)
                };
                match loaded {
                    Ok(session) => {
                        self.put(slot, session);
                        Outcome::ok()
                    }
                    Err(e) => Outcome::err(core_code(&e)),
                }
            }
            Request::Close { .. } => {
                if let Some(Some(s)) = self.slots.get_mut(slot).map(Option::take) {
                    let engine = s.object_engine();
                    self.closed.push(ClosedCounts {
                        facts: engine.fact_count() as u64,
                        derived: engine.derived_only().len() as u64,
                    });
                }
                Outcome::ok()
            }
            _ => {
                let Some(s) = self.slot(slot) else {
                    return Outcome::err("unknown_session");
                };
                let mut pairs = None;
                let outcome = apply_session(s, request, tracer, &mut pairs);
                if let Some(n) = pairs {
                    self.candidate_calls += 1;
                    self.candidate_pairs += n as u64;
                }
                outcome
            }
        }
    }
}

/// One session verb; `candidates` reports its pair count through
/// `pairs`.
fn apply_session(
    s: &mut Session,
    request: &Request,
    tracer: &Tracer,
    pairs: &mut Option<usize>,
) -> Outcome {
    let result: Result<Outcome, &'static str> = (|| match request {
        Request::Save { .. } => {
            let text = {
                let _span = tracer.span("core.script.save");
                script::save(s)
            };
            Ok(Outcome {
                code: None,
                script: Some(text),
            })
        }
        Request::AddSchema { ddl, .. } => {
            let schemas = {
                let _span = tracer.span("ecr.ddl.parse");
                sit_ecr::ddl::parse_many(ddl)
            }
            .map_err(|_| "bad_request")?;
            if schemas.is_empty() {
                return Err("bad_request");
            }
            for schema in schemas {
                let _span = tracer.span("core.session.add_schema");
                s.add_schema(schema).map_err(|e| core_code(&e))?;
            }
            Ok(Outcome::ok())
        }
        Request::Equiv { a, b, .. } => {
            let (sa, oa, aa) = attr_path(a)?;
            let (sb, ob, ab) = attr_path(b)?;
            let _span = tracer.span("core.session.declare_equivalent");
            s.declare_equivalent_named(sa, oa, aa, sb, ob, ab)
                .map_err(|e| core_code(&e))?;
            Ok(Outcome::ok())
        }
        Request::Candidates { a, b, .. } => {
            let (sa, sb) = (schema_id(s, a)?, schema_id(s, b)?);
            let ranked = {
                let _span = tracer.span("core.session.candidates");
                s.candidates(sa, sb)
            };
            *pairs = Some(ranked.len());
            black_box(ranked);
            Ok(Outcome::ok())
        }
        Request::Assert {
            a, b, assertion, ..
        } => {
            let ga = object_path(s, a)?;
            let gb = object_path(s, b)?;
            let _span = tracer.span("core.session.assert_objects");
            black_box(
                s.assert_objects(ga, gb, *assertion)
                    .map_err(|e| core_code(&e))?,
            );
            Ok(Outcome::ok())
        }
        Request::Matrix { a, b, .. } => {
            let (sa, sb) = (schema_id(s, a)?, schema_id(s, b)?);
            let _span = tracer.span("core.session.assertion_matrix");
            black_box(s.assertion_matrix(sa, sb));
            Ok(Outcome::ok())
        }
        Request::Integrate {
            a,
            b,
            pull_up,
            mappings,
            ..
        } => {
            let (sa, sb) = (schema_id(s, a)?, schema_id(s, b)?);
            let options = IntegrationOptions {
                pull_up_common_attrs: *pull_up,
                ..Default::default()
            };
            if *mappings {
                let (integrated, maps) = {
                    let _span = tracer.span("core.session.integrate");
                    s.integrate_with_mappings(sa, sb, &options)
                }
                .map_err(|e| core_code(&e))?;
                let _span = tracer.span("ecr.render");
                black_box((sit_ecr::render::render(&integrated.schema), maps.describe()));
            } else {
                let integrated = {
                    let _span = tracer.span("core.session.integrate");
                    s.integrate(sa, sb, &options)
                }
                .map_err(|e| core_code(&e))?;
                let _span = tracer.span("ecr.render");
                black_box(sit_ecr::render::render(&integrated.schema));
            }
            Ok(Outcome::ok())
        }
        // The workloads send no other session verb.
        other => panic!("mirror has no model of `{}`", other.op()),
    })();
    result.unwrap_or_else(Outcome::err)
}

fn schema_id(s: &Session, name: &str) -> Result<SchemaId, &'static str> {
    s.catalog().by_name(name).ok_or("bad_request")
}

fn attr_path(path: &str) -> Result<(&str, &str, &str), &'static str> {
    let mut it = path.split('.');
    match (it.next(), it.next(), it.next(), it.next()) {
        (Some(s), Some(o), Some(a), None) if !s.is_empty() && !o.is_empty() && !a.is_empty() => {
            Ok((s, o, a))
        }
        _ => Err("bad_request"),
    }
}

fn object_path(s: &Session, path: &str) -> Result<sit_core::catalog::GObj, &'static str> {
    let (schema, object) = path.split_once('.').ok_or("bad_request")?;
    s.object_named(schema, object).map_err(|e| core_code(&e))
}
