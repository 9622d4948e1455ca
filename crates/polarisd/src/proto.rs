//! The `polarisd/v1` JSON-lines wire protocol.
//!
//! One request per line in, one response per line out, over stdin/stdout
//! or a TCP connection. The JSON value, parser, printer and escaping are
//! the workspace's shared ones ([`polaris_obs::json`]); this module maps
//! them onto the request/response schema.
//!
//! Request:
//!
//! ```json
//! {"id": 7, "client": "ci", "config": "polaris", "deadline_ms": 250,
//!  "return_program": false, "source": "program t\n...\nend\n"}
//! ```
//!
//! `id` and `source` are required; `client` defaults to `"anon"`,
//! `config` to `"polaris"` (the only other value is `"vfa"`). `id` is an
//! integer in `0 ..= 2^53 - 1`, the integers a JSON number parses to
//! exactly; a larger one is rejected, never answered under a neighbour.
//!
//! Response (fields absent when not applicable):
//!
//! ```json
//! {"schema": "polarisd/v1", "id": 7, "status": "ok", "exit_code": 0,
//!  "attempts": 1, "cached": false, "checksum": "fnv1a:…",
//!  "run_checksum": null, "parallel_loops": 3, "degraded_stages": [],
//!  "reason": null, "retry_after_ms": null, "program": null}
//! ```
//!
//! Exit-code mapping (mirrors `polarisc`):
//!
//! | status | exit code |
//! |---|---|
//! | `ok`, `cached` | 0 |
//! | `degraded`, `timeout`, `quarantined`, `rejected`, `error` | 1 |
//! | `degraded` with invariant violations | 2 |

pub use polaris_obs::json::Json;
use std::fmt;

/// FNV-1a over raw bytes — the same checksum family the bench documents
/// use for output fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Render a checksum the way the bench documents do (`fnv1a:%016x`).
pub fn checksum_str(h: u64) -> String {
    format!("fnv1a:{h:016x}")
}

/// Response classification, ordered by the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Clean compile, full pipeline, zero violations.
    Ok,
    /// Served from the content-hash cache (integrity-checked on read).
    Cached,
    /// Compile finished with at least one stage rolled back (including
    /// deadline cancellation of the remaining stages).
    Degraded,
    /// The request's deadline passed before a compile could even start.
    Timeout,
    /// Circuit breaker is open for this unit: served last diagnostics
    /// without touching the pipeline.
    Quarantined,
    /// Not compiled: shed by admission control, dropped at shutdown, or
    /// retries exhausted with nothing cached to serve.
    Rejected,
    /// Deterministic failure (parse/semantic error). Never retried.
    Error,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Cached => "cached",
            Status::Degraded => "degraded",
            Status::Timeout => "timeout",
            Status::Quarantined => "quarantined",
            Status::Rejected => "rejected",
            Status::Error => "error",
        }
    }

    /// The baseline exit code for this status; a degraded compile with
    /// verifier violations escalates 1 → 2 (the service does this when it
    /// builds the response).
    pub fn exit_code(self) -> u8 {
        match self {
            Status::Ok | Status::Cached => 0,
            _ => 1,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed `polarisd/v1` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub client: String,
    /// `true` = the VFA baseline configuration, else full Polaris.
    pub vfa: bool,
    pub deadline_ms: Option<u64>,
    pub return_program: bool,
    pub source: String,
}

impl Request {
    /// Parse one JSON line. Errors name the offending field.
    pub fn parse(line: &str) -> Result<Request, String> {
        let obj = Json::parse(line)?;
        if obj.as_obj().is_none() {
            return Err("request must be a JSON object".into());
        }
        let id = obj.get("id")
            .and_then(Json::as_u64)
            .ok_or("request needs a numeric `id`")?;
        let source = obj.get("source")
            .and_then(Json::as_str)
            .ok_or("request needs a string `source`")?
            .to_string();
        let client = obj.get("client")
            .and_then(Json::as_str)
            .unwrap_or("anon")
            .to_string();
        let vfa = match obj.get("config").and_then(Json::as_str) {
            None | Some("polaris") => false,
            Some("vfa") => true,
            Some(other) => return Err(format!("unknown `config`: `{other}`")),
        };
        let deadline_ms = match obj.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("`deadline_ms` must be a number")?),
        };
        let return_program = match obj.get("return_program") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`return_program` must be a bool".into()),
        };
        Ok(Request { id, client, vfa, deadline_ms, return_program, source })
    }

    /// Serialize (the client side of the wire).
    pub fn to_json(&self) -> String {
        // The two options are left out when unset.
        let m = [
            Some(("id", Json::Int(self.id))),
            Some(("client", Json::Str(self.client.clone()))),
            Some(("config", Json::Str(if self.vfa { "vfa" } else { "polaris" }.into()))),
            self.deadline_ms.map(|ms| ("deadline_ms", Json::Int(ms))),
            self.return_program.then_some(("return_program", Json::Bool(true))),
            Some(("source", Json::Str(self.source.clone()))),
        ];
        let m = m.into_iter().flatten().map(|(k, v)| (k.into(), v)).collect();
        Json::Inline(Box::new(Json::Obj(m))).to_string()
    }
}

/// A `polarisd/v1` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub id: u64,
    pub status: Status,
    pub exit_code: u8,
    /// Compile attempts spent on this request (0 for cache hits, shed,
    /// quarantine, and queue timeouts).
    pub attempts: u32,
    pub cached: bool,
    /// FNV-1a of the unparsed transformed program, when one was produced.
    pub checksum: Option<u64>,
    /// FNV-1a of the program's printed output when the service executed
    /// it ([`ServiceConfig::exec_engine`] set and the compile was clean).
    /// Engine-independent: the VM and the tree-walker produce the same
    /// bytes, so the same checksum.
    ///
    /// [`ServiceConfig::exec_engine`]: crate::service::ServiceConfig::exec_engine
    pub run_checksum: Option<u64>,
    pub parallel_loops: Option<u64>,
    /// Rolled-back stage names (or stored breaker diagnostics for
    /// `quarantined`).
    pub degraded_stages: Vec<String>,
    pub reason: Option<String>,
    /// Backoff hint attached to shed/rejected/quarantined responses.
    pub retry_after_ms: Option<u64>,
    /// The annotated program text, when `return_program` was set and a
    /// compile happened.
    pub program: Option<String>,
}

impl Response {
    /// A blank response scaffold for `id` with `status` and its mapped
    /// exit code; callers fill in the fields the path produced.
    pub fn empty(id: u64, status: Status) -> Response {
        Response {
            id,
            status,
            exit_code: status.exit_code(),
            attempts: 0,
            cached: false,
            checksum: None,
            run_checksum: None,
            parallel_loops: None,
            degraded_stages: Vec::new(),
            reason: None,
            retry_after_ms: None,
            program: None,
        }
    }

    pub fn to_json(&self) -> String {
        let sum = |h: Option<u64>| h.map_or(Json::Null, |h| Json::Str(checksum_str(h)));
        let text = |t: &Option<String>| t.clone().map_or(Json::Null, Json::Str);
        let stages = self.degraded_stages.iter().map(|d| Json::Str(d.clone())).collect();
        Json::Inline(Box::new(Json::Obj(vec![
            ("schema".into(), Json::Str("polarisd/v1".into())),
            ("id".into(), Json::Int(self.id)),
            ("status".into(), Json::Str(self.status.as_str().into())),
            ("exit_code".into(), Json::Int(self.exit_code.into())),
            ("attempts".into(), Json::Int(self.attempts.into())),
            ("cached".into(), Json::Bool(self.cached)),
            ("checksum".into(), sum(self.checksum)),
            ("run_checksum".into(), sum(self.run_checksum)),
            ("parallel_loops".into(), self.parallel_loops.map_or(Json::Null, Json::Int)),
            ("degraded_stages".into(), Json::Arr(stages)),
            ("reason".into(), text(&self.reason)),
            ("retry_after_ms".into(), self.retry_after_ms.map_or(Json::Null, Json::Int)),
            ("program".into(), text(&self.program)),
        ])))
        .to_string()
    }

    /// Parse one response line (the client side of the wire).
    pub fn parse(line: &str) -> Result<Response, String> {
        let obj = Json::parse(line)?;
        if obj.as_obj().is_none() {
            return Err("response must be a JSON object".into());
        }
        match obj.get("schema").and_then(Json::as_str) {
            Some("polarisd/v1") => {}
            other => return Err(format!("unknown response schema: {other:?}")),
        }
        let status = match obj.get("status").and_then(Json::as_str) {
            Some("ok") => Status::Ok,
            Some("cached") => Status::Cached,
            Some("degraded") => Status::Degraded,
            Some("timeout") => Status::Timeout,
            Some("quarantined") => Status::Quarantined,
            Some("rejected") => Status::Rejected,
            Some("error") => Status::Error,
            other => return Err(format!("unknown status: {other:?}")),
        };
        let parse_sum = |field: &str| -> Result<Option<u64>, String> {
            match obj.get(field) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => {
                    let s = v.as_str().ok_or(format!("`{field}` must be a string"))?;
                    let hex =
                        s.strip_prefix("fnv1a:").ok_or(format!("{field} must be `fnv1a:…`"))?;
                    Ok(Some(
                        u64::from_str_radix(hex, 16).map_err(|e| format!("bad {field}: {e}"))?,
                    ))
                }
            }
        };
        let checksum = parse_sum("checksum")?;
        let run_checksum = parse_sum("run_checksum")?;
        Ok(Response {
            id: obj.get("id").and_then(Json::as_u64).ok_or("response needs `id`")?,
            status,
            exit_code: obj.get("exit_code")
                .and_then(Json::as_u64)
                .and_then(|code| u8::try_from(code).ok())
                .ok_or("response needs an `exit_code` in 0..=255")?,
            attempts: match obj.get("attempts") {
                None | Some(Json::Null) => 0,
                Some(v) => v
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("`attempts` must be a count below 2^32")?,
            },
            cached: matches!(obj.get("cached"), Some(Json::Bool(true))),
            checksum,
            run_checksum,
            parallel_loops: obj.get("parallel_loops").and_then(Json::as_u64),
            degraded_stages: match obj.get("degraded_stages") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect(),
                _ => Vec::new(),
            },
            reason: obj.get("reason").and_then(Json::as_str).map(str::to_string),
            retry_after_ms: obj.get("retry_after_ms").and_then(Json::as_u64),
            program: obj.get("program").and_then(Json::as_str).map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request {
            id: 42,
            client: "c\"1".into(),
            vfa: true,
            deadline_ms: Some(250),
            return_program: true,
            source: "program t\nend\n".into(),
        };
        let parsed = Request::parse(&req.to_json()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_defaults() {
        let req = Request::parse(r#"{"id": 1, "source": "program t\nend\n"}"#).unwrap();
        assert_eq!(req.client, "anon");
        assert!(!req.vfa && !req.return_program);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn request_rejects_missing_fields_and_bad_config() {
        assert!(Request::parse(r#"{"source": "x"}"#).unwrap_err().contains("id"));
        assert!(Request::parse(r#"{"id": 1}"#).unwrap_err().contains("source"));
        assert!(Request::parse(r#"{"id": 1, "source": "x", "config": "pfa"}"#)
            .unwrap_err()
            .contains("config"));
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn response_round_trip() {
        let resp = Response {
            id: 7,
            status: Status::Degraded,
            exit_code: 1,
            attempts: 3,
            cached: false,
            checksum: Some(0xdeadbeef),
            run_checksum: Some(0xfeedface),
            parallel_loops: Some(2),
            degraded_stages: vec!["dce".into()],
            reason: Some("panic: injected".into()),
            retry_after_ms: Some(30),
            program: Some("program t\nend\n".into()),
        };
        let parsed = Response::parse(&resp.to_json()).unwrap();
        assert_eq!(parsed, resp);
    }

    // The wire's exact bytes: one line, `"key": value` members joined by
    // `", "`, absent values as `null`, absent request options left out.

    #[test]
    fn a_full_response_prints_its_exact_wire_line() {
        let resp = Response {
            id: 7,
            status: Status::Degraded,
            exit_code: 1,
            attempts: 3,
            cached: false,
            checksum: Some(0xdeadbeef),
            run_checksum: Some(0xfeedface),
            parallel_loops: Some(2),
            degraded_stages: vec!["dce".into(), "ti\"le".into()],
            reason: Some("panic: \"injected\"\tat\\x".into()),
            retry_after_ms: Some(30),
            program: Some("program t\nend\n".into()),
        };
        assert_eq!(
            resp.to_json(),
            r#"{"schema": "polarisd/v1", "id": 7, "status": "degraded", "exit_code": 1, "attempts": 3, "cached": false, "checksum": "fnv1a:00000000deadbeef", "run_checksum": "fnv1a:00000000feedface", "parallel_loops": 2, "degraded_stages": ["dce", "ti\"le"], "reason": "panic: \"injected\"\tat\\x", "retry_after_ms": 30, "program": "program t\nend\n"}"#
        );
    }

    #[test]
    fn an_empty_response_prints_nulls_and_an_empty_list() {
        assert_eq!(
            Response::empty(9, Status::Cached).to_json(),
            r#"{"schema": "polarisd/v1", "id": 9, "status": "cached", "exit_code": 0, "attempts": 0, "cached": false, "checksum": null, "run_checksum": null, "parallel_loops": null, "degraded_stages": [], "reason": null, "retry_after_ms": null, "program": null}"#
        );
    }

    #[test]
    fn a_request_prints_its_options_only_when_set() {
        let mut req = Request {
            id: 42,
            client: "c\"1".into(),
            vfa: true,
            deadline_ms: Some(250),
            return_program: true,
            source: "program t\nend\n".into(),
        };
        assert_eq!(
            req.to_json(),
            r#"{"id": 42, "client": "c\"1", "config": "vfa", "deadline_ms": 250, "return_program": true, "source": "program t\nend\n"}"#
        );
        req.vfa = false;
        req.deadline_ms = None;
        req.return_program = false;
        assert_eq!(
            req.to_json(),
            r#"{"id": 42, "client": "c\"1", "config": "polaris", "source": "program t\nend\n"}"#
        );
    }

    /// 2^53 + 1 parses to the `f64` of 2^53: it is rejected, not answered
    /// under its neighbour.
    #[test]
    fn a_request_id_past_2_pow_53_is_rejected_not_rounded() {
        let line = |id: &str| format!(r#"{{"id": {id}, "source": "x"}}"#);
        assert_eq!(Request::parse(&line("9007199254740991")).unwrap().id, (1 << 53) - 1);
        assert!(Request::parse(&line("9007199254740993")).unwrap_err().contains("id"));
    }

    #[test]
    fn a_request_id_past_u64_is_rejected_not_saturated() {
        let err = Request::parse(r#"{"id": 18446744073709551616, "source": "x"}"#).unwrap_err();
        assert!(err.contains("id"), "{err}");
    }

    /// A response line whose member `field`, 0 in an empty response,
    /// reads `value`.
    fn response_with(field: &str, value: &str) -> String {
        let line = Response::empty(1, Status::Ok).to_json();
        let member = format!("\"{field}\": 0");
        assert!(line.contains(&member), "{line}");
        line.replacen(&member, &format!("\"{field}\": {value}"), 1)
    }

    #[test]
    fn an_exit_code_past_u8_is_rejected_not_truncated() {
        assert_eq!(Response::parse(&response_with("exit_code", "255")).unwrap().exit_code, 255);
        let err = Response::parse(&response_with("exit_code", "256")).unwrap_err();
        assert!(err.contains("exit_code"), "{err}");
    }

    #[test]
    fn an_attempt_count_past_u32_is_rejected_not_truncated() {
        let max = Response::parse(&response_with("attempts", "4294967295")).unwrap();
        assert_eq!(max.attempts, u32::MAX);
        let err = Response::parse(&response_with("attempts", "4294967296")).unwrap_err();
        assert!(err.contains("attempts"), "{err}");
    }

    #[test]
    fn exit_code_mapping() {
        assert_eq!(Status::Ok.exit_code(), 0);
        assert_eq!(Status::Cached.exit_code(), 0);
        for s in [Status::Degraded, Status::Timeout, Status::Quarantined, Status::Rejected, Status::Error] {
            assert_eq!(s.exit_code(), 1, "{s}");
        }
    }

    #[test]
    fn checksum_format_matches_bench_documents() {
        assert_eq!(checksum_str(0xab), "fnv1a:00000000000000ab");
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    }
}
