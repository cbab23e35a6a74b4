//! The line-delimited JSON wire protocol.
//!
//! One JSON object per `\n`-terminated line, at most
//! [`MAX_LINE_BYTES`] bytes. Requests are either a job description
//! (`{"job": "campaign", ...}`) or a control command
//! (`{"cmd": "ping" | "stats" | "shutdown"}`). Every server line is an
//! event object tagged `"event"`: `hello` on connect, then per job
//! `accepted` → `progress`* / `warning`* → `result`, or `error` for a
//! rejected line. Malformed input never kills the connection — the
//! server answers with a structured `error` event and keeps reading.

use lowvolt_exec::{fnv64, MAX_RETRIES};
use lowvolt_obs::json::{quote, Json};

use crate::jobs::{
    CampaignSpec, Engine, JobError, LintSpec, OptimizeSpec, OptimizeStaTarget, ProfileSpec,
    ProgramSource, SourceSpec, StaSpec,
};

/// Hard cap on one protocol line (request or event), newline excluded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Protocol revision announced in the `hello` event.
pub const PROTO_VERSION: u64 = 1;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a job and stream its events.
    Job(Box<JobRequest>),
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Daemon counter snapshot; answered with `stats`.
    Stats,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// A job description plus its scheduling knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// What to run.
    pub kind: JobKind,
    /// Worker threads (`None` = the daemon's environment default).
    pub threads: Option<usize>,
    /// Campaign shard size / optimize tile size override.
    pub shard_items: Option<usize>,
}

/// The five job kinds and their specs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Stuck-at fault campaign.
    Campaign(CampaignSpec),
    /// V_DD/V_T design-space sweep.
    Optimize(OptimizeSpec),
    /// Low-voltage design lint.
    Lint(LintSpec),
    /// Static timing analysis.
    Sta(StaSpec),
    /// ISA-level program profile.
    Profile(ProfileSpec),
}

impl JobKind {
    /// The job kind's wire name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Campaign(_) => "campaign",
            JobKind::Optimize(_) => "optimize",
            JobKind::Lint(_) => "lint",
            JobKind::Sta(_) => "sta",
            JobKind::Profile(_) => "profile",
        }
    }
}

impl JobRequest {
    /// A stable identity for the job: the FNV-1a hash of a canonical
    /// encoding of everything that affects the result payload (kind,
    /// source, knobs, thread count — but *not* `shard_items`, which
    /// only changes progress granularity). Resubmitting the same job
    /// after a daemon restart therefore maps to the same journal file
    /// and resumes instead of recomputing.
    #[must_use]
    pub fn id(&self) -> u64 {
        fnv64(self.canonical().as_bytes())
    }

    fn canonical(&self) -> String {
        let source = |s: &SourceSpec| match s {
            SourceSpec::Builtin => "builtin".to_string(),
            SourceSpec::Netlist { path } => format!("netlist:{path}"),
            SourceSpec::Generate {
                gates,
                seed,
                inputs,
                dff_fraction,
            } => format!("generate:{gates}:{seed}:{inputs:?}:{dff_fraction:?}"),
        };
        let body = match &self.kind {
            JobKind::Campaign(c) => format!(
                "campaign|{}|w={}|v={}|seed={}|engine={:?}|retries={}|timeout={:?}",
                source(&c.source),
                c.width,
                c.vectors,
                c.seed,
                c.engine,
                c.max_retries,
                c.item_timeout_ms
            ),
            JobKind::Optimize(o) => format!(
                "optimize|delay={}|mhz={}|activity={}|sta={}",
                o.delay_ps,
                o.throughput_mhz,
                o.activity,
                o.sta.as_ref().map_or("none".to_string(), |s| format!(
                    "{}|{}|w={}",
                    source(&s.source),
                    s.circuit,
                    s.width
                ))
            ),
            JobKind::Lint(l) => format!(
                "lint|{}|fixture={:?}|circuit={}|w={}|json={}|allow={:?}|deny={:?}|budget={:?}",
                source(&l.source),
                l.fixture,
                l.circuit,
                l.width,
                l.json,
                l.allow,
                l.deny,
                l.leakage_budget_uw
            ),
            JobKind::Sta(s) => format!(
                "sta|{}|circuit={}|w={}|vdd={:?}|vt={:?}|req={:?}|json={}",
                source(&s.source),
                s.circuit,
                s.width,
                s.vdd,
                s.vt,
                s.required_ps,
                s.json
            ),
            JobKind::Profile(p) => {
                let src = match &p.source {
                    ProgramSource::Example(name) => format!("example:{name}"),
                    ProgramSource::Text(text) => format!("text:{:016x}", fnv64(text.as_bytes())),
                };
                format!(
                    "profile|{src}|budget={}|hyst={}|duty={:?}|blocks={}",
                    p.budget, p.hysteresis, p.duty, p.blocks
                )
            }
        };
        format!("{body}|threads={:?}", self.threads)
    }
}

fn field_u64(v: &Json, key: &str) -> Result<Option<u64>, JobError> {
    match v.get(key) {
        None => Ok(None),
        Some(j) if j.is_null() => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| JobError(format!("`{key}` must be a non-negative integer"))),
    }
}

fn field_f64(v: &Json, key: &str) -> Result<Option<f64>, JobError> {
    match v.get(key) {
        None => Ok(None),
        Some(j) if j.is_null() => Ok(None),
        Some(j) => j
            .as_f64()
            .map(Some)
            .ok_or_else(|| JobError(format!("`{key}` must be a number"))),
    }
}

fn field_str(v: &Json, key: &str) -> Result<Option<String>, JobError> {
    match v.get(key) {
        None => Ok(None),
        Some(j) if j.is_null() => Ok(None),
        Some(j) => j
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| JobError(format!("`{key}` must be a string"))),
    }
}

fn field_bool(v: &Json, key: &str) -> Result<bool, JobError> {
    match v.get(key) {
        None => Ok(false),
        Some(j) if j.is_null() => Ok(false),
        Some(j) => j
            .as_bool()
            .ok_or_else(|| JobError(format!("`{key}` must be a boolean"))),
    }
}

fn parse_source(v: &Json) -> Result<SourceSpec, JobError> {
    let Some(src) = v.get("source") else {
        return Ok(SourceSpec::Builtin);
    };
    if src.is_null() {
        return Ok(SourceSpec::Builtin);
    }
    let kind = field_str(src, "kind")?
        .ok_or_else(|| JobError("`source` needs a `kind` field".to_string()))?;
    match kind.as_str() {
        "builtin" => Ok(SourceSpec::Builtin),
        "netlist" => {
            let path = field_str(src, "path")?
                .ok_or_else(|| JobError("netlist source needs a `path`".to_string()))?;
            Ok(SourceSpec::Netlist { path })
        }
        "generate" => {
            let gates = field_u64(src, "gates")?
                .ok_or_else(|| JobError("generate source needs `gates`".to_string()))?;
            Ok(SourceSpec::Generate {
                gates,
                seed: field_u64(src, "seed")?.unwrap_or(42),
                inputs: field_u64(src, "inputs")?,
                dff_fraction: field_f64(src, "dff_fraction")?,
            })
        }
        other => Err(JobError(format!(
            "unknown source kind `{other}` (builtin, netlist, generate)"
        ))),
    }
}

/// Parses one request line (already length-checked and
/// newline-stripped).
///
/// # Errors
///
/// Malformed JSON, missing tags, unknown job kinds, and mistyped
/// fields all return a message for the `error` event.
pub fn parse_request(line: &str) -> Result<Request, JobError> {
    let v = Json::parse(line).map_err(|e| JobError(e.to_string()))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(JobError("request must be a JSON object".to_string()));
    }
    if let Some(cmd) = field_str(&v, "cmd")? {
        return match cmd.as_str() {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(JobError(format!(
                "unknown command `{other}` (ping, stats, shutdown)"
            ))),
        };
    }
    let Some(job) = field_str(&v, "job")? else {
        return Err(JobError("request needs a `job` or `cmd` field".to_string()));
    };
    let source = parse_source(&v)?;
    let kind = match job.as_str() {
        "campaign" => {
            let mut spec = CampaignSpec::new(source);
            if let Some(w) = field_u64(&v, "width")? {
                spec.width = usize::try_from(w).unwrap_or(usize::MAX);
            }
            if let Some(n) = field_u64(&v, "vectors")? {
                spec.vectors = usize::try_from(n).unwrap_or(usize::MAX);
            }
            if let Some(s) = field_u64(&v, "seed")? {
                spec.seed = s;
            }
            if let Some(e) = field_str(&v, "engine")? {
                spec.engine = Engine::parse(&e)?;
            }
            if let Some(r) = field_u64(&v, "max_retries")? {
                spec.max_retries = u32::try_from(r)
                    .ok()
                    .filter(|&r| r <= MAX_RETRIES)
                    .ok_or_else(|| {
                        JobError(format!(
                            "`max_retries` must be at most {MAX_RETRIES}, got {r}"
                        ))
                    })?;
            }
            spec.item_timeout_ms = field_u64(&v, "item_timeout_ms")?;
            JobKind::Campaign(spec)
        }
        "optimize" => {
            let mut spec = OptimizeSpec::new();
            if let Some(d) = field_f64(&v, "delay_ps")? {
                spec.delay_ps = d;
            }
            if let Some(m) = field_f64(&v, "throughput_mhz")? {
                spec.throughput_mhz = m;
            }
            if let Some(a) = field_f64(&v, "activity")? {
                spec.activity = a;
            }
            if field_bool(&v, "sta")? {
                spec.sta = Some(OptimizeStaTarget {
                    source,
                    circuit: field_str(&v, "circuit")?.unwrap_or_else(|| "adder".to_string()),
                    width: field_u64(&v, "width")?
                        .map_or(8, |w| usize::try_from(w).unwrap_or(usize::MAX)),
                });
            }
            JobKind::Optimize(spec)
        }
        "lint" => {
            let mut spec = LintSpec::new(source);
            spec.fixture = field_str(&v, "fixture")?;
            if let Some(c) = field_str(&v, "circuit")? {
                spec.circuit = c;
            }
            if let Some(w) = field_u64(&v, "width")? {
                spec.width = usize::try_from(w).unwrap_or(usize::MAX);
            }
            spec.json = field_bool(&v, "json")?;
            spec.allow = field_str(&v, "allow")?;
            spec.deny = field_str(&v, "deny")?;
            spec.leakage_budget_uw = field_f64(&v, "leakage_budget_uw")?;
            JobKind::Lint(spec)
        }
        "sta" => {
            let mut spec = StaSpec::new(source);
            if let Some(c) = field_str(&v, "circuit")? {
                spec.circuit = c;
            }
            if let Some(w) = field_u64(&v, "width")? {
                spec.width = usize::try_from(w).unwrap_or(usize::MAX);
            }
            spec.vdd = field_f64(&v, "vdd")?;
            spec.vt = field_f64(&v, "vt")?;
            spec.required_ps = field_f64(&v, "required_ps")?;
            spec.json = field_bool(&v, "json")?;
            JobKind::Sta(spec)
        }
        "profile" => {
            let program = if let Some(example) = field_str(&v, "example")? {
                ProgramSource::Example(example)
            } else if let Some(text) = field_str(&v, "text")? {
                ProgramSource::Text(text)
            } else if let Some(path) = field_str(&v, "path")? {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| JobError(format!("cannot read {path}: {e}")))?;
                ProgramSource::Text(text)
            } else {
                return Err(JobError(
                    "profile job needs `example`, `text`, or `path`".to_string(),
                ));
            };
            let mut spec = ProfileSpec::new(program);
            if let Some(b) = field_u64(&v, "budget")? {
                spec.budget = b;
            }
            if let Some(h) = field_u64(&v, "hysteresis")? {
                spec.hysteresis = h;
            }
            spec.duty = field_f64(&v, "duty")?;
            spec.blocks = field_bool(&v, "blocks")?;
            JobKind::Profile(spec)
        }
        other => {
            return Err(JobError(format!(
                "unknown job kind `{other}` (campaign, optimize, lint, sta, profile)"
            )))
        }
    };
    Ok(Request::Job(Box::new(JobRequest {
        kind,
        threads: field_u64(&v, "threads")?.map(|t| usize::try_from(t).unwrap_or(usize::MAX)),
        shard_items: field_u64(&v, "shard_items")?
            .map(|s| usize::try_from(s).unwrap_or(usize::MAX)),
    })))
}

/// The `hello` event sent on connect.
#[must_use]
pub fn hello_event() -> String {
    format!("{{\"event\":\"hello\",\"service\":\"lowvolt-serve\",\"proto\":{PROTO_VERSION}}}")
}

/// The `accepted` event acknowledging a job line.
#[must_use]
pub fn accepted_event(id: u64, kind: &str) -> String {
    format!(
        "{{\"event\":\"accepted\",\"id\":\"{id:016x}\",\"kind\":{}}}",
        quote(kind)
    )
}

/// A `progress` event: work units done/total (journal items for a
/// campaign, grid tiles for an optimize sweep) plus a counter snapshot
/// (non-zero catalog counters only).
#[must_use]
pub fn progress_event(id: u64, done: u64, total: u64, counters: &str) -> String {
    format!(
        "{{\"event\":\"progress\",\"id\":\"{id:016x}\",\"done\":{done},\"total\":{total},\"counters\":{counters}}}"
    )
}

/// A `warning` event carrying a non-payload diagnostic.
#[must_use]
pub fn warning_event(id: u64, message: &str) -> String {
    format!(
        "{{\"event\":\"warning\",\"id\":\"{id:016x}\",\"message\":{}}}",
        quote(message)
    )
}

/// The final `result` event: status, journal accounting, the payload
/// (byte-identical to the CLI report), and the job's full metrics
/// report.
#[must_use]
pub fn result_event(
    id: u64,
    status: &str,
    replayed: u64,
    computed: u64,
    journal_records: u64,
    payload: &str,
    metrics: &str,
) -> String {
    format!(
        "{{\"event\":\"result\",\"id\":\"{id:016x}\",\"status\":{},\"replayed\":{replayed},\"computed\":{computed},\"journal_records\":{journal_records},\"payload\":{},\"metrics\":{metrics}}}",
        quote(status),
        quote(payload)
    )
}

/// An `error` event for a rejected request line.
#[must_use]
pub fn error_event(message: &str) -> String {
    format!("{{\"event\":\"error\",\"message\":{}}}", quote(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_job_kind() {
        let r = parse_request(
            "{\"job\":\"campaign\",\"width\":2,\"vectors\":4,\"engine\":\"compiled\",\"threads\":2}",
        )
        .unwrap();
        let Request::Job(job) = r else {
            panic!("expected job")
        };
        assert_eq!(job.kind.name(), "campaign");
        assert_eq!(job.threads, Some(2));
        let JobKind::Campaign(spec) = &job.kind else {
            panic!("expected campaign")
        };
        assert_eq!(spec.engine, Engine::Compiled);
        assert_eq!((spec.width, spec.vectors), (2, 4));

        for (line, kind) in [
            ("{\"job\":\"optimize\",\"delay_ps\":150}", "optimize"),
            ("{\"job\":\"lint\",\"circuit\":\"adder\"}", "lint"),
            ("{\"job\":\"sta\",\"json\":true}", "sta"),
            ("{\"job\":\"profile\",\"example\":\"idea\"}", "profile"),
        ] {
            let Request::Job(job) = parse_request(line).unwrap() else {
                panic!("expected job for {line}")
            };
            assert_eq!(job.kind.name(), kind, "{line}");
        }
    }

    #[test]
    fn parses_sources() {
        let netlist = parse_request(
            "{\"job\":\"sta\",\"source\":{\"kind\":\"netlist\",\"path\":\"x.blif\"}}",
        )
        .unwrap();
        let Request::Job(job) = netlist else { panic!() };
        let JobKind::Sta(spec) = &job.kind else {
            panic!()
        };
        assert_eq!(
            spec.source,
            SourceSpec::Netlist {
                path: "x.blif".to_string()
            }
        );
        let gen = parse_request(
            "{\"job\":\"campaign\",\"source\":{\"kind\":\"generate\",\"gates\":100,\"seed\":7}}",
        )
        .unwrap();
        let Request::Job(job) = gen else { panic!() };
        let JobKind::Campaign(spec) = &job.kind else {
            panic!()
        };
        assert_eq!(
            spec.source,
            SourceSpec::Generate {
                gates: 100,
                seed: 7,
                inputs: None,
                dff_fraction: None
            }
        );
        let err = parse_request("{\"job\":\"sta\",\"source\":{\"kind\":\"quantum\"}}").unwrap_err();
        assert!(err.0.contains("unknown source kind"), "{err}");
    }

    #[test]
    fn commands_and_errors() {
        assert_eq!(parse_request("{\"cmd\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request("{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats
        );
        let err = parse_request("{\"job\":\"mine-bitcoin\"}").unwrap_err();
        assert!(err.0.contains("unknown job kind"), "{err}");
        let err = parse_request("not json at all").unwrap_err();
        assert!(err.0.contains("invalid JSON"), "{err}");
        let err = parse_request("[1,2,3]").unwrap_err();
        assert!(err.0.contains("JSON object"), "{err}");
        let err = parse_request("{\"neither\":true}").unwrap_err();
        assert!(err.0.contains("`job` or `cmd`"), "{err}");
        let err = parse_request("{\"job\":\"campaign\",\"vectors\":\"many\"}").unwrap_err();
        assert!(err.0.contains("non-negative integer"), "{err}");
    }

    #[test]
    fn max_retries_is_capped_not_saturated() {
        let retries = |r: u64| match parse_request(&format!(
            "{{\"job\":\"campaign\",\"max_retries\":{r}}}"
        )) {
            Ok(Request::Job(job)) => match job.kind {
                JobKind::Campaign(spec) => Ok(spec.max_retries),
                other => panic!("expected campaign, got {other:?}"),
            },
            Ok(other) => panic!("expected job, got {other:?}"),
            Err(e) => Err(e.0),
        };
        assert_eq!(retries(u64::from(MAX_RETRIES)), Ok(MAX_RETRIES));
        for r in [u64::from(MAX_RETRIES) + 1, 1 << 32, (1 << 32) + 1] {
            assert_eq!(
                retries(r),
                Err(format!("`max_retries` must be at most 16, got {r}"))
            );
        }
    }

    #[test]
    fn job_id_ignores_shard_items_but_not_threads() {
        let base = parse_request("{\"job\":\"campaign\",\"threads\":2,\"shard_items\":5}");
        let resharded = parse_request("{\"job\":\"campaign\",\"threads\":2,\"shard_items\":50}");
        let rethreaded = parse_request("{\"job\":\"campaign\",\"threads\":4,\"shard_items\":5}");
        let id = |r: Result<Request, JobError>| match r.unwrap() {
            Request::Job(j) => j.id(),
            _ => panic!("expected job"),
        };
        let (a, b, c) = (id(base), id(resharded), id(rethreaded));
        assert_eq!(a, b, "shard size must not change the job identity");
        assert_ne!(a, c, "thread count changes the payload header");
    }

    /// Quote, backslash, every C0 control, non-ASCII and astral text.
    fn hostile() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        vec![
            String::new(),
            "tail \"quoted\"\ndiscarded".into(),
            "back\\slash".into(),
            controls,
            "ünïcödé 𝄞😀\u{10FFFF}".into(),
        ]
    }

    #[test]
    fn events_are_single_line_parsable_json() {
        let metrics = {
            let reg = lowvolt_obs::MetricsRegistry::new();
            lowvolt_obs::Recorder::record_nanos(&reg, "job.\"run\"\n", 1_234);
            reg.snapshot().to_json().replace('\n', "")
        };
        for s in hostile() {
            let events = [
                (accepted_event(7, &s), "kind"),
                (warning_event(7, &s), "message"),
                (result_event(7, &s, 1, 2, 3, &s, &metrics), "status"),
                (result_event(7, "ok", 1, 2, 3, &s, &metrics), "payload"),
                (error_event(&s), "message"),
            ];
            for (line, field) in events {
                assert!(!line.contains('\n'), "events must be single lines: {line}");
                let v = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
                assert!(v.get("event").is_some(), "{line}");
                assert_eq!(
                    v.get(field).and_then(Json::as_str),
                    Some(s.as_str()),
                    "{line}"
                );
            }
        }
        let result = Json::parse(&result_event(9, "ok", 1, 2, 3, "p", &metrics)).unwrap();
        assert_eq!(
            result.get("id").and_then(Json::as_str),
            Some("0000000000000009")
        );
        for (key, n) in [("replayed", 1), ("computed", 2), ("journal_records", 3)] {
            assert_eq!(result.get(key).and_then(Json::as_u64), Some(n), "{key}");
        }
        let spans = result.get("metrics").and_then(|m| m.get("spans")).unwrap();
        let name = spans.as_array().unwrap()[0]
            .get("name")
            .and_then(Json::as_str);
        assert_eq!(name, Some("job.\"run\"\n"));
        assert!(!hello_event().contains('\n'));
        assert!(!progress_event(7, 3, 10, "{}").contains('\n'));
        let hello = Json::parse(&hello_event()).unwrap();
        assert_eq!(
            hello.get("proto").and_then(Json::as_u64),
            Some(PROTO_VERSION)
        );
        let progress = Json::parse(&progress_event(7, 3, 10, "{\"exec.items\":4}")).unwrap();
        assert_eq!(progress.get("done").and_then(Json::as_u64), Some(3));
        let items = progress.get("counters").and_then(|c| c.get("exec.items"));
        assert_eq!(items.and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn a_max_size_request_line_decodes_in_linear_time() {
        // A profile job whose program text fills the whole line, mixing
        // plain ASCII, multi-byte UTF-8 and escapes.
        let unit = "mov r1, r2 ; é𝄞 \\n\\t\\u00e9\\\"";
        let head = "{\"job\":\"profile\",\"text\":\"";
        let fill = (MAX_LINE_BYTES - head.len() - 2) / unit.len();
        let mut line = format!("{head}{}", unit.repeat(fill));
        line.push_str(&" ".repeat(MAX_LINE_BYTES - 2 - line.len()));
        line.push_str("\"}");
        assert_eq!(line.len(), MAX_LINE_BYTES);
        let start = std::time::Instant::now();
        let request = parse_request(&line).unwrap();
        let elapsed = start.elapsed();
        let Request::Job(job) = request else {
            panic!("expected job")
        };
        let JobKind::Profile(spec) = &job.kind else {
            panic!("expected profile")
        };
        let ProgramSource::Text(text) = &spec.source else {
            panic!("expected program text")
        };
        assert!(
            text.starts_with("mov r1, r2 ; é𝄞 \n\té\"mov"),
            "{:?}",
            &text[..40]
        );
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB request took {elapsed:?}"
        );
    }

    /// Characters that steer a decoder into its edge cases.
    const NASTY: &[char] = &[
        '{', '}', '[', ']', '"', '\\', ':', ',', 'u', 'd', '8', 'e', '-', '.', '0', '9', 'n', 't',
        'f', ' ', '\n', '\u{1}', 'é', '😀',
    ];

    const VALID_LINES: &[&str] = &[
        "{\"job\":\"campaign\",\"width\":2,\"vectors\":4,\"engine\":\"compiled\",\"threads\":2}",
        "{\"job\":\"sta\",\"source\":{\"kind\":\"generate\",\"gates\":100,\"seed\":7},\"vdd\":0.9,\"json\":true}",
        "{\"job\":\"lint\",\"fixture\":\"sleep\",\"allow\":\"LV040\",\"leakage_budget_uw\":1.5e1}",
        "{\"job\":\"optimize\",\"delay_ps\":150,\"sta\":true,\"circuit\":\"adder\"}",
        "{\"job\":\"profile\",\"text\":\"a\\u00e9\\ud83d\\ude00\\n\",\"duty\":null}",
        "{\"cmd\":\"ping\"}",
    ];

    /// The decoder's contract on one line: no panic, a typed error
    /// inside the input, and a value that survives re-encoding.
    fn check_decoder(line: &str) -> Result<(), proptest::TestCaseError> {
        let request = parse_request(line);
        match Json::parse(line) {
            Ok(v) => prop_assert_eq!(Json::parse(&v.to_string()), Ok(v)),
            Err(e) => {
                prop_assert!(e.at <= line.len(), "{e} past the end of {line:?}");
                prop_assert_eq!(request.unwrap_err().0, e.to_string());
            }
        }
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_strings_never_panic_the_decoder(
            picks in prop::collection::vec(any::<u64>(), 0..48)
        ) {
            // Three in four characters come from the syntax pool, the
            // rest are any Unicode scalar.
            let line: String = picks
                .iter()
                .map(|&r| match r % 4 {
                    0 => char::from_u32((r >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                    _ => NASTY[(r >> 2) as usize % NASTY.len()],
                })
                .collect();
            check_decoder(&line)?;
        }

        #[test]
        fn mutated_request_lines_never_panic_the_decoder(
            base in 0usize..VALID_LINES.len(),
            edits in prop::collection::vec(any::<u64>(), 1..6)
        ) {
            let mut chars: Vec<char> = VALID_LINES[base].chars().collect();
            for r in edits {
                let at = (r >> 16) as usize % (chars.len() + 1);
                let c = NASTY[(r >> 2) as usize % NASTY.len()];
                match r % 3 {
                    0 => chars.insert(at, c),
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ if at < chars.len() => chars[at] = c,
                    _ => chars.push(c),
                }
            }
            let line: String = chars.into_iter().collect();
            check_decoder(&line)?;
        }
    }
}
