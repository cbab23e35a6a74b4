//! The immutable metrics snapshot and its JSON rendering.

use crate::json::{fixed, quote};
use crate::names;
use std::fmt::Write as _;

/// Aggregated wall-clock stats for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// The dotted span name.
    pub name: String,
    /// Completed spans under this name (deterministic across threads).
    pub count: u64,
    /// Total wall time in nanoseconds (not deterministic).
    pub total_nanos: u64,
    /// Shortest single span in nanoseconds.
    pub min_nanos: u64,
    /// Longest single span in nanoseconds.
    pub max_nanos: u64,
}

impl SpanStat {
    /// Total wall time in milliseconds.
    #[must_use]
    pub fn wall_ms(&self) -> f64 {
        self.total_nanos as f64 / 1e6
    }
}

/// A point-in-time snapshot of a [`MetricsRegistry`](crate::MetricsRegistry):
/// the full counter catalog plus every span name that completed at least
/// once, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    pub(crate) counters: Vec<(&'static str, u64)>,
    pub(crate) spans: Vec<SpanStat>,
}

impl MetricsReport {
    /// All counters in catalog order (the full catalog, zeros included).
    #[must_use]
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All spans, sorted by name.
    #[must_use]
    pub fn spans(&self) -> &[SpanStat] {
        &self.spans
    }

    /// The value of one counter (0 for names outside the catalog).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The stats for one span name, if it completed at least once.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the report as JSON with a fixed key order: the complete
    /// counter catalog (catalog order), then spans (name order) with
    /// `count` and `wall_ms`, then derived throughput figures when an
    /// `exec.region` span exists. All numeric noise lives in `wall_ms`,
    /// `tasks_per_sec`, and `busy_workers`; everything else is equal
    /// across runs and thread counts of a deterministic workload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n    {}: {value}", quote(name));
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"count\": {}, \"wall_ms\": {}}}",
                quote(&s.name),
                s.count,
                fixed(s.wall_ms(), 3)
            );
        }
        if self.spans.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        if let Some(region) = self.span(names::SPAN_EXEC_REGION) {
            let secs = region.total_nanos as f64 / 1e9;
            let tasks_per_sec = if secs > 0.0 {
                self.counter(names::EXEC_ITEMS) as f64 / secs
            } else {
                0.0
            };
            let busy_workers = if region.total_nanos > 0 {
                self.span(names::SPAN_EXEC_WORKER)
                    .map_or(0.0, |w| w.total_nanos as f64 / region.total_nanos as f64)
            } else {
                0.0
            };
            let _ = write!(
                out,
                ",\n  \"derived\": {{\"tasks_per_sec\": {}, \"busy_workers\": {}}}",
                fixed(tasks_per_sec, 3),
                fixed(busy_workers, 3)
            );
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{quote, Json};
    use crate::{span, MetricsRegistry, Recorder};

    /// The parsed report with its wall-clock values removed: what two
    /// runs of one deterministic workload must agree on.
    fn without_timings(json: &str) -> Json {
        let mut v = Json::parse(json).unwrap();
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "derived");
            for (_, spans) in fields.iter_mut().filter(|(k, _)| k == "spans") {
                let Json::Arr(spans) = spans else {
                    panic!("spans")
                };
                for span in spans {
                    let Json::Obj(f) = span else { panic!("span") };
                    f.retain(|(k, _)| k != "wall_ms");
                }
            }
        }
        v
    }

    #[test]
    fn json_contains_full_catalog_and_parses_shape() {
        let reg = MetricsRegistry::new();
        reg.add(names::SIM_EVENTS_PROCESSED, 11);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"sim.events.processed\": 11"));
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        let v = Json::parse(&json).unwrap();
        let Some(Json::Obj(counters)) = v.get("counters") else {
            panic!("counters object in {json}")
        };
        let keys: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, names::COUNTERS, "full catalog, catalog order");
        for (name, value) in counters {
            let expected = u64::from(name == names::SIM_EVENTS_PROCESSED) * 11;
            assert_eq!(value.as_u64(), Some(expected), "{name}");
        }
        assert_eq!(v.get("spans").and_then(Json::as_array), Some(&[][..]));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn spans_render_count_and_wall_ms() {
        let reg = MetricsRegistry::new();
        reg.record_nanos("cli.sim", 2_500_000);
        let json = reg.snapshot().to_json();
        assert!(json.contains("{\"name\": \"cli.sim\", \"count\": 1, \"wall_ms\": 2.500}"));
    }

    #[test]
    fn empty_report_has_empty_span_list_and_no_derived_block() {
        let json = MetricsRegistry::new().snapshot().to_json();
        assert!(json.contains("\"spans\": []"));
        assert!(!json.contains("\"derived\""));
    }

    #[test]
    fn derived_block_appears_with_exec_region() {
        let reg = MetricsRegistry::new();
        reg.add(names::EXEC_ITEMS, 500);
        reg.record_nanos(names::SPAN_EXEC_REGION, 1_000_000_000);
        reg.record_nanos(names::SPAN_EXEC_WORKER, 3_000_000_000);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"tasks_per_sec\": 500.000"));
        assert!(json.contains("\"busy_workers\": 3.000"));
    }

    #[test]
    fn normalize_timings_masks_only_wall_clock_fields() {
        let reg = MetricsRegistry::new();
        reg.add(names::SIM_HEAP_PUSHES, 42);
        reg.add(names::EXEC_ITEMS, 10);
        reg.record_nanos("sim.settle", 123_456_789);
        reg.record_nanos(names::SPAN_EXEC_REGION, 55_000);
        reg.record_nanos(names::SPAN_EXEC_WORKER, 44_000);
        let masked = without_timings(&reg.snapshot().to_json());
        let counters = masked.get("counters").unwrap();
        assert_eq!(
            counters.get("sim.heap.pushes").and_then(Json::as_u64),
            Some(42),
            "counters kept"
        );
        let spans = masked.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 3, "every span kept");
        for s in spans {
            assert_eq!(
                s.get("count").and_then(Json::as_u64),
                Some(1),
                "span counts kept"
            );
            assert!(s.get("wall_ms").is_none(), "wall clock masked");
        }
        assert!(masked.get("derived").is_none());
        assert!(!masked.to_string().contains("123"), "raw duration gone");
    }

    #[test]
    fn normalized_reports_are_byte_identical_across_runs() {
        let run = |nanos: u64| {
            let reg = MetricsRegistry::new();
            reg.add(names::SIM_EVENTS_PROCESSED, 1000);
            reg.record_nanos("sim.settle", nanos);
            reg.record_nanos(names::SPAN_EXEC_REGION, nanos / 2);
            reg.record_nanos(names::SPAN_EXEC_WORKER, nanos / 3);
            reg.snapshot().to_json()
        };
        let (slow, fast) = (run(123_456_789), run(55_000));
        assert_ne!(slow, fast);
        assert_eq!(
            without_timings(&slow).to_string(),
            without_timings(&fast).to_string()
        );
    }

    #[test]
    fn reports_round_trip_with_hostile_span_names() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let hostile = [
            "q\"uote",
            "back\\slash",
            controls.as_str(),
            "ünïcödé",
            "astral 𝄞😀\u{10FFFF}",
        ];
        let reg = MetricsRegistry::new();
        for (i, name) in hostile.iter().enumerate() {
            reg.record_nanos(name, 1_000 * (i as u64 + 1));
            let _s = span(&reg, "sim.settle");
        }
        reg.record_nanos(names::SPAN_EXEC_REGION, 0);
        let report = reg.snapshot();
        let v = Json::parse(&report.to_json()).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        let spans = v.get("spans").and_then(Json::as_array).unwrap();
        let decoded: Vec<&str> = spans
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let expected: Vec<&str> = report.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(decoded, expected);
        for name in hostile {
            assert!(decoded.contains(&name), "{name:?}");
        }
        let derived = v.get("derived").unwrap();
        assert_eq!(
            derived.get("tasks_per_sec").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(
            quote("a\"b\\c\nd\te\u{1}").to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn wall_ms_converts_nanos() {
        let s = SpanStat {
            name: "x".into(),
            count: 1,
            total_nanos: 1_500_000,
            min_nanos: 1_500_000,
            max_nanos: 1_500_000,
        };
        assert!((s.wall_ms() - 1.5).abs() < 1e-12);
    }
}
