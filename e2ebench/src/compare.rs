//! `lvbench compare`: two `lvbench run --out` files, metric by metric,
//! against the bounds in `BENCHMARK.json`.

use lowvolt_serve::json::Json;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the first value.
    pub bound: f64,
}

/// Reads the `end_to_end` rules from `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a rule without `name`, `better` or `bound`.
pub fn load_bounds(benchmark: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark).map_err(|e| e.to_string())?;
    let rules = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    rules
        .iter()
        .map(|r| {
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or("rule without name")?;
            let better = r
                .get("better")
                .and_then(Json::as_str)
                .ok_or("rule without better")?;
            let bound = r
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("rule without bound")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// How a metric moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than the bound.
    Improved,
}

impl Verdict {
    /// The verdict's printed word.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
        }
    }
}

/// Judges `b` against `a` under `rule`.
#[must_use]
pub fn verdict(rule: &Bound, a: f64, b: f64) -> Verdict {
    let delta = (b - a) / a;
    let worse = if rule.lower_is_better { delta } else { -delta };
    if worse > rule.bound {
        Verdict::Regressed
    } else if worse < -rule.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| "results file has no `workloads` list".to_string())
}

fn metric(workload: &Json, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares two results files. Returns the report and whether B holds
/// up: no regression, equal output digests, and no failed jobs.
///
/// # Errors
///
/// Malformed results files.
pub fn compare(a: &str, b: &str, bounds: &[Bound]) -> Result<(String, bool), String> {
    let a = Json::parse(a).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b).map_err(|e| format!("second file: {e}"))?;
    let mut out = format!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    let mut holds = true;
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.push_str(&format!("{name:<16} missing from the second file\n"));
            holds = false;
            continue;
        };
        for rule in bounds {
            let (Some(va), Some(vb)) = (metric(wa, &rule.name), metric(wb, &rule.name)) else {
                out.push_str(&format!("{name:<16} {:<14} missing\n", rule.name));
                holds = false;
                continue;
            };
            let v = verdict(rule, va, vb);
            holds &= v != Verdict::Regressed;
            out.push_str(&format!(
                "{name:<16} {:<14} {va:>12.4} {vb:>12.4} {:>+7.2}% {:>5.0}%  {}\n",
                rule.name,
                (vb - va) / va * 100.0,
                rule.bound * 100.0,
                v.label()
            ));
        }
        let digest = |w: &Json| {
            w.get("output_digest")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let (da, db) = (digest(wa), digest(wb));
        let same = !da.is_empty() && da == db;
        holds &= same;
        out.push_str(&format!(
            "{name:<16} {:<14} {da:>12} {db:>12}  {}\n",
            "output_digest",
            if same { "match" } else { "MISMATCH" }
        ));
        for (file, w) in [("A", wa), ("B", wb)] {
            let failed = w.get("failed").and_then(Json::as_u64).unwrap_or(0);
            if failed > 0 {
                holds = false;
                out.push_str(&format!("{name:<16} {failed} failed job(s) in {file}\n"));
            }
        }
    }
    Ok((out, holds))
}
