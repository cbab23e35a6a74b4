//! Output checks on every job, and the order-sensitive output digest.

use lowvolt_exec::fnv64;

/// Checks a text STA report: the header's combinational gate count plus
/// its register count equals `expected_gates` (the netlist's total gate
/// count, flip-flops included), and the critical delay is finite and
/// positive.
///
/// # Errors
///
/// Describes the first violated property.
pub fn check_sta(report: &str, expected_gates: usize) -> Result<(), String> {
    let header = report
        .lines()
        .find(|l| l.starts_with("nodes "))
        .ok_or("STA report has no `nodes ... gates ...` header")?;
    let gates = field_after(header, "gates")?;
    let registers = field_after(header, "registers")?;
    if gates + registers != expected_gates {
        return Err(format!(
            "STA header counts {gates} gates + {registers} registers, netlist has {expected_gates}"
        ));
    }
    let critical = report
        .lines()
        .find_map(|l| l.strip_prefix("critical delay "))
        .ok_or("STA report has no critical delay line")?;
    let ps: f64 = critical
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable critical delay `{critical}`"))?;
    if !(ps.is_finite() && ps > 0.0) {
        return Err(format!("critical delay {ps} ps is not finite and positive"));
    }
    Ok(())
}

fn field_after(line: &str, key: &str) -> Result<usize, String> {
    let mut words = line.split_whitespace();
    while let Some(w) = words.next() {
        if w == key {
            return words
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("unreadable `{key}` in `{line}`"));
        }
    }
    Err(format!("no `{key}` in `{line}`"))
}

/// The coverage table of a campaign report: its header cells and its
/// rows of cells, each row as wide as the header.
///
/// # Errors
///
/// A report without a table or rows, or a row of the wrong width.
pub fn campaign_table(report: &str) -> Result<(Vec<&str>, Vec<Vec<&str>>), String> {
    let mut lines = report.lines();
    let header: Vec<&str> = lines
        .by_ref()
        .find(|l| l.split_whitespace().next() == Some("target"))
        .ok_or("campaign report has no coverage table")?
        .split_whitespace()
        .collect();
    let mut rows = Vec::new();
    for line in lines.skip_while(|l| l.starts_with('-')) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        if cells.is_empty() {
            break;
        }
        if cells.len() != header.len() {
            return Err(format!("malformed campaign row `{line}`"));
        }
        rows.push(cells);
    }
    if rows.is_empty() {
        return Err("campaign table has no rows".to_string());
    }
    Ok((header, rows))
}

/// Checks a campaign coverage table: every row's class columns
/// (detected, corrupted, as-X, masked, errored) sum to its `faults`
/// column, and no injection errored.
///
/// # Errors
///
/// Describes the first bad row, or a report without rows.
pub fn check_campaign(report: &str) -> Result<(), String> {
    let (_, rows) = campaign_table(report)?;
    for cols in rows {
        let num = |i: usize| -> Result<u64, String> {
            cols.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed campaign row `{}`", cols.join(" ")))
        };
        let faults = num(1)?;
        let classes = (2..=6).map(num).sum::<Result<u64, String>>()?;
        if classes != faults {
            return Err(format!(
                "campaign row `{}`: classes sum to {classes}, faults {faults}",
                cols.join(" ")
            ));
        }
        if num(6)? != 0 {
            return Err(format!(
                "campaign row `{}`: injections errored",
                cols.join(" ")
            ));
        }
    }
    Ok(())
}

/// FNV-64 over the FNV-64s of a sequence of job outputs, so a digest
/// depends on every output byte and on job order.
#[derive(Debug, Clone, Default)]
pub struct Digest {
    hashes: Vec<u8>,
}

impl Digest {
    /// Folds in the next job's output.
    pub fn push(&mut self, output: &[u8]) {
        self.hashes.extend_from_slice(&fnv64(output).to_le_bytes());
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", fnv64(&self.hashes))
    }
}
