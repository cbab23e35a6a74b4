//! STA result types and their text / JSON renderings.
//!
//! Both renderers are fully deterministic functions of the report
//! contents — CI diffs them byte-for-byte across thread counts — and the
//! JSON goes through the workspace's one codec, `lowvolt_obs::json`.
//! Both write into an [`io::Write`], so a caller streams a report to
//! its sink instead of holding the whole rendering in memory.

use lowvolt_circuit::netlist::{GateKind, NodeNames};
use lowvolt_device::units::{Seconds, Volts};
use lowvolt_obs::json::{num, quote, Num};
use std::fmt;
use std::fmt::Write as _;
use std::io;

/// What kind of timing endpoint a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// A declared primary output.
    Output,
    /// A flip-flop data pin (the path is captured at the next clock edge).
    Register,
}

impl EndpointKind {
    /// Stable lowercase label used in both renderings.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EndpointKind::Output => "output",
            EndpointKind::Register => "register",
        }
    }
}

/// One gate along the critical path, startpoint first.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Gate kind.
    pub gate: GateKind,
    /// Index of the node the gate drives (see [`StaReport::node_name`]).
    pub output: usize,
    /// Topological level of the gate.
    pub level: usize,
    /// Reader count the delay was priced at.
    pub fanout: usize,
    /// Priced propagation delay of this gate.
    pub delay: Seconds,
    /// Arrival time at the gate's output.
    pub arrival: Seconds,
}

/// Worst-path summary for one timing endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSummary {
    /// Endpoint node index in the source netlist.
    pub node: usize,
    /// Output or register.
    pub kind: EndpointKind,
    /// Arrival time of the latest path into the endpoint.
    pub arrival: Seconds,
    /// Required time applied at the endpoint.
    pub required: Seconds,
    /// `required - arrival`.
    pub slack: Seconds,
    /// Gate count along the endpoint's worst path.
    pub depth: usize,
    /// Index of the node the worst path starts from.
    pub startpoint: usize,
}

/// Arrival / required / slack for one netlist node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSlack {
    /// Node index in the source netlist.
    pub node: usize,
    /// Topological level (inputs and register outputs are level 0).
    pub level: usize,
    /// Latest arrival time at the node.
    pub arrival: Seconds,
    /// Earliest required time propagated back to the node (infinite for
    /// nodes that reach no endpoint).
    pub required: Seconds,
    /// `required - arrival`.
    pub slack: Seconds,
}

/// The full result of one static timing analysis. Rows name nodes by
/// index; [`StaReport::node_name`] resolves them against the report's
/// own copy of the netlist's name arena, so the report owns everything
/// it renders.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Target circuit name.
    pub target: String,
    /// Node names of the analyzed netlist, indexed like its nodes.
    pub names: NodeNames,
    /// Supply voltage the delays were priced at.
    pub vdd: Volts,
    /// Threshold voltage the delays were priced at.
    pub vt: Volts,
    /// `false` when `V_DD <= V_T`: no gate can switch, every arrival is
    /// infinite, and per-node slack is not computed.
    pub feasible: bool,
    /// Netlist node count.
    pub nodes: usize,
    /// Combinational gate count (flip-flops excluded).
    pub gates: usize,
    /// Topological level count.
    pub levels: usize,
    /// Flip-flop count.
    pub registers: usize,
    /// Latest arrival over all endpoints — the critical delay.
    pub critical: Seconds,
    /// Required time applied at every endpoint (defaults to the critical
    /// delay, making the worst slack exactly zero).
    pub required: Seconds,
    /// Minimum endpoint slack.
    pub worst_slack: Seconds,
    /// The critical path, startpoint gate first.
    pub critical_path: Vec<PathStep>,
    /// Per-endpoint worst-path summaries, declared outputs first then
    /// register data pins, in netlist order.
    pub endpoints: Vec<EndpointSummary>,
    /// Per-node slack in node-index order (empty when infeasible).
    pub node_slacks: Vec<NodeSlack>,
}

/// `00` to `99`, two ASCII digits each.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Above this many femtoseconds [`ps_text`] leaves rounding to `{:.3}`.
const PS_FAST_LIMIT_FS: f64 = (1u64 << 40) as f64;

/// A time as `123.456 ps` when finite and `inf` / `-inf` otherwise (NaN
/// renders as `-inf`): exactly the bytes of `format!("{:.3} ps", s *
/// 1e12)`. Written into `buf` by integer arithmetic; only a value near
/// a rounding tie, or a huge one, goes through `{:.3}` (into `spill`).
fn ps_text<'a>(s: Seconds, buf: &'a mut [u8; 24], spill: &'a mut String) -> &'a [u8] {
    let s = s.0;
    if !s.is_finite() {
        return if s > 0.0 { b"inf" } else { b"-inf" };
    }
    let ps = s * 1e12;
    // Fast path: round |ps| to whole femtoseconds in integer digits.
    // `fs` is within half an ulp (≤ fs·2⁻⁵³) of the exact |ps|·1000, and
    // its fractional part is exact, so away from a .5 tie it rounds as
    // the exact decimal expansion `{:.3}` rounds. Near a tie, and for
    // huge or overflowed values, `{:.3}` decides.
    let fs = ps.abs() * 1000.0;
    // `fs < 2⁴⁰` past the first test, so `whole` is exact, fits 13
    // digits, and `frac` is exact.
    let whole = fs as u64;
    let frac = fs - whole as f64;
    if fs >= PS_FAST_LIMIT_FS || (frac - 0.5).abs() <= fs * f64::EPSILON * 4.0 {
        spill.clear();
        let _ = write!(spill, "{ps:.3} ps");
        return spill.as_bytes();
    }
    // Not a tie, so rounding half away from zero is this comparison.
    let digits = whole + u64::from(frac > 0.5);
    let (mut int, milli) = (digits / 1000, (digits % 1000) as usize);
    let mut at = buf.len() - 7;
    buf[at..].copy_from_slice(b".000 ps");
    buf[at + 1] = b'0' + (milli / 100) as u8;
    buf[at + 2..at + 4].copy_from_slice(&PAIRS[2 * (milli % 100)..2 * (milli % 100) + 2]);
    while int >= 100 {
        let pair = 2 * (int % 100) as usize;
        int /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if int >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[2 * int as usize..2 * int as usize + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + int as u8;
    }
    if ps.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

/// A time rendered by [`ps_text`], through [`fmt::Formatter::pad`] so
/// width and alignment apply.
struct Ps(Seconds);

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mut buf, mut spill) = ([0; 24], String::new());
        // Only ASCII digits, `.`, `-`, ` ps` and `inf` are written.
        f.pad(std::str::from_utf8(ps_text(self.0, &mut buf, &mut spill)).map_err(|_| fmt::Error)?)
    }
}

/// Appends `n` spaces.
fn pad(line: &mut Vec<u8>, mut n: usize) {
    const SPACES: &[u8] = b"                ";
    while n > 0 {
        let run = n.min(SPACES.len());
        line.extend_from_slice(&SPACES[..run]);
        n -= run;
    }
}

/// Builds one text row at a time without `core::fmt`: each method
/// appends what the named `format!` spec would, byte for byte.
#[derive(Default)]
struct Row {
    line: Vec<u8>,
    /// Scratch for [`ps_text`]'s `{:.3}` fallback.
    spill: String,
}

impl Row {
    fn text(&mut self, s: &str) -> &mut Row {
        self.line.extend_from_slice(s.as_bytes());
        self
    }

    /// `{:<width}` of a string: padded to `width` chars.
    fn left(&mut self, s: &str, width: usize) -> &mut Row {
        self.text(s);
        pad(&mut self.line, width.saturating_sub(s.chars().count()));
        self
    }

    /// `{:>width}` of an integer.
    fn int(&mut self, mut v: usize, width: usize) -> &mut Row {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        pad(&mut self.line, width.saturating_sub(buf.len() - at));
        self.line.extend_from_slice(&buf[at..]);
        self
    }

    /// `{:>12}` of a [`Ps`].
    fn ps(&mut self, s: Seconds) -> &mut Row {
        let mut buf = [0u8; 24];
        let text = ps_text(s, &mut buf, &mut self.spill);
        pad(&mut self.line, 12usize.saturating_sub(text.len()));
        self.line.extend_from_slice(text);
        self
    }

    /// Ends the row with a newline, hands it to `w` and starts the next
    /// in the same buffer.
    fn end<W: io::Write + ?Sized>(&mut self, w: &mut W) -> io::Result<()> {
        self.line.push(b'\n');
        let done = w.write_all(&self.line);
        self.line.clear();
        done
    }
}

/// A JSON number in picoseconds (`null` when not finite).
fn ps(s: Seconds) -> Num {
    num(s.0 * 1e12)
}

impl StaReport {
    /// Name of node `index` (empty for an index outside the netlist).
    #[must_use]
    pub fn node_name(&self, index: usize) -> &str {
        self.names.get(index)
    }

    /// Gate kind names along the critical path, startpoint first.
    #[must_use]
    pub fn critical_path_gates(&self) -> Vec<&str> {
        self.critical_path.iter().map(|s| s.gate.name()).collect()
    }

    /// Writes the text rendering (the [`fmt::Display`] bytes) to `w`.
    /// The per-node, per-endpoint and critical-path rows are assembled
    /// without `core::fmt` in one reused row buffer and handed to `w` one
    /// row at a time, so `w` should be buffered.
    ///
    /// # Errors
    ///
    /// Only `w`'s own write errors; the rows before the failing one have
    /// been written.
    pub fn write_text<W: io::Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "static timing report: {}", self.target)?;
        writeln!(
            w,
            "operating point: vdd {:.3} V, vt {:.3} V",
            self.vdd.0, self.vt.0
        )?;
        writeln!(
            w,
            "nodes {}  gates {}  levels {}  registers {}",
            self.nodes, self.gates, self.levels, self.registers
        )?;
        if !self.feasible {
            writeln!(w, "INFEASIBLE: vdd <= vt, devices cannot switch")?;
        }
        writeln!(
            w,
            "critical delay {}  required {}  worst slack {}",
            Ps(self.critical),
            Ps(self.required),
            Ps(self.worst_slack)
        )?;
        let mut row = Row::default();
        match self.critical_path.last() {
            Some(last) => {
                writeln!(
                    w,
                    "critical path ({} gates, to '{}'):",
                    self.critical_path.len(),
                    self.node_name(last.output)
                )?;
                for step in &self.critical_path {
                    row.text("  level ").int(step.level, 3).text("  ");
                    row.left(step.gate.name(), 5).text(" -> ");
                    row.left(self.node_name(step.output), 12).text(" fanout ");
                    row.int(step.fanout, 2).text("  delay ").ps(step.delay);
                    row.text("  arrival ").ps(step.arrival).end(w)?;
                }
            }
            None => writeln!(w, "critical path: empty (endpoint is a primary input)")?,
        }
        writeln!(w, "endpoints ({}):", self.endpoints.len())?;
        for ep in &self.endpoints {
            row.text("  ").left(self.node_name(ep.node), 12).text(" ");
            row.left(ep.kind.label(), 8)
                .text(" arrival ")
                .ps(ep.arrival);
            row.text("  slack ").ps(ep.slack).text("  depth ");
            row.int(ep.depth, 3).text("  from '");
            row.text(self.node_name(ep.startpoint)).text("'").end(w)?;
        }
        if !self.node_slacks.is_empty() {
            w.write_all(b"node slack:\n")?;
            for ns in &self.node_slacks {
                row.text("  ").left(self.node_name(ns.node), 12);
                row.text(" level ").int(ns.level, 3).text("  arrival ");
                row.ps(ns.arrival).text("  required ").ps(ns.required);
                row.text("  slack ").ps(ns.slack).end(w)?;
            }
        }
        Ok(())
    }

    /// The JSON rendering. Non-finite values (an infeasible point's
    /// delays, a non-finite operating point) are `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(1024);
        // Writing to a `Vec` cannot fail, and the JSON is UTF-8.
        let _ = self.write_json(&mut out);
        String::from_utf8(out).unwrap_or_default()
    }

    /// Writes the [`StaReport::to_json`] bytes to `w`, one row at a time.
    ///
    /// # Errors
    ///
    /// Only `w`'s own write errors.
    pub fn write_json<W: io::Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        write!(
            w,
            "{{\n  \"target\": {},\n  \"vdd\": {},\n  \"vt\": {},\n  \"feasible\": {},\n  \
             \"nodes\": {},\n  \"gates\": {},\n  \"levels\": {},\n  \
             \"registers\": {},\n  \"critical_ps\": {},\n  \
             \"required_ps\": {},\n  \"worst_slack_ps\": {},\n",
            quote(&self.target),
            num(self.vdd.0),
            num(self.vt.0),
            self.feasible,
            self.nodes,
            self.gates,
            self.levels,
            self.registers,
            ps(self.critical),
            ps(self.required),
            ps(self.worst_slack),
        )?;
        w.write_all(b"  \"critical_path\": [")?;
        for (i, step) in self.critical_path.iter().enumerate() {
            write!(
                w,
                "{}    {{\"gate\": {}, \"output\": {}, \"level\": {}, \"fanout\": {}, \"delay_ps\": {}, \"arrival_ps\": {}}}",
                if i == 0 { "\n" } else { ",\n" },
                quote(step.gate.name()),
                quote(self.node_name(step.output)),
                step.level,
                step.fanout,
                ps(step.delay),
                ps(step.arrival),
            )?;
        }
        w.write_all(close_array(self.critical_path.is_empty()))?;
        w.write_all(b"  \"endpoints\": [")?;
        for (i, ep) in self.endpoints.iter().enumerate() {
            write!(
                w,
                "{}    {{\"node\": {}, \"kind\": {}, \"arrival_ps\": {}, \"required_ps\": {}, \"slack_ps\": {}, \"depth\": {}, \"startpoint\": {}}}",
                if i == 0 { "\n" } else { ",\n" },
                quote(self.node_name(ep.node)),
                quote(ep.kind.label()),
                ps(ep.arrival),
                ps(ep.required),
                ps(ep.slack),
                ep.depth,
                quote(self.node_name(ep.startpoint)),
            )?;
        }
        w.write_all(close_array(self.endpoints.is_empty()))?;
        w.write_all(b"  \"node_slack\": [")?;
        for (i, ns) in self.node_slacks.iter().enumerate() {
            write!(
                w,
                "{}    {{\"node\": {}, \"level\": {}, \"arrival_ps\": {}, \"required_ps\": {}, \"slack_ps\": {}}}",
                if i == 0 { "\n" } else { ",\n" },
                quote(self.node_name(ns.node)),
                ns.level,
                ps(ns.arrival),
                ps(ns.required),
                ps(ns.slack),
            )?;
        }
        w.write_all(if self.node_slacks.is_empty() {
            b"]\n}\n"
        } else {
            b"\n  ]\n}\n"
        })
    }
}

/// The end of a non-final JSON array member of the report.
fn close_array(empty: bool) -> &'static [u8] {
    if empty {
        b"],\n"
    } else {
        b"\n  ],\n"
    }
}

/// Lets [`StaReport::write_text`] write straight into a formatter.
struct FmtSink<'a, 'b>(&'a mut fmt::Formatter<'b>);

impl io::Write for FmtSink<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // The text renderer writes whole rows and whole `format!`
        // pieces, each valid UTF-8 on its own.
        let text = std::str::from_utf8(buf).map_err(io::Error::other)?;
        self.0.write_str(text).map_err(io::Error::other)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl fmt::Display for StaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(&mut FmtSink(f)).map_err(|_| fmt::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_obs::json::Json;
    use proptest::prelude::*;

    fn arena(names: &[&str]) -> NodeNames {
        let mut arena = NodeNames::default();
        for name in names {
            arena.push(name);
        }
        arena
    }

    fn tiny_report() -> StaReport {
        StaReport {
            target: "t".to_owned(),
            names: arena(&["a", "y"]),
            vdd: Volts(1.0),
            vt: Volts(0.2),
            feasible: true,
            nodes: 3,
            gates: 1,
            levels: 1,
            registers: 0,
            critical: Seconds(10e-12),
            required: Seconds(10e-12),
            worst_slack: Seconds(0.0),
            critical_path: vec![PathStep {
                gate: GateKind::And2,
                output: 1,
                level: 1,
                fanout: 1,
                delay: Seconds(10e-12),
                arrival: Seconds(10e-12),
            }],
            endpoints: vec![EndpointSummary {
                node: 1,
                kind: EndpointKind::Output,
                arrival: Seconds(10e-12),
                required: Seconds(10e-12),
                slack: Seconds(0.0),
                depth: 1,
                startpoint: 0,
            }],
            node_slacks: vec![NodeSlack {
                node: 0,
                level: 0,
                arrival: Seconds(0.0),
                required: Seconds(0.0),
                slack: Seconds(0.0),
            }],
        }
    }

    /// What [`Ps`] must reproduce byte for byte.
    fn reference_ps(s: f64) -> String {
        if s.is_finite() {
            format!("{:.3} ps", s * 1e12)
        } else if s > 0.0 {
            "inf".to_owned()
        } else {
            "-inf".to_owned()
        }
    }

    fn assert_ps_matches(s: f64) {
        let want = reference_ps(s);
        let ps = Ps(Seconds(s));
        assert_eq!(ps.to_string(), want, "{s:e}");
        assert_eq!(format!("[{ps:>12}]"), format!("[{want:>12}]"), "{s:e}");
        assert_eq!(format!("[{ps:<12}]"), format!("[{want:<12}]"), "{s:e}");
    }

    /// Seconds whose picosecond product is exactly `ps`, when one lies
    /// within a few ulps of `ps / 1e12`.
    fn seconds_for(ps: f64) -> Option<f64> {
        let guess = ps / 1e12;
        let mut below = guess;
        let mut above = guess;
        for _ in 0..8 {
            for s in [below, above] {
                if s * 1e12 == ps {
                    return Some(s);
                }
            }
            below = below.next_down();
            above = above.next_up();
        }
        None
    }

    #[test]
    fn ps_renders_exact_and_near_ties_like_format() {
        // Dyadic picosecond values k/2^n put the femtosecond digit on or
        // next to an exact .5, where `{:.3}` rounds half to even.
        let mut ties = 0;
        for n in 1..=24 {
            for k in (1u64..400).chain([(1 << 30) + 1, (1 << 40) / 999, 987_654_321]) {
                let tie = k as f64 / f64::from(1u32 << n);
                let mut near = tie;
                for _ in 0..3 {
                    near = near.next_up();
                }
                for ps in [tie, tie.next_up(), tie.next_down(), near, -tie, -near] {
                    if let Some(s) = seconds_for(ps) {
                        assert_ps_matches(s);
                        ties += 1;
                    }
                }
            }
        }
        assert!(ties > 10_000, "only {ties} tie cases reached");
    }

    #[test]
    fn ps_renders_extremes_like_format() {
        let fast_limit_ps = PS_FAST_LIMIT_FS / 1000.0;
        for s in [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            1e-15,
            0.5e-15,
            -0.5e-15,
            1e-12,
            fast_limit_ps / 1e12,
            fast_limit_ps.next_down() / 1e12,
            fast_limit_ps.next_up() / 1e12,
            -fast_limit_ps / 1e12,
            2f64.powi(40) / 1e12,
            2f64.powi(40),
            1e200,
            -1e200,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_ps_matches(s);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn ps_renders_random_bit_patterns_like_format(bits in any::<u64>(), scale in 0u32..8) {
            // Raw bit patterns cover every exponent; the scaled copy lands
            // in the picosecond-to-microsecond range real reports hold.
            let raw = f64::from_bits(bits);
            assert_ps_matches(raw);
            let mantissa = f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF | 0x3FF0_0000_0000_0000);
            assert_ps_matches(mantissa * 10f64.powi(scale as i32 - 14));
        }

        #[test]
        fn rows_render_like_format(
            picks in proptest::collection::vec(any::<u64>(), 9),
            name_len in 0usize..20,
            name_seed in any::<u64>(),
        ) {
            let mut r = tiny_report();
            let mut t = picks.iter().map(|&bits| seconds_from(bits));
            let mut next = || t.next().unwrap_or(Seconds(0.0));
            r.critical_path[0].delay = next();
            r.critical_path[0].arrival = next();
            r.endpoints[0].arrival = next();
            r.endpoints[0].slack = next();
            r.node_slacks[0].arrival = next();
            r.node_slacks[0].required = next();
            r.node_slacks[0].slack = next();
            r.critical = next();
            r.worst_slack = next();
            let name = random_name(name_len, name_seed);
            r.names = arena(&[&name, &format!("{name}y")]);
            r.critical_path[0].level = (name_seed % 2000) as usize;
            r.endpoints[0].depth = (name_seed >> 16) as usize % 2000;
            let mut text = Vec::new();
            r.write_text(&mut text).unwrap();
            prop_assert_eq!(String::from_utf8(text).unwrap(), reference_text(&r));
            prop_assert_eq!(r.to_string(), reference_text(&r));
        }
    }

    /// A time in seconds picked by `bits`: raw bit patterns (every
    /// exponent, NaN and the infinities among them), the special values,
    /// dyadic picosecond ties, values at and past 2⁴⁰ fs, and the
    /// picosecond-to-microsecond range real reports hold.
    fn seconds_from(bits: u64) -> Seconds {
        let pick = bits >> 61;
        let low = bits & ((1 << 58) - 1);
        Seconds(match pick {
            0 => f64::from_bits(bits.rotate_left(3)),
            1 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 0.0][(low % 5) as usize],
            2 => {
                let tie = (low % 4000 + 1) as f64 / f64::from(1u32 << ((low >> 40) % 24));
                let ps = if low & 1 == 0 { tie } else { -tie.next_up() };
                seconds_for(ps).unwrap_or(ps / 1e12)
            }
            3 => (PS_FAST_LIMIT_FS + (low % (1 << 50)) as f64) / 1e15,
            _ => {
                let mantissa = f64::from_bits(low & 0x000F_FFFF_FFFF_FFFF | 0x3FF0_0000_0000_0000);
                let sign = if low >> 57 == 1 { -1.0 } else { 1.0 };
                sign * mantissa * 10f64.powi((low >> 52) as i32 % 8 - 14)
            }
        })
    }

    /// A name of `len` chars mixing ASCII with 2-, 3- and 4-byte UTF-8.
    fn random_name(len: usize, mut seed: u64) -> String {
        const CHARS: [char; 8] = ['a', 'n', '_', '7', 'é', 'ß', '€', '𝄞'];
        (0..len)
            .map(|_| {
                seed = seed.rotate_left(5) ^ 0x9E37_79B9_7F4A_7C15;
                CHARS[(seed % 8) as usize]
            })
            .collect()
    }

    /// The text rendering as `core::fmt` writes it, which
    /// [`StaReport::write_text`] must reproduce byte for byte.
    fn reference_text(r: &StaReport) -> String {
        use std::fmt::Write as _;
        let p = |s: Seconds| reference_ps(s.0);
        let mut f = String::new();
        writeln!(f, "static timing report: {}", r.target).unwrap();
        writeln!(
            f,
            "operating point: vdd {:.3} V, vt {:.3} V",
            r.vdd.0, r.vt.0
        )
        .unwrap();
        writeln!(
            f,
            "nodes {}  gates {}  levels {}  registers {}",
            r.nodes, r.gates, r.levels, r.registers
        )
        .unwrap();
        if !r.feasible {
            writeln!(f, "INFEASIBLE: vdd <= vt, devices cannot switch").unwrap();
        }
        writeln!(
            f,
            "critical delay {}  required {}  worst slack {}",
            p(r.critical),
            p(r.required),
            p(r.worst_slack)
        )
        .unwrap();
        let last = r.critical_path.last().unwrap();
        writeln!(
            f,
            "critical path ({} gates, to '{}'):",
            r.critical_path.len(),
            r.node_name(last.output)
        )
        .unwrap();
        for step in &r.critical_path {
            writeln!(
                f,
                "  level {:>3}  {:<5} -> {:<12} fanout {:>2}  delay {:>12}  arrival {:>12}",
                step.level,
                step.gate.name(),
                r.node_name(step.output),
                step.fanout,
                p(step.delay),
                p(step.arrival)
            )
            .unwrap();
        }
        writeln!(f, "endpoints ({}):", r.endpoints.len()).unwrap();
        for ep in &r.endpoints {
            writeln!(
                f,
                "  {:<12} {:<8} arrival {:>12}  slack {:>12}  depth {:>3}  from '{}'",
                r.node_name(ep.node),
                ep.kind.label(),
                p(ep.arrival),
                p(ep.slack),
                ep.depth,
                r.node_name(ep.startpoint)
            )
            .unwrap();
        }
        writeln!(f, "node slack:").unwrap();
        for ns in &r.node_slacks {
            writeln!(
                f,
                "  {:<12} level {:>3}  arrival {:>12}  required {:>12}  slack {:>12}",
                r.node_name(ns.node),
                ns.level,
                p(ns.arrival),
                p(ns.required),
                p(ns.slack)
            )
            .unwrap();
        }
        f
    }

    #[test]
    fn text_names_the_path_and_operating_point() {
        let text = tiny_report().to_string();
        assert!(text.contains("static timing report: t"));
        assert!(text.contains("vdd 1.000 V, vt 0.200 V"));
        assert!(text.contains("and2"));
        assert!(text.contains("critical delay 10.000 ps"));
    }

    fn ps_field(v: &Json, key: &str) -> Option<f64> {
        v.get(key).and_then(Json::as_f64)
    }

    #[test]
    fn json_is_parseable_shape_and_nulls_non_finite() {
        let mut r = tiny_report();
        r.feasible = false;
        r.critical = Seconds(f64::INFINITY);
        let json = r.to_json();
        assert!(json.contains("\"critical_ps\": null"));
        let v = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(v.get("critical_ps"), Some(&Json::Null));
        assert_eq!(v.get("feasible").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("target").and_then(Json::as_str), Some("t"));
        assert_eq!(ps_field(&v, "vdd"), Some(1.0));
        assert_eq!(ps_field(&v, "vt"), Some(0.2));
        assert_eq!(ps_field(&v, "required_ps"), Some(10e-12 * 1e12));
        for (key, n) in [("nodes", 3), ("gates", 1), ("levels", 1), ("registers", 0)] {
            assert_eq!(v.get(key).and_then(Json::as_u64), Some(n), "{key}");
        }
        for (key, len) in [("critical_path", 1), ("endpoints", 1), ("node_slack", 1)] {
            assert_eq!(
                v.get(key).and_then(Json::as_array).map(<[Json]>::len),
                Some(len)
            );
        }
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn json_escapes_hostile_names() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for name in [
            "a\"b\\c\nd",
            controls.as_str(),
            "ünïcödé",
            "astral 𝄞😀\u{10FFFF}",
        ] {
            let mut r = tiny_report();
            r.target = name.to_owned();
            let roles = ["s", "e", "o", "n"].map(|role| format!("{role}{name}"));
            r.names = arena(&roles.each_ref().map(String::as_str));
            r.endpoints[0].node = 1;
            r.critical_path[0].output = 2;
            r.node_slacks[0].node = 3;
            let v = Json::parse(&r.to_json()).unwrap_or_else(|e| panic!("{name:?}: {e}"));
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
            let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_owned();
            let first = |key: &str| v.get(key).and_then(Json::as_array).unwrap()[0].clone();
            assert_eq!(text(&v, "target"), name);
            assert_eq!(text(&first("critical_path"), "gate"), "and2");
            assert_eq!(text(&first("critical_path"), "output"), format!("o{name}"));
            assert_eq!(text(&first("endpoints"), "node"), format!("e{name}"));
            assert_eq!(text(&first("endpoints"), "kind"), "output");
            assert_eq!(text(&first("endpoints"), "startpoint"), format!("s{name}"));
            assert_eq!(text(&first("node_slack"), "node"), format!("n{name}"));
        }
    }

    #[test]
    fn non_finite_operating_points_and_delays_render_as_null() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut r = tiny_report();
            r.vdd = Volts(bad);
            r.vt = Volts(bad);
            r.critical = Seconds(bad);
            r.worst_slack = Seconds(-bad);
            r.critical_path[0].delay = Seconds(bad);
            r.endpoints[0].slack = Seconds(bad);
            r.node_slacks[0].required = Seconds(bad);
            let json = r.to_json();
            let v = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
            for key in ["vdd", "vt", "critical_ps", "worst_slack_ps"] {
                assert_eq!(v.get(key), Some(&Json::Null), "{key} in {json}");
            }
            let first = |key: &str| v.get(key).and_then(Json::as_array).unwrap()[0].clone();
            assert!(first("critical_path").get("delay_ps").unwrap().is_null());
            assert!(first("endpoints").get("slack_ps").unwrap().is_null());
            assert!(first("node_slack").get("required_ps").unwrap().is_null());
            assert_eq!(ps_field(&first("node_slack"), "arrival_ps"), Some(0.0));
        }
    }
}
