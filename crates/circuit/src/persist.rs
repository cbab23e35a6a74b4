//! Compact binary codecs for checkpoint journals and golden-trace caches.
//!
//! The fault-tolerant campaign runner persists two kinds of payloads:
//! output-trace matrices (the golden-trace cache) and per-injection
//! [`FaultOutcome`]s (the checkpoint journal). Both need a stable,
//! versioned-by-construction byte format so an interrupted campaign can
//! resume byte-identically on a different day, thread count, or machine.
//!
//! Every decoder is **total**: malformed or truncated bytes return
//! `None`, never panic, and never allocate more than the input could
//! justify — a corrupted journal tail or cache entry degrades to a
//! recompute, not an abort. Encoding is deterministic: equal values
//! produce equal bytes, which is what lets the resume tests diff an
//! interrupted-and-resumed campaign against an uninterrupted one at the
//! byte level.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::error::CircuitError;
use crate::faults::FaultOutcome;
use crate::logic::Bit;
use lowvolt_exec::ExecError;

/// Upper bound on distinct interned strings; decoding static-string
/// fields beyond this refuses rather than leak unboundedly on
/// adversarial input. Legitimate encoders only ever produce the few
/// dozen literals baked into this crate.
const INTERN_CAP: usize = 4096;

/// Returns a `&'static str` equal to `s`, deduplicated through a
/// process-wide table. [`CircuitError`]'s message fields are `&'static
/// str` in memory; round-tripping them through bytes requires leaking
/// one copy per distinct string, bounded by [`INTERN_CAP`].
fn intern(s: &str) -> Option<&'static str> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = match table.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(&existing) = guard.get(s) {
        return Some(existing);
    }
    if guard.len() >= INTERN_CAP {
        return None;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    guard.insert(s.to_string(), leaked);
    Some(leaked)
}

/// Bounds-checked little-endian cursor over an input byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Option<usize> {
        self.u64()?.try_into().ok()
    }

    /// A length-prefixed UTF-8 string; the length must fit in the
    /// remaining input, so a corrupt prefix cannot trigger a huge
    /// allocation.
    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return None;
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bit(out: &mut Vec<u8>, bit: Bit) {
    out.push(match bit {
        Bit::Zero => 0,
        Bit::One => 1,
        Bit::X => 2,
    });
}

fn read_bit(r: &mut Reader<'_>) -> Option<Bit> {
    match r.u8()? {
        0 => Some(Bit::Zero),
        1 => Some(Bit::One),
        2 => Some(Bit::X),
        _ => None,
    }
}

/// Encodes an output-trace matrix (one row per vector, one [`Bit`] per
/// observed output) as `rows:u32` then per row `cols:u32` plus one byte
/// per bit. Rows may be ragged; the cache only ever stores rectangular
/// traces but the codec does not assume it.
#[must_use]
pub fn encode_trace(trace: &[Vec<Bit>]) -> Vec<u8> {
    let cells: usize = trace.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(4 + trace.len() * 4 + cells);
    put_u32(&mut out, trace.len() as u32);
    for row in trace {
        put_u32(&mut out, row.len() as u32);
        for &bit in row {
            put_bit(&mut out, bit);
        }
    }
    out
}

/// Decodes an [`encode_trace`] payload; `None` on any truncation,
/// trailing garbage, or byte that is not a valid [`Bit`].
#[must_use]
pub fn decode_trace(bytes: &[u8]) -> Option<Vec<Vec<Bit>>> {
    let mut r = Reader::new(bytes);
    let rows = r.u32()? as usize;
    if rows > r.remaining() {
        return None;
    }
    let mut trace = Vec::with_capacity(rows);
    for _ in 0..rows {
        let cols = r.u32()? as usize;
        if cols > r.remaining() {
            return None;
        }
        let mut row = Vec::with_capacity(cols);
        for _ in 0..cols {
            row.push(read_bit(&mut r)?);
        }
        trace.push(row);
    }
    if !r.done() {
        return None;
    }
    Some(trace)
}

fn put_circuit_error(out: &mut Vec<u8>, err: &CircuitError) {
    match err {
        CircuitError::ArityMismatch {
            kind,
            expected,
            got,
        } => {
            out.push(0);
            put_string(out, kind);
            put_usize(out, *expected);
            put_usize(out, *got);
        }
        CircuitError::UnknownNode(id) => {
            out.push(1);
            put_usize(out, *id);
        }
        CircuitError::UnknownGate(id) => {
            out.push(2);
            put_usize(out, *id);
        }
        CircuitError::DidNotSettle { event_budget } => {
            out.push(3);
            put_usize(out, *event_budget);
        }
        CircuitError::Oscillation {
            period_events,
            ringing,
        } => {
            out.push(4);
            put_usize(out, *period_events);
            put_u32(out, ringing.len() as u32);
            for name in ringing {
                put_string(out, name);
            }
        }
        CircuitError::SwitchOscillation { period_passes } => {
            out.push(5);
            put_usize(out, *period_passes);
        }
        CircuitError::NonConvergent { passes } => {
            out.push(6);
            put_usize(out, *passes);
        }
        CircuitError::FloatingNode { node } => {
            out.push(7);
            put_string(out, node);
        }
        CircuitError::NotAnInput { node } => {
            out.push(8);
            put_string(out, node);
        }
        CircuitError::WidthMismatch {
            what,
            expected,
            got,
        } => {
            out.push(9);
            put_string(out, what);
            put_usize(out, *expected);
            put_usize(out, *got);
        }
        CircuitError::InvalidStimulus { reason } => {
            out.push(10);
            put_string(out, reason);
        }
        CircuitError::InvalidWidth { width, constraint } => {
            out.push(11);
            put_usize(out, *width);
            put_string(out, constraint);
        }
        CircuitError::InvalidParameter {
            name,
            value,
            constraint,
        } => {
            out.push(12);
            put_string(out, name);
            put_u64(out, value.to_bits());
            put_string(out, constraint);
        }
        CircuitError::NoSwitchLowering { kind } => {
            out.push(13);
            put_string(out, kind);
        }
        CircuitError::Cancelled { after_events } => {
            out.push(14);
            put_usize(out, *after_events);
        }
        CircuitError::Internal { detail } => {
            out.push(15);
            put_string(out, detail);
        }
        CircuitError::Unlevelizable { reason } => {
            out.push(16);
            put_string(out, reason);
        }
        CircuitError::UnlevelizableMany { reasons } => {
            out.push(17);
            put_u32(out, reasons.len() as u32);
            for r in reasons {
                put_string(out, r);
            }
        }
    }
}

fn read_circuit_error(r: &mut Reader<'_>) -> Option<CircuitError> {
    Some(match r.u8()? {
        0 => CircuitError::ArityMismatch {
            kind: intern(&r.string()?)?,
            expected: r.usize()?,
            got: r.usize()?,
        },
        1 => CircuitError::UnknownNode(r.usize()?),
        2 => CircuitError::UnknownGate(r.usize()?),
        3 => CircuitError::DidNotSettle {
            event_budget: r.usize()?,
        },
        4 => {
            let period_events = r.usize()?;
            let count = r.u32()? as usize;
            if count > r.remaining() {
                return None;
            }
            let mut ringing = Vec::with_capacity(count);
            for _ in 0..count {
                ringing.push(r.string()?);
            }
            CircuitError::Oscillation {
                period_events,
                ringing,
            }
        }
        5 => CircuitError::SwitchOscillation {
            period_passes: r.usize()?,
        },
        6 => CircuitError::NonConvergent { passes: r.usize()? },
        7 => CircuitError::FloatingNode { node: r.string()? },
        8 => CircuitError::NotAnInput { node: r.string()? },
        9 => CircuitError::WidthMismatch {
            what: intern(&r.string()?)?,
            expected: r.usize()?,
            got: r.usize()?,
        },
        10 => CircuitError::InvalidStimulus {
            reason: intern(&r.string()?)?,
        },
        11 => CircuitError::InvalidWidth {
            width: r.usize()?,
            constraint: intern(&r.string()?)?,
        },
        12 => CircuitError::InvalidParameter {
            name: intern(&r.string()?)?,
            value: f64::from_bits(r.u64()?),
            constraint: intern(&r.string()?)?,
        },
        13 => CircuitError::NoSwitchLowering {
            kind: intern(&r.string()?)?,
        },
        14 => CircuitError::Cancelled {
            after_events: r.usize()?,
        },
        15 => CircuitError::Internal {
            detail: intern(&r.string()?)?,
        },
        16 => CircuitError::Unlevelizable {
            reason: intern(&r.string()?)?,
        },
        17 => {
            let count = r.u32()? as usize;
            if count > r.remaining() {
                return None;
            }
            let mut reasons = Vec::with_capacity(count);
            for _ in 0..count {
                reasons.push(r.string()?);
            }
            CircuitError::UnlevelizableMany { reasons }
        }
        _ => return None,
    })
}

/// Encodes a [`CircuitError`] for journal payloads. Round-trips every
/// variant exactly ([`decode_circuit_error`] interns the `&'static str`
/// fields).
#[must_use]
pub fn encode_circuit_error(err: &CircuitError) -> Vec<u8> {
    let mut out = Vec::new();
    put_circuit_error(&mut out, err);
    out
}

/// Decodes an [`encode_circuit_error`] payload; `None` on malformed or
/// trailing bytes.
#[must_use]
pub fn decode_circuit_error(bytes: &[u8]) -> Option<CircuitError> {
    let mut r = Reader::new(bytes);
    let err = read_circuit_error(&mut r)?;
    if !r.done() {
        return None;
    }
    Some(err)
}

fn put_exec_error(out: &mut Vec<u8>, err: &ExecError) {
    match err {
        ExecError::ItemPanicked {
            index,
            attempts,
            message,
        } => {
            out.push(0);
            put_usize(out, *index);
            put_u32(out, *attempts);
            put_string(out, message);
        }
        ExecError::ItemTimedOut {
            index,
            attempts,
            timeout_ms,
        } => {
            out.push(1);
            put_usize(out, *index);
            put_u32(out, *attempts);
            put_u64(out, *timeout_ms);
        }
    }
}

fn read_exec_error(r: &mut Reader<'_>) -> Option<ExecError> {
    Some(match r.u8()? {
        0 => ExecError::ItemPanicked {
            index: r.usize()?,
            attempts: r.u32()?,
            message: r.string()?,
        },
        1 => ExecError::ItemTimedOut {
            index: r.usize()?,
            attempts: r.u32()?,
            timeout_ms: r.u64()?,
        },
        _ => return None,
    })
}

/// Encodes a [`FaultOutcome`] — one checkpoint-journal record's payload.
#[must_use]
pub fn encode_outcome(outcome: &FaultOutcome) -> Vec<u8> {
    let mut out = Vec::new();
    match outcome {
        FaultOutcome::Detected(err) => {
            out.push(0);
            put_circuit_error(&mut out, err);
        }
        FaultOutcome::Corrupted => out.push(1),
        FaultOutcome::PropagatedAsX => out.push(2),
        FaultOutcome::Masked => out.push(3),
        FaultOutcome::Errored(err) => {
            out.push(4);
            put_exec_error(&mut out, err);
        }
    }
    out
}

/// Decodes an [`encode_outcome`] payload; `None` on malformed or
/// trailing bytes, so a damaged journal record is recomputed rather
/// than trusted.
#[must_use]
pub fn decode_outcome(bytes: &[u8]) -> Option<FaultOutcome> {
    let mut r = Reader::new(bytes);
    let outcome = match r.u8()? {
        0 => FaultOutcome::Detected(read_circuit_error(&mut r)?),
        1 => FaultOutcome::Corrupted,
        2 => FaultOutcome::PropagatedAsX,
        3 => FaultOutcome::Masked,
        4 => FaultOutcome::Errored(read_exec_error(&mut r)?),
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(outcome)
}

/// Encodes one packed-campaign checkpoint record: the per-fault
/// classification bytes of one work item (a 64-vector stimulus word
/// over a fault range), prefixed with the fault count. Class values are the compiled engine's
/// word-local verdicts (`0` masked, `1` X-divergence, `2` definite
/// corruption, `3`/`4` detected-malformed-fault markers).
#[must_use]
pub fn encode_word_classes(classes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + classes.len());
    put_u32(&mut out, classes.len() as u32);
    out.extend_from_slice(classes);
    out
}

/// Decodes an [`encode_word_classes`] payload; `None` on truncation,
/// trailing bytes, or a class byte outside the compiled engine's
/// vocabulary.
#[must_use]
pub fn decode_word_classes(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return None;
    }
    let classes = r.take(n)?.to_vec();
    if !r.done() || classes.iter().any(|&c| c > 4) {
        return None;
    }
    Some(classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips_including_ragged_and_empty() {
        let traces: Vec<Vec<Vec<Bit>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![Bit::Zero, Bit::One, Bit::X], vec![Bit::X, Bit::X]],
            vec![vec![Bit::One; 40]; 17],
        ];
        for trace in traces {
            let bytes = encode_trace(&trace);
            assert_eq!(decode_trace(&bytes), Some(trace));
        }
    }

    #[test]
    fn trace_decode_rejects_corruption() {
        let good = encode_trace(&[vec![Bit::Zero, Bit::One]]);
        // Truncations at every length.
        for cut in 0..good.len() {
            assert_eq!(decode_trace(&good[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(decode_trace(&long), None);
        // Invalid bit byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = 9;
        assert_eq!(decode_trace(&bad), None);
        // A length prefix far beyond the buffer must not allocate.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert_eq!(decode_trace(&huge), None);
    }

    #[test]
    fn every_circuit_error_variant_round_trips() {
        let variants = vec![
            CircuitError::ArityMismatch {
                kind: "nand2",
                expected: 2,
                got: 3,
            },
            CircuitError::UnknownNode(7),
            CircuitError::UnknownGate(9),
            CircuitError::DidNotSettle { event_budget: 4096 },
            CircuitError::Oscillation {
                period_events: 6,
                ringing: vec!["loop".into(), "not_1".into()],
            },
            CircuitError::SwitchOscillation { period_passes: 2 },
            CircuitError::NonConvergent { passes: 200 },
            CircuitError::FloatingNode {
                node: "virtual_gnd".into(),
            },
            CircuitError::NotAnInput { node: "y".into() },
            CircuitError::WidthMismatch {
                what: "set_bus",
                expected: 8,
                got: 7,
            },
            CircuitError::InvalidStimulus {
                reason: "campaign needs at least one vector",
            },
            CircuitError::InvalidWidth {
                width: 0,
                constraint: "must be positive",
            },
            CircuitError::InvalidParameter {
                name: "duty",
                value: 1.5,
                constraint: "must lie in [0, 1]",
            },
            CircuitError::NoSwitchLowering { kind: "dff" },
            CircuitError::Cancelled { after_events: 1234 },
            CircuitError::Internal { detail: "x" },
            CircuitError::Unlevelizable {
                reason: "combinational cycle",
            },
            CircuitError::UnlevelizableMany {
                reasons: vec![
                    "node 'x' is driven by more than one gate".into(),
                    "combinational cycle through node 'fb'".into(),
                ],
            },
        ];
        for err in variants {
            let bytes = encode_circuit_error(&err);
            assert_eq!(decode_circuit_error(&bytes), Some(err));
        }
    }

    #[test]
    fn outcomes_round_trip_and_reject_corruption() {
        let outcomes = vec![
            FaultOutcome::Masked,
            FaultOutcome::Corrupted,
            FaultOutcome::PropagatedAsX,
            FaultOutcome::Detected(CircuitError::Oscillation {
                period_events: 4,
                ringing: vec!["r".into()],
            }),
            FaultOutcome::Errored(ExecError::ItemPanicked {
                index: 3,
                attempts: 2,
                message: "boom".into(),
            }),
            FaultOutcome::Errored(ExecError::ItemTimedOut {
                index: 5,
                attempts: 1,
                timeout_ms: 250,
            }),
        ];
        for outcome in outcomes {
            let bytes = encode_outcome(&outcome);
            assert_eq!(decode_outcome(&bytes), Some(outcome.clone()));
            for cut in 0..bytes.len() {
                assert_eq!(decode_outcome(&bytes[..cut]), None, "{outcome:?} cut {cut}");
            }
            let mut long = bytes.clone();
            long.push(0xAA);
            assert_eq!(decode_outcome(&long), None);
        }
        assert_eq!(decode_outcome(&[99]), None, "unknown tag");
    }

    #[test]
    fn word_classes_round_trip_and_reject_corruption() {
        for classes in [vec![], vec![0u8, 1, 2, 3, 4], vec![2; 40]] {
            let bytes = encode_word_classes(&classes);
            assert_eq!(decode_word_classes(&bytes), Some(classes.clone()));
            for cut in 0..bytes.len() {
                assert_eq!(decode_word_classes(&bytes[..cut]), None, "cut {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(decode_word_classes(&long), None);
        }
        // A class byte outside the vocabulary is rejected.
        let mut bad = encode_word_classes(&[0]);
        let last = bad.len() - 1;
        bad[last] = 9;
        assert_eq!(decode_word_classes(&bad), None);
        // A huge length prefix must not allocate.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert_eq!(decode_word_classes(&huge), None);
    }

    #[test]
    fn interned_strings_are_deduplicated_and_stable() {
        let a = intern("the same text").unwrap();
        let b = intern("the same text").unwrap();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "the same text");
    }

    #[test]
    fn encoding_is_deterministic() {
        let outcome = FaultOutcome::Detected(CircuitError::DidNotSettle { event_budget: 64 });
        assert_eq!(encode_outcome(&outcome), encode_outcome(&outcome));
    }
}
