//! Three-valued (Kleene) logic used by the event-driven simulator.
//!
//! Nodes start in the unknown state [`Bit::X`] until driven; unknowns
//! propagate pessimistically through gates so that activity counting only
//! begins once the circuit has genuinely settled.

/// A ternary logic value. The discriminants index the operator truth
/// tables below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Bit {
    /// Logic low.
    Zero = 0,
    /// Logic high.
    One = 1,
    /// Unknown / uninitialised.
    #[default]
    X = 2,
}

impl Bit {
    /// Converts from a boolean.
    #[must_use]
    pub fn from_bool(b: bool) -> Bit {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// `Some(bool)` for a known value, `None` for [`Bit::X`].
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Bit::Zero => Some(false),
            Bit::One => Some(true),
            Bit::X => None,
        }
    }

    /// `true` if the value is known (not X).
    #[must_use]
    pub fn is_known(self) -> bool {
        self != Bit::X
    }

    /// Kleene NOT.
    // The name intentionally mirrors the logic operation; `Bit` is `Copy`
    // and the method is never called through a `!` operator context.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Bit {
        [Bit::One, Bit::Zero, Bit::X][self as usize]
    }

    /// Kleene AND: a single `0` input dominates any `X`.
    #[must_use]
    pub fn and(self, rhs: Bit) -> Bit {
        use Bit::{One, Zero, X};
        [[Zero, Zero, Zero], [Zero, One, X], [Zero, X, X]][self as usize][rhs as usize]
    }

    /// Kleene OR: a single `1` input dominates any `X`.
    #[must_use]
    pub fn or(self, rhs: Bit) -> Bit {
        use Bit::{One, Zero, X};
        [[Zero, One, X], [One, One, One], [X, One, X]][self as usize][rhs as usize]
    }

    /// Kleene XOR: unknown if either input is unknown.
    #[must_use]
    pub fn xor(self, rhs: Bit) -> Bit {
        use Bit::{One, Zero, X};
        [[Zero, One, X], [One, Zero, X], [X, X, X]][self as usize][rhs as usize]
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Bit {
        Bit::from_bool(b)
    }
}

impl std::fmt::Display for Bit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bit::Zero => write!(f, "0"),
            Bit::One => write!(f, "1"),
            Bit::X => write!(f, "x"),
        }
    }
}

/// Expands the low `width` bits of `value` into a little-endian bit vector.
#[must_use]
pub fn bits_of(value: u64, width: usize) -> Vec<Bit> {
    (0..width)
        .map(|i| Bit::from_bool(value >> i & 1 == 1))
        .collect()
}

/// Collapses a little-endian bit slice back into an integer; `None` if any
/// bit is unknown.
#[must_use]
pub fn value_of(bits: &[Bit]) -> Option<u64> {
    let mut v = 0u64;
    for (i, b) in bits.iter().enumerate() {
        match b.to_bool() {
            Some(true) => v |= 1 << i,
            Some(false) => {}
            None => return None,
        }
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kleene_dominance() {
        assert_eq!(Bit::Zero.and(Bit::X), Bit::Zero);
        assert_eq!(Bit::X.and(Bit::Zero), Bit::Zero);
        assert_eq!(Bit::One.or(Bit::X), Bit::One);
        assert_eq!(Bit::X.or(Bit::One), Bit::One);
    }

    #[test]
    fn x_propagates_where_undetermined() {
        assert_eq!(Bit::One.and(Bit::X), Bit::X);
        assert_eq!(Bit::Zero.or(Bit::X), Bit::X);
        assert_eq!(Bit::One.xor(Bit::X), Bit::X);
        assert_eq!(Bit::X.not(), Bit::X);
    }

    #[test]
    fn boolean_truth_tables() {
        assert_eq!(Bit::One.and(Bit::One), Bit::One);
        assert_eq!(Bit::One.and(Bit::Zero), Bit::Zero);
        assert_eq!(Bit::Zero.or(Bit::Zero), Bit::Zero);
        assert_eq!(Bit::One.xor(Bit::One), Bit::Zero);
        assert_eq!(Bit::One.xor(Bit::Zero), Bit::One);
        assert_eq!(Bit::Zero.not(), Bit::One);
    }

    /// Every operator table entry against the Kleene rule it encodes:
    /// the result is known exactly when every way of resolving the X
    /// inputs to 0 or 1 gives the same Boolean result.
    #[test]
    fn operator_tables_are_kleene_on_every_input_pair() {
        let all = [Bit::Zero, Bit::One, Bit::X];
        let resolve = |b: Bit| match b.to_bool() {
            Some(v) => vec![v],
            None => vec![false, true],
        };
        let kleene = |a: Bit, b: Bit, op: fn(bool, bool) -> bool| {
            let outs: Vec<bool> = resolve(a)
                .into_iter()
                .flat_map(|x| resolve(b).into_iter().map(move |y| op(x, y)))
                .collect();
            if outs.iter().all(|&o| o == outs[0]) {
                Bit::from_bool(outs[0])
            } else {
                Bit::X
            }
        };
        for a in all {
            assert_eq!(a.not(), kleene(a, a, |x, _| !x), "not {a}");
            for b in all {
                assert_eq!(a.and(b), kleene(a, b, |x, y| x & y), "{a} and {b}");
                assert_eq!(a.or(b), kleene(a, b, |x, y| x | y), "{a} or {b}");
                assert_eq!(a.xor(b), kleene(a, b, |x, y| x ^ y), "{a} xor {b}");
            }
        }
    }

    #[test]
    fn bit_vector_roundtrip() {
        for v in [0u64, 1, 0xa5, 0xff, 0x1234] {
            assert_eq!(value_of(&bits_of(v, 16)), Some(v & 0xffff));
        }
        let mut bits = bits_of(5, 4);
        bits[2] = Bit::X;
        assert_eq!(value_of(&bits), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Bit::from(true), Bit::One);
        assert_eq!(Bit::from(false), Bit::Zero);
        assert_eq!(Bit::One.to_bool(), Some(true));
        assert_eq!(Bit::X.to_bool(), None);
        assert!(Bit::One.is_known());
        assert!(!Bit::X.is_known());
    }

    #[test]
    fn display() {
        assert_eq!(Bit::Zero.to_string(), "0");
        assert_eq!(Bit::One.to_string(), "1");
        assert_eq!(Bit::X.to_string(), "x");
    }
}
