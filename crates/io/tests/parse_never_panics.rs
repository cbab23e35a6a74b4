//! Never-panic properties for the two netlist parsers. Netlist files
//! are untrusted input: arbitrary text, and mutated copies of the golden
//! fixtures, must either parse or fail with a typed [`IoError::Parse`]
//! whose `line:column` lies inside the input.

use lowvolt_io::{parse_str, Format, IoError};
use proptest::prelude::*;

/// Tokens that steer either parser into its edge cases: directives,
/// gate names, cover rows, continuations and comments.
const NASTY: &[&str] = &[
    ".model", ".inputs", ".outputs", ".names", ".latch", ".end", ".subckt", "INPUT", "OUTPUT",
    "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF", "DFF", "re", "fe", "clk", "a", "b",
    "y", "0", "1", "-", "2", "(", ")", ",", "=", " ", "\t", "\n", "\r\n", "\\", "\\\n", "#", "é",
    "😀", "\u{0}",
];

const FIXTURES: &[(Format, &str)] = &[
    (Format::Bench, include_str!("../fixtures/c17.bench")),
    (Format::Blif, include_str!("../fixtures/latch2.blif")),
];

/// The parsers' contract on one text: no panic, and any failure is a
/// parse error anchored at a line that exists (or the one just past
/// the end) and a column within that line or just past its end.
fn check_parser(format: Format, text: &str) -> Result<(), TestCaseError> {
    match parse_str(format, "prop", text) {
        Ok(_) => {}
        Err(IoError::Parse { line, column, .. }) => {
            let lines: Vec<&str> = text.lines().collect();
            prop_assert!(
                (1..=lines.len() + 1).contains(&line),
                "{format:?}: line {line} outside {} lines of {text:?}",
                lines.len()
            );
            let width = lines.get(line - 1).map_or(0, |l| l.len());
            prop_assert!(
                (1..=width + 1).contains(&column),
                "{format:?}: column {column} outside line {line} ({width} bytes) of {text:?}"
            );
        }
        Err(other) => prop_assert!(false, "{format:?}: untyped error {other:?} for {text:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn arbitrary_strings_never_panic_the_parsers(
        picks in prop::collection::vec(any::<u64>(), 0..64)
    ) {
        // Three in four pieces come from the syntax pool, the rest are
        // any Unicode scalar.
        let text: String = picks
            .iter()
            .map(|&r| match r % 4 {
                0 => char::from_u32((r >> 8) as u32 % 0x11_0000)
                    .unwrap_or('\u{fffd}')
                    .to_string(),
                _ => NASTY[(r >> 2) as usize % NASTY.len()].to_string(),
            })
            .collect();
        check_parser(Format::Blif, &text)?;
        check_parser(Format::Bench, &text)?;
    }

    #[test]
    fn mutated_fixtures_never_panic_the_parsers(
        base in 0usize..FIXTURES.len(),
        edits in prop::collection::vec(any::<u64>(), 1..8)
    ) {
        let (format, fixture) = FIXTURES[base];
        let mut chars: Vec<char> = fixture.chars().collect();
        for r in edits {
            let at = (r >> 16) as usize % (chars.len() + 1);
            let piece: Vec<char> = NASTY[(r >> 2) as usize % NASTY.len()].chars().collect();
            match r % 3 {
                0 => {
                    chars.splice(at..at, piece);
                }
                1 if at < chars.len() => {
                    let end = (at + piece.len()).min(chars.len());
                    chars.drain(at..end);
                }
                _ if at < chars.len() => {
                    let end = (at + piece.len()).min(chars.len());
                    chars.splice(at..end, piece);
                }
                _ => chars.extend(piece),
            }
        }
        let text: String = chars.into_iter().collect();
        check_parser(format, &text)?;
    }
}
