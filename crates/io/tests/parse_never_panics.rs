//! Never-panic properties for the two netlist parsers. Netlist files
//! are untrusted input: arbitrary text, and mutated copies of the golden
//! fixtures, must either parse or fail with a typed [`IoError::Parse`]
//! whose `line:column` lies inside the input.

use lowvolt_io::{circuits_equivalent, parse_str, Format, IoError};
use proptest::prelude::*;

/// Tokens that steer either parser into its edge cases: directives,
/// gate names, cover rows, continuations and comments.
const NASTY: &[&str] = &[
    ".model", ".inputs", ".outputs", ".names", ".latch", ".end", ".subckt", "INPUT", "OUTPUT",
    "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF", "DFF", "re", "fe", "clk", "a", "b",
    "y", "0", "1", "-", "2", "(", ")", ",", "=", " ", "\t", "\n", "\r\n", "\\", "\\\n", "#", "é",
    "😀", "\u{0}", "\r", "\u{b}", "\u{a0}", "\u{3000}", "信号",
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

/// Parses `text`, which must succeed and match `reference` structurally.
fn assert_parses_like(format: Format, text: &str, reference: &str) {
    let want = parse_str(format, "v", reference).unwrap_or_else(|e| panic!("{e}: {reference:?}"));
    let got = parse_str(format, "v", text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
    circuits_equivalent(&want, &got).unwrap_or_else(|e| panic!("{e}: {text:?}"));
    assert_eq!(
        want.netlist.structural_hash(),
        got.netlist.structural_hash()
    );
}

#[test]
fn line_endings_tabs_and_unicode_whitespace_separate_like_spaces() {
    for &(format, fixture) in FIXTURES {
        assert_parses_like(format, &fixture.replace('\n', "\r\n"), fixture);
        assert_parses_like(format, &fixture.replace(' ', "\t"), fixture);
        // Vertical tab, no-break space and ideographic space are
        // whitespace too (`char::is_whitespace`).
        for ws in ["\u{b}", "\u{a0}", "\u{3000}"] {
            assert_parses_like(format, &fixture.replace(' ', ws), fixture);
        }
        check_parser(format, &fixture.replace('\n', "\r")).unwrap();
    }
}

#[test]
fn non_ascii_names_survive_both_parsers() {
    let blif = ".model m\n.inputs ä β\n.outputs 信号 😀\n\
                .names ä β 信号\n11 1\n.names 信号 😀\n0 1\n.end\n";
    let c = parse_str(Format::Blif, "m", blif).unwrap();
    let names: Vec<&str> = c
        .netlist
        .node_ids()
        .map(|id| c.netlist.node_name(id))
        .collect();
    assert_eq!(names, ["ä", "β", "信号", "😀"]);
    let written = lowvolt_io::write_blif(&c).unwrap();
    assert_parses_like(Format::Blif, &written, blif);

    let bench = "INPUT(ä)\nINPUT(β)\nOUTPUT(😀)\n信号 = NAND(ä, β)\n😀 = NOT(信号)\n";
    let c = parse_str(Format::Bench, "m", bench).unwrap();
    let names: Vec<&str> = c
        .netlist
        .node_ids()
        .map(|id| c.netlist.node_name(id))
        .collect();
    assert_eq!(names, ["ä", "β", "😀", "信号"]);
    // A duplicate non-ASCII output is positioned in bytes, like any other.
    let err = parse_str(Format::Blif, "m", ".model m\n.outputs 信号 信号\n").unwrap_err();
    assert_eq!(
        err,
        IoError::parse(2, 10, "`信号` is declared an output twice")
    );
}

#[test]
fn continuation_at_end_of_file_is_harmless() {
    let (_, latch2) = FIXTURES[1];
    let body = latch2.trim_end();
    // A trailing `\` folds in nothing: with or without a final newline
    // the last directive still parses.
    for tail in [" \\", " \\\n", " \\\n\\", " \\\r\n"] {
        assert_parses_like(Format::Blif, &format!("{body}{tail}"), latch2);
    }
    // An unfinished cover at the end is a positioned error, not a panic.
    for text in [
        ".names a \\",
        ".model m\n.inputs a\n.outputs y\n.names a y \\",
    ] {
        check_parser(Format::Blif, text).unwrap();
        check_parser(Format::Bench, text).unwrap();
        assert!(parse_str(Format::Blif, "m", text).is_err(), "{text:?}");
    }
}
