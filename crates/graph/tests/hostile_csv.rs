//! Hostile CSV: every field of a sample file, replaced in turn by an
//! extreme — ids at the top of the id space, empty fields, lone and
//! truncated `%` escapes, escapes before multi-byte chars, `NaN`, and
//! strings on either side of the 14-byte inline limit of string values.
//! `from_text` must give a typed error or a graph that round-trips
//! through `to_text`; it must never panic.

use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::csv::{from_text, to_text, CsvError};
use pgq_graph::props::Properties;

const SAMPLE: &str = "\
V|0|Post;Msg|lang=s:en&n=i:3&score=f:1.5
V|1|Comm|name=s:thirteen byte&w=b:true
V|2||
E|0|0|1|REPLY|w=b:true&s=s:a%7Cb
E|1|1|2|KNOWS|
";

const EXTREMES: &[&str] = &[
    "18446744073709551615",
    "18446744073709551614",
    "18446744073709551616",
    "-1",
    "",
    "%",
    "%4",
    "%zz",
    "%é",
    "%4é",
    "é%",
    "%C3%A9",
    "NaN",
    "-0",
    "inf",
    "thirteen byte",
    "fourteen bytes",
    "fifteen bytes..",
    "thirteen byteé",
    "twelve bytesé",
];

/// The byte ranges of a line's fields: the pieces between `|`, `;`,
/// `&`, `=` and `:`, and each whole `|`-separated field.
fn fields(line: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for delims in [&['|', ';', '&', '=', ':'][..], &['|'][..]] {
        let mut start = 0;
        for (i, c) in line.char_indices() {
            if delims.contains(&c) {
                out.push((start, i));
                start = i + 1;
            }
        }
        out.push((start, line.len()));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// `Ok` graphs must survive `to_text` → `from_text` → `to_text` exactly.
fn check(text: &str) -> Result<(), CsvError> {
    let g = from_text(text)?;
    let dumped = to_text(&g).expect("an imported graph holds only atoms");
    let again = from_text(&dumped).unwrap_or_else(|e| panic!("{text:?} → {dumped:?}: {e}"));
    assert_eq!(
        to_text(&again).unwrap(),
        dumped,
        "{text:?} does not round-trip"
    );
    Ok(())
}

#[test]
fn every_field_replaced_by_an_extreme_is_typed_or_round_trips() {
    check(SAMPLE).expect("the sample itself imports");
    let lines: Vec<&str> = SAMPLE.lines().collect();
    let (mut cases, mut rejected) = (0, 0);
    for (n, line) in lines.iter().enumerate() {
        for (start, end) in fields(line) {
            for x in EXTREMES {
                let mut hostile = lines.clone();
                let patched = format!("{}{x}{}", &line[..start], &line[end..]);
                hostile[n] = &patched;
                cases += 1;
                if check(&hostile.join("\n")).is_err() {
                    rejected += 1;
                }
            }
        }
    }
    assert!(cases > 500, "only {cases} cases");
    assert!(
        0 < rejected && rejected < cases,
        "{rejected}/{cases} rejected"
    );
}

#[test]
fn ids_without_a_successor_are_parse_errors() {
    for id in [u64::MAX, u64::MAX - 1] {
        for text in [
            format!("V|{id}||"),
            format!("V|0||\nE|{id}|0|0|T|"),
            format!("V|0||\nE|0|{id}|0|T|"),
        ] {
            assert!(
                matches!(from_text(&text), Err(CsvError::Parse { .. })),
                "{text}"
            );
        }
    }
    // The largest id accepted still leaves the store a next id.
    let mut g = from_text(&format!("V|{}||", u64::MAX - 2)).unwrap();
    let (last, _) = g.add_vertex([], Properties::new());
    assert_eq!(last, VertexId(u64::MAX - 1));
}

#[test]
fn strings_around_the_inline_limit_import_exactly() {
    let key = Symbol::intern("s");
    for s in EXTREMES.iter().filter(|s| !s.contains('%')) {
        let g = from_text(&format!("V|0|L|s=s:{s}")).unwrap();
        let v = g.vertex_ids().next().unwrap();
        assert_eq!(g.vertex_prop(v, key), Value::str(s));
    }
}
