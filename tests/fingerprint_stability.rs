//! Cross-process fingerprint stability: a plan's fingerprint and
//! snapshot check are a pure function of the query text, whatever ids
//! and order the process's string interner assigned.
//!
//! Engine images hold no operator state. Recovery re-registers each
//! view from its text in a *different* process, and the image format's
//! `(fingerprint, snapshot_check)`-keyed state section is written empty
//! (only perfbench's twin restores state, and within one process). What
//! the promise guards today is that the recovered view is the one that
//! was registered: canonicalisation orders operands by the same plan
//! rendering the fingerprint hashes, so the recovering process builds
//! the same canonical plans and shares the same nodes; and a state
//! section an image carries stays keyed by values every process
//! computes. This test asserts the promise in
//! `pgq_algebra::fingerprint`'s module docs directly: it re-runs itself
//! as a child process that **scrambles its interner first** (interning a
//! pile of decoy symbols before any query text), computes the
//! fingerprint and snapshot-check of every probe query, and writes them
//! to a file. The parent computes the same hashes in its own pristine
//! process and compares, hex for hex.
//!
//! The child/parent split rides on two env vars: `PGQ_FP_CHILD=1`
//! selects the child branch, `PGQ_FP_OUT` names the hand-off file.

use std::io::Write as _;
use std::process::Command;

use pgq_algebra::canon::canonicalize;
use pgq_algebra::pipeline::compile_query;
use pgq_common::intern::Symbol;
use pgq_parser::parse_query;

/// Probe queries covering every fingerprint input class: scan labels,
/// pushed properties, join keys, predicates, projection names,
/// aggregates, and variable-length specs.
const PROBES: &[&str] = &[
    "MATCH (p:Post) RETURN p",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) RETURN p, t",
    "MATCH (a:Comm)-[:REPLY]->(b:Comm), (b)-[:REPLY]->(c:Comm), (a)-[:REPLY]->(c) RETURN a, b, c",
    "MATCH (u:User)-[:LIKES]->(p:Post) RETURN u, count(p) AS liked",
];

/// One line per probe: `<fingerprint-hex> <snapshot-check-hex>` for the
/// raw compiled plan AND its canonical form (four hashes per query).
fn hash_report() -> String {
    let mut out = String::new();
    for q in PROBES {
        let compiled = compile_query(&parse_query(q).unwrap()).unwrap();
        let canon = canonicalize(&compiled.fra);
        out.push_str(&format!(
            "{:016x} {:016x} {:016x} {:016x}\n",
            compiled.fra.fingerprint().0,
            compiled.fra.snapshot_check().0,
            canon.plan.fingerprint().0,
            canon.plan.snapshot_check().0,
        ));
    }
    out
}

#[test]
fn fingerprint_survives_process_boundary() {
    if std::env::var_os("PGQ_FP_CHILD").is_some() {
        // Child branch: scramble the interner so every symbol the probe
        // queries intern lands on a different id than in the parent,
        // then report hashes.
        for i in 0..257 {
            Symbol::intern(&format!("decoy-symbol-{i}"));
        }
        let out = std::env::var("PGQ_FP_OUT").expect("child needs PGQ_FP_OUT");
        let mut f = std::fs::File::create(&out).expect("create hand-off file");
        f.write_all(hash_report().as_bytes()).expect("write report");
        return;
    }

    let dir = std::env::temp_dir().join(format!("pgq-fp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("child-hashes.txt");

    let status = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "fingerprint_survives_process_boundary",
            "--nocapture",
        ])
        .env("PGQ_FP_CHILD", "1")
        .env("PGQ_FP_OUT", &out)
        .status()
        .expect("spawn child test process");
    assert!(status.success(), "child process failed: {status}");

    let child = std::fs::read_to_string(&out).expect("read child report");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir(&dir);

    let parent = hash_report();
    for ((cl, pl), q) in child.lines().zip(parent.lines()).zip(PROBES) {
        assert_eq!(
            cl, pl,
            "fingerprints diverged across processes for probe `{q}` \
             (child vs parent: raw-fp raw-check canon-fp canon-check)"
        );
    }
    assert_eq!(
        child.lines().count(),
        parent.lines().count(),
        "child reported a different number of probes"
    );
}
