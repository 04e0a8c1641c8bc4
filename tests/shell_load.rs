//! The shell's `:load` on a durable engine. `:load` builds a new
//! in-memory engine from a graph dump, so under `PGQ_DATA_DIR` it would
//! silently stop logging: every later write would be lost at the next
//! restart. The shell refuses it there and keeps the durable engine.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// Run the shell over `script` in batch mode with its data directory at
/// `data`; its standard output.
fn shell(data: &Path, script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pgq_shell"))
        .env("PGQ_BATCH", "1")
        .env("PGQ_DATA_DIR", data)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the shell starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn load_on_a_durable_engine_is_refused_and_later_writes_survive_a_restart() {
    let root = std::env::temp_dir().join(format!("pgq_shell_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let data = root.join("data");
    let dump = root.join("graph.txt");
    let dump = dump.to_str().unwrap();

    let first = shell(
        &data,
        &format!(
            "CREATE (:P {{x: 1}})\n:save {dump}\n:load {dump}\nCREATE (:P {{x: 2}})\n:health\n:quit\n"
        ),
    );
    assert!(first.contains("error: :load"), "{first}");
    assert!(!first.contains("loaded"), "{first}");
    assert!(!first.contains("in-memory engine"), "{first}");

    // Both writes were logged: a restart reads them back.
    let second = shell(&data, "MATCH (p:P) RETURN p.x AS x\n:quit\n");
    assert!(second.contains("(2 rows)"), "{second}");

    std::fs::remove_dir_all(&root).unwrap();
}
