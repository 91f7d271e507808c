//! Exit-code discipline, end to end: 0 = success (including stdout
//! truncated by a closed pipe), 1 = usage error, 2 = runtime error.
//! Scripts branch on these; each class is pinned for every subcommand
//! family.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn tasm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tasm"))
        .args(args)
        .output()
        .expect("spawn tasm")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tasm_exit_{}_{name}", std::process::id()))
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn usage_errors_exit_1() {
    // Unknown command.
    assert_eq!(code(&tasm(&["frobnicate"])), 1);
    // Missing required options.
    assert_eq!(code(&tasm(&["query"])), 1);
    assert_eq!(code(&tasm(&["ted"])), 1);
    assert_eq!(code(&tasm(&["stats"])), 1);
    assert_eq!(code(&tasm(&["convert"])), 1);
    assert_eq!(code(&tasm(&["index"])), 1);
    assert_eq!(code(&tasm(&["serve"])), 1); // no --doc
    assert_eq!(code(&tasm(&["client"])), 1); // no --socket/--tcp
                                             // Malformed option values and domain misuse.
    assert_eq!(
        code(&tasm(&["gen", "--dataset", "nope", "--nodes", "10"])),
        1
    );
    assert_eq!(code(&tasm(&["gen", "--nodes", "many"])), 1);
    let err = tasm(&["gen", "--nodes", "many"]);
    assert!(
        String::from_utf8_lossy(&err.stderr).starts_with("usage error:"),
        "usage failures say so on stderr"
    );
}

#[test]
fn serve_and_client_reject_options_they_do_not_read() {
    // Neither the doc nor the socket exists: were the option accepted,
    // the command would fail at run time with exit 2, not exit 1.
    let serve = [
        "serve",
        "--socket",
        "unused.sock",
        "--doc",
        "d=/no/such/doc.xml",
    ];
    let client = ["client", "--socket", "unused.sock", "--send", "PING"];
    for (base, extra) in [
        (&serve, ["--batch-window-ms", "1"]),   // removed
        (&serve, ["--max-batch", "4"]),         // removed
        (&serve, ["--drain-deadline-ms", "1"]), // misspelled --drain-timeout-ms
        (&client, ["--retry", "3"]),            // misspelled --retries
    ] {
        let args: Vec<&str> = base.iter().chain(&extra).copied().collect();
        let out = tasm(&args);
        assert_eq!(code(&out), 1, "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {}", extra[0])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn every_subcommand_rejects_options_it_does_not_read() {
    // Every input is missing (and `/dev/null/x` cannot be created):
    // were the option accepted, the command would fail at run time
    // with exit 2 — or, for `gen`, succeed — instead of exiting 1.
    let cases: [(&[&str], &str); 12] = [
        (
            &["query", "--query-str", "<a/>", "--doc", "/no/d.xml"],
            "--thread",
        ),
        (
            &[
                "corpus",
                "query",
                "--dir",
                "/dev/null/x",
                "--query-str",
                "<a/>",
            ],
            "--thread",
        ),
        (
            &[
                "corpus",
                "build",
                "--dir",
                "/dev/null/x",
                "--doc",
                "a=/no/a.xml",
            ],
            "--docs",
        ),
        (
            &[
                "corpus",
                "add",
                "--dir",
                "/dev/null/x",
                "--doc",
                "a=/no/a.xml",
            ],
            "--docs",
        ),
        (&["corpus", "fsck", "--dir", "/dev/null/x"], "--repiar"),
        (
            &["index", "--doc", "/no/d.xml", "--out", "/dev/null/x"],
            "--threads",
        ),
        (
            &["convert", "--doc", "/no/d.xml", "--out", "/dev/null/x"],
            "--outt",
        ),
        (&["gen", "--nodes", "10"], "--sed"),
        (&["stats", "--doc", "/no/d.xml"], "--tau"),
        (&["candidates", "--doc", "/no/d.xml"], "--compare-simpel"),
        (
            &["ted", "--left", "/no/a.xml", "--right", "/no/b.xml"],
            "--k",
        ),
        (
            &["query", "--query-str", "<a/>", "--doc", "/no/d.xml"],
            "--stat",
        ),
    ];
    for (base, extra) in cases {
        let args: Vec<&str> = base.iter().copied().chain([extra, "4"]).collect();
        let out = tasm(&args);
        assert_eq!(code(&out), 1, "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {extra}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn stray_positional_words_are_usage_errors() {
    // Every input is missing: were the word ignored, the command would
    // fail at run time with exit 2 instead of exiting 1.
    let cases: [(&[&str], &str); 4] = [
        (&["stats", "d.xml", "--doc", "/no/d.xml"], "d.xml"),
        (
            &[
                "query",
                "--query-str",
                "<a/>",
                "--doc",
                "/no/d.xml",
                "--k",
                "1",
                "stray.xml",
            ],
            "stray.xml",
        ),
        // `corpus` reads one action word, and only one.
        (
            &[
                "corpus",
                "query",
                "stray",
                "--dir",
                "/no/x",
                "--query-str",
                "<a/>",
            ],
            "stray",
        ),
        (
            &[
                "ted",
                "extra",
                "--left",
                "/no/a.xml",
                "--right",
                "/no/b.xml",
            ],
            "extra",
        ),
    ];
    for (args, word) in cases {
        let out = tasm(args);
        assert_eq!(code(&out), 1, "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected argument '{word}'")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn thread_counts_over_the_limit_are_usage_errors() {
    // No input exists: had the count been accepted, each command would
    // fail at run time opening it (exit 2). A usage error (exit 1)
    // shows the count was refused while the arguments were checked,
    // before any file was opened or thread started.
    let missing = "/no/such/doc.xml";
    let dir = "/no/such/corpus";
    for args in [
        &[
            "query",
            "--query-str",
            "<a/>",
            "--doc",
            missing,
            "--threads",
            "100000",
        ][..],
        &[
            "corpus",
            "query",
            "--dir",
            dir,
            "--query-str",
            "<a/>",
            "--threads",
            "100000",
        ],
        &[
            "serve",
            "--socket",
            "unused.sock",
            "--doc",
            &format!("d={missing}"),
            "--workers",
            "100000",
        ],
        &[
            "serve",
            "--socket",
            "unused.sock",
            "--corpus",
            &format!("c={dir}"),
            "--corpus-threads",
            "100000",
        ],
    ] {
        let out = tasm(args);
        assert_eq!(code(&out), 1, "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("limit of 256"), "{args:?}: {stderr}");
    }
    // The limit itself is accepted: the same query fails only at run
    // time, on the missing document.
    let out = tasm(&[
        "query",
        "--query-str",
        "<a/>",
        "--doc",
        missing,
        "--threads",
        "256",
    ]);
    assert_eq!(code(&out), 2);
}

#[test]
fn runtime_errors_exit_2() {
    // Unreadable input file.
    let out = tasm(&[
        "query",
        "--query-str",
        "<a/>",
        "--doc",
        "/nonexistent/never.xml",
    ]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));

    // Malformed XML content (the command line itself was fine).
    let bad = tmp("bad.xml");
    std::fs::write(&bad, "<open><unclosed>").unwrap();
    let out = tasm(&["stats", "--doc", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2);

    // A truncated .pq must be a loud runtime error, not a smaller doc.
    let doc = tmp("trunc_src.xml");
    let pq = tmp("trunc.pq");
    assert_eq!(
        code(&tasm(&[
            "gen",
            "--nodes",
            "500",
            "--out",
            doc.to_str().unwrap()
        ])),
        0
    );
    assert_eq!(
        code(&tasm(&[
            "convert",
            "--doc",
            doc.to_str().unwrap(),
            "--out",
            pq.to_str().unwrap()
        ])),
        0
    );
    let bytes = std::fs::read(&pq).unwrap();
    std::fs::write(&pq, &bytes[..bytes.len() - 12]).unwrap();
    let out = tasm(&["stats", "--doc", pq.to_str().unwrap()]);
    assert_eq!(code(&out), 2);

    // A well-formed .pq whose node names a label id past its own
    // dictionary is refused, not a panic.
    let mut dict = tasm_tree::LabelDict::new();
    let known = dict.intern("a");
    let tree = tasm_tree::Tree::from_postorder([(tasm_tree::LabelId(5), 1), (known, 2)]).unwrap();
    tasm_tree::postfile::save_tree(&pq, &tree, &dict).unwrap();
    let out = tasm(&["stats", "--doc", pq.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not in the file's dictionary"), "{stderr}");

    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&doc);
    let _ = std::fs::remove_file(&pq);
}

#[test]
fn ted_over_the_matrix_budget_exits_2() {
    // Two 10 k-node trees need 2 · 10,001² · 8 bytes (1.5 GiB) of
    // distance matrices: refused up front, where the allocation would
    // otherwise abort the process.
    let doc = tmp("ted_budget.xml");
    let path = doc.to_str().unwrap();
    let gen = tasm(&["gen", "--nodes", "10000", "--out", path]);
    assert_eq!(code(&gen), 0);
    let out = tasm(&["ted", "--left", path, "--right", path]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MiB of distance matrices"), "{stderr}");
    let _ = std::fs::remove_file(&doc);
}

#[test]
fn oversized_pq_label_count_exits_2() {
    // A 24-byte header whose dictionary count no file could hold: the
    // reader must fail on the short read, not abort on the allocation
    // (exit 134) or panic on capacity overflow (exit 101).
    for (name, n_labels) in [("labels_2e40.pq", 1u64 << 40), ("labels_max.pq", u64::MAX)] {
        let pq = tmp(name);
        let mut bytes = b"TASMPQ1\n".to_vec();
        bytes.extend_from_slice(&10u64.to_le_bytes());
        bytes.extend_from_slice(&n_labels.to_le_bytes());
        std::fs::write(&pq, &bytes).unwrap();
        let path = pq.to_str().unwrap();
        let out = tasm(&["query", "--query-str", "<a/>", "--doc", path]);
        assert_eq!(code(&out), 2, "n_labels = {n_labels}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(path), "{stderr}");
        let _ = std::fs::remove_file(&pq);
    }
}

#[test]
fn pqi_entry_label_past_the_dictionary_exits_2() {
    // The postings checksum does not cover the entry section, so a
    // label id past the dictionary must be caught by the loader's own
    // range check (exit 2), not index out of bounds (exit 101).
    let mut dict = tasm_tree::LabelDict::new();
    let tree = tasm_tree::bracket::parse("{a{b}{c{b}}{d}}", &mut dict).unwrap();
    let pqi = tmp("bad_entry_label.pqi");
    tasm_index::IndexedDocument::save(&pqi, &tree, &dict).unwrap();
    let mut bytes = std::fs::read(&pqi).unwrap();
    // Header: magic, node count, label count, then length-prefixed names.
    let mut at = 24;
    for _ in 0..dict.len() {
        at += 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    }
    bytes[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    std::fs::write(&pqi, &bytes).unwrap();
    let path = pqi.to_str().unwrap();
    let out = tasm(&["query", "--query-str", "<a/>", "--index", path]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(path) && stderr.contains("label id"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&pqi);
}

#[test]
fn closed_stdout_pipe_exits_0() {
    // `tasm gen | head` — the reader hangs up after a few bytes; the
    // generator must treat that as success, not an error.
    let mut child = Command::new(env!("CARGO_BIN_EXE_tasm"))
        .args(["gen", "--dataset", "dblp", "--nodes", "300000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tasm gen");
    let mut stdout = child.stdout.take().unwrap();
    let mut first = [0u8; 64];
    stdout.read_exact(&mut first).unwrap();
    drop(stdout); // close the pipe with megabytes still unwritten
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "EPIPE is a clean exit");
}
