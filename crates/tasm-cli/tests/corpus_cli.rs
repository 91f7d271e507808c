//! The `tasm corpus` lifecycle end to end, through the real binary:
//! build → query → corrupt → degraded query → fsck detect → repair →
//! byte-identical recovery. This is the same sequence the CI corpus
//! smoke job runs, pinned here so it breaks locally first.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn tasm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tasm"))
        .args(args)
        .output()
        .expect("spawn tasm")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tasm_corpus_cli_{}_{name}", std::process::id()))
}

fn gen_doc(name: &str, nodes: &str, seed: &str) -> PathBuf {
    let doc = tmp(name);
    let out = tasm(&[
        "gen",
        "--dataset",
        "dblp",
        "--nodes",
        nodes,
        "--seed",
        seed,
        "--out",
        doc.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    doc
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn corpus_lifecycle_build_corrupt_degrade_repair() {
    let a = gen_doc("a.xml", "600", "11");
    let b = gen_doc("b.xml", "800", "12");
    let dir = tmp("corp");
    let _ = fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    // Build a two-shard corpus.
    let out = tasm(&[
        "corpus",
        "build",
        "--dir",
        dir_s,
        "--doc",
        &format!("a={}", a.display()),
        "--doc",
        &format!("b={}", b.display()),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Rebuilding in place must refuse: a corpus is never clobbered.
    let out = tasm(&["corpus", "build", "--dir", dir_s]);
    assert_eq!(out.status.code(), Some(2));

    // fsck: healthy, exit 0.
    let out = tasm(&["corpus", "fsck", "--dir", dir_s]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("2/2 shard(s) healthy"));

    // Baseline query over the full corpus.
    let query = &[
        "corpus",
        "query",
        "--dir",
        dir_s,
        "--query-str",
        "<article><author/><title/></article>",
        "--k",
        "5",
    ];
    let out = tasm(query);
    assert!(out.status.success());
    let healthy_rows = stdout(&out);
    assert!(!healthy_rows.contains("# degraded"), "{healthy_rows}");

    // --strict on a healthy corpus changes nothing: exit 0.
    let mut strict_query = query.to_vec();
    strict_query.push("--strict");
    let out = tasm(&strict_query);
    assert!(
        out.status.success(),
        "--strict must pass on a healthy corpus"
    );

    // The shard-level scheduler answers identically (same rows, byte
    // for byte) and --stats breaks the time down per shard.
    let mut par_query = query.to_vec();
    par_query.extend_from_slice(&["--threads", "4", "--stats"]);
    let out = tasm(&par_query);
    assert!(out.status.success());
    let par_rows = stdout(&out);
    let rows_only = |s: &str| {
        s.lines()
            .filter(|l| {
                l.split_whitespace()
                    .next()
                    .is_some_and(|t| t.parse::<u32>().is_ok())
            })
            .map(String::from)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        rows_only(&par_rows),
        rows_only(&healthy_rows),
        "scheduled rows must match the sequential run"
    );
    assert!(par_rows.contains("# shard 0 (a):"), "{par_rows}");
    assert!(par_rows.contains("# shard 1 (b):"), "{par_rows}");

    // Flip one bit in shard a.
    let shard = dir.join("a.pqi");
    let clean = fs::read(&shard).unwrap();
    let mut bytes = clean.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    fs::write(&shard, &bytes).unwrap();

    // fsck detects and exits 2; the report names the shard.
    let out = tasm(&["corpus", "fsck", "--dir", dir_s]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(stdout(&out).contains("quarantined a"), "{}", stdout(&out));

    // Queries still answer, from shard b only, with the marker.
    let out = tasm(query);
    assert!(out.status.success(), "degraded queries must not abort");
    let degraded_rows = stdout(&out);
    assert!(degraded_rows.contains("# degraded: 1/2"), "{degraded_rows}");
    // Every surviving row comes from b and matches the healthy run's
    // b-rows (healthy-shard rankings are untouched by the damage).
    for line in degraded_rows.lines().filter(|l| {
        l.split_whitespace()
            .next()
            .is_some_and(|t| t.parse::<u32>().is_ok())
    }) {
        let row_doc = line.split_whitespace().nth(1).unwrap();
        assert_eq!(row_doc, "b", "quarantined shard leaked: {line}");
    }

    // --strict refuses the degraded answer with exit 2 — but only
    // after printing the healthy rows and the marker.
    let out = tasm(&strict_query);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--strict must fail on a degraded corpus"
    );
    let strict_rows = stdout(&out);
    assert!(strict_rows.contains("# degraded: 1/2"), "{strict_rows}");
    assert!(
        !rows_only(&strict_rows).is_empty(),
        "healthy rows still print under --strict"
    );

    // Repair re-indexes from the recorded source: exit 0, bytes
    // identical to the pre-corruption shard, rankings restored.
    let out = tasm(&["corpus", "fsck", "--dir", dir_s, "--repair"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("repaired a"), "{}", stdout(&out));
    assert_eq!(fs::read(&shard).unwrap(), clean, "repair is byte-identical");
    let out = tasm(query);
    assert!(out.status.success());
    assert_eq!(
        stdout(&out)
            .lines()
            .filter(|l| !l.starts_with("# elapsed"))
            .collect::<Vec<_>>(),
        healthy_rows
            .lines()
            .filter(|l| !l.starts_with("# elapsed"))
            .collect::<Vec<_>>(),
        "repaired corpus answers exactly as before"
    );

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&a);
    let _ = fs::remove_file(&b);
}

#[test]
fn corpus_query_rejects_k_zero_and_survives_huge_k() {
    let a = gen_doc("k-a.xml", "300", "31");
    let dir = tmp("corp-k");
    let _ = fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let out = tasm(&[
        "corpus",
        "build",
        "--dir",
        dir_s,
        "--doc",
        &format!("a={}", a.display()),
    ]);
    assert!(out.status.success());
    let query = |k: &str| {
        tasm(&[
            "corpus",
            "query",
            "--dir",
            dir_s,
            "--query-str",
            "<article/>",
            "--k",
            k,
        ])
    };
    // A top-0 ranking is a usage error, as in `tasm query`.
    let out = query("0");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k must be >= 1"));
    // A huge k ranks every subtree instead of aborting on an up-front
    // allocation.
    let out = query("99999999999999");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).lines().any(|l| l.starts_with("300 ")));

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&a);
}

#[test]
fn corpus_add_extends_an_existing_corpus() {
    let a = gen_doc("add-a.xml", "300", "21");
    let b = gen_doc("add-b.xml", "300", "22");
    let dir = tmp("corp-add");
    let _ = fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let out = tasm(&[
        "corpus",
        "build",
        "--dir",
        dir_s,
        "--doc",
        &format!("a={}", a.display()),
    ]);
    assert!(out.status.success());
    let out = tasm(&[
        "corpus",
        "add",
        "--dir",
        dir_s,
        "--doc",
        &format!("b={}", b.display()),
    ]);
    assert!(out.status.success());
    // Duplicate names are refused.
    let out = tasm(&[
        "corpus",
        "add",
        "--dir",
        dir_s,
        "--doc",
        &format!("b={}", b.display()),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let out = tasm(&["corpus", "fsck", "--dir", dir_s]);
    assert!(stdout(&out).contains("2/2 shard(s) healthy"));

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&a);
    let _ = fs::remove_file(&b);
}
