//! Integration tests spawning the `tasm` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tasm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tasm"))
        .args(args)
        .output()
        .expect("spawn tasm")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tasm_cli_{}_{name}", std::process::id()))
}

#[test]
fn help_lists_commands() {
    let out = tasm(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for cmd in ["query", "ted", "gen", "stats", "candidates"] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = tasm(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));
}

#[test]
fn gen_stats_query_candidates_pipeline() {
    let doc = tmp("pipeline.xml");
    let doc_s = doc.to_str().unwrap();

    // gen
    let out = tasm(&[
        "gen",
        "--dataset",
        "dblp",
        "--nodes",
        "2000",
        "--seed",
        "7",
        "--out",
        doc_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(doc.exists());

    // stats
    let out = tasm(&["stats", "--doc", doc_s]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("nodes:"), "{text}");

    // query with each algorithm: identical distance column.
    let mut tables = Vec::new();
    for algo in ["postorder", "dynamic", "naive"] {
        let out = tasm(&[
            "query",
            "--query-str",
            "<article><author>Author_0</author><title>x</title></article>",
            "--doc",
            doc_s,
            "--k",
            "3",
            "--algorithm",
            algo,
            "--stats",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        let distances: Vec<String> = text
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| l.split_whitespace().nth(2).unwrap_or("").to_string())
            .collect();
        assert_eq!(distances.len(), 3, "{text}");
        tables.push(distances);
    }
    assert_eq!(tables[0], tables[1]);
    assert_eq!(tables[0], tables[2]);

    // candidates
    let out = tasm(&[
        "candidates",
        "--doc",
        doc_s,
        "--tau",
        "25",
        "--compare-simple",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("peak ring buffer"), "{text}");

    std::fs::remove_file(&doc).ok();
}

#[test]
fn ted_between_files() {
    let a = tmp("ted_a.xml");
    let b = tmp("ted_b.xml");
    std::fs::write(&a, "<x><y>1</y></x>").unwrap();
    std::fs::write(&b, "<x><y>2</y></x>").unwrap();
    let out = tasm(&[
        "ted",
        "--left",
        a.to_str().unwrap(),
        "--right",
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("delta = 1"), "{text}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn stats_flag_prints_prune_funnel_for_all_scan_paths() {
    let doc = tmp("funnel.xml");
    let doc_s = doc.to_str().unwrap();
    let out = tasm(&[
        "gen",
        "--dataset",
        "dblp",
        "--nodes",
        "4000",
        "--seed",
        "11",
        "--out",
        doc_s,
    ]);
    assert!(out.status.success());

    let q = "<article><author>Author_0</author><title>x</title></article>";
    // Single streaming scan, multi-query batch scan, sharded parallel
    // scan: every scan-engine path must report the per-tier funnel.
    let runs: Vec<Vec<&str>> = vec![
        vec![
            "query",
            "--query-str",
            q,
            "--doc",
            doc_s,
            "--k",
            "3",
            "--stats",
        ],
        vec![
            "query",
            "--query-str",
            q,
            "--query-str",
            "<book><title>y</title></book>",
            "--doc",
            doc_s,
            "--k",
            "3",
            "--stats",
        ],
        vec![
            "query",
            "--query-str",
            q,
            "--doc",
            doc_s,
            "--k",
            "3",
            "--threads",
            "2",
            "--stats",
        ],
    ];
    for args in runs {
        let out = tasm(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("# scan:"), "{args:?}\n{text}");
        assert!(text.contains("# prune funnel:"), "{args:?}\n{text}");
        assert!(text.contains("cascade prune rate"), "{args:?}\n{text}");
        // On a DBLP-shaped document with exact matches present, the
        // histogram tier must actually fire.
        let funnel = text
            .lines()
            .find(|l| l.starts_with("# prune funnel:"))
            .unwrap();
        assert!(
            !funnel.contains("histogram-pruned 0 "),
            "{args:?}\n{funnel}"
        );
    }
    std::fs::remove_file(&doc).ok();
}

#[test]
fn query_missing_doc_is_an_error() {
    let out = tasm(&["query", "--query-str", "<a/>"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--doc"));
}

#[test]
fn nonexistent_doc_is_a_clean_error_everywhere() {
    for args in [
        vec!["query", "--query-str", "<a/>", "--doc", "/no/such/file.xml"],
        vec![
            "query",
            "--query-str",
            "<a/>",
            "--doc",
            "/no/such/file.xml",
            "--threads",
            "2",
        ],
        vec!["query", "--query-str", "<a/>", "--doc", "/no/such/file.pq"],
        vec!["stats", "--doc", "/no/such/file.xml"],
        vec!["candidates", "--doc", "/no/such/file.xml", "--tau", "5"],
        vec![
            "convert",
            "--doc",
            "/no/such/file.xml",
            "--out",
            "/tmp/x.pq",
        ],
    ] {
        let out = tasm(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with("error:") && err.contains("/no/such/file"),
            "{args:?} -> {err}"
        );
    }
}

#[test]
fn malformed_doc_is_a_clean_error() {
    let doc = tmp("malformed.xml");
    std::fs::write(&doc, "<r><a></r>").unwrap();
    for algo in ["postorder", "dynamic", "naive"] {
        let out = tasm(&[
            "query",
            "--query-str",
            "<a/>",
            "--doc",
            doc.to_str().unwrap(),
            "--algorithm",
            algo,
        ]);
        assert!(!out.status.success(), "[{algo}] must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error:"), "[{algo}] {err}");
    }
    std::fs::remove_file(&doc).ok();
}

#[test]
fn truncated_pq_is_a_clean_error() {
    let xml = tmp("trunc.xml");
    let pq = tmp("trunc.pq");
    std::fs::write(&xml, "<r><a><b>x</b></a><a><b>y</b></a></r>").unwrap();
    let out = tasm(&[
        "convert",
        "--doc",
        xml.to_str().unwrap(),
        "--out",
        pq.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // Cut the file at an entry boundary: the surviving prefix is a valid
    // forest, so only the header count can reveal the truncation.
    let bytes = std::fs::read(&pq).unwrap();
    std::fs::write(&pq, &bytes[..bytes.len() - 16]).unwrap();
    // Every .pq consumer must reject it: the streaming postorder path,
    // the materializing paths (dynamic, --threads), and stats.
    for args in [
        vec!["query", "--query-str", "<a><b>x</b></a>", "--doc"],
        vec![
            "query",
            "--query-str",
            "<a><b>x</b></a>",
            "--algorithm",
            "dynamic",
            "--doc",
        ],
        vec![
            "query",
            "--query-str",
            "<a><b>x</b></a>",
            "--threads",
            "2",
            "--doc",
        ],
        vec!["stats", "--doc"],
    ] {
        let mut args = args.clone();
        args.push(pq.to_str().unwrap());
        let out = tasm(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("truncated"), "{args:?} -> {err}");
    }
    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&pq).ok();
}

#[test]
fn batch_queries_share_one_scan_and_match_solo_runs() {
    let doc = tmp("batch.xml");
    std::fs::write(&doc, "<r><a><b>x</b></a><a><b>y</b></a><c><d>z</d></c></r>").unwrap();
    let doc_s = doc.to_str().unwrap();
    let queries = ["<a><b>x</b></a>", "<c><d>z</d></c>"];

    let out = tasm(&[
        "query",
        "--query-str",
        queries[0],
        "--query-str",
        queries[1],
        "--doc",
        doc_s,
        "--k",
        "2",
        "--stats",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.matches("batched scan").count(), 2, "{text}");
    assert!(text.contains("scan tau"), "{text}");
    let batch_tables: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert_eq!(batch_tables.len(), 4, "{text}"); // 2 queries × k=2

    // Each batched table equals the solo run of the same query.
    for (qi, q) in queries.iter().enumerate() {
        let solo = tasm(&["query", "--query-str", q, "--doc", doc_s, "--k", "2"]);
        assert!(solo.status.success());
        let solo_text = String::from_utf8(solo.stdout).unwrap();
        let solo_tables: Vec<String> = solo_text
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            &batch_tables[qi * 2..qi * 2 + 2],
            solo_tables.as_slice(),
            "query {qi}"
        );
    }
    std::fs::remove_file(&doc).ok();
}

#[test]
fn threads_flag_matches_sequential_output() {
    let doc = tmp("threads.xml");
    let mut xml = String::from("<dblp>");
    for i in 0..50 {
        xml.push_str(&format!("<article><a>n{i}</a><t>t{}</t></article>", i % 5));
    }
    xml.push_str("</dblp>");
    std::fs::write(&doc, &xml).unwrap();
    let doc_s = doc.to_str().unwrap();
    let q = "<article><a>n7</a><t>t2</t></article>";

    let rows = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|s| s.to_string())
            .collect()
    };
    let seq = tasm(&["query", "--query-str", q, "--doc", doc_s, "--k", "4"]);
    assert!(seq.status.success());
    let seq_rows = rows(&String::from_utf8(seq.stdout).unwrap());
    assert_eq!(seq_rows.len(), 4);
    for threads in ["2", "4", "0"] {
        let par = tasm(&[
            "query",
            "--query-str",
            q,
            "--doc",
            doc_s,
            "--k",
            "4",
            "--threads",
            threads,
        ]);
        assert!(
            par.status.success(),
            "{}",
            String::from_utf8_lossy(&par.stderr)
        );
        let text = String::from_utf8(par.stdout).unwrap();
        assert_eq!(rows(&text), seq_rows, "--threads {threads}");
        assert!(text.contains("threads = "), "{text}");
    }
    std::fs::remove_file(&doc).ok();
}

#[test]
fn k_zero_is_a_usage_error() {
    let doc = tmp("k_zero.xml");
    std::fs::write(&doc, "<r><a/><a/></r>").unwrap();
    let doc_s = doc.to_str().unwrap();
    // Every path rejects it up front — sequential, batch, sharded and
    // indexed — instead of printing `k = 0` above a clamped 1-row table.
    for extra in [&[][..], &["--query-str", "<b/>"], &["--threads", "2"]] {
        let mut args = vec!["query", "--query-str", "<a/>", "--doc", doc_s, "--k", "0"];
        args.extend_from_slice(extra);
        let out = tasm(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no table on a usage error");
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("--k must be >= 1"));
    }
    std::fs::remove_file(&doc).ok();
}

#[test]
fn huge_k_ranks_every_subtree_instead_of_aborting() {
    // `--k 99999999999999` used to abort on an impossible up-front
    // allocation (exit 134). Every path must instead rank all subtrees.
    let doc = tmp("huge_k.xml");
    std::fs::write(&doc, "<r><a><b/></a><a/><c/></r>").unwrap();
    let doc_s = doc.to_str().unwrap();
    let pqi = tmp("huge_k.pqi");
    let pqi_s = pqi.to_str().unwrap();
    assert!(tasm(&["index", "--doc", doc_s, "--out", pqi_s])
        .status
        .success());
    let huge = "99999999999999";
    for args in [
        vec!["query", "--query-str", "<a/>", "--doc", doc_s, "--k", huge],
        vec![
            "query",
            "--query-str",
            "<a/>",
            "--doc",
            doc_s,
            "--k",
            huge,
            "--threads",
            "2",
        ],
        vec![
            "query",
            "--query-str",
            "<a/>",
            "--query-str",
            "<c/>",
            "--doc",
            doc_s,
            "--k",
            huge,
        ],
        vec![
            "query",
            "--query-str",
            "<a/>",
            "--index",
            pqi_s,
            "--k",
            huge,
        ],
        vec![
            "query",
            "--query-str",
            "<a/>",
            "--doc",
            doc_s,
            "--k",
            huge,
            "--algorithm",
            "dynamic",
        ],
    ] {
        let out = tasm(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // All 5 subtrees of the document are ranked.
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.lines().any(|l| l.starts_with("5 ")),
            "{args:?}: {text}"
        );
    }
    std::fs::remove_file(&doc).ok();
    std::fs::remove_file(&pqi).ok();
}

#[test]
fn threads_misuse_is_rejected() {
    let doc = tmp("threads_misuse.xml");
    std::fs::write(&doc, "<r><a/></r>").unwrap();
    let doc_s = doc.to_str().unwrap();
    // --threads with a non-postorder algorithm.
    let out = tasm(&[
        "query",
        "--query-str",
        "<a/>",
        "--doc",
        doc_s,
        "--algorithm",
        "dynamic",
        "--threads",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--threads"));
    std::fs::remove_file(&doc).ok();
}

#[test]
fn threads_compose_with_batch_queries() {
    // --threads together with repeated --query: batch×parallel. Every
    // per-query table must equal the sequential batched run, and the
    // funnel must be reported per query lane.
    let doc = tmp("batchpar.xml");
    let mut xml = String::from("<dblp>");
    for i in 0..60 {
        xml.push_str(&format!("<article><a>n{i}</a><t>t{}</t></article>", i % 5));
        if i % 4 == 0 {
            xml.push_str(&format!("<book><t>t{}</t></book>", i % 3));
        }
    }
    xml.push_str("</dblp>");
    std::fs::write(&doc, &xml).unwrap();
    let doc_s = doc.to_str().unwrap();
    let q1 = "<article><a>n7</a><t>t2</t></article>";
    let q2 = "<book><t>t1</t></book>";

    let rows = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|s| s.to_string())
            .collect()
    };
    let seq = tasm(&[
        "query",
        "--query-str",
        q1,
        "--query-str",
        q2,
        "--doc",
        doc_s,
        "--k",
        "3",
    ]);
    assert!(
        seq.status.success(),
        "{}",
        String::from_utf8_lossy(&seq.stderr)
    );
    let seq_rows = rows(&String::from_utf8(seq.stdout).unwrap());
    assert_eq!(seq_rows.len(), 6); // 2 queries × k=3

    for threads in ["2", "4", "0"] {
        let par = tasm(&[
            "query",
            "--query-str",
            q1,
            "--query-str",
            q2,
            "--doc",
            doc_s,
            "--k",
            "3",
            "--threads",
            threads,
            "--stats",
        ]);
        assert!(
            par.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&par.stderr)
        );
        let text = String::from_utf8(par.stdout).unwrap();
        assert_eq!(rows(&text), seq_rows, "--threads {threads}");
        assert_eq!(text.matches("batched scan").count(), 2, "{text}");
        // The per-lane funnel: one line per query.
        assert!(text.contains("# lane 1 funnel:"), "{text}");
        assert!(text.contains("# lane 2 funnel:"), "{text}");
        assert!(text.contains("# prune funnel:"), "{text}");
    }
    std::fs::remove_file(&doc).ok();
}

#[test]
fn batch_threads_works_on_pq_files() {
    let xml = tmp("batchpar_conv.xml");
    let pq = tmp("batchpar_conv.pq");
    std::fs::write(&xml, "<r><a><b>x</b></a><a><b>y</b></a><c><d>z</d></c></r>").unwrap();
    let out = tasm(&[
        "convert",
        "--doc",
        xml.to_str().unwrap(),
        "--out",
        pq.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = tasm(&[
        "query",
        "--query-str",
        "<a><b>x</b></a>",
        "--query-str",
        "<c><d>z</d></c>",
        "--doc",
        pq.to_str().unwrap(),
        "--k",
        "1",
        "--threads",
        "2",
        "--show-xml",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("<a><b>x</b></a>"), "{text}");
    assert!(text.contains("<c><d>z</d></c>"), "{text}");
    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&pq).ok();
}

#[test]
fn show_xml_prints_matches() {
    let doc = tmp("showxml.xml");
    std::fs::write(&doc, "<r><a><b>x</b></a><c/></r>").unwrap();
    let out = tasm(&[
        "query",
        "--query-str",
        "<a><b>x</b></a>",
        "--doc",
        doc.to_str().unwrap(),
        "--k",
        "1",
        "--show-xml",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("<a><b>x</b></a>"), "{text}");
    std::fs::remove_file(&doc).ok();
}

#[test]
fn convert_and_query_postorder_file() {
    let xml = tmp("conv.xml");
    let pq = tmp("conv.pq");
    std::fs::write(&xml, "<r><a><b>x</b></a><a><b>y</b></a></r>").unwrap();
    let out = tasm(&[
        "convert",
        "--doc",
        xml.to_str().unwrap(),
        "--out",
        pq.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Query the .pq with every algorithm; the exact-match line must agree.
    for algo in ["postorder", "dynamic"] {
        let out = tasm(&[
            "query",
            "--query-str",
            "<a><b>x</b></a>",
            "--doc",
            pq.to_str().unwrap(),
            "--k",
            "2",
            "--algorithm",
            algo,
            "--show-xml",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("<a><b>x</b></a>"), "[{algo}] {text}");
    }
    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&pq).ok();
}
