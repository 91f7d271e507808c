//! Streaming search over an XML file that is never loaded into memory.
//!
//! Writes an XMark-like document to a temporary file as XML text, then
//! answers a top-k query by streaming it through the prefix ring buffer —
//! the end-to-end pipeline the paper targets (1.6 GB documents on a 4 GB
//! machine, Sec. VII). The peak number of buffered document nodes is
//! printed to show Theorem 2's O(τ) bound in action.
//!
//! Run with: `cargo run --release --example streaming_file`

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::time::Instant;

use tasm::core::{tasm_postorder, threshold, PrefixRingBuffer, TasmOptions};
use tasm::data::{xmark_tree, XMarkConfig};
use tasm::tree::{LabelDict, LabelId, Tree};
use tasm::xml::{tree_to_xml, XmlPostorderQueue};
use tasm::UnitCost;

fn main() {
    let dir = std::env::temp_dir();
    let path = dir.join("tasm_streaming_example.xml");

    // ------------------------------------------------------------------
    // 1. Materialize an XMark-like document as an XML file.
    // ------------------------------------------------------------------
    let mut dict = LabelDict::new();
    let doc = xmark_tree(&mut dict, &XMarkConfig::new(7, 300_000));
    {
        let file = File::create(&path).expect("create temp file");
        let mut w = BufWriter::new(file);
        let xml = tree_to_xml(&doc, &dict);
        w.write_all(xml.as_bytes()).expect("write");
    }
    let file_mb = std::fs::metadata(&path).expect("stat").len() as f64 / (1024.0 * 1024.0);
    println!(
        "wrote {} ({:.1} MB, {} nodes, height {})",
        path.display(),
        file_mb,
        doc.len(),
        doc.height()
    );

    // A query: a small auction-item fragment.
    let query_xml = "<item><location>country1</location><quantity>2</quantity>\
                     <name>w0 w1</name><payment>Creditcard</payment></item>";
    let mut qdict = LabelDict::new();
    let query: Tree = tasm::xml::parse_tree_str(query_xml, &mut qdict).expect("query XML");
    let k = 10;
    let tau = threshold(query.len() as u64, 1, 1, k as u64);
    println!("query: {} nodes, k = {k}, τ = {tau}", query.len());

    // ------------------------------------------------------------------
    // 2. Stream the file through TASM-postorder.
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let file = File::open(&path).expect("open");
    let mut queue = XmlPostorderQueue::new(BufReader::new(file), &mut qdict);
    let matches = tasm_postorder(
        &query,
        &mut queue,
        k,
        &UnitCost,
        1,
        TasmOptions::default(),
        None,
    );
    assert!(queue.is_ok(), "stream error: {:?}", queue.take_error());
    let dt = t0.elapsed();

    println!("\ntop-{k} in {dt:?}:");
    for (rank, m) in matches.iter().enumerate() {
        println!(
            "  #{:>2} node {:>8}  distance {:>5}  size {:>3}",
            rank + 1,
            m.root.post(),
            m.distance.to_string(),
            m.size
        );
    }

    // ------------------------------------------------------------------
    // 3. Show the O(τ) buffer bound on the same stream.
    // ------------------------------------------------------------------
    let file = File::open(&path).expect("open");
    let mut dict2 = LabelDict::new();
    let mut queue = XmlPostorderQueue::new(BufReader::new(file), &mut dict2);
    let mut prb = PrefixRingBuffer::new(&mut queue, tau as u32);
    let mut candidates = 0u64;
    let mut cand = Tree::leaf(LabelId(0));
    while prb.next_candidate_into(&mut cand).is_some() {
        candidates += 1;
    }
    println!(
        "\nprefix ring buffer: {} candidates from {} streamed nodes, \
         peak buffer {} nodes (τ = {tau}) — memory independent of the file",
        candidates,
        prb.nodes_seen(),
        prb.peak_buffered()
    );
    assert!(prb.peak_buffered() as u64 <= tau);

    std::fs::remove_file(&path).ok();
}
