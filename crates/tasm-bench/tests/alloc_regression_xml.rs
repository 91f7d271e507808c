//! Allocation regression for the XML front end: draining an
//! `XmlPostorderQueue` allocates O(distinct labels), not O(nodes).
//! Tokens are lent out of the reader's buffer and interned in place, so
//! the only growing allocations are the dictionary (one copy of each
//! new name), the open-element stack, the ready queue and the carry
//! buffer for tokens that cross a window boundary. Two documents over
//! the same vocabulary, one with 10× the nodes of the other, therefore
//! allocate the same bytes, up to the carry buffer's growth.
//!
//! Like the other regression tests, this file holds a single `#[test]`
//! so no sibling test can allocate concurrently while the counters are
//! diffed.

use std::io::BufReader;

use tasm_bench::alloc::{thread_allocated_bytes, CountingAlloc};
use tasm_tree::{LabelDict, PostorderQueue};
use tasm_xml::XmlPostorderQueue;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A DBLP-shaped document of `records` records over a fixed vocabulary:
/// attributes, entities, CDATA, comments and whitespace included.
fn document(records: usize) -> String {
    let mut xml = String::from("<?xml version=\"1.0\"?>\n<!-- records -->\n<dblp>\n");
    for i in 0..records {
        let k = i % 8;
        xml.push_str(&format!(
            "  <article key=\"journals/j{k}\" mdate='2002'>\
             <author>Author &amp; Co {k}</author><title>Title {k}</title>\
             <note><![CDATA[raw <{k}>]]></note><!-- r --></article>\n"
        ));
    }
    xml.push_str("</dblp>\n");
    xml
}

/// Bytes the calling thread allocates to drain `xml`, and the entry count.
fn drain_bytes(xml: &str) -> (usize, usize) {
    let before = thread_allocated_bytes();
    let mut dict = LabelDict::new();
    let mut queue = XmlPostorderQueue::new(BufReader::with_capacity(64, xml.as_bytes()), &mut dict);
    let mut entries = 0;
    while queue.dequeue().is_some() {
        entries += 1;
    }
    assert!(queue.take_error().is_none());
    drop(queue);
    drop(dict);
    (thread_allocated_bytes() - before, entries)
}

#[test]
fn xml_queue_drain_allocations_follow_the_vocabulary_not_the_nodes() {
    let (short_doc, long_doc) = (document(40), document(400));
    let (short_bytes, short_entries) = drain_bytes(&short_doc);
    let (long_bytes, long_entries) = drain_bytes(&long_doc);
    assert!(long_entries >= 10 * short_entries - 10);

    // The carry buffer holds at most one token (the longest record line
    // is under 256 bytes); it may reach a larger capacity on the longer
    // document if a longer token happens to straddle a window there.
    let carry_slack = 512;
    assert!(
        long_bytes <= short_bytes + carry_slack,
        "a drain must allocate per distinct label, not per node: \
         {short_entries} entries took {short_bytes} B, {long_entries} took {long_bytes} B"
    );
}
