//! Property tests for the XML → postorder-queue bridge: the streaming
//! [`XmlPostorderQueue`] and the materialized [`Tree`] built by an
//! *independent* construction must emit identical `(label, size)`
//! postorder sequences for generated XML — attributes, text, entity
//! escaping and every [`XmlTreeConfig`] variant included — and a stream
//! truncated mid-document must surface an error after emitting a strict
//! prefix of the full sequence.
//!
//! The expected tree is built with [`TreeBuilder`] directly from the
//! generated document model (*not* via the parser), so the test is a
//! real differential: parser + queue on one side, the Sec. VII node
//! model rules on the other.
//!
//! The tokenizer scans the reader's buffer windows and carries a token
//! over only when it crosses one, so the same documents must give the
//! same entries through every buffer capacity. Arbitrary, truncated and
//! byte-mutated inputs must end in entries or a structured error, never
//! a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufReader;

use tasm_tree::{LabelDict, PostorderQueue, Tree, TreeBuilder};
use tasm_xml::escape::{escape_attr, escape_text};
use tasm_xml::{parse_tree, XmlPostorderQueue, XmlTreeConfig};

/// A generated XML node: the document model of `tasm_xml::stream`.
#[derive(Debug, Clone)]
enum Node {
    Elem {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<Node>,
    },
    Text(String),
}

/// Characters for text/attribute values, including entity-escaped ones.
const VALUE_CHARS: &[char] = &['a', 'b', 'z', '0', '&', '<', '>', '"', '\''];

fn gen_value(rng: &mut StdRng, allow_empty: bool) -> String {
    let len = if allow_empty {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(1..4)
    };
    (0..len)
        .map(|_| VALUE_CHARS[rng.gen_range(0..VALUE_CHARS.len())])
        .collect()
}

/// Builds a random element of at most `budget` nodes (`>= 1`); the
/// generator never places two text children adjacently (the parser
/// would merge them into one text node, by design).
fn gen_elem(rng: &mut StdRng, budget: usize, depth: usize) -> Node {
    let name = format!("e{}", rng.gen_range(0..5));
    let n_attrs = rng.gen_range(0..3usize);
    let attrs = (0..n_attrs)
        .map(|i| (format!("a{i}"), gen_value(rng, true)))
        .collect();
    let mut children = Vec::new();
    let mut remaining = budget.saturating_sub(1);
    let mut last_was_text = false;
    while remaining > 0 && depth < 6 && rng.gen_range(0..3) > 0 {
        if !last_was_text && rng.gen_range(0..3) == 0 {
            children.push(Node::Text(gen_value(rng, false)));
            last_was_text = true;
            remaining -= 1;
        } else {
            let sub = rng.gen_range(1..=remaining);
            children.push(gen_elem(rng, sub, depth + 1));
            last_was_text = false;
            remaining -= sub;
        }
    }
    Node::Elem {
        name,
        attrs,
        children,
    }
}

/// Renders the model to XML text (escaping values as a writer must).
fn render(node: &Node, out: &mut String) {
    match node {
        Node::Text(t) => out.push_str(&escape_text(t)),
        Node::Elem {
            name,
            attrs,
            children,
        } => {
            out.push('<');
            out.push_str(name);
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(&escape_attr(v));
                out.push('"');
            }
            if children.is_empty() && !name.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for c in children {
                render(c, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

/// Builds the expected tree per the Sec. VII node-model rules — the
/// independent side of the differential.
fn build_expected(node: &Node, cfg: &XmlTreeConfig, dict: &mut LabelDict, b: &mut TreeBuilder) {
    match node {
        Node::Text(t) => {
            if cfg.include_text {
                let id = dict.intern(t);
                b.leaf(id);
            }
        }
        Node::Elem {
            name,
            attrs,
            children,
        } => {
            let id = dict.intern(name);
            b.start(id);
            if cfg.include_attributes {
                for (k, v) in attrs {
                    let name_id = dict.intern(&format!("{}{}", cfg.attribute_prefix, k));
                    if v.is_empty() {
                        b.leaf(name_id);
                    } else {
                        let value_id = dict.intern(v);
                        b.start(name_id);
                        b.leaf(value_id);
                        b.end().expect("balanced");
                    }
                }
            }
            for c in children {
                build_expected(c, cfg, dict, b);
            }
            b.end().expect("balanced");
        }
    }
}

/// The entries of a queue, in order.
fn drain<R: std::io::BufRead>(q: &mut XmlPostorderQueue<'_, R>) -> Vec<tasm_tree::PostorderEntry> {
    let mut out = Vec::new();
    while let Some(e) = q.dequeue() {
        out.push(e);
    }
    out
}

fn resolved(entries: &[tasm_tree::PostorderEntry], dict: &LabelDict) -> Vec<(String, u32)> {
    entries
        .iter()
        .map(|e| (dict.resolve(e.label).to_string(), e.size))
        .collect()
}

fn tree_resolved(tree: &Tree, dict: &LabelDict) -> Vec<(String, u32)> {
    tree.postorder()
        .map(|(l, s)| (dict.resolve(l).to_string(), s))
        .collect()
}

fn configs() -> Vec<XmlTreeConfig> {
    vec![
        XmlTreeConfig::default(),
        XmlTreeConfig {
            include_attributes: false,
            ..Default::default()
        },
        XmlTreeConfig {
            include_text: false,
            ..Default::default()
        },
        XmlTreeConfig {
            include_attributes: false,
            include_text: false,
            ..Default::default()
        },
        XmlTreeConfig {
            attribute_prefix: "attr:".to_string(),
            ..Default::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_matches_independent_tree_construction(
        seed in any::<u64>(),
        budget in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = gen_elem(&mut rng, budget, 0);
        let mut xml = String::new();
        render(&doc, &mut xml);

        for cfg in configs() {
            // Streaming side.
            let mut dict = LabelDict::new();
            let mut q =
                XmlPostorderQueue::with_config(xml.as_bytes(), &mut dict, cfg.clone());
            let entries = drain(&mut q);
            let err = q.take_error();
            drop(q);
            prop_assert!(err.is_none(), "unexpected error: {:?}", err);
            let got = resolved(&entries, &dict);

            // Independent side: TreeBuilder straight from the model.
            let mut want_dict = LabelDict::new();
            let mut b = TreeBuilder::new();
            build_expected(&doc, &cfg, &mut want_dict, &mut b);
            let want_tree = b.finish().expect("single generated root");
            let want = tree_resolved(&want_tree, &want_dict);

            prop_assert_eq!(&got, &want, "config {:?}\nxml: {}", cfg, xml);
            // And the sizes alone already assemble into the same tree.
            let assembled =
                Tree::from_postorder(entries.iter().map(|e| (e.label, e.size)).collect::<Vec<_>>());
            prop_assert!(assembled.is_ok(), "queue output must be a valid postorder");
        }
    }

    #[test]
    fn truncated_stream_emits_a_prefix_then_errors(
        seed in any::<u64>(),
        budget in 2usize..40,
        cut_choice in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Wrap the generated element so the XML always contains a tag
        // past position 0 — a valid cut point is guaranteed.
        let doc = Node::Elem {
            name: "r".to_string(),
            attrs: Vec::new(),
            children: vec![gen_elem(&mut rng, budget, 0)],
        };
        let mut xml = String::new();
        render(&doc, &mut xml);

        // The full sequence, for the prefix check.
        let mut dict = LabelDict::new();
        let mut q = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
        let full_entries = drain(&mut q);
        let err = q.take_error();
        drop(q);
        prop_assert!(err.is_none(), "full document must parse: {:?}", err);
        let full = resolved(&full_entries, &dict);

        // Cut at a '<' boundary strictly inside the document: the open
        // root can never be closed, so the stream must error.
        let cuts: Vec<usize> = xml
            .char_indices()
            .filter(|&(i, c)| c == '<' && i > 0)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!cuts.is_empty());
        let cut = cuts[(cut_choice % cuts.len() as u64) as usize];

        let mut dict = LabelDict::new();
        let mut q = XmlPostorderQueue::new(&xml.as_bytes()[..cut], &mut dict);
        let emitted_entries = drain(&mut q);
        let err = q.take_error();
        drop(q);
        prop_assert!(
            err.is_some(),
            "truncated at {} of {} must error",
            cut,
            xml.len()
        );
        let emitted = resolved(&emitted_entries, &dict);
        prop_assert!(
            emitted.len() < full.len(),
            "truncation cannot produce the whole document"
        );
        prop_assert_eq!(&emitted[..], &full[..emitted.len()], "cut at {}", cut);
    }
}

/// Buffer capacities that make every token cross a window boundary at
/// some capacity, plus the default.
const CAPACITIES: [usize; 6] = [1, 2, 3, 7, 64, 8192];

/// Drains `xml` through a queue over a `BufReader` of `capacity`: the
/// resolved entries, the dictionary in interning order, and the error.
fn drain_with_capacity(xml: &[u8], capacity: usize) -> (Vec<(String, u32)>, Vec<String>, bool) {
    let mut dict = LabelDict::new();
    let mut q = XmlPostorderQueue::new(BufReader::with_capacity(capacity, xml), &mut dict);
    let entries = drain(&mut q);
    let failed = q.take_error().is_some();
    drop(q);
    let names = dict.iter().map(|(_, name)| name.to_string()).collect();
    (resolved(&entries, &dict), names, failed)
}

/// Bytes that steer a tokenizer into its markup states.
const MARKUP_BYTES: &[u8] = b"<>/!?-[]\"'= &;#xCDATA\n\xff\xc3\xa9";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_buffer_capacity_gives_the_same_entries(
        seed in any::<u64>(),
        budget in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = gen_elem(&mut rng, budget, 0);
        let mut body = String::new();
        render(&doc, &mut body);
        // Skipped constructs and CDATA cross windows too.
        let xml = format!(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE e0 [<!ENTITY x \"y\">]><!-- c -->{body}<!-- end -->\n"
        );
        let (want, want_names, failed) = drain_with_capacity(body.as_bytes(), 8192);
        prop_assert!(!failed);
        for capacity in CAPACITIES {
            let got = drain_with_capacity(xml.as_bytes(), capacity);
            prop_assert_eq!(&got.0, &want, "capacity {}\nxml: {}", capacity, xml);
            prop_assert_eq!(&got.1, &want_names, "capacity {}", capacity);
            prop_assert!(!got.2);
        }
        let cdata = format!("<r>a<![CDATA[{body}]]>b</r>");
        for capacity in CAPACITIES {
            let (got, _, failed) = drain_with_capacity(cdata.as_bytes(), capacity);
            prop_assert!(!failed);
            prop_assert_eq!(&got[1], &(body.clone(), 1), "capacity {}", capacity);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        picks in prop::collection::vec(any::<usize>(), 0..200),
        capacity in 1usize..9,
    ) {
        // Raw bytes, then bytes drawn from markup characters.
        let markup: Vec<u8> = picks.iter().map(|p| MARKUP_BYTES[p % MARKUP_BYTES.len()]).collect();
        for input in [&bytes, &markup] {
            let mut dict = LabelDict::new();
            let _ = parse_tree(BufReader::with_capacity(capacity, &input[..]), &mut dict);
            let _ = drain_with_capacity(input, capacity);
        }
    }

    #[test]
    fn truncated_or_mutated_documents_never_panic(
        seed in any::<u64>(),
        budget in 1usize..40,
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        capacity in 1usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xml = String::new();
        render(&gen_elem(&mut rng, budget, 0), &mut xml);
        let xml = format!("<!-- c --><r><![CDATA[x]]>{xml}<?p?></r>").into_bytes();
        let mut mutated = xml.clone();
        for &(at, byte) in &edits {
            let at = at % mutated.len();
            mutated[at] = if byte % 2 == 0 { MARKUP_BYTES[usize::from(byte) % MARKUP_BYTES.len()] } else { byte };
        }
        let cut = &xml[..edits[0].0 % xml.len()];
        for input in [&mutated[..], cut] {
            let mut dict = LabelDict::new();
            let _ = parse_tree(BufReader::with_capacity(capacity, input), &mut dict);
            let (_, _, failed) = drain_with_capacity(input, capacity);
            if input.len() < xml.len() {
                prop_assert!(failed, "a strict prefix cannot be a whole document");
            }
        }
    }
}
