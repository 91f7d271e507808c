//! Golden digests of the XML front end: for fixed documents, CRC-32s
//! of the postorder `(label name, size)` sequence and of the label
//! dictionary's interning order, plus a table of malformed inputs and
//! the `XmlError` variant each must produce. For the generated
//! documents, a CRC-32 of `tree_to_xml` over every subtree pins the
//! writer's output too.
//!
//! The digests were recorded with the event-based parser the window
//! tokenizer replaced (and the writer before its `@`-label fix), so they
//! pin that neither changed the node model, the label-id order or the
//! rendering of generated trees. Regenerate only for a change that means
//! to alter that output.

use std::io::BufReader;

use tasm_data::{
    dblp_tree, psd_tree, treebank_tree, xmark_tree, DblpConfig, PsdConfig, TreebankConfig,
    XMarkConfig,
};
use tasm_tree::crc::crc32_update;
use tasm_tree::{LabelDict, PostorderQueue, Tree};
use tasm_xml::{parse_tree, tree_to_xml, XmlError, XmlPostorderQueue};

/// A document exercising everything the tokenizer skips or decodes:
/// prolog, DOCTYPE with an internal subset, comments, PIs, CDATA,
/// predefined, numeric and unknown entities, single-quoted attributes
/// holding `>`, multi-byte UTF-8 and whitespace-only text.
const HAND_WRITTEN: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>
<!DOCTYPE lib [
  <!ENTITY uuml \"&#252;\">
  <!ELEMENT lib ANY>
]>
<!-- a catalogue -->
<lib xml:lang='de' note='a > b' empty=\"\" ws=\"  \">
  <?render mode=\"fast\"?>
  <book id='b&amp;1' title=\"M&uuml;ller &lt;3\">
    <title>Grüße aus Köln — 東京 🎉</title>
    <!-- comment inside -->
    <price cur=\"&#x20AC;\">12&#46;50 &amp; tax</price>
    <raw><![CDATA[if (a < b && c > d) { x = \"]]\" ; }]]></raw>
    <mixed>pre<b>bold</b>post &gt; &#9731; &unknown; &amp</mixed>
    <sp>   </sp>
    <cd>a<![CDATA[b]]>c</cd>
    <nested><a><b><c>deep</c></b></a></nested>
  </book>
  <empty/>
  <self-closing attr = \"spaced\" />
</lib>
<!-- trailing comment -->
";

fn fold_str(crc: u32, s: &str) -> u32 {
    let crc = crc32_update(crc, &(s.len() as u32).to_le_bytes());
    crc32_update(crc, s.as_bytes())
}

/// `(entry count, entries CRC, dictionary CRC)` of the queue drain,
/// checked against `parse_tree` on the same bytes.
fn digest(xml: &str) -> (usize, u32, u32) {
    let mut dict = LabelDict::new();
    let mut queue = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
    let mut entries = Vec::new();
    while let Some(e) = queue.dequeue() {
        entries.push((e.label, e.size));
    }
    assert!(queue.take_error().is_none(), "golden document must parse");
    drop(queue);

    let mut tree_dict = LabelDict::new();
    let tree = parse_tree(BufReader::with_capacity(5, xml.as_bytes()), &mut tree_dict).unwrap();
    assert_eq!(tree.postorder().collect::<Vec<_>>(), entries);
    assert_eq!(
        tree_dict.iter().collect::<Vec<_>>(),
        dict.iter().collect::<Vec<_>>()
    );

    let entries_crc = entries.iter().fold(0, |crc, &(label, size)| {
        crc32_update(fold_str(crc, dict.resolve(label)), &size.to_le_bytes())
    });
    let dict_crc = dict.iter().fold(0, |crc, (_, name)| fold_str(crc, name));
    (entries.len(), entries_crc, dict_crc)
}

/// The generated document as XML, after checking that every subtree of
/// it still renders to the same bytes (their CRC-32 is `rendered_crc`):
/// benchmark queries are subtrees cut out with `tree_to_xml`.
fn generated(make: impl FnOnce(&mut LabelDict) -> Tree, rendered_crc: u32) -> String {
    let mut dict = LabelDict::new();
    let tree = make(&mut dict);
    let crc = tree.nodes().fold(0, |crc, v| {
        crc32_update(crc, tree_to_xml(&tree.subtree(v), &dict).as_bytes())
    });
    assert_eq!(crc, rendered_crc, "subtree rendering changed: {crc:#010x}");
    tree_to_xml(&tree, &dict)
}

#[test]
fn generated_documents_match_their_golden_digests() {
    let nodes = 3_000;
    let cases = [
        (
            "dblp",
            generated(|d| dblp_tree(d, &DblpConfig::new(7, nodes)), 0x33e9d117),
            (3018, 0x62d6eb69, 0x14b50123),
        ),
        (
            "xmark",
            generated(|d| xmark_tree(d, &XMarkConfig::new(7, nodes)), 0x3d1bba23),
            (3002, 0x1f7e0a81, 0x0f719bf9),
        ),
        (
            "psd",
            generated(|d| psd_tree(d, &PsdConfig::new(7, nodes)), 0x73a018c6),
            (3023, 0x97ef2c33, 0xadc14042),
        ),
        (
            "treebank",
            generated(
                |d| treebank_tree(d, &TreebankConfig::new(7, nodes)),
                0xaabcb1ac,
            ),
            (3007, 0xaaab4d5e, 0xa5c0f13a),
        ),
        (
            "hand-written",
            HAND_WRITTEN.to_string(),
            (40, 0x022441f7, 0x051ba194),
        ),
    ];
    for (name, xml, want) in cases {
        let got = digest(&xml);
        assert_eq!(
            got, want,
            "{name}: ({}, {:#010x}, {:#010x})",
            got.0, got.1, got.2
        );
    }
}

#[test]
fn hand_written_document_decodes_as_before() {
    let mut dict = LabelDict::new();
    let tree = parse_tree(HAND_WRITTEN.as_bytes(), &mut dict).unwrap();
    let labels: Vec<&str> = tree.labels().iter().map(|&l| dict.resolve(l)).collect();
    for want in [
        "a > b",
        "M&uuml;ller <3",
        "b&1",
        "\u{20AC}",
        "Grüße aus Köln — 東京 🎉",
        "12.50 & tax",
        "if (a < b && c > d) { x = \"]]\" ; }",
        "post > \u{2603} &unknown; &amp",
        "  ",
        "@empty",
        "self-closing",
    ] {
        assert!(
            labels.contains(&want),
            "missing label {want:?} in {labels:?}"
        );
    }
    // Whitespace-only text is skipped (attribute values keep theirs),
    // and CDATA stays a text node of its own.
    let children = |name: &str| -> Vec<&str> {
        let node = tree.nodes().find(|&n| dict.resolve(tree.label(n)) == name);
        tree.children(node.unwrap())
            .into_iter()
            .map(|n| dict.resolve(tree.label(n)))
            .collect()
    };
    assert!(children("sp").is_empty());
    assert_eq!(children("cd"), ["a", "b", "c"]);
}

#[test]
fn malformed_inputs_map_to_their_error_variants() {
    type Check = fn(&XmlError) -> bool;
    let cases: &[(&[u8], Check)] = &[
        (b"<a><b></a></b>", |e| {
            matches!(e, XmlError::MismatchedTag { expected, found, .. }
                if expected == "b" && found == "a")
        }),
        (b"<a><b>text", |e| {
            matches!(e, XmlError::UnexpectedEof { open: 2 })
        }),
        (b"<a><b", |e| {
            matches!(e, XmlError::UnexpectedEof { open: 1 })
        }),
        (b"<a><!--", |e| {
            matches!(e, XmlError::UnexpectedEof { open: 1 })
        }),
        (b"", |e| matches!(e, XmlError::NoRootElement)),
        (b"  <!-- only a comment -->  ", |e| {
            matches!(e, XmlError::NoRootElement)
        }),
        (b"<a/><b/>", |e| {
            matches!(e, XmlError::TrailingContent { .. })
        }),
        (b"<a/>text", |e| {
            matches!(e, XmlError::TrailingContent { .. })
        }),
        (b"text<a/>", |e| {
            matches!(e, XmlError::TrailingContent { .. })
        }),
        (b"<a>\xff</a>", |e| {
            matches!(e, XmlError::InvalidUtf8 { .. })
        }),
        (b"<a\xfe/>", |e| matches!(e, XmlError::InvalidUtf8 { .. })),
        (b"<a></a\xfe>", |e| {
            matches!(e, XmlError::InvalidUtf8 { .. })
        }),
        (b"<a x=1/>", |e| matches!(e, XmlError::Syntax { .. })),
        (b"<a x=/>", |e| matches!(e, XmlError::Syntax { .. })),
        (b"<a><!-x--></a>", |e| matches!(e, XmlError::Syntax { .. })),
        (b"<a><![CDATX[x]]></a>", |e| {
            matches!(e, XmlError::Syntax { .. })
        }),
        (b"</a>", |e| matches!(e, XmlError::Syntax { .. })),
        (b"<a>< /></a>", |e| matches!(e, XmlError::Syntax { .. })),
    ];
    for (input, check) in cases {
        let shown = String::from_utf8_lossy(input);
        let mut dict = LabelDict::new();
        let err = parse_tree(*input, &mut dict).expect_err(&shown);
        assert!(check(&err), "{shown:?} gave {err:?}");

        let mut dict = LabelDict::new();
        let mut queue = XmlPostorderQueue::new(BufReader::with_capacity(1, *input), &mut dict);
        while queue.dequeue().is_some() {}
        let err = queue.take_error().expect(&shown);
        assert!(check(&err), "{shown:?} through the queue gave {err:?}");
    }
}
