//! XML → postorder queue, streaming (the paper's document interface).
//!
//! [`XmlPostorderQueue`] drives the window tokenizer and emits `(label, size)`
//! postorder entries with `O(depth)` memory: a text node or attribute
//! subtree is emitted as soon as it is seen, an element as soon as its end
//! tag arrives — exactly postorder. Combined with `tasm_core::tasm_postorder`
//! this evaluates TASM over an XML file that never resides in memory.
//!
//! # Node model (Sec. VII of the paper)
//!
//! Element tags, attribute names and text content all become nodes, interned
//! into one [`LabelDict`]:
//!
//! * element → node labeled with the tag, children = attributes then content;
//! * attribute → node labeled `@name` with a single text-node child for the
//!   value (just the `@name` leaf if the value is empty);
//! * text → leaf labeled with the (entity-resolved) content;
//!   whitespace-only text between elements is skipped, CDATA is a text
//!   node of its own.

use std::collections::VecDeque;
use std::io::BufRead;

use crate::error::XmlError;
use crate::escape::unescape_into;
use crate::token::{Token, Tokenizer};
use tasm_tree::{LabelDict, LabelId, PostorderEntry, PostorderQueue, Tree};

/// Configuration for the XML-to-tree node mapping.
#[derive(Debug, Clone)]
pub struct XmlTreeConfig {
    /// Include attributes (as `@name` nodes). Default `true`.
    pub include_attributes: bool,
    /// Include text nodes. Default `true`.
    pub include_text: bool,
    /// Prefix for attribute-name labels. Default `"@"`.
    pub attribute_prefix: String,
}

impl Default for XmlTreeConfig {
    fn default() -> Self {
        XmlTreeConfig {
            include_attributes: true,
            include_text: true,
            attribute_prefix: "@".to_string(),
        }
    }
}

/// A postorder queue over a streaming XML document.
///
/// Errors encountered mid-stream terminate the queue; check
/// [`XmlPostorderQueue::take_error`] after consumption (the
/// [`PostorderQueue`] interface is infallible by design — Def. 2 allows
/// only `dequeue`).
#[derive(Debug)]
pub struct XmlPostorderQueue<'d, R: BufRead> {
    tokens: Tokenizer<R>,
    nodes: NodeModel<'d>,
    error: Option<XmlError>,
    finished: bool,
}

/// The node model: turns tokens into postorder entries.
#[derive(Debug)]
struct NodeModel<'d> {
    dict: &'d mut LabelDict,
    config: XmlTreeConfig,
    /// Open elements: the name and the nodes emitted inside it so far.
    open: Vec<(LabelId, u32)>,
    /// Entries ready to be dequeued (a start tag emits its attributes).
    ready: VecDeque<PostorderEntry>,
    /// Scratch for attribute labels and entity-decoded text.
    scratch: String,
    seen_root: bool,
    root_closed: bool,
}

impl<'d, R: BufRead> XmlPostorderQueue<'d, R> {
    /// Creates a streaming queue with the default node mapping.
    pub fn new(reader: R, dict: &'d mut LabelDict) -> Self {
        Self::with_config(reader, dict, XmlTreeConfig::default())
    }

    /// Creates a streaming queue with a custom node mapping.
    pub fn with_config(reader: R, dict: &'d mut LabelDict, config: XmlTreeConfig) -> Self {
        XmlPostorderQueue {
            tokens: Tokenizer::new(reader),
            nodes: NodeModel {
                dict,
                config,
                open: Vec::new(),
                ready: VecDeque::new(),
                scratch: String::new(),
                seen_root: false,
                root_closed: false,
            },
            error: None,
            finished: false,
        }
    }

    /// Takes the error that terminated the stream, if any.
    pub fn take_error(&mut self) -> Option<XmlError> {
        self.error.take()
    }

    /// Whether the stream completed without error.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Reads tokens until at least one entry is ready or the stream ends.
    fn refill(&mut self) {
        while self.nodes.ready.is_empty() && !self.finished {
            let nodes = &mut self.nodes;
            let step = match self.tokens.next(nodes.open.len(), |kind, bytes, offset| {
                nodes.token(kind, bytes, offset)
            }) {
                Ok(true) => Ok(()),
                Ok(false) => {
                    self.finished = true;
                    self.nodes.end_of_input()
                }
                Err(e) => Err(e),
            };
            if let Err(e) = step {
                self.error = Some(e);
                self.finished = true;
            }
        }
    }
}

impl NodeModel<'_> {
    fn token(&mut self, kind: Token, bytes: &[u8], offset: u64) -> Result<(), XmlError> {
        match kind {
            Token::Text => self.text(bytes, offset),
            Token::Cdata => self.cdata(bytes, offset),
            Token::Start => self.start(bytes, offset),
            Token::End => self.end(bytes, offset),
            Token::Skip => Ok(()),
            Token::Malformed(message) => Err(XmlError::Syntax {
                offset,
                message: message.into(),
            }),
        }
    }

    fn text(&mut self, bytes: &[u8], offset: u64) -> Result<(), XmlError> {
        if bytes.iter().all(u8::is_ascii_whitespace) {
            return Ok(());
        }
        let text = utf8(bytes, offset)?;
        if self.open.is_empty() {
            return Err(XmlError::TrailingContent { offset });
        }
        if self.config.include_text {
            let id = intern_decoded(self.dict, &mut self.scratch, text);
            self.emit(id, 1);
        }
        Ok(())
    }

    fn cdata(&mut self, bytes: &[u8], offset: u64) -> Result<(), XmlError> {
        if self.open.is_empty() {
            return Err(XmlError::TrailingContent { offset });
        }
        if bytes.iter().all(u8::is_ascii_whitespace) {
            return Ok(());
        }
        let text = utf8(bytes, offset)?;
        if self.config.include_text {
            let id = self.dict.intern(text);
            self.emit(id, 1);
        }
        Ok(())
    }

    /// A start tag `name attr="v" attr2='w'` (with a trailing `/` if it
    /// closes itself). Attribute labels get their ids before the element
    /// name does; the golden digests pin that order.
    fn start(&mut self, bytes: &[u8], offset: u64) -> Result<(), XmlError> {
        let raw = utf8(bytes, offset)?;
        let (raw, self_closing) = match raw.strip_suffix('/') {
            Some(r) => (r, true),
            None => (raw, false),
        };
        if self.root_closed {
            return Err(XmlError::TrailingContent { offset });
        }
        let raw = raw.trim();
        if raw.is_empty() {
            return Err(XmlError::Syntax {
                offset,
                message: "empty tag".into(),
            });
        }
        let name_end = raw.find(char::is_whitespace).unwrap_or(raw.len());
        let (name, rest) = raw.split_at(name_end);
        let bytes = rest.as_bytes();
        let skip_space = |mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        };
        let syntax = |message: String| XmlError::Syntax { offset, message };
        let mut inner = 0;
        let mut i = skip_space(0);
        while i < bytes.len() {
            let start = i;
            while i < bytes.len() && bytes[i] != b'=' && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let attr = &rest[start..i];
            i = skip_space(i);
            let value = if i < bytes.len() && bytes[i] == b'=' {
                i = skip_space(i + 1);
                let quote = *bytes
                    .get(i)
                    .ok_or_else(|| syntax(format!("attribute {attr} has '=' but no value")))?;
                if quote != b'"' && quote != b'\'' {
                    return Err(syntax(format!("attribute {attr} value must be quoted")));
                }
                let len = bytes[i + 1..]
                    .iter()
                    .position(|&b| b == quote)
                    .ok_or_else(|| syntax(format!("unterminated value for attribute {attr}")))?;
                i += len + 2;
                &rest[i - len - 1..i - 1]
            } else {
                "" // a valueless attribute (lenient)
            };
            if self.config.include_attributes {
                self.scratch.clear();
                self.scratch.push_str(&self.config.attribute_prefix);
                self.scratch.push_str(attr);
                let name_id = self.dict.intern(&self.scratch);
                if value.is_empty() {
                    self.ready.push_back(PostorderEntry::new(name_id, 1));
                    inner += 1;
                } else {
                    let value_id = intern_decoded(self.dict, &mut self.scratch, value);
                    self.ready.push_back(PostorderEntry::new(value_id, 1));
                    self.ready.push_back(PostorderEntry::new(name_id, 2));
                    inner += 2;
                }
            }
            i = skip_space(i);
        }
        let id = self.dict.intern(name);
        self.seen_root = true;
        self.open.push((id, inner));
        if self_closing {
            self.close();
        }
        Ok(())
    }

    fn end(&mut self, bytes: &[u8], offset: u64) -> Result<(), XmlError> {
        let name = utf8(bytes, offset)?.trim();
        match self.open.last() {
            Some(&(id, _)) if self.dict.resolve(id) == name => {
                self.close();
                Ok(())
            }
            Some(&(id, _)) => Err(XmlError::MismatchedTag {
                offset,
                expected: self.dict.resolve(id).to_string(),
                found: name.to_string(),
            }),
            None => Err(XmlError::Syntax {
                offset,
                message: format!("close tag </{name}> with no open element"),
            }),
        }
    }

    /// Emits the innermost open element.
    fn close(&mut self) {
        let (id, inner) = self.open.pop().expect("close() follows a start tag");
        self.emit(id, inner + 1);
        self.root_closed = self.open.is_empty();
    }

    fn emit(&mut self, id: LabelId, size: u32) {
        self.ready.push_back(PostorderEntry::new(id, size));
        if let Some((_, inner)) = self.open.last_mut() {
            *inner += size;
        }
    }

    fn end_of_input(&self) -> Result<(), XmlError> {
        if !self.open.is_empty() {
            return Err(XmlError::UnexpectedEof {
                open: self.open.len(),
            });
        }
        if !self.seen_root {
            return Err(XmlError::NoRootElement);
        }
        Ok(())
    }
}

fn utf8(bytes: &[u8], offset: u64) -> Result<&str, XmlError> {
    std::str::from_utf8(bytes).map_err(|_| XmlError::InvalidUtf8 { offset })
}

/// Interns `text` with its entities resolved, decoding through
/// `scratch` only when it holds a `&`.
fn intern_decoded(dict: &mut LabelDict, scratch: &mut String, text: &str) -> LabelId {
    if !text.contains('&') {
        return dict.intern(text);
    }
    scratch.clear();
    unescape_into(text, scratch);
    dict.intern(scratch)
}

impl<R: BufRead> PostorderQueue for XmlPostorderQueue<'_, R> {
    fn dequeue(&mut self) -> Option<PostorderEntry> {
        if self.nodes.ready.is_empty() {
            self.refill();
        }
        self.nodes.ready.pop_front()
    }

    fn integrity_error(&self) -> Option<String> {
        self.error.as_ref().map(|e| e.to_string())
    }
}

/// Parses an entire XML document into an in-memory [`Tree`].
///
/// Convenience for queries, tests and small documents; large documents
/// should stream through [`XmlPostorderQueue`] instead.
pub fn parse_tree<R: BufRead>(reader: R, dict: &mut LabelDict) -> Result<Tree, XmlError> {
    parse_tree_with_config(reader, dict, XmlTreeConfig::default())
}

/// As [`parse_tree`] with a custom node mapping.
pub fn parse_tree_with_config<R: BufRead>(
    reader: R,
    dict: &mut LabelDict,
    config: XmlTreeConfig,
) -> Result<Tree, XmlError> {
    let mut queue = XmlPostorderQueue::with_config(reader, dict, config);
    let entries = std::iter::from_fn(|| queue.dequeue()).map(|e| (e.label, e.size));
    let tree = Tree::from_postorder(entries);
    if let Some(err) = queue.take_error() {
        return Err(err);
    }
    tree.map_err(|e| XmlError::Syntax {
        offset: 0,
        message: format!("postorder assembly failed: {e}"),
    })
}

/// Parses XML from a string slice.
pub fn parse_tree_str(xml: &str, dict: &mut LabelDict) -> Result<Tree, XmlError> {
    parse_tree(xml.as_bytes(), dict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(xml: &str) -> Vec<(String, u32)> {
        let mut dict = LabelDict::new();
        let mut q = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
        let mut out = Vec::new();
        let mut collected = Vec::new();
        while let Some(e) = q.dequeue() {
            collected.push(e);
        }
        assert!(q.is_ok(), "unexpected error: {:?}", q.take_error());
        for e in collected {
            out.push((dict.resolve(e.label).to_string(), e.size));
        }
        out
    }

    #[test]
    fn paper_fig_4_shape() {
        // The dblp fragment of Fig. 4a (text content as leaves).
        let xml = "<dblp><article><auth>John</auth><title>X1</title></article>\
                   <proceedings><conf>VLDB</conf>\
                   <article><auth>Peter</auth><title>X3</title></article>\
                   <article><auth>Mike</auth><title>X4</title></article></proceedings>\
                   <book><title>X2</title></book></dblp>";
        let got = entries(xml);
        let expected: Vec<(&str, u32)> = vec![
            ("John", 1),
            ("auth", 2),
            ("X1", 1),
            ("title", 2),
            ("article", 5),
            ("VLDB", 1),
            ("conf", 2),
            ("Peter", 1),
            ("auth", 2),
            ("X3", 1),
            ("title", 2),
            ("article", 5),
            ("Mike", 1),
            ("auth", 2),
            ("X4", 1),
            ("title", 2),
            ("article", 5),
            ("proceedings", 13),
            ("X2", 1),
            ("title", 2),
            ("book", 3),
            ("dblp", 22),
        ];
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(got_ref, expected);
    }

    #[test]
    fn attributes_become_at_nodes() {
        let got = entries(r#"<a x="1" y="2"><b/></a>"#);
        let expected: Vec<(&str, u32)> =
            vec![("1", 1), ("@x", 2), ("2", 1), ("@y", 2), ("b", 1), ("a", 6)];
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(got_ref, expected);
    }

    #[test]
    fn empty_attribute_value_is_single_node() {
        let got = entries(r#"<a x=""/>"#);
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(got_ref, vec![("@x", 1), ("a", 2)]);
    }

    #[test]
    fn whitespace_between_elements_is_skipped() {
        let got = entries("<a>\n  <b>hi</b>\n  <c/>\n</a>");
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(got_ref, vec![("hi", 1), ("b", 2), ("c", 1), ("a", 4)]);
    }

    #[test]
    fn entities_resolved_in_text_and_attrs() {
        let got = entries(r#"<a t="&lt;x&gt;">a &amp; b</a>"#);
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(got_ref, vec![("<x>", 1), ("@t", 2), ("a & b", 1), ("a", 4)]);
    }

    #[test]
    fn config_can_drop_attributes_and_text() {
        let mut dict = LabelDict::new();
        let cfg = XmlTreeConfig {
            include_attributes: false,
            include_text: false,
            ..Default::default()
        };
        let t = parse_tree_with_config(r#"<a x="1"><b>text</b></a>"#.as_bytes(), &mut dict, cfg)
            .unwrap();
        assert_eq!(t.len(), 2); // just a and b
    }

    #[test]
    fn parse_tree_round_trip_via_queue() {
        let xml = "<r><a k=\"v\">t1</a><b><c/></b>t2</r>";
        let mut d1 = LabelDict::new();
        let t = parse_tree_str(xml, &mut d1).unwrap();
        assert_eq!(t.len(), 8);
        assert_eq!(d1.resolve(t.label(t.root())), "r");
    }

    #[test]
    fn error_surfaces_after_stream() {
        let mut dict = LabelDict::new();
        let mut q = XmlPostorderQueue::new("<a><b></a>".as_bytes(), &mut dict);
        while q.dequeue().is_some() {}
        assert!(matches!(
            q.take_error(),
            Some(XmlError::MismatchedTag { .. })
        ));
    }

    #[test]
    fn parse_tree_propagates_errors() {
        let mut dict = LabelDict::new();
        assert!(parse_tree_str("<a>", &mut dict).is_err());
        assert!(parse_tree_str("", &mut dict).is_err());
        assert!(parse_tree_str("<a/><b/>", &mut dict).is_err());
    }

    #[test]
    fn prolog_comments_doctype_are_ignored() {
        let xml =
            "<?xml version=\"1.0\"?>\n<!DOCTYPE dblp SYSTEM \"dblp.dtd\" [<!ENTITY x \"y\">]>\n\
                   <!-- header -->\n<a><!-- inner --><b>v</b></a>";
        let got = entries(xml);
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(got_ref, vec![("v", 1), ("b", 2), ("a", 3)]);
    }

    #[test]
    fn cdata_is_text() {
        let got = entries("<a><![CDATA[1 < 2 & so]]></a>");
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(got_ref, vec![("1 < 2 & so", 1), ("a", 2)]);
    }

    #[test]
    fn text_adjacent_to_tags_keeps_order() {
        let got = entries("<a>pre<b>in</b>post</a>");
        let got_ref: Vec<(&str, u32)> = got.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(
            got_ref,
            vec![("pre", 1), ("in", 1), ("b", 2), ("post", 1), ("a", 5)]
        );
    }
}
