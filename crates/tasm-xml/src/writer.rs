//! XML serialization: an event writer plus a tree serializer that inverts
//! the node mapping of [`crate::stream`].

use std::io::{self, Write};

use crate::escape::{escape_attr, escape_text};
use tasm_tree::{LabelDict, NodeId, Tree};

/// A streaming XML writer with automatic escaping and tag balancing.
///
/// # Examples
///
/// ```
/// use tasm_xml::XmlWriter;
///
/// let mut out = Vec::new();
/// let mut w = XmlWriter::new(&mut out);
/// w.start("article").unwrap();
/// w.attr("key", "a/1").unwrap();
/// w.start("title").unwrap();
/// w.text("X & Y").unwrap();
/// w.end().unwrap();
/// w.end().unwrap();
/// assert_eq!(
///     String::from_utf8(out).unwrap(),
///     r#"<article key="a/1"><title>X &amp; Y</title></article>"#
/// );
/// ```
#[derive(Debug)]
pub struct XmlWriter<W: Write> {
    out: W,
    stack: Vec<String>,
    /// A start tag is open and still accepting attributes.
    tag_open: bool,
}

impl<W: Write> XmlWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        XmlWriter {
            out,
            stack: Vec::new(),
            tag_open: false,
        }
    }

    fn close_tag(&mut self) -> io::Result<()> {
        if self.tag_open {
            self.out.write_all(b">")?;
            self.tag_open = false;
        }
        Ok(())
    }

    /// Opens an element.
    pub fn start(&mut self, name: &str) -> io::Result<()> {
        self.close_tag()?;
        write!(self.out, "<{name}")?;
        self.stack.push(name.to_string());
        self.tag_open = true;
        Ok(())
    }

    /// Writes an attribute; only valid directly after [`start`](Self::start).
    pub fn attr(&mut self, name: &str, value: &str) -> io::Result<()> {
        assert!(self.tag_open, "attr() must follow start()");
        write!(self.out, " {name}=\"{}\"", escape_attr(value))
    }

    /// Writes escaped character data.
    pub fn text(&mut self, text: &str) -> io::Result<()> {
        self.close_tag()?;
        self.out.write_all(escape_text(text).as_bytes())
    }

    /// Closes the most recently opened element (self-closing when empty).
    pub fn end(&mut self) -> io::Result<()> {
        let name = self.stack.pop().expect("end() without start()");
        if self.tag_open {
            self.tag_open = false;
            self.out.write_all(b"/>")
        } else {
            write!(self.out, "</{name}>")
        }
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Serializes a tree produced by the XML node mapping back to XML.
///
/// Inverts the mapping of [`XmlPostorderQueue`](crate::XmlPostorderQueue):
/// a node labeled `@name` with no child or one leaf child becomes an
/// attribute while its parent's start tag is still open and `name` is an
/// XML name; a leaf that is not an attribute becomes text when its parent
/// is an element; other nodes become elements. Round-trips trees that came
/// from XML; for arbitrary trees it is a best-effort rendering that never
/// fails.
pub fn tree_to_xml(tree: &Tree, dict: &LabelDict) -> String {
    let mut out = Vec::new();
    write_tree(tree, dict, &mut out).expect("Vec writer");
    String::from_utf8(out).expect("writer emits UTF-8")
}

/// Streams a tree as XML into any writer (no intermediate string; suitable
/// for multi-gigabyte documents). Same mapping as [`tree_to_xml`].
pub fn write_tree<W: Write>(tree: &Tree, dict: &LabelDict, out: W) -> io::Result<()> {
    let mut w = XmlWriter::new(out);
    write_node(tree, dict, tree.root(), &mut w, true)?;
    w.flush()
}

fn write_node<W: Write>(
    tree: &Tree,
    dict: &LabelDict,
    node: NodeId,
    w: &mut XmlWriter<W>,
    is_root: bool,
) -> io::Result<()> {
    let label = dict.resolve(tree.label(node));
    let attr = label.strip_prefix('@').filter(|name| is_xml_name(name));
    if let Some(name) = attr.filter(|_| w.tag_open) {
        if tree.is_leaf(node) {
            return w.attr(name, "");
        }
        let children = tree.children(node);
        if children.len() == 1 && tree.is_leaf(children[0]) {
            return w.attr(name, dict.resolve(tree.label(children[0])));
        }
    }
    // A root leaf stays an element, unless its label would read back as
    // an element with attributes.
    if tree.is_leaf(node) && (!is_root || label.starts_with('@') && attr.is_none()) {
        return w.text(label);
    }
    w.start(label)?;
    for child in tree.children(node) {
        write_node(tree, dict, child, w, false)?;
    }
    w.end()
}

/// Whether `s` is an XML name: a letter, `_` or `:`, then letters,
/// digits and `_:-.` (any non-ASCII letter or digit counts).
fn is_xml_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_tree_str;

    #[test]
    fn writer_produces_balanced_xml() {
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        w.start("a").unwrap();
        w.start("b").unwrap();
        w.text("x<y").unwrap();
        w.end().unwrap();
        w.start("c").unwrap();
        w.end().unwrap();
        w.end().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "<a><b>x&lt;y</b><c/></a>");
    }

    #[test]
    fn attrs_are_escaped() {
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        w.start("a").unwrap();
        w.attr("t", "\"q\" & <x>").unwrap();
        w.end().unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<a t=\"&quot;q&quot; &amp; &lt;x&gt;\"/>"
        );
    }

    #[test]
    fn xml_tree_round_trip() {
        let xml = r#"<dblp><article key="a1"><auth>John</auth><title>X1</title></article><book><title>X2</title></book></dblp>"#;
        let mut dict = LabelDict::new();
        let t = parse_tree_str(xml, &mut dict).unwrap();
        let rendered = tree_to_xml(&t, &dict);
        // Parse again: must be the identical tree.
        let mut dict2 = dict.clone();
        let t2 = parse_tree_str(&rendered, &mut dict2).unwrap();
        assert_eq!(t, t2, "rendered: {rendered}");
    }

    #[test]
    fn round_trip_with_entities() {
        let xml = "<a><b>1 &lt; 2 &amp; 3</b></a>";
        let mut dict = LabelDict::new();
        let t = parse_tree_str(xml, &mut dict).unwrap();
        let rendered = tree_to_xml(&t, &dict);
        let mut dict2 = dict.clone();
        let t2 = parse_tree_str(&rendered, &mut dict2).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn round_trip_with_numeric_character_references() {
        // Decimal and hex references decode to their code points on the
        // way in; the writer re-escapes only the XML metacharacters, so
        // a second parse sees the identical label multiset. Pins the
        // parser's numeric-reference decoding through a full cycle.
        let xml = "<a k=\"&#x41;&#66;\"><b>caf&#233; &#x263A; &#60;tag&#62;</b></a>";
        let mut dict = LabelDict::new();
        let t = parse_tree_str(xml, &mut dict).unwrap();
        assert!(
            dict.get("café ☺ <tag>").is_some(),
            "numeric references must decode before interning"
        );
        assert!(dict.get("AB").is_some(), "attribute references too");
        let rendered = tree_to_xml(&t, &dict);
        let mut dict2 = dict.clone();
        let t2 = parse_tree_str(&rendered, &mut dict2).unwrap();
        assert_eq!(t, t2, "rendered: {rendered}");
    }

    fn render(bracket: &str) -> String {
        let mut dict = LabelDict::new();
        let tree = tasm_tree::bracket::parse(bracket, &mut dict).unwrap();
        tree_to_xml(&tree, &dict)
    }

    #[test]
    fn at_text_after_a_child_is_text_not_an_attribute() {
        // Matched subtree of `<r><a><b/>@x</a></r>`: the `@x` text leaf
        // follows an element, so the start tag is already closed.
        let xml = "<r><a><b/>@x</a></r>";
        let mut dict = LabelDict::new();
        let doc = parse_tree_str(xml, &mut dict).unwrap();
        let a = doc.children(doc.root())[0];
        // Leaves are text, so `b` reads back merged with `@x`: a
        // best-effort rendering, but no panic.
        assert_eq!(tree_to_xml(&doc.subtree(a), &dict), "<a>b@x</a>");
        assert_eq!(render("{a{t}{@x}{@y{v}}}"), "<a>t@x<@y>v</@y></a>");
    }

    #[test]
    fn at_labels_that_are_not_names_render_as_text() {
        assert_eq!(render("{c{@p q}}"), "<c>@p q</c>");
        assert_eq!(render("{@p q}"), "@p q");
        assert_eq!(render("{c{@}{@1x}{@a<b}}"), "<c>@@1x@a&lt;b</c>");
        // Names keep rendering as attributes, and root leaves as elements.
        assert_eq!(render("{c{@a}{@x:y-z.1{v}}}"), r#"<c a="" x:y-z.1="v"/>"#);
        assert_eq!(render("{@a}"), "<@a/>");
        assert_eq!(render("{p q}"), "<p q/>");
    }

    #[test]
    #[should_panic(expected = "must follow start")]
    fn attr_after_text_panics() {
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        w.start("a").unwrap();
        w.text("t").unwrap();
        let _ = w.attr("x", "1");
    }
}
