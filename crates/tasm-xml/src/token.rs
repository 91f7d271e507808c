//! A pull tokenizer over `BufRead::fill_buf` windows.
//!
//! Implemented from scratch for this reproduction: the paper's pipeline
//! needs a parser that can drive a postorder queue without materializing
//! the document ("a standard XML parser was used to implement the postorder
//! queues", Sec. VII). [`Tokenizer::next`] scans the reader's own buffer
//! for the end of the next token and lends the token's bytes in place;
//! only a token that crosses a window boundary is copied, into one carry
//! buffer that is reused. Nothing is allocated per token.
//!
//! Scope (documented trade-offs, adequate for data-centric corpora):
//!
//! * elements, attributes, text, CDATA, comments, processing instructions
//!   and DOCTYPE (with internal subset) are recognized;
//! * namespaces are not resolved (prefixes are kept verbatim in names);
//! * unknown entities pass through undecoded (see [`crate::escape`]).

use std::io::{self, BufRead};

use crate::error::XmlError;

/// The kind of a token; [`Tokenizer::next`] hands over its content
/// without the delimiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token {
    /// Character data up to the next `<` (entities not yet resolved).
    Text,
    /// `<name attr="v">` or `<name/>`: `name attr="v"` or `name/`.
    Start,
    /// `</name>`: `name`.
    End,
    /// `<![CDATA[…]]>`: the raw content.
    Cdata,
    /// A comment, processing instruction or declaration.
    Skip,
    /// A `<!-` or `<![` construct that is neither a comment nor CDATA.
    Malformed(&'static str),
}

impl Token {
    /// The content of a whole token of this kind.
    fn content(self, token: &[u8]) -> &[u8] {
        let (head, tail) = match self {
            Token::Start => (1, 1),
            Token::End => (2, 1),
            Token::Cdata => (9, 3),
            Token::Text | Token::Skip | Token::Malformed(_) => (0, 0),
        };
        &token[head..token.len() - tail]
    }
}

/// Where the scan of the current token stands; it carries over from
/// one window to the next.
#[derive(Debug, Clone, Copy)]
enum Scan {
    Begin,
    Text,
    /// After `<`.
    Open,
    /// After `<!`.
    Bang,
    /// After `<!-`.
    BangDash,
    /// After `<![`: bytes of `CDATA[` read, and whether they all matched.
    CdataHead(u8, bool),
    /// A start tag after its first byte: the open quote, or 0.
    Start(u8),
    End,
    /// A processing instruction: whether the last byte was `?`.
    Pi(bool),
    /// A comment: trailing `-` bytes, at most 2.
    Comment(u8),
    /// CDATA content: trailing `]` bytes, at most 2.
    Cdata(u8),
    /// A declaration after its first byte: `[` nesting depth.
    Decl(i32),
}

impl Scan {
    /// Feeds the next piece of the token. Returns how many bytes of
    /// `bytes` belong to the token and its kind once the end is found.
    fn feed(&mut self, bytes: &[u8]) -> Option<(usize, Token)> {
        let mut at = 0;
        if let Scan::Begin = self {
            *self = if bytes.first() == Some(&b'<') {
                at = 1;
                Scan::Open
            } else {
                Scan::Text
            };
        }
        if let Scan::Text = self {
            return bytes
                .iter()
                .position(|&b| b == b'<')
                .map(|n| (n, Token::Text));
        }
        while at < bytes.len() {
            // Start and end tags make up most markup: skip to the next
            // byte that can change their state.
            let mut rest = bytes[at..].iter();
            at += match *self {
                Scan::Start(0) => rest.position(|&b| matches!(b, b'>' | b'"' | b'\''))?,
                Scan::Start(quote) => rest.position(|&b| b == quote)?,
                Scan::End => rest.position(|&b| b == b'>')?,
                _ => 0,
            };
            let b = bytes[at];
            at += 1;
            *self = match *self {
                Scan::Open => match b {
                    b'?' => Scan::Pi(false),
                    b'!' => Scan::Bang,
                    b'/' => Scan::End,
                    _ => Scan::Start(0),
                },
                Scan::Bang => match b {
                    b'-' => Scan::BangDash,
                    b'[' => Scan::CdataHead(0, true),
                    _ => Scan::Decl(0),
                },
                Scan::BangDash if b == b'-' => Scan::Comment(0),
                Scan::BangDash => return Some((at, Token::Malformed("malformed comment"))),
                Scan::CdataHead(n, ok) => {
                    let ok = ok && b == b"CDATA["[usize::from(n)];
                    match (n, ok) {
                        (0..5, _) => Scan::CdataHead(n + 1, ok),
                        (_, true) => Scan::Cdata(0),
                        (_, false) => {
                            let message = "malformed <![ construct (expected CDATA)";
                            return Some((at, Token::Malformed(message)));
                        }
                    }
                }
                Scan::Start(0) if b == b'>' => return Some((at, Token::Start)),
                Scan::Start(0) => Scan::Start(b), // an opening quote
                Scan::Start(_) => Scan::Start(0), // its closing quote
                Scan::End => return Some((at, Token::End)),
                Scan::Pi(true) if b == b'>' => return Some((at, Token::Skip)),
                Scan::Pi(_) => Scan::Pi(b == b'?'),
                Scan::Comment(2) if b == b'>' => return Some((at, Token::Skip)),
                Scan::Cdata(2) if b == b'>' => return Some((at, Token::Cdata)),
                Scan::Comment(n) => Scan::Comment(if b == b'-' { 2.min(n + 1) } else { 0 }),
                Scan::Cdata(n) => Scan::Cdata(if b == b']' { 2.min(n + 1) } else { 0 }),
                Scan::Decl(depth) => match b {
                    b'[' => Scan::Decl(depth.saturating_add(1)),
                    b']' => Scan::Decl(depth.saturating_sub(1)),
                    b'>' if depth <= 0 => return Some((at, Token::Skip)),
                    _ => Scan::Decl(depth),
                },
                state @ (Scan::Begin | Scan::Text) => state,
            };
        }
        None
    }
}

/// Splits a [`BufRead`] into tokens.
#[derive(Debug)]
pub(crate) struct Tokenizer<R> {
    reader: R,
    /// The current token, when it crossed a window boundary.
    carry: Vec<u8>,
    /// Stream offset of the next token.
    offset: u64,
}

impl<R: BufRead> Tokenizer<R> {
    pub(crate) fn new(reader: R) -> Self {
        Tokenizer {
            reader,
            carry: Vec::new(),
            offset: 0,
        }
    }

    /// Reads the next token and calls `f` with its kind, its content
    /// and its stream offset. Returns `false` at the end of the input,
    /// and [`XmlError::UnexpectedEof`] (with `open` elements) if the
    /// input ends inside markup.
    pub(crate) fn next(
        &mut self,
        open: usize,
        f: impl FnOnce(Token, &[u8], u64) -> Result<(), XmlError>,
    ) -> Result<bool, XmlError> {
        let mut scan = Scan::Begin;
        let window = fill(&mut self.reader)?;
        if window.is_empty() {
            return Ok(false);
        }
        if let Some((len, kind)) = scan.feed(window) {
            let done = f(kind, kind.content(&window[..len]), self.offset);
            self.reader.consume(len);
            self.offset += len as u64;
            return done.map(|()| true);
        }
        // The token crosses the window boundary: carry it over.
        self.carry.clear();
        self.carry.extend_from_slice(window);
        let mut spent = window.len();
        let kind = loop {
            self.reader.consume(spent);
            let window = fill(&mut self.reader)?;
            if window.is_empty() {
                match scan {
                    Scan::Text => break Token::Text,
                    _ => return Err(XmlError::UnexpectedEof { open }),
                }
            }
            if let Some((len, kind)) = scan.feed(window) {
                self.carry.extend_from_slice(&window[..len]);
                self.reader.consume(len);
                break kind;
            }
            self.carry.extend_from_slice(window);
            spent = window.len();
        };
        let done = f(kind, kind.content(&self.carry), self.offset);
        self.offset += self.carry.len() as u64;
        done.map(|()| true)
    }
}

/// `fill_buf`, retried on `Interrupted` as std's own read loops do.
fn fill<R: BufRead>(reader: &mut R) -> io::Result<&[u8]> {
    while let Err(e) = reader.fill_buf() {
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    reader.fill_buf()
}
