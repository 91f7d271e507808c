//! Streaming XML substrate for TASM (Top-k Approximate Subtree Matching).
//!
//! Written from scratch for the ICDE 2010 reproduction: a tokenizer that
//! scans the reader's `fill_buf` windows in place and allocates nothing
//! per token, entity handling ([`escape`]), an event writer
//! ([`XmlWriter`]) and — most importantly — [`XmlPostorderQueue`], which
//! turns an XML byte stream into the paper's *postorder queue* (Def. 2)
//! with `O(depth)` memory, so `tasm_core::tasm_postorder` can query XML
//! files that never fit in memory. Labels are interned straight from the
//! borrowed token bytes, and entities are decoded only where a `&` occurs.
//!
//! # Quick start
//!
//! ```
//! use tasm_tree::{LabelDict, PostorderQueue};
//! use tasm_xml::XmlPostorderQueue;
//!
//! let xml = "<dblp><article><title>X1</title></article></dblp>";
//! let mut dict = LabelDict::new();
//! let mut queue = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
//! let first = queue.dequeue().unwrap();
//! // Postorder: the deepest text node comes first.
//! assert_eq!(first.size, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod escape;
mod stream;
mod token;
mod writer;

pub use error::XmlError;
pub use stream::{
    parse_tree, parse_tree_str, parse_tree_with_config, XmlPostorderQueue, XmlTreeConfig,
};
pub use writer::{tree_to_xml, write_tree, XmlWriter};
