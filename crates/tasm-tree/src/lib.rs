//! Ordered labeled trees for TASM (Top-k Approximate Subtree Matching).
//!
//! This crate is the tree substrate of the TASM reproduction
//! (Augsten, Böhlen, Barbosa, Palpanas — ICDE 2010): ordered labeled trees
//! stored as postorder arenas, label interning, incremental builders,
//! bracket-notation I/O, keyroots (the paper's *relevant subtrees*, Def. 8),
//! the *postorder queue* streaming abstraction (Def. 2) and the
//! candidate sweep ([`CandidateSweep`]) that reads the candidate set
//! (Def. 9) of a resident tree off its size column.
//!
//! # Model
//!
//! A tree (Sec. IV-A of the paper) is a directed, acyclic, connected,
//! non-empty graph where every node has at most one parent and the children
//! of each node are totally ordered. Nodes are `(identifier, label)` pairs;
//! here the identifier is the **postorder number** ([`NodeId`]) and the
//! label an interned [`LabelId`].
//!
//! # Quick start
//!
//! ```
//! use tasm_tree::{bracket, keyroots, LabelDict, TreeQueue, PostorderQueue};
//!
//! let mut dict = LabelDict::new();
//! let doc = bracket::parse("{dblp{article{title{X1}}}{book{title{X2}}}}", &mut dict).unwrap();
//! assert_eq!(doc.len(), 7);
//!
//! // Stream it as a postorder queue (the only interface TASM-postorder uses).
//! let mut queue = TreeQueue::new(&doc);
//! let first = queue.dequeue().unwrap();
//! assert_eq!(dict.resolve(first.label), "X1");
//! assert_eq!(first.size, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bracket;
mod builder;
mod candidates;
pub mod crc;
mod error;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod keyroots;
mod label;
mod node;
pub mod postfile;
mod postorder_queue;
pub mod stats;
pub mod traversal;
mod tree;

pub use builder::TreeBuilder;
pub use candidates::CandidateSweep;
pub use error::TreeError;
pub use keyroots::{keyroot_sizes, keyroots, keyroots_into};
pub use label::{LabelDict, LabelId};
pub use node::NodeId;
pub use postorder_queue::{
    collect_tree, IterQueue, PostorderEntry, PostorderQueue, TreeQueue, VecQueue,
};
pub use traversal::{ancestors, lca, preorder, Ancestors, Preorder};
pub use tree::{ChildrenRl, Tree, TreeView};
