//! Label interning.
//!
//! The paper (Sec. VII) uses "a dictionary to assign unique integer
//! identifiers to node labels (element/attribute tags as well as text
//! content). The integer identifiers provide compression and faster
//! node-to-node comparisons". [`LabelDict`] is that dictionary: a
//! bidirectional map between strings and dense [`LabelId`]s.

use std::collections::HashMap;
use std::fmt;

use crate::Tree;

/// A dense integer identifier for a node label.
///
/// Two nodes have equal labels iff their `LabelId`s are equal *within the
/// same [`LabelDict`]*. Comparing ids minted by different dictionaries is a
/// logic error; keep one dictionary per matching task (query and document
/// must share it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The index of this label in its dictionary.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An interning dictionary mapping label strings to dense [`LabelId`]s.
///
/// # Examples
///
/// ```
/// use tasm_tree::LabelDict;
///
/// let mut dict = LabelDict::new();
/// let a = dict.intern("article");
/// let b = dict.intern("title");
/// assert_ne!(a, b);
/// assert_eq!(dict.intern("article"), a); // stable
/// assert_eq!(dict.resolve(a), "article");
/// assert_eq!(dict.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct LabelDict {
    by_name: HashMap<Box<str>, LabelId>,
    names: Vec<Box<str>>,
}

impl LabelDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` distinct labels.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            by_name: HashMap::with_capacity(n),
            names: Vec::with_capacity(n),
        }
    }

    /// Interns `name`, returning its id. Idempotent.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = LabelId(u32::try_from(self.names.len()).expect("more than u32::MAX labels"));
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.by_name.insert(boxed, id);
        id
    }

    /// Returns the id of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this dictionary.
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Returns the string for `id`, or `None` if out of range.
    pub fn try_resolve(&self, id: LabelId) -> Option<&str> {
        self.names.get(id.index()).map(|s| &**s)
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), &**s))
    }

    /// Encodes `query`, whose labels were interned in `src`, into this
    /// dictionary's label space **without changing this dictionary**.
    ///
    /// A name this dictionary knows maps to its id here. A name it lacks
    /// gets `self.len() + src_id`: past every id of this dictionary, so
    /// it equals no label here, and distinct per name, because `src`
    /// ids are. Every query of a batch encoded against the same `src`
    /// therefore shares one consistent label space, and the cost is
    /// O(|query|) whatever the size of either dictionary. The fresh ids
    /// do not resolve here; resolve them through `src` at
    /// `id - self.len()`.
    ///
    /// # Panics
    ///
    /// Panics if a label of `query` was not minted by `src`, or if a
    /// fresh id would not fit in a `u32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use tasm_tree::{bracket, LabelDict, LabelId, NodeId};
    ///
    /// let mut doc_dict = LabelDict::new();
    /// let doc_a = doc_dict.intern("a");
    /// let mut src = LabelDict::new();
    /// let q = bracket::parse("{a{zzz}}", &mut src).unwrap(); // a = 0, zzz = 1
    /// let enc = doc_dict.encode_tree(&q, &src);
    /// assert_eq!(enc.label(NodeId::new(2)), doc_a);
    /// assert_eq!(enc.label(NodeId::new(1)), LabelId(1 + 1)); // len + src id
    /// assert_eq!(doc_dict.len(), 1); // unchanged
    /// ```
    pub fn encode_tree(&self, query: &Tree, src: &LabelDict) -> Tree {
        let base = u32::try_from(self.names.len()).expect("more than u32::MAX labels");
        let labels = query
            .labels()
            .iter()
            .map(|&l| {
                self.get(src.resolve(l)).unwrap_or_else(|| {
                    LabelId(base.checked_add(l.0).expect("fresh label id overflows u32"))
                })
            })
            .collect();
        Tree::from_postorder_unchecked(labels, query.sizes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = LabelDict::new();
        let a1 = d.intern("a");
        let a2 = d.intern("a");
        assert_eq!(a1, a2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered_by_first_use() {
        let mut d = LabelDict::new();
        assert_eq!(d.intern("x"), LabelId(0));
        assert_eq!(d.intern("y"), LabelId(1));
        assert_eq!(d.intern("x"), LabelId(0));
        assert_eq!(d.intern("z"), LabelId(2));
    }

    #[test]
    fn resolve_round_trips() {
        let mut d = LabelDict::new();
        let ids: Vec<_> = ["dblp", "article", "title", ""]
            .iter()
            .map(|s| d.intern(s))
            .collect();
        for (i, s) in ["dblp", "article", "title", ""].iter().enumerate() {
            assert_eq!(d.resolve(ids[i]), *s);
        }
    }

    #[test]
    fn get_returns_none_for_unknown() {
        let mut d = LabelDict::new();
        d.intern("known");
        assert!(d.get("unknown").is_none());
        assert_eq!(d.get("known"), Some(LabelId(0)));
    }

    #[test]
    fn try_resolve_out_of_range() {
        let d = LabelDict::new();
        assert!(d.try_resolve(LabelId(7)).is_none());
    }

    #[test]
    fn iter_visits_in_order() {
        let mut d = LabelDict::new();
        d.intern("a");
        d.intern("b");
        let v: Vec<_> = d.iter().map(|(i, s)| (i.0, s.to_string())).collect();
        assert_eq!(v, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    #[test]
    fn empty_dict() {
        let d = LabelDict::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
