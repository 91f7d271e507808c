//! Label interning.
//!
//! The paper (Sec. VII) uses "a dictionary to assign unique integer
//! identifiers to node labels (element/attribute tags as well as text
//! content). The integer identifiers provide compression and faster
//! node-to-node comparisons". [`LabelDict`] is that dictionary: a
//! bidirectional map between strings and dense [`LabelId`]s.

use std::fmt;
use std::hash::{BuildHasher, RandomState};

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
/// Each name is stored once: the names sit end to end in one string
/// arena, and an open-addressing table of ids finds a name by its hash.
/// The hasher is std's randomly keyed one, so names from untrusted input
/// (request lines, documents) cannot be chosen to collide.
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
#[derive(Default, Clone)]
pub struct LabelDict {
    /// Every name, concatenated in interning order.
    arena: String,
    /// `ends[i]` is where name `i` ends in `arena`; it starts where name
    /// `i - 1` ends.
    ends: Vec<usize>,
    /// Open-addressing table (linear probing, power-of-two length, at
    /// most half full); a slot holds an id and the low bits of its hash.
    slots: Vec<Slot>,
    hasher: RandomState,
}

#[derive(Clone, Copy)]
struct Slot {
    /// Low 32 bits of the name's hash; they also pick the home slot.
    hash: u32,
    /// The name's id, or [`EMPTY`].
    id: u32,
}

/// The id of an unused slot; no label gets it.
const EMPTY: u32 = u32::MAX;

impl LabelDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` distinct labels.
    pub fn with_capacity(n: usize) -> Self {
        let mut dict = Self {
            ends: Vec::with_capacity(n),
            ..Self::default()
        };
        dict.resize_table(n.saturating_mul(2).next_power_of_two());
        dict
    }

    /// Interns `name`, returning its id. Idempotent.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if self.slots.len() < 2 * (self.ends.len() + 1) {
            self.resize_table((2 * self.slots.len()).max(16));
        }
        let hash = self.hasher.hash_one(name) as u32;
        match self.probe(name, hash) {
            Ok(id) => id,
            Err(slot) => {
                let id = u32::try_from(self.ends.len())
                    .ok()
                    .filter(|&id| id != EMPTY)
                    .expect("more than u32::MAX - 1 labels");
                self.arena.push_str(name);
                self.ends.push(self.arena.len());
                self.slots[slot] = Slot { hash, id };
                LabelId(id)
            }
        }
    }

    /// Finds `name`: its id, or the empty slot where it belongs.
    fn probe(&self, name: &str, hash: u32) -> Result<LabelId, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY {
                return Err(at);
            }
            if slot.hash == hash && self.name(slot.id as usize) == name {
                return Ok(LabelId(slot.id));
            }
            at = (at + 1) & mask;
        }
    }

    /// Rebuilds the table with `len` slots (a power of two) from the
    /// stored hashes; the names are not hashed again.
    fn resize_table(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot { hash: 0, id: EMPTY }; len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut at = slot.hash as usize & mask;
            while self.slots[at].id != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }

    /// The name of id `i < self.len()`.
    fn name(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..self.ends[i]]
    }

    /// Returns the id of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(name, self.hasher.hash_one(name) as u32).ok()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this dictionary.
    pub fn resolve(&self, id: LabelId) -> &str {
        self.try_resolve(id)
            .unwrap_or_else(|| panic!("label {id} was not minted by this dictionary"))
    }

    /// Returns the string for `id`, or `None` if out of range.
    pub fn try_resolve(&self, id: LabelId) -> Option<&str> {
        (id.index() < self.len()).then(|| self.name(id.index()))
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        (0..self.len()).map(|i| (LabelId(i as u32), self.name(i)))
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
        let base = u32::try_from(self.len()).expect("more than u32::MAX labels");
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

impl fmt::Debug for LabelDict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(_, name)| name))
            .finish()
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
