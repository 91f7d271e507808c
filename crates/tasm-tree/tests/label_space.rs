//! The label-space contract of [`LabelDict::encode_tree`]: a query
//! parsed with any source dictionary, encoded into a read-only target
//! dictionary, compares equal to a target label exactly when the names
//! are equal, and its labels the target lacks collide with nothing.

use proptest::prelude::*;
use tasm_tree::{LabelDict, LabelId, Tree};

/// A dictionary interning `n<i>` for every `i` of `names`, in order
/// (repeats are no-ops).
fn dict_of(names: &[u32]) -> LabelDict {
    let mut dict = LabelDict::new();
    for i in names {
        dict.intern(&format!("n{i}"));
    }
    dict
}

/// A root over one leaf per entry of `leaves`: every source label the
/// caller lists appears in the query.
fn star(root: LabelId, leaves: &[LabelId]) -> Tree {
    let mut entries: Vec<(LabelId, u32)> = leaves.iter().map(|&l| (l, 1)).collect();
    entries.push((root, leaves.len() as u32 + 1));
    Tree::from_postorder(entries).expect("a star is a tree")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn encoded_ids_equal_exactly_when_names_do(
        target_names in prop::collection::vec(0u32..48, 0..40),
        src_names in prop::collection::vec(0u32..48, 1..24),
        picks in prop::collection::vec(any::<u32>(), 0..30),
    ) {
        let target = dict_of(&target_names);
        let src = dict_of(&src_names);
        // Every source label once, then random repeats.
        let mut leaves: Vec<LabelId> = src.iter().map(|(id, _)| id).collect();
        leaves.extend(picks.iter().map(|p| LabelId(p % src.len() as u32)));
        let query = star(leaves[0], &leaves);
        let before = target.len();

        let enc = target.encode_tree(&query, &src);

        prop_assert_eq!(target.len(), before, "the target is read-only");
        prop_assert_eq!(enc.sizes(), query.sizes(), "the shape is kept");
        let name_of = |l: LabelId| src.resolve(l).to_string();
        for (&e, &q) in enc.labels().iter().zip(query.labels()) {
            let name = name_of(q);
            // Against every target id: equal iff the names are.
            for (t, t_name) in target.iter() {
                prop_assert_eq!(e == t, t_name == name, "{} vs target {}", name, t_name);
            }
            match target.get(&name) {
                Some(t) => prop_assert_eq!(e, t),
                None => {
                    prop_assert!(e.index() >= target.len(), "fresh ids sit past the target");
                    prop_assert_eq!(src.resolve(LabelId(e.0 - target.len() as u32)), name);
                }
            }
        }
        // Between query nodes: equal iff the names are, so distinct
        // unknown names never share an id.
        for (&a, &qa) in enc.labels().iter().zip(query.labels()) {
            for (&b, &qb) in enc.labels().iter().zip(query.labels()) {
                prop_assert_eq!(a == b, name_of(qa) == name_of(qb));
            }
        }
    }
}
