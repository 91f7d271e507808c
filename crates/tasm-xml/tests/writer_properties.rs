//! `tree_to_xml` renders *any* tree without panicking, whatever its
//! labels: `@`-prefixed ones that are or are not XML names, labels with
//! spaces or markup characters, and the empty label. What it writes
//! then parses to a tree or a structured error, never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tasm_tree::{LabelDict, LabelId, TreeBuilder};
use tasm_xml::{parse_tree_str, tree_to_xml};

const LABELS: &[&str] = &[
    "a", "b", "@x", "@k", "@p q", "@", "", "x y", "@a:b-c.d", "@1", "@a<b", "t&<>\"'", "é", "@é",
];

/// Adds a random subtree of at most `*budget` more nodes under `b`.
fn grow(rng: &mut StdRng, b: &mut TreeBuilder, ids: &[LabelId], budget: &mut usize, depth: u32) {
    b.start(ids[rng.gen_range(0..ids.len())]);
    while *budget > 0 && depth < 6 && rng.gen_range(0..3) > 0 {
        *budget -= 1;
        grow(rng, b, ids, budget, depth + 1);
    }
    b.end().expect("balanced");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_tree_renders_without_panicking(seed in any::<u64>(), budget in 0usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dict = LabelDict::new();
        let ids: Vec<LabelId> = LABELS.iter().map(|l| dict.intern(l)).collect();
        let mut b = TreeBuilder::new();
        let mut budget = budget;
        grow(&mut rng, &mut b, &ids, &mut budget, 0);
        let tree = b.finish().expect("one root");

        let xml = tree_to_xml(&tree, &dict);
        prop_assert!(!xml.is_empty());
        let _ = parse_tree_str(&xml, &mut dict);
    }
}
