//! [`LabelDict`] against a `Vec<String>` model: random name sequences
//! (duplicates, the empty name, multi-byte and long names) must get the
//! same ids, and `get`, `resolve`, `try_resolve` and `iter` must agree
//! with the model after every insert, across every table growth.

use proptest::prelude::*;
use tasm_tree::{LabelDict, LabelId};

/// Maps a drawn number to a name: a small vocabulary (so names repeat)
/// of empty, ASCII, multi-byte and long names.
fn name_of(pick: u32) -> String {
    let stem = pick % 97;
    match pick % 5 {
        0 => String::new(),
        1 => format!("n{stem}"),
        2 => format!("é東{stem}🎉"),
        3 => format!("{stem}").repeat(1 + (stem as usize % 7) * 40),
        _ => format!("n{stem} with space"),
    }
}

fn model_id(model: &[String], name: &str) -> Option<LabelId> {
    model
        .iter()
        .position(|m| m == name)
        .map(|i| LabelId(i as u32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dict_matches_a_vec_model(
        picks in prop::collection::vec(any::<u32>(), 0..700),
        probes in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        let mut dict = LabelDict::new();
        let mut model: Vec<String> = Vec::new();
        for &pick in &picks {
            let name = name_of(pick);
            let want = model_id(&model, &name).unwrap_or_else(|| {
                model.push(name.clone());
                LabelId(model.len() as u32 - 1)
            });
            prop_assert_eq!(dict.intern(&name), want);
            prop_assert_eq!(dict.len(), model.len());
        }
        // Every id survives the table growths.
        for (i, name) in model.iter().enumerate() {
            let id = LabelId(i as u32);
            prop_assert_eq!(dict.get(name), Some(id));
            prop_assert_eq!(dict.resolve(id), name.as_str());
            prop_assert_eq!(dict.try_resolve(id), Some(name.as_str()));
        }
        prop_assert_eq!(dict.try_resolve(LabelId(model.len() as u32)), None);
        for &probe in &probes {
            let name = name_of(probe.wrapping_mul(31));
            prop_assert_eq!(dict.get(&name), model_id(&model, &name));
        }
        let listed: Vec<(LabelId, String)> =
            dict.iter().map(|(id, name)| (id, name.to_string())).collect();
        let want: Vec<(LabelId, String)> = model
            .iter()
            .enumerate()
            .map(|(i, name)| (LabelId(i as u32), name.clone()))
            .collect();
        prop_assert_eq!(listed, want);
        // A clone is an independent dictionary with the same content.
        let mut copy = dict.clone();
        prop_assert_eq!(copy.intern("a name no pick makes"), LabelId(model.len() as u32));
        prop_assert_eq!(dict.get("a name no pick makes"), None);
        for (i, name) in model.iter().enumerate() {
            prop_assert_eq!(copy.get(name), Some(LabelId(i as u32)));
        }
    }
}

#[test]
fn with_capacity_dictionaries_intern_like_empty_ones() {
    for n in [0, 1, 3, 1000] {
        let mut dict = LabelDict::with_capacity(n);
        assert_eq!(dict.get(""), None);
        for i in 0..2_000u32 {
            assert_eq!(dict.intern(&name_of(i)), dict.get(&name_of(i)).unwrap());
        }
        assert_eq!(dict.len(), 97 * 4 + 1);
    }
}
