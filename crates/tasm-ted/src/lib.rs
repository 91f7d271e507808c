//! Tree edit distance for TASM (Top-k Approximate Subtree Matching).
//!
//! The distance substrate of the TASM reproduction (Augsten, Böhlen,
//! Barbosa, Palpanas — ICDE 2010): the canonical **tree edit distance**
//! (Tai \[8\]; Zhang & Shasha \[9\]) with the paper's cost model (Def. 4),
//! computed by the Zhang–Shasha dynamic program the paper builds on
//! (Sec. IV-E), including the full *tree distance matrix* whose last row
//! drives TASM-dynamic.
//!
//! # Quick start
//!
//! ```
//! use tasm_tree::{bracket, LabelDict};
//! use tasm_ted::{ted, ted_full, Cost, UnitCost};
//!
//! let mut dict = LabelDict::new();
//! let g = bracket::parse("{a{b}{c}}", &mut dict).unwrap();            // query G (Fig. 2)
//! let h = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap(); // document H
//! assert_eq!(ted(&g, &h, &UnitCost), Cost::from_natural(4));          // Fig. 3
//!
//! // Distances from G to *every* subtree of H (Fig. 3, last row):
//! let td = ted_full(&g, &h, &UnitCost, None);
//! let row: Vec<u64> = td.query_row()[1..].iter().map(|c| c.floor_natural()).collect();
//! assert_eq!(row, vec![2, 3, 1, 2, 2, 0, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cascade;
mod cost;
pub mod filters;
mod mapping;
mod matrix;
pub mod oracle;
pub mod sed;
pub mod stats;
mod strategy;
mod workspace;
mod zhang_shasha;

pub use cascade::{CascadeDecision, CascadeScratch, LowerBoundCascade};
pub use cost::{rename_cost, Cost, CostModel, FanoutWeighted, NodeCosts, PerLabelCost, UnitCost};
pub use mapping::{edit_script, validate_mapping, EditOp, EditScript};
pub use matrix::Matrix;
pub use stats::TedStats;
pub use strategy::TedKernel;
pub use workspace::{QueryContext, TedWorkspace};
pub use zhang_shasha::{
    dp_bytes, ted, ted_full, ted_full_with_costs, ted_full_with_workspace, ted_row_with_workspace,
    ted_view_with_workspace, ted_with_kernel, ted_with_workspace, TreeDistances, TreeDistancesView,
    DP_BYTES_LIMIT,
};
