//! Fixtures more than one suite runs against.

use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::{Relation, RelationBuilder, Tid};

/// 4000 tuples with ranking values in eighths: scores tie by the dozen —
/// tuple against tuple and tuple against node or block bound — so an engine
/// that surfaces ties in heap order picks a different tid *set* than the
/// scan, not just another order. The last tuple has the best score of all.
pub fn quantized_relation() -> Relation {
    let raw = SyntheticSpec { tuples: 4_000, cardinality: 5, ..Default::default() }.generate();
    let mut b = RelationBuilder::new(raw.schema().clone());
    for t in raw.tids() {
        let sel: Vec<u32> =
            (0..raw.schema().num_selection()).map(|d| raw.selection_value(t, d)).collect();
        let point: Vec<f64> =
            raw.ranking_point(t).iter().map(|v| (v * 8.0).round() / 8.0).collect();
        if t + 1 == raw.len() as Tid {
            b.push(&[0, 0, 0], &[0.0, 0.0]); // best score, last tid
        } else {
            b.push(&sel, &point);
        }
    }
    b.finish()
}
