//! Example 2 of the thesis: multi-dimensional *analysis* of top-k results.
//!
//! A notebook-comparison analyst asks for the top low-end notebooks by a
//! market-potential function, first restricted to one brand, then rolled
//! up across all brands — comparing the two answers positions the brand in
//! the low-end market. Both questions go through the [`Engine`] front door
//! with the query builder, and the roll-up list is *paginated
//! progressively*: the analyst widens it with `extend_k`, which resumes
//! the bound-driven search instead of re-running it.
//!
//! ```sh
//! cargo run --release --example notebook_olap
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranking_cube::prelude::*;

const DELL: u32 = 2;
const BRANDS: [&str; 5] = ["lenovo", "hp", "dell", "asus", "apple"];
const LOW_END: u32 = 0; // price band 0 = under $1000

fn main() {
    // Schema: brand and price band select; CPU/memory/disk rank. The
    // market-potential function prefers high spec values, so we *negate*
    // them into cost space (the engines minimize).
    let schema = Schema::new(
        vec![Dim::cat("brand", 5), Dim::cat("price_band", 3)],
        vec!["cpu_deficit", "mem_deficit", "disk_deficit"],
    );
    let mut rng = StdRng::seed_from_u64(42);
    let mut b = RelationBuilder::with_capacity(schema, 30_000);
    for _ in 0..30_000 {
        let brand = rng.gen_range(0..5);
        let band = rng.gen_range(0..3);
        // Better (lower-deficit) specs are rarer in the low-end band.
        let quality_bias = f64::from(band) * 0.15;
        let spec = |rng: &mut StdRng| (rng.gen::<f64>() - quality_bias).clamp(0.0, 1.0);
        let point = [spec(&mut rng), spec(&mut rng), spec(&mut rng)];
        b.push(&[brand, band], &point);
    }
    let notebooks = b.finish();

    // One front door: the engine owns the disk and the materialized cube.
    let engine = Engine::new(notebooks).with_grid_cube(GridCubeConfig::default());

    // Market potential f over CPU/memory/disk deficits (weighted linear).
    let weights = vec![0.5, 0.3, 0.2];

    // Step 1: top-5 Dell low-end notebooks (drill-down via the builder).
    let dell_q =
        Query::select([(1, LOW_END)]).and(0, DELL).rank(Linear::new(weights.clone())).top(5);
    let dell_top = engine.query(&dell_q).expect("query");
    println!("top-5 dell low-end notebooks (market-potential deficit):");
    for (tid, score) in &dell_top.items {
        println!("  nb #{tid}: {score:.4}");
    }

    // Step 2: roll up on brand — low-end notebooks of any maker, streamed
    // progressively from a cursor.
    let all_q = Query::select([(1, LOW_END)]).rank(Linear::new(weights.clone())).top(5);
    let mut cursor = engine.open(&all_q).expect("open roll-up cursor");
    let mut all_top: Vec<(u32, f64)> = Vec::new();
    println!("\ntop-5 low-end notebooks, all brands:");
    for (tid, score) in cursor.by_ref() {
        println!(
            "  nb #{tid} [{}]: {score:.4}",
            BRANDS[engine.relation().selection_value(tid, 0) as usize]
        );
        all_top.push((tid, score));
    }

    // Step 3: the analysis — where does Dell sit in the low-end market?
    let dell_best = dell_top.items[0].1;
    let market_best = all_top[0].1;
    let dell_in_market =
        all_top.iter().filter(|&&(t, _)| engine.relation().selection_value(t, 0) == DELL).count();
    println!(
        "\nanalysis: dell holds {dell_in_market}/5 of the market's top list; \
         best dell = {dell_best:.4} vs market best = {market_best:.4}"
    );
    assert!(dell_best >= market_best);

    // Step 4: "show me more" — widen the roll-up to 15 without re-running:
    // extend_k resumes the paused frontier, so the extension only reads
    // the blocks the next ten answers actually need.
    let at_5 = cursor.stats().blocks_read;
    cursor.extend_k(10);
    let more: Vec<(u32, f64)> = cursor.by_ref().collect();
    let stats = cursor.stats();
    println!(
        "\nwidened to 15: +{} answers for {} extra block reads ({} total)",
        more.len(),
        stats.blocks_read - at_5,
        stats.blocks_read
    );

    // The paginated list is exactly what a fresh top-15 would return —
    // minus the repeated work.
    let fresh = Query::select([(1, LOW_END)]).rank(Linear::new(weights)).top(15);
    let fresh = engine.query(&fresh).expect("query");
    let paginated: Vec<(u32, f64)> = all_top.iter().chain(&more).copied().collect();
    assert_eq!(fresh.items, paginated);
    assert!(fresh.stats.blocks_read > stats.blocks_read - at_5);
}
