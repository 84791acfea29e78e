//! Chapter 7's scenario: skyline apartment search with Boolean amenities,
//! dynamic skylines around a commute target, and OLAP navigation
//! (drill-down / roll-up) that reuses the previous search's frontier.
//!
//! ```sh
//! cargo run --release --example apartment_skyline
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::index::rtree::RTreeConfig;
use ranking_cube::prelude::*;
use ranking_cube::skyline::bnl_skyline;

fn main() {
    // Apartments: Boolean amenities select, (rent, distance) rank.
    let schema = Schema::new(
        vec![Dim::cat("in_unit_laundry", 2), Dim::cat("parking", 2), Dim::cat("pets_ok", 2)],
        vec!["rent", "distance"],
    );
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = RelationBuilder::with_capacity(schema, 15_000);
    for _ in 0..15_000 {
        let sel = [
            u32::from(rng.gen::<f64>() < 0.4),
            u32::from(rng.gen::<f64>() < 0.6),
            u32::from(rng.gen::<f64>() < 0.5),
        ];
        // Rent anti-correlates with distance from downtown.
        let distance: f64 = rng.gen();
        let rent = (1.1 - distance * 0.8 + 0.2 * rng.gen::<f64>()).clamp(0.0, 1.0);
        b.push(&sel, &[rent, distance]);
    }
    let apartments = b.finish();

    let disk = DiskSim::with_defaults();
    let rtree = ranking_cube::index::RTree::over_relation(
        &disk,
        &apartments,
        &[],
        RTreeConfig::for_page(4096, 2),
    );
    let cube = SignatureCube::build(&apartments, &rtree, &disk, SignatureCubeConfig::default());
    let engine = SkylineEngine::new(&rtree, &cube);

    // 1. Skyline of apartments with in-unit laundry: nothing cheaper AND
    //    closer exists.
    let q = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
    let (sky, session) = engine.skyline(&q, &disk).expect("skyline");
    println!("skyline with in-unit laundry: {} apartments", sky.tids.len());
    assert_eq!(
        {
            let mut s = sky.tids.clone();
            s.sort_unstable();
            s
        },
        bnl_skyline(&apartments, &q)
    );

    // 2. Drill down: also require parking — reuses the frontier.
    let (sky2, session2) = engine.drill_down(&session, 1, 1, &disk).expect("skyline");
    println!(
        "+ parking: {} apartments ({} blocks read on reuse)",
        sky2.tids.len(),
        sky2.stats.blocks_read
    );

    // 3. Roll up: drop the laundry requirement.
    let (sky3, _) = engine.roll_up(&session2, 0, &disk).expect("skyline");
    println!("parking only: {} apartments", sky3.tids.len());

    // 4. Dynamic skyline around a commute sweet spot: rent ≈ 0.4 of
    //    budget, distance ≈ 0.3 (near the office, not downtown).
    let dq = SkylineQuery::dynamic(vec![(2, 1)], vec![0, 1], vec![0.4, 0.3]);
    let (dyn_sky, _) = engine.skyline(&dq, &disk).expect("skyline");
    println!(
        "dynamic skyline around (rent 0.4, distance 0.3), pets ok: {} apartments",
        dyn_sky.tids.len()
    );
    assert_eq!(
        {
            let mut s = dyn_sky.tids.clone();
            s.sort_unstable();
            s
        },
        bnl_skyline(&apartments, &dq)
    );
    println!("(all skylines verified against the BNL reference)");
}
