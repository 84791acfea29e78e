//! Example 1 of the thesis: a used-car database with ad-hoc ranking.
//!
//! Q1: `SELECT TOP 10 * WHERE type = sedan AND color = red
//!      ORDER BY price + mileage`
//! Q2: `SELECT TOP 5 * WHERE maker = ford AND type = convertible
//!      ORDER BY (price − 20k)² + (mileage − 10k)²`
//!
//! Both run against the same materialized ranking cube — the point of the
//! methodology: the offline structure serves *ad hoc* ranking functions.
//!
//! ```sh
//! cargo run --release --example used_car_search
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranking_cube::func::RankFn;
use ranking_cube::prelude::*;

const SEDAN: u32 = 0;
const CONVERTIBLE: u32 = 1;
const RED: u32 = 2;
const FORD: u32 = 1;

fn build_inventory(n: usize) -> Relation {
    let schema = Schema::new(
        vec![
            Dim::cat("type", 3),  // sedan, convertible, suv
            Dim::cat("maker", 5), // gm, ford, hyundai, toyota, bmw
            Dim::cat("color", 6),
            Dim::cat("transmission", 2),
        ],
        vec!["price", "mileage"], // normalized: 1.0 = $50k / 150k miles
    );
    let mut rng = StdRng::seed_from_u64(2007);
    let mut b = RelationBuilder::with_capacity(schema, n);
    for _ in 0..n {
        let sel =
            [rng.gen_range(0..3), rng.gen_range(0..5), rng.gen_range(0..6), rng.gen_range(0..2)];
        b.push(&sel, &[rng.gen(), rng.gen()]);
    }
    b.finish()
}

fn dollars(price: f64) -> f64 {
    price * 50_000.0
}

fn miles(m: f64) -> f64 {
    m * 150_000.0
}

fn main() {
    let cars = build_inventory(20_000);
    let disk = DiskSim::with_defaults();
    let cube = GridRankingCube::build(&cars, &disk, GridCubeConfig::default());

    // Q1: cheapest low-mileage red sedans.
    let q1 = Query::select([(0, SEDAN), (2, RED)]).rank(Linear::uniform(2)).top(10);
    let r1 = cube.source(&disk).query(&q1.plan()).unwrap();
    println!("Q1: top-10 red sedans by price + mileage");
    for (tid, score) in &r1.items {
        println!(
            "  car #{tid}: ${:.0}, {:.0} miles (score {score:.3})",
            dollars(cars.ranking_value(*tid, 0)),
            miles(cars.ranking_value(*tid, 1)),
        );
    }

    // Q2: Ford convertibles near $20k and 10k miles — a quadratic target
    // function, still answered by the same cube.
    let target_price = 20_000.0 / 50_000.0;
    let target_miles = 10_000.0 / 150_000.0;
    let f2 = SqDist::new(vec![target_price, target_miles]);
    let q2 = Query::select([(0, CONVERTIBLE), (1, FORD)]).rank(f2.clone()).top(5);
    let r2 = cube.source(&disk).query(&q2.plan()).unwrap();
    println!("\nQ2: top-5 Ford convertibles near $20k / 10k miles");
    for (tid, score) in &r2.items {
        println!(
            "  car #{tid}: ${:.0}, {:.0} miles (distance {score:.4})",
            dollars(cars.ranking_value(*tid, 0)),
            miles(cars.ranking_value(*tid, 1)),
        );
    }

    // Sanity: the cube agrees with a full scan.
    let mut naive: Vec<(u32, f64)> = cars
        .tids()
        .filter(|&t| q2.selection().matches(&cars, t))
        .map(|t| (t, f2.score(&cars.ranking_point(t))))
        .collect();
    naive.sort_by(|a, b| a.1.total_cmp(&b.1));
    assert_eq!(r2.tids(), naive[..5].iter().map(|&(t, _)| t).collect::<Vec<_>>());
    println!("\n(cube answers verified against a full scan)");
}
