//! Streaming monitor: Lossy Counting over the whole stream + an exact
//! sliding window over the recent past.
//!
//! Simulates a transaction stream whose item popularity *drifts* halfway
//! through: the sketch tracks global heavy hitters with deterministic
//! error bounds, while the window — a [`ShardedPipeline`] with a
//! capacity, the one the serving builder runs — re-ranks on drift by
//! itself and reflects the new regime exactly.
//!
//! ```text
//! cargo run --release --example stream_monitor
//! ```

use plt::data::{ZipfConfig, ZipfGenerator};
use plt::shard::{Delta, ShardConfig};
use plt::stream::LossyCounter;
use plt::ShardedPipeline;

fn main() {
    // Two regimes: the second shifts every item id up by 50, changing the
    // popular head of the distribution.
    let regime_a = ZipfGenerator::new(ZipfConfig {
        num_transactions: 5_000,
        num_items: 300,
        seed: 11,
        ..Default::default()
    })
    .generate()
    .into_transactions();
    let regime_b: Vec<Vec<u32>> = ZipfGenerator::new(ZipfConfig {
        num_transactions: 5_000,
        num_items: 300,
        seed: 12,
        ..Default::default()
    })
    .generate()
    .into_transactions()
    .into_iter()
    .map(|t| t.into_iter().map(|i| i + 50).collect())
    .collect();

    let mut sketch = LossyCounter::new(0.001);
    let window_capacity = 1_000;
    let mut window = ShardedPipeline::new(
        &regime_a[..window_capacity],
        ShardConfig {
            min_support: 20,
            capacity: Some(window_capacity),
            ..ShardConfig::default()
        },
    )
    .expect("well-formed stream");
    for t in &regime_a[..window_capacity] {
        sketch.observe_transaction(t);
    }

    // Arrivals in batches of 500: each batch slides the window, and a
    // batch that moves an item across min_support re-ranks it.
    let arrivals = regime_a[window_capacity..].chunks(500);
    for batch in arrivals.chain(regime_b.chunks(500)) {
        for t in batch {
            sketch.observe_transaction(t);
        }
        window
            .apply(Delta::add(batch.to_vec()))
            .expect("well-formed stream");
    }

    println!(
        "stream: {} item observations, sketch tracking {} items (ε = {})",
        sketch.observed(),
        sketch.tracked(),
        sketch.epsilon()
    );
    println!("\nglobal heavy hitters (support >= 2%):");
    for (item, count) in sketch.frequent(0.02).into_iter().take(8) {
        println!(
            "  item {item:>3}: ~{count} occurrences ({:.1}% of stream)",
            100.0 * count as f64 / sketch.observed() as f64
        );
    }

    let recent = window.result();
    println!(
        "\nexact over the last {} transactions: {} frequent itemsets",
        window.len(),
        recent.len()
    );
    let mut top: Vec<_> = recent.of_size(2).collect();
    top.sort_by_key(|p| std::cmp::Reverse(p.1));
    println!("top recent pairs (all from the drifted regime):");
    for (itemset, support) in top.iter().take(5) {
        println!("  {itemset}  support={support}");
        // Drift check: regime B items are all >= 50.
        assert!(
            itemset.items().iter().all(|&i| i >= 50),
            "window should only see regime B"
        );
    }
}
