//! Cross-crate streaming + storage pipelines: sketch guarantees against
//! exact counts, and the on-disk index round trip driving the query
//! oracle. The exact sliding window is `ShardedPipeline`'s, proven
//! against full re-mines in `shard_incremental.rs`.

use plt::core::miner::Miner;
use plt::core::SupportOracle;
use plt::data::{QuestConfig, QuestGenerator, ZipfConfig, ZipfGenerator};
use plt::stream::LossyCounter;
use plt::ConditionalMiner;

#[test]
fn sketch_bounds_hold_on_zipf_traffic() {
    let stream = ZipfGenerator::new(ZipfConfig {
        num_transactions: 4_000,
        ..Default::default()
    })
    .generate();
    let mut sketch = LossyCounter::new(0.001);
    let mut exact: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for t in stream.transactions() {
        sketch.observe_transaction(t);
        for &i in t {
            *exact.entry(i).or_insert(0) += 1;
        }
    }
    let n = sketch.observed() as f64;
    let bound = (0.001 * n).ceil() as u64;
    for (&item, &truth) in &exact {
        let est = sketch.estimate(item);
        assert!(est <= truth);
        assert!(truth.saturating_sub(est) <= bound, "item {item}");
    }
    // Query at 1%: every truly-1%-frequent item is reported.
    for (item, _) in sketch.frequent(0.01) {
        assert!(exact[&item] as f64 >= (0.01 - 0.001) * n);
    }
}

#[test]
fn pltc_file_drives_the_support_oracle() {
    let db = QuestGenerator::new(QuestConfig::t5i2(600))
        .generate()
        .into_transactions();
    let plt = plt::core::construct::construct(
        &db,
        6,
        plt::core::construct::ConstructOptions::conditional(),
    )
    .unwrap();

    // PLT → compressed → disk → back → oracle.
    let path = std::env::temp_dir().join(format!("plt-oracle-{}.pltc", std::process::id()));
    plt::compress::file::save(&path, &plt::compress::CompressedPlt::from_plt(&plt)).unwrap();
    let reloaded = plt::compress::file::load(&path).unwrap().to_plt();
    std::fs::remove_file(&path).ok();

    let oracle = SupportOracle::new(&reloaded);
    // Oracle answers over the reloaded structure equal linear scans over
    // the original for a spread of queries.
    let result = ConditionalMiner::default().mine(&db, 6);
    for (itemset, support) in result.iter().take(100) {
        assert_eq!(
            oracle.support(itemset.items(), &reloaded),
            support,
            "{itemset}"
        );
    }
}
