//! Durability differentials for `plt-store`: a seed-deterministic crash
//! mid-batch must recover (manifest + WAL-tail replay) to exactly the
//! state a full re-mine of every journaled transaction produces; cold
//! shards spilled past the resident budget must answer point lookups
//! from mmap segments with the same supports as an in-memory mine; and
//! random access through a segment's block index must agree with the
//! sequential full decode on arbitrary shard contents.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use plt::core::miner::Miner;
use plt::data::{QuestConfig, QuestGenerator};
use plt::shard::{Delta, ShardConfig};
use plt::store::{
    inspect_json, write_segment, DurableOptions, DurablePipeline, SegmentReader, ShardEntries,
    StoreOptions, BLOCK_ENTRIES,
};
use plt::ConditionalMiner;
use proptest::prelude::*;

mod common;
use common::{diff_support_maps, support_map};

/// A unique scratch directory per test (removed on success).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "plt-store-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn quest(n: usize) -> Vec<Vec<u32>> {
    QuestGenerator::new(QuestConfig::t5i2(n))
        .generate()
        .into_transactions()
}

/// Asserts the durable pipeline's merged result equals a from-scratch
/// mine of `window`.
fn assert_matches_full_mine(
    pipeline: &DurablePipeline,
    window: &[Vec<u32>],
    min_support: u64,
    label: &str,
) {
    let reference = support_map(&ConditionalMiner::default().mine(window, min_support));
    let got = support_map(pipeline.result());
    if let Some(diff) = diff_support_maps(&reference, &got) {
        panic!(
            "{label}: recovered state diverged from full re-mine of {} journaled \
             transactions at min_support {min_support}:\n{diff}",
            window.len(),
        );
    }
}

#[test]
fn kill_mid_batch_recovery_matches_full_remine() {
    let dir = scratch("crash");
    let min_support = 6;
    let config = ShardConfig {
        min_support,
        ..ShardConfig::default()
    };
    let transactions = quest(600);
    let batches: Vec<&[Vec<u32>]> = transactions.chunks(40).collect();

    // Crash deterministically during the 7th journaled batch: the WAL
    // append (and fsync) has happened, the in-memory apply has not — so
    // the batch is durable and recovery must include it.
    let crash_at = 7u64;
    let options = DurableOptions {
        store: StoreOptions {
            sync_every: 4,
            fault_after_appends: Some(crash_at),
            ..StoreOptions::default()
        },
        checkpoint_every: Some(3),
        ..DurableOptions::default()
    };
    let mut pipeline = DurablePipeline::open(&dir, config, options).unwrap();
    let mut journaled = 0usize;
    for batch in &batches {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pipeline.apply(Delta::add(batch.to_vec()))
        }));
        match outcome {
            Ok(Ok(_)) => journaled += 1,
            Ok(Err(e)) => panic!("apply failed before the injected crash: {e}"),
            Err(_) => {
                // The injected panic fires after the WAL append, so the
                // batch that "crashed" is journaled too.
                journaled += 1;
                break;
            }
        }
    }
    assert_eq!(journaled as u64, crash_at, "crash fired mid-run");
    drop(pipeline); // the "killed" process

    // Reopen without the fault: manifest (checkpoint after batch 6) +
    // WAL-tail replay (batch 7) must reproduce every journaled batch.
    let recovered = DurablePipeline::open(
        &dir,
        config,
        DurableOptions {
            checkpoint_every: Some(3),
            ..DurableOptions::default()
        },
    )
    .unwrap();
    assert!(
        recovered.recovery().replayed_deltas >= 1,
        "the crashed batch lives only in the WAL tail and must be replayed"
    );
    let journaled_window: Vec<Vec<u32>> = transactions[..journaled * 40].to_vec();
    assert_eq!(recovered.len(), journaled_window.len());
    assert_matches_full_mine(&recovered, &journaled_window, min_support, "post-crash");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_checkpoint_restart_replays_nothing() {
    let dir = scratch("clean");
    let min_support = 6;
    let config = ShardConfig {
        min_support,
        ..ShardConfig::default()
    };
    let transactions = quest(300);
    let mut pipeline = DurablePipeline::open(&dir, config, DurableOptions::default()).unwrap();
    for batch in transactions.chunks(50) {
        pipeline.apply(Delta::add(batch.to_vec())).unwrap();
    }
    pipeline.checkpoint().unwrap();
    drop(pipeline);

    let reopened = DurablePipeline::open(&dir, config, DurableOptions::default()).unwrap();
    assert_eq!(
        reopened.recovery().replayed_deltas,
        0,
        "a checkpoint right before shutdown leaves an empty WAL tail"
    );
    assert_eq!(reopened.len(), transactions.len());
    assert_matches_full_mine(&reopened, &transactions, min_support, "clean restart");

    // The inspect dump sees the same directory: a manifest with an
    // epoch, at least one segment, and a WAL holding only its
    // checkpoint marker.
    let json = inspect_json(&dir).unwrap();
    for key in ["\"epoch\"", "\"segments\"", "\"wal\"", "\"shards\""] {
        assert!(json.contains(key), "inspect output missing {key}: {json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_shards_answer_from_mmap_segments() {
    let dir = scratch("cold");
    let min_support = 8;
    let config = ShardConfig {
        min_support,
        ..ShardConfig::default()
    };
    let transactions = quest(400);
    // A two-shard resident budget against a default shard count forces
    // most of the tree cold; disabling the merged snapshot means every
    // query must route through a resident fragment or an mmap segment.
    let options = DurableOptions {
        resident_shards: Some(2),
        materialize_merged: false,
        checkpoint_every: Some(4),
        ..DurableOptions::default()
    };
    let mut pipeline = DurablePipeline::open(&dir, config, options).unwrap();
    for batch in transactions.chunks(40) {
        pipeline.apply(Delta::add(batch.to_vec())).unwrap();
    }
    pipeline.checkpoint().unwrap();
    assert!(
        pipeline.resident_shards() <= 2,
        "budget enforced, got {} resident",
        pipeline.resident_shards()
    );
    let stats = pipeline.store_stats();
    assert!(stats.spills > 0, "cold fragments must have been spilled");
    assert!(stats.segments >= 1);

    // Every frequent itemset of the full re-mine must be answerable at
    // its exact support, resident or cold.
    let reference = support_map(&ConditionalMiner::default().mine(&transactions, min_support));
    assert!(!reference.is_empty(), "dataset must induce frequent sets");
    for (items, &support) in &reference {
        assert_eq!(
            pipeline.support_of(items),
            Some(support),
            "support_of({items:?})"
        );
    }
    assert!(
        pipeline.store_stats().segment_lookups > 0,
        "with a 2-shard budget some lookups must hit mmap segments"
    );
    // Itemsets outside the frequent family answer None, not garbage.
    assert_eq!(pipeline.support_of(&[999_991]), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_single_block_segments_round_trip() {
    let dir = scratch("edge");
    std::fs::create_dir_all(&dir).unwrap();

    // A segment with no shards at all.
    let path = dir.join("empty.seg");
    write_segment(&path, 0, &[]).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    assert_eq!(reader.shard_ids().count(), 0);
    assert_eq!(reader.lookup(0, &[1]), None);

    // One shard whose entries fit a single block: the binary search
    // domain is one block and every key must resolve.
    let entries: Vec<(Vec<u32>, u64)> = (1..=BLOCK_ENTRIES as u32 / 2)
        .map(|i| (vec![i], u64::from(i) * 3))
        .collect();
    let path = dir.join("single.seg");
    write_segment(
        &path,
        99,
        &[ShardEntries {
            shard: 5,
            entries: entries.clone(),
        }],
    )
    .unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    assert_eq!(reader.num_transactions(), 99);
    for (positions, support) in &entries {
        assert_eq!(reader.lookup(5, positions), Some(*support));
    }
    assert_eq!(reader.lookup(5, &[BLOCK_ENTRIES as u32]), None);
    assert_eq!(reader.iter_shard(5).unwrap(), entries);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every single-byte change to a small two-shard segment, with its CRC
/// recomputed so the change reaches the parser: `open` either refuses
/// the file as `InvalidData` or hands back a reader whose `iter_shard`
/// and `lookup` answer without panicking.
#[test]
fn every_mutated_segment_byte_is_refused_or_read_without_panic() {
    let dir = scratch("mutate");
    std::fs::create_dir_all(&dir).unwrap();
    let keys = |n: u32, stride: u32| -> Vec<(Vec<u32>, u64)> {
        (1..=n)
            .map(|i| (vec![i, i + stride], u64::from(i % 7 + 1)))
            .collect()
    };
    let shards = [
        ShardEntries {
            shard: 0,
            entries: keys(BLOCK_ENTRIES as u32 + 4, 1),
        },
        ShardEntries {
            shard: 3,
            entries: keys(3, 5),
        },
    ];
    let path = dir.join("mutant.seg");
    write_segment(&path, 40, &shards).unwrap();
    let clean = std::fs::read(&path).unwrap();
    let (mut refused, mut read) = (0, 0);
    for at in 0..clean.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bytes = clean.clone();
            bytes[at] ^= flip;
            let crc = plt::compress::crc32(&bytes[12..]);
            bytes[8..12].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let reader = match SegmentReader::open(&path) {
                Ok(reader) => reader,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "byte {at}: {e}");
                    refused += 1;
                    continue;
                }
            };
            read += 1;
            for shard in reader.shard_ids() {
                for (positions, support) in reader.iter_shard(shard).expect("listed shard") {
                    assert_eq!(reader.lookup(shard, &positions), Some(support), "byte {at}");
                }
            }
            for shard in &shards {
                for (positions, _) in &shard.entries {
                    reader.lookup(shard.shard, positions);
                }
            }
        }
    }
    assert!(refused > 0 && read > 0, "refused {refused}, read {read}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every single-byte change to a checkpoint's segment, with its CRC
/// recomputed: reopening the data directory recovers or returns an
/// error, and never panics — the entries must also agree with the
/// manifest's ranking and shard bounds, which the segment alone cannot
/// check.
#[test]
fn every_mutated_checkpoint_segment_byte_recovers_or_is_refused() {
    let dir = scratch("mutate-recovery");
    let config = ShardConfig {
        min_support: 20,
        ..ShardConfig::default()
    };
    let mut durable = DurablePipeline::open(&dir, config, DurableOptions::default()).unwrap();
    durable.apply(Delta::add(quest(400))).unwrap();
    durable.checkpoint().unwrap();
    drop(durable);
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| std::fs::read(p).unwrap().starts_with(b"PLTS"))
        .expect("the checkpoint wrote a segment");
    let clean = std::fs::read(&segment).unwrap();
    let (mut refused, mut recovered) = (0, 0);
    for at in 12..clean.len() {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x01;
        let crc = plt::compress::crc32(&bytes[12..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&segment, &bytes).unwrap();
        match DurablePipeline::open(&dir, config, DurableOptions::default()) {
            Ok(_) => recovered += 1,
            Err(e) => {
                assert!(e.to_string().starts_with("storage:"), "byte {at}: {e}");
                refused += 1;
            }
        }
    }
    assert!(
        refused > 0 && recovered > 0,
        "refused {refused}, recovered {recovered}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random access through the block index agrees with the sequential
    /// full decode for arbitrary shard contents — including empty shards
    /// and shards below one block.
    #[test]
    fn prop_block_index_matches_sequential_decode(
        shards in proptest::collection::vec(
            (
                0u32..64,
                proptest::collection::vec(
                    (proptest::collection::vec(1u32..30, 1..6), 1u64..1000),
                    0..80,
                ),
            ),
            0..4,
        ),
        probes in proptest::collection::vec(
            proptest::collection::vec(1u32..30, 1..6),
            0..12,
        ),
    ) {
        // Distinct shard ids (a segment stores each shard section once)
        // and distinct keys per shard (duplicate keys would make the
        // expected support ambiguous after the writer's dedup).
        let mut seen = std::collections::BTreeSet::new();
        let shards: Vec<ShardEntries> = shards
            .into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .map(|(shard, pairs)| {
                let entries: std::collections::BTreeMap<Vec<u32>, u64> =
                    pairs.into_iter().collect();
                ShardEntries {
                    shard,
                    entries: entries.into_iter().collect(),
                }
            })
            .collect();
        let dir = scratch("prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prop.seg");
        write_segment(&path, 7, &shards).unwrap();
        let reader = SegmentReader::open(&path).unwrap();

        for shard in &shards {
            // Sequential decode reproduces the (sorted) entries exactly.
            let sorted: Vec<(Vec<u32>, u64)> = shard.entries.clone();
            let decoded = reader.iter_shard(shard.shard);
            if sorted.is_empty() {
                if let Some(d) = decoded {
                    prop_assert!(d.is_empty());
                }
            } else {
                prop_assert_eq!(decoded.unwrap(), sorted.clone());
            }
            // Every stored key resolves through the block index...
            for (positions, support) in &sorted {
                prop_assert_eq!(reader.lookup(shard.shard, positions), Some(*support));
            }
            // ...and arbitrary probes agree with a linear scan.
            for probe in &probes {
                let expect = sorted
                    .iter()
                    .find(|(p, _)| p == probe)
                    .map(|&(_, support)| support);
                prop_assert_eq!(reader.lookup(shard.shard, probe), expect);
            }
        }
        // Absent shards answer nothing.
        prop_assert_eq!(reader.lookup(9_999, &[1]), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
