//! Seeded workload inputs, written as files the measured program reads.
//!
//! `--seed` fixes every input; the generator configurations live here,
//! not in `plt_bench::datasets`, so the benchmark's inputs cannot drift
//! when an experiment is re-tuned. Generation runs in a child process
//! (see `main.rs`), so none of its heap shows in the measured process's
//! peak RSS.

use std::collections::BTreeSet;
use std::io::{BufRead, Write};
use std::path::Path;

use plt_core::item::{Item, Support};
use plt_core::Miner;
use plt_data::gen::dense::{DenseConfig, DenseGenerator};
use plt_data::gen::quest::{QuestConfig, QuestGenerator};
use plt_data::gen::zipf::{ZipfConfig, ZipfGenerator};
use plt_data::{fimi, TransactionDb};
use plt_serve::Request;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Input sizes. [`Scale::FULL`] is what the benchmark measures; the
/// tests run every workload end to end at [`Scale::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `mine-sparse`: Quest T10.I4 transactions.
    pub sparse: usize,
    /// `mine-dense`: dense-generator transactions.
    pub dense: usize,
    /// `serve-*`: zipf warmup transactions (the first window).
    pub warmup: usize,
    /// `serve-*`: requests in the seeded pool the reader cycles through.
    pub pool: usize,
    /// `serve-ingest`: transactions per ingest batch.
    pub batch: usize,
    /// `serve-ingest`: batches in the ingest stream. A run that sends
    /// more starts the stream over.
    pub batches: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        sparse: 100_000,
        dense: 20_000,
        warmup: 50_000,
        pool: 200_000,
        batch: 200,
        batches: 300,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        sparse: 3_000,
        dense: 1_000,
        warmup: 3_000,
        pool: 2_000,
        batch: 20,
        batches: 10,
    };
}

/// Relative minimum supports: 0.15% on the sparse Quest data, 12% on
/// the dense data, 0.2% on the zipf window. At 0.1% the sparse model
/// sits on a cliff — a few long patterns hover at the threshold, and
/// sampled databases find anywhere from 18k to 33k itemsets — while at
/// 0.15% every sample finds about 11.6k.
pub const SPARSE_MIN_SUP: f64 = 0.0015;
pub const DENSE_MIN_SUP: f64 = 0.12;
pub const SERVE_MIN_SUP: f64 = 0.002;

/// File names inside a workload's input directory.
pub const MINE_INPUT: &str = "input.dat";
pub const WARMUP: &str = "warmup.dat";
pub const REQUESTS: &str = "requests.jsonl";
pub const INGEST: &str = "ingest.dat";

/// splitmix64: decorrelates the per-workload generator seeds derived
/// from one `--seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn zipf_config(num_transactions: usize, seed: u64) -> ZipfConfig {
    ZipfConfig {
        num_transactions,
        num_items: 2_000,
        exponent: 1.1,
        avg_transaction_len: 8.0,
        seed,
    }
}

/// Writes every input of `workload` into `dir`.
pub fn generate(workload: &str, seed: u64, scale: Scale, dir: &Path) {
    std::fs::create_dir_all(dir).expect("create the input directory");
    match workload {
        "mine-sparse" => {
            // The Quest pattern pool fixes which itemsets are frequent, and
            // one pool's mining cost differs from another's by ±15%. So the
            // model is fixed and the seed draws the transactions: a seeded
            // sample from a stream ten times the size.
            let stream = QuestGenerator::new(QuestConfig::t10i4(10 * scale.sparse))
                .generate()
                .into_transactions();
            let mut rng = SmallRng::seed_from_u64(mix(seed, 1));
            let mut picked = vec![false; stream.len()];
            let mut left = scale.sparse;
            while left > 0 {
                let i = rng.gen_range(0..stream.len());
                if !picked[i] {
                    picked[i] = true;
                    left -= 1;
                }
            }
            let sample: Vec<Vec<Item>> = stream
                .into_iter()
                .zip(picked)
                .filter_map(|(t, keep)| keep.then_some(t))
                .collect();
            write_fimi(&dir.join(MINE_INPUT), &TransactionDb::from_sorted(sample));
        }
        "mine-dense" => {
            let db = DenseGenerator::new(DenseConfig {
                num_transactions: scale.dense,
                num_items: 32,
                density_hi: 0.9,
                density_lo: 0.25,
                seed: mix(seed, 2),
            })
            .generate();
            write_fimi(&dir.join(MINE_INPUT), &db);
        }
        "serve-read" | "serve-ingest" => {
            let warmup = ZipfGenerator::new(zipf_config(scale.warmup, mix(seed, 3))).generate();
            write_fimi(&dir.join(WARMUP), &warmup);
            let pool = request_pool(&warmup, scale.pool, mix(seed, 4));
            let mut out = std::io::BufWriter::new(
                std::fs::File::create(dir.join(REQUESTS)).expect("create the request pool"),
            );
            for r in &pool {
                writeln!(out, "{}", r.to_json()).expect("write the request pool");
            }
            out.flush().expect("write the request pool");
            if workload == "serve-ingest" {
                let stream =
                    ZipfGenerator::new(zipf_config(scale.batches * scale.batch, mix(seed, 5)))
                        .generate();
                write_fimi(&dir.join(INGEST), &stream);
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

fn write_fimi(path: &Path, db: &TransactionDb) {
    fimi::write_file(path, db).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Reads the request pool written by [`generate`].
pub fn read_pool(dir: &Path) -> Vec<Request> {
    let file = std::fs::File::open(dir.join(REQUESTS)).expect("open the request pool");
    std::io::BufReader::new(file)
        .lines()
        .map(|line| {
            let line = line.expect("read the request pool");
            let v = plt_serve::json::Json::parse(&line).expect("pool lines are JSON");
            Request::from_json(&v).expect("pool lines are requests")
        })
        .collect()
}

/// Zipf(s = 1.0) rank sampler over `n` ranks: rank `r` has weight
/// `1 / (r + 1)`.
struct ZipfRanks {
    cum: Vec<f64>,
}

impl ZipfRanks {
    fn new(n: usize) -> ZipfRanks {
        assert!(n > 0, "zipf over an empty key set");
        let mut acc = 0.0;
        let mut cum: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cum {
            *c /= acc;
        }
        ZipfRanks { cum }
    }

    fn draw(&self, rng: &mut SmallRng) -> usize {
        let x: f64 = rng.gen();
        self.cum.partition_point(|&c| c < x).min(self.cum.len() - 1)
    }
}

fn braces(items: &[Item]) -> String {
    let rendered: Vec<String> = items.iter().map(Item::to_string).collect();
    format!("{{{}}}", rendered.join(","))
}

/// The seeded read mix over one warmup window. 95% point ops — support
/// 40%, extensions 20%, recommend 15%, `SUPPORT OF` 25% — keyed zipf
/// over the itemsets with support ≥ 2×min_sup, with 10% of support keys
/// replaced by infrequent baskets (the oracle path). 5% scans, split
/// evenly over `TOP 10 WHERE size >= 2 AND contains {i}`,
/// `RULES WHERE confidence >= c TOP 10` and `MINE COND {i} TOP 10`,
/// with `i` an item of support ≥ 4×min_sup.
pub fn request_pool(warmup: &TransactionDb, size: usize, seed: u64) -> Vec<Request> {
    let min_sup = warmup.absolute_support(SERVE_MIN_SUP);
    let frequent = plt_baselines::FpGrowthMiner.mine(warmup.transactions(), min_sup);
    let mut keys: Vec<(Vec<Item>, Support)> = frequent
        .iter()
        .filter(|&(_, s)| s >= 2 * min_sup)
        .map(|(is, s)| (is.items().to_vec(), s))
        .collect();
    keys.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut items: Vec<(Item, Support)> = frequent
        .iter()
        .filter(|&(is, s)| is.len() == 1 && s >= 4 * min_sup)
        .map(|(is, s)| (is.items()[0], s))
        .collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let all_items: Vec<Item> = {
        let set: BTreeSet<Item> = warmup.transactions().iter().flatten().copied().collect();
        set.into_iter().collect()
    };

    let key_ranks = ZipfRanks::new(keys.len());
    let item_ranks = ZipfRanks::new(items.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(size);
    for _ in 0..size {
        let key = keys[key_ranks.draw(&mut rng)].0.clone();
        let item = items[item_ranks.draw(&mut rng)].0;
        let roll: f64 = rng.gen();
        let request = if roll < 0.95 * 0.40 {
            if rng.gen::<f64>() < 0.10 {
                Request::Support {
                    items: infrequent_basket(&key, &all_items, &frequent, &mut rng),
                }
            } else {
                Request::Support { items: key }
            }
        } else if roll < 0.95 * 0.60 {
            Request::Extensions { items: key, k: 10 }
        } else if roll < 0.95 * 0.75 {
            Request::Recommend { items: key, k: 10 }
        } else if roll < 0.95 {
            Request::Query {
                expr: format!("SUPPORT OF {}", braces(&key)),
            }
        } else {
            let expr = match rng.gen_range(0..3u32) {
                0 => format!("TOP 10 WHERE size >= 2 AND contains {{{item}}}"),
                1 => {
                    let c = [0.5, 0.6, 0.7, 0.8, 0.9][rng.gen_range(0..5usize)];
                    format!("RULES WHERE confidence >= {c} TOP 10")
                }
                _ => format!("MINE COND {{{item}}} TOP 10"),
            };
            Request::Query { expr }
        };
        pool.push(request);
    }
    pool
}

/// A frequent key plus one or two items chosen so the basket is not
/// frequent, which sends the lookup down the oracle path.
fn infrequent_basket(
    key: &[Item],
    all_items: &[Item],
    frequent: &plt_core::MiningResult,
    rng: &mut SmallRng,
) -> Vec<Item> {
    loop {
        let mut basket = key.to_vec();
        for _ in 0..rng.gen_range(1..3usize) {
            basket.push(all_items[rng.gen_range(0..all_items.len())]);
        }
        basket.sort_unstable();
        basket.dedup();
        if basket.len() > key.len() && !frequent.contains(&basket) {
            return basket;
        }
    }
}

/// Whether a request is a point lookup or a scan (the two latency
/// classes the benchmark reports).
pub fn is_scan(request: &Request) -> bool {
    match request {
        Request::Query { expr } => !expr.starts_with("SUPPORT OF"),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&p).unwrap())
            })
            .collect()
    }

    #[test]
    fn each_seed_always_produces_the_same_inputs() {
        let root =
            std::env::temp_dir().join(format!("plt-benchmark-inputs-{}", std::process::id()));
        for workload in crate::spec::WORKLOADS {
            let a = root.join(format!("{workload}-a"));
            let b = root.join(format!("{workload}-b"));
            let c = root.join(format!("{workload}-c"));
            generate(workload, 7, Scale::TINY, &a);
            generate(workload, 7, Scale::TINY, &b);
            generate(workload, 8, Scale::TINY, &c);
            assert_eq!(
                bytes_of(&a),
                bytes_of(&b),
                "{workload}: same seed, same inputs"
            );
            assert_ne!(
                bytes_of(&a),
                bytes_of(&c),
                "{workload}: the seed must matter"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn the_pool_follows_the_documented_mix() {
        let warmup = ZipfGenerator::new(zipf_config(20_000, 11)).generate();
        let pool = request_pool(&warmup, 20_000, 12);
        let share = |f: &dyn Fn(&Request) -> bool| {
            pool.iter().filter(|r| f(r)).count() as f64 / pool.len() as f64
        };
        let scans = share(&is_scan);
        let supports = share(&|r| matches!(r, Request::Support { .. }));
        let queries = share(&|r| matches!(r, Request::Query { .. }) && !is_scan(r));
        assert!((scans - 0.05).abs() < 0.01, "scan share {scans}");
        assert!((supports - 0.38).abs() < 0.02, "support share {supports}");
        assert!(
            (queries - 0.2375).abs() < 0.02,
            "SUPPORT OF share {queries}"
        );
        let distinct: BTreeSet<String> = pool.iter().map(|r| r.to_json().to_string()).collect();
        assert!(
            distinct.len() > 1_024,
            "the key set must outgrow the response cache"
        );
    }
}
