//! Web-access-pattern mining — the paper's second motivating domain
//! ("association rules have been applied to other domains such as medical
//! data and web page access habits").
//!
//! Models browsing sessions over a site: each session is the set of pages
//! visited. The workload is Quest-style sparse data (sessions draw from a
//! pool of correlated "navigation patterns") with pages given readable
//! names. Mining finds the page bundles users visit together; the
//! compressed PLT demonstrates the storage story for a large click log.
//!
//! ```text
//! cargo run --example web_clicks
//! ```

use plt::compress::CompressedPlt;
use plt::core::construct::{construct, ConstructOptions};
use plt::core::miner::Miner;
use plt::data::{DbStats, ItemCatalog, QuestConfig, QuestGenerator, TransactionDb};
use plt::ConditionalMiner;

/// Names the page ids of the synthetic site: sections × article index.
fn page_name(id: u32) -> String {
    const SECTIONS: &[&str] = &["home", "news", "sports", "tech", "shop", "forum"];
    format!("/{}/{}", SECTIONS[(id as usize) % SECTIONS.len()], id / 6)
}

fn main() {
    // ~40k page-views across 4000 sessions over a 300-page site.
    let sessions = QuestGenerator::new(QuestConfig {
        num_transactions: 4_000,
        avg_transaction_len: 9.0,
        avg_pattern_len: 4.0,
        num_patterns: 120,
        num_items: 300,
        seed: 0xc1_1c_c5,
        ..Default::default()
    })
    .generate();
    println!("click log: {}", DbStats::of(&sessions));

    let min_support = sessions.absolute_support(0.01);
    let result = ConditionalMiner::default().mine(sessions.transactions(), min_support);
    println!(
        "\npage bundles visited together by >= 1% of sessions: {}",
        result.len()
    );

    let mut catalog = ItemCatalog::new();
    for &page in &TransactionDb::from_sorted(sessions.transactions().to_vec()).items() {
        catalog.intern(&page_name(page));
    }

    let mut bundles: Vec<_> = result.iter().filter(|(s, _)| s.len() >= 2).collect();
    bundles.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("\ntop multi-page bundles:");
    for (itemset, support) in bundles.iter().take(10) {
        let pages: Vec<String> = itemset.items().iter().map(|&p| page_name(p)).collect();
        println!(
            "  {}  sessions={} ({:.1}%)",
            pages.join(" + "),
            support,
            100.0 * *support as f64 / sessions.len() as f64
        );
    }

    // Storage story: the click log as a compressed, indexed PLT.
    let plt = construct(
        sessions.transactions(),
        min_support,
        ConstructOptions::conditional(),
    )
    .expect("well-formed sessions");
    let raw_items: usize = sessions.transactions().iter().map(Vec::len).sum();
    let report = CompressedPlt::report(&plt, raw_items);
    println!(
        "\nstorage: raw log {} KiB -> PLT table {} KiB -> compressed {} KiB \
         (ratio vs raw: {:.2})",
        report.raw_db_bytes / 1024,
        report.plt_table_bytes / 1024,
        report.compressed_data_bytes / 1024,
        report.ratio_vs_raw(),
    );
}
