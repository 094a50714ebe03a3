//! Command execution for `plt-mine`.

use std::io::Write;

use plt_baselines::{
    AisMiner, AprioriMiner, DicMiner, EclatMiner, FpGrowthMiner, HMineMiner, PartitionMiner,
    SamplingMiner,
};
use plt_closed::{closed_itemsets, maximal_itemsets};
use plt_compress::CompressedPlt;
use plt_core::construct::{construct, ConstructOptions};
use plt_core::miner::{Miner, MiningResult};
use plt_core::tree::LexTree;
use plt_data::gen::basket::{BasketConfig, BasketGenerator};
use plt_data::gen::dense::{DenseConfig, DenseGenerator};
use plt_data::gen::quest::{QuestConfig, QuestGenerator};
use plt_data::{fimi, DbStats, TransactionDb};
use plt_rules::{top_rules, RuleConfig};
use plt_shard::{Delta, MineStrategy, MinerBuilder};

use crate::args::{Algo, Command, Condense, GenKind, MinSup};

/// Errors surfaced to the user: message only, no panics.
pub type CmdResult = Result<(), String>;

/// Runs one parsed command.
pub fn execute(command: Command, out: &mut dyn Write) -> CmdResult {
    match command {
        Command::Mine {
            input,
            min_sup,
            algo,
            condense,
            limit,
            metrics_json,
        } => mine(
            &input,
            min_sup,
            algo,
            condense,
            limit,
            metrics_json.as_deref(),
            out,
        ),
        Command::Rules {
            input,
            min_sup,
            min_conf,
            top,
        } => rules(&input, min_sup, min_conf, top, out),
        Command::Stats { input } => stats(&input, out),
        Command::Show { input, min_sup } => show(&input, min_sup, out),
        Command::Gen {
            kind,
            transactions,
            output,
            seed,
        } => gen(kind, transactions, &output, seed, out),
        Command::Index {
            input,
            min_sup,
            output,
        } => index(&input, min_sup, &output, out),
        Command::MineIndex {
            index,
            topdown,
            limit,
        } => mine_index(&index, topdown, limit, out),
        Command::MineIncremental {
            input,
            delta,
            min_sup,
            shards,
            limit,
            verify_full,
        } => mine_incremental(&input, &delta, min_sup, shards, limit, verify_full, out),
        Command::Query { index, itemsets } => query(&index, &itemsets, out),
        Command::Serve {
            input,
            min_sup,
            addr,
            min_conf,
            window,
            fault_seed,
            deadline_ms,
            data_dir,
            sketch_eps,
            sketch_delta,
        } => serve(
            &input,
            min_sup,
            &addr,
            min_conf,
            window,
            fault_seed,
            deadline_ms,
            data_dir.as_deref(),
            sketch_eps,
            sketch_delta,
            out,
        ),
        Command::StoreInspect { data_dir } => store_inspect(&data_dir, out),
        Command::QueryServer {
            addr,
            itemsets,
            top,
            recommend,
            expr,
            explain,
            stats,
            shutdown,
        } => query_server(
            &addr, &itemsets, top, recommend, expr, explain, stats, shutdown, out,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn serve(
    input: &str,
    min_sup: MinSup,
    addr: &str,
    min_conf: f64,
    window: Option<usize>,
    fault_seed: Option<u64>,
    deadline_ms: Option<u64>,
    data_dir: Option<&str>,
    sketch_eps: Option<f64>,
    sketch_delta: f64,
    out: &mut dyn Write,
) -> CmdResult {
    let db = load(input)?;
    let abs = min_sup.resolve(db.len());
    if abs == 0 {
        return Err("resolved minimum support is zero".into());
    }
    // One plan shared by server and builder: a chaos run's fault
    // sequence is a pure function of the seed.
    let fault =
        fault_seed.map(|seed| plt_serve::FaultPlan::shared(plt_serve::FaultConfig::chaos(seed)));
    let config = plt_serve::BuilderConfig {
        // Default window: room for the warmup plus as much again of
        // streamed traffic before old transactions age out.
        window_capacity: window.unwrap_or_else(|| (db.len() * 2).max(1)),
        min_support: abs,
        rank_policy: plt_core::RankPolicy::default(),
        shard_count: plt_shard::DEFAULT_SHARD_COUNT,
        rule_config: RuleConfig {
            min_confidence: min_conf,
        },
        fault: fault.clone(),
        data_dir: data_dir.map(std::path::PathBuf::from),
        durable: plt_store::DurableOptions::default(),
        sketch: sketch_eps.map(|epsilon| plt_serve::SketchConfig {
            epsilon,
            delta: sketch_delta,
            ..plt_serve::SketchConfig::default()
        }),
    };
    let (engine, builder) = plt_serve::bootstrap(db.transactions(), config)
        .map_err(|e| format!("cannot build snapshot: {e}"))?;
    let snapshot = engine.current();
    let mut server_config = plt_serve::ServerConfig {
        fault: fault.clone(),
        ..plt_serve::ServerConfig::default()
    };
    if let Some(ms) = deadline_ms {
        let deadline = std::time::Duration::from_millis(ms);
        server_config.read_deadline = Some(deadline);
        server_config.write_deadline = Some(deadline);
    }
    let handle = plt_serve::serve(addr, engine, Some(builder.queue()), server_config)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    writeln!(
        out,
        "serving {input} on {}: {} itemsets, {} rules (min_sup = {abs} of {}); \
         send {{\"op\":\"shutdown\"}} to stop",
        handle.addr(),
        snapshot.num_itemsets(),
        snapshot.num_rules(),
        db.len()
    )
    .map_err(|e| e.to_string())?;
    if let Some(seed) = fault_seed {
        writeln!(out, "fault injection active (seed {seed})").map_err(|e| e.to_string())?;
    }
    if let Some(eps) = sketch_eps {
        writeln!(
            out,
            "approximate tier active: sketch eps={eps} delta={sketch_delta} (query with APPROX)"
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    handle.join();
    builder.stop();
    Ok(())
}

/// Dumps a durable data directory as JSON: manifest epoch/ranking,
/// WAL record counts by type, per-segment block-index stats.
fn store_inspect(data_dir: &str, out: &mut dyn Write) -> CmdResult {
    let json = plt_store::inspect_json(std::path::Path::new(data_dir))
        .map_err(|e| format!("cannot inspect {data_dir}: {e}"))?;
    writeln!(out, "{json}").map_err(|e| e.to_string())?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn query_server(
    addr: &str,
    itemsets: &[Vec<u32>],
    top: Option<usize>,
    recommend: Option<Vec<u32>>,
    expr: Option<String>,
    explain: bool,
    stats: bool,
    shutdown: bool,
    out: &mut dyn Write,
) -> CmdResult {
    let mut client =
        plt_serve::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let io_err = |e: std::io::Error| e.to_string();
    for items in itemsets {
        let reply = client
            .support(items)
            .map_err(|e| format!("support query failed: {e}"))?;
        let rendered: Vec<String> = items.iter().map(u32::to_string).collect();
        writeln!(
            out,
            "{{{}}}  support={} frequent={} source={} (generation {})",
            rendered.join(","),
            reply.support,
            reply.frequent,
            reply.source,
            reply.generation
        )
        .map_err(io_err)?;
    }
    if let Some(k) = top {
        writeln!(out, "top {k} itemsets:").map_err(io_err)?;
        for (items, support) in client
            .top_k(k, 1)
            .map_err(|e| format!("top_k query failed: {e}"))?
        {
            let rendered: Vec<String> = items.iter().map(u32::to_string).collect();
            writeln!(out, "  {{{}}}  support={support}", rendered.join(",")).map_err(io_err)?;
        }
    }
    if let Some(basket) = recommend {
        let rendered: Vec<String> = basket.iter().map(u32::to_string).collect();
        writeln!(out, "recommendations for {{{}}}:", rendered.join(",")).map_err(io_err)?;
        for (item, confidence) in client
            .recommend(&basket, 10)
            .map_err(|e| format!("recommend query failed: {e}"))?
        {
            writeln!(out, "  {item}  confidence={confidence:.3}").map_err(io_err)?;
        }
    }
    if let Some(expr) = expr {
        let v = client
            .query(&expr)
            .map_err(|e| format!("query failed: {e}"))?;
        if explain {
            let bound = v
                .get("error_bound")
                .and_then(plt_serve::json::Json::as_u64)
                .map(|b| format!(" error_bound={b}"))
                .unwrap_or_default();
            writeln!(
                out,
                "plan={} cost={:.1} cache_hit={} approx={}{bound} generation={}",
                v.get("plan")
                    .and_then(plt_serve::json::Json::as_str)
                    .unwrap_or("?"),
                v.get("cost")
                    .and_then(plt_serve::json::Json::as_f64)
                    .unwrap_or(f64::NAN),
                v.get("cache_hit")
                    .and_then(plt_serve::json::Json::as_bool)
                    .unwrap_or(false),
                v.get("approx")
                    .and_then(plt_serve::json::Json::as_bool)
                    .unwrap_or(false),
                v.get("generation")
                    .and_then(plt_serve::json::Json::as_u64)
                    .unwrap_or(0),
            )
            .map_err(io_err)?;
        }
        let kind = v
            .get("row_kind")
            .and_then(plt_serve::json::Json::as_str)
            .unwrap_or("");
        let rows = v
            .get("rows")
            .and_then(plt_serve::json::Json::as_arr)
            .ok_or_else(|| "malformed query response: missing rows".to_string())?;
        let items_of = |row: &plt_serve::json::Json, field: &str| -> String {
            let rendered: Vec<String> = row
                .get(field)
                .and_then(plt_serve::json::Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(plt_serve::json::Json::as_u64)
                        .map(|i| i.to_string())
                        .collect()
                })
                .unwrap_or_default();
            format!("{{{}}}", rendered.join(","))
        };
        for row in rows {
            let line = match kind {
                "support" => format!(
                    "{}  support={} frequent={}",
                    items_of(row, "items"),
                    row.get("support")
                        .and_then(plt_serve::json::Json::as_u64)
                        .unwrap_or(0),
                    row.get("frequent")
                        .and_then(plt_serve::json::Json::as_bool)
                        .unwrap_or(false),
                ),
                "rules" => format!(
                    "{} => {}  confidence={:.3} lift={:.3} support={}",
                    items_of(row, "antecedent"),
                    items_of(row, "consequent"),
                    row.get("confidence")
                        .and_then(plt_serve::json::Json::as_f64)
                        .unwrap_or(f64::NAN),
                    row.get("lift")
                        .and_then(plt_serve::json::Json::as_f64)
                        .unwrap_or(f64::NAN),
                    row.get("support")
                        .and_then(plt_serve::json::Json::as_u64)
                        .unwrap_or(0),
                ),
                _ => format!(
                    "{}  support={}",
                    items_of(row, "items"),
                    row.get("support")
                        .and_then(plt_serve::json::Json::as_u64)
                        .unwrap_or(0),
                ),
            };
            writeln!(out, "{line}").map_err(io_err)?;
        }
    }
    if stats {
        let v = client
            .stats()
            .map_err(|e| format!("stats query failed: {e}"))?;
        writeln!(out, "{v}").map_err(io_err)?;
    }
    if shutdown {
        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        writeln!(out, "server stopping").map_err(io_err)?;
    }
    Ok(())
}

fn load_index(path: &str) -> Result<plt_core::Plt, String> {
    let compressed =
        plt_compress::file::load(path).map_err(|e| format!("cannot read index {path}: {e}"))?;
    Ok(compressed.to_plt())
}

fn index(input: &str, min_sup: MinSup, output: &str, out: &mut dyn Write) -> CmdResult {
    let db = load(input)?;
    let abs = min_sup.resolve(db.len());
    let plt = construct(db.transactions(), abs, ConstructOptions::conditional())
        .map_err(|e| e.to_string())?;
    let compressed = CompressedPlt::from_plt(&plt);
    plt_compress::file::save(output, &compressed)
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    writeln!(
        out,
        "wrote {output}: {} vectors, {} B payload (min_sup = {abs} of {})",
        compressed.num_vectors(),
        compressed.data_bytes(),
        db.len()
    )
    .map_err(|e| e.to_string())
}

fn mine_index(path: &str, topdown: bool, limit: Option<usize>, out: &mut dyn Write) -> CmdResult {
    let plt = load_index(path)?;
    let strategy = if topdown {
        MineStrategy::TopDown
    } else {
        MineStrategy::Conditional
    };
    let result = MinerBuilder::new()
        .strategy(strategy)
        .build()
        .mine_plt(&plt);
    let sorted = result.sorted();
    let shown = limit.unwrap_or(sorted.len()).min(sorted.len());
    writeln!(
        out,
        "{} frequent itemsets (min_sup = {} of {}, from index)",
        sorted.len(),
        plt.min_support(),
        plt.num_transactions()
    )
    .map_err(|e| e.to_string())?;
    for (itemset, support) in &sorted[..shown] {
        writeln!(out, "{itemset}  support={support}").map_err(|e| e.to_string())?;
    }
    if shown < sorted.len() {
        writeln!(out, "... ({} more)", sorted.len() - shown).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn mine_incremental(
    input: &str,
    delta_path: &str,
    min_sup: MinSup,
    shards: usize,
    limit: Option<usize>,
    verify_full: bool,
    out: &mut dyn Write,
) -> CmdResult {
    let base = load(input)?;
    let delta = load(delta_path)?;
    let abs = min_sup.resolve(base.len() + delta.len());
    if abs == 0 {
        return Err("resolved minimum support is zero".into());
    }
    let builder = MinerBuilder::new().min_support(abs).shard_count(shards);

    let started = std::time::Instant::now();
    let mut pipeline = builder
        .build_pipeline(base.transactions(), None)
        .map_err(|e| format!("cannot build pipeline over {input}: {e}"))?;
    let base_build = started.elapsed();
    let report = pipeline
        .apply(Delta::add(delta.transactions().to_vec()))
        .map_err(|e| format!("cannot apply {delta_path}: {e}"))?;

    writeln!(
        out,
        "base: {} transactions mined in {:.1?} across {} shards (min_sup = {abs})",
        base.len(),
        base_build,
        pipeline.shard_count(),
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "delta: {} transactions applied in {:.1?}: {}/{} shards re-mined{}",
        delta.len(),
        report.total(),
        report.dirty_shards,
        report.total_shards,
        if report.reranked {
            " (vocabulary drift: re-ranked, full re-mine)"
        } else {
            ""
        },
    )
    .map_err(|e| e.to_string())?;
    for &(s, d) in &report.shard_timings {
        writeln!(out, "  shard {s}: re-mined in {d:.1?}").map_err(|e| e.to_string())?;
    }

    if verify_full {
        let mut all = base.transactions().to_vec();
        all.extend(delta.transactions().iter().cloned());
        let full = builder.build_miner().mine(&all, abs);
        let incremental: std::collections::BTreeMap<Vec<u32>, u64> = pipeline
            .result()
            .iter()
            .map(|(is, s)| (is.items().to_vec(), s))
            .collect();
        let reference: std::collections::BTreeMap<Vec<u32>, u64> = full
            .iter()
            .map(|(is, s)| (is.items().to_vec(), s))
            .collect();
        if incremental != reference {
            return Err(format!(
                "verify-full FAILED: incremental found {} itemsets, full re-mine {}",
                incremental.len(),
                reference.len()
            ));
        }
        writeln!(
            out,
            "verify-full: incremental result matches full re-mine ({} itemsets)",
            reference.len()
        )
        .map_err(|e| e.to_string())?;
    }

    let sorted = pipeline.result().sorted();
    let shown = limit.unwrap_or(sorted.len()).min(sorted.len());
    writeln!(out, "{} frequent itemsets", sorted.len()).map_err(|e| e.to_string())?;
    for (itemset, support) in &sorted[..shown] {
        writeln!(out, "{itemset}  support={support}").map_err(|e| e.to_string())?;
    }
    if shown < sorted.len() {
        writeln!(out, "... ({} more)", sorted.len() - shown).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn query(path: &str, itemsets: &[Vec<u32>], out: &mut dyn Write) -> CmdResult {
    let plt = load_index(path)?;
    let oracle = plt_core::SupportOracle::new(&plt);
    for items in itemsets {
        let support = oracle.support(items, &plt);
        let rendered: Vec<String> = items.iter().map(u32::to_string).collect();
        writeln!(
            out,
            "{{{}}}  support={support} ({:.2}%)",
            rendered.join(","),
            100.0 * support as f64 / plt.num_transactions().max(1) as f64
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn load(input: &str) -> Result<TransactionDb, String> {
    fimi::read_file(input).map_err(|e| format!("cannot read {input}: {e}"))
}

fn plt_miner(strategy: MineStrategy) -> Box<dyn Miner> {
    MinerBuilder::new().strategy(strategy).build_miner()
}

fn miner_for(algo: Algo) -> Box<dyn Miner> {
    match algo {
        Algo::Conditional => plt_miner(MineStrategy::Conditional),
        Algo::TopDown => plt_miner(MineStrategy::TopDown),
        Algo::Parallel => plt_miner(MineStrategy::Parallel),
        Algo::Apriori => Box::new(AprioriMiner::default()),
        Algo::FpGrowth => Box::new(FpGrowthMiner),
        Algo::Eclat => Box::new(EclatMiner::default()),
        Algo::DEclat => Box::new(EclatMiner::with_diffsets()),
        Algo::HMine => Box::new(HMineMiner),
        Algo::Ais => Box::new(AisMiner),
        Algo::Partition => Box::new(PartitionMiner::default()),
        Algo::Dic => Box::new(DicMiner::default()),
        Algo::Sampling => Box::new(SamplingMiner::default()),
    }
}

fn run_miner(
    db: &TransactionDb,
    min_sup: MinSup,
    algo: Algo,
    obs: &mut plt_obs::Obs,
) -> Result<MiningResult, String> {
    let abs = min_sup.resolve(db.len());
    if abs == 0 {
        return Err("resolved minimum support is zero".into());
    }
    Ok(miner_for(algo).mine_with_obs(db.transactions(), abs, obs))
}

/// Renders the recorder plus run context as schema-v1 JSON and writes it
/// to `path`, creating parent directories as needed.
fn write_metrics_json(
    path: &str,
    recorder: &plt_obs::MetricsRecorder,
    context: &[(&str, String)],
) -> CmdResult {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create directory {}: {e}", parent.display()))?;
        }
    }
    let json = recorder.to_json_with(context);
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

fn mine(
    input: &str,
    min_sup: MinSup,
    algo: Algo,
    condense: Condense,
    limit: Option<usize>,
    metrics_json: Option<&str>,
    out: &mut dyn Write,
) -> CmdResult {
    let db = load(input)?;
    let mut recorder = plt_obs::MetricsRecorder::new();
    let started = std::time::Instant::now();
    // `--closed` under the default algorithm uses the native closed miner
    // (never materialises the full frequent family); other combinations
    // mine completely and filter.
    let (family, label) = {
        // Always record: one BTreeMap insert per phase is noise next to
        // the mining run itself, and it keeps the borrow simple. The
        // recorder is only rendered when `--metrics-json` was given.
        let mut obs = plt_obs::Obs::new(&mut recorder);
        if condense == Condense::Closed && algo == Algo::Conditional {
            let abs = min_sup.resolve(db.len());
            let family = obs.time("mine/closed", || {
                plt_closed::ClosedMiner::default().mine(db.transactions(), abs)
            });
            (family, "closed frequent")
        } else {
            let result = run_miner(&db, min_sup, algo, &mut obs)?;
            match condense {
                Condense::All => (result, "frequent"),
                Condense::Closed => (closed_itemsets(&result), "closed frequent"),
                Condense::Maximal => (maximal_itemsets(&result), "maximal frequent"),
            }
        }
    };
    if let Some(path) = metrics_json {
        let context = [
            ("input", format!("{:?}", input)),
            ("algo", format!("{:?}", algo.name())),
            // Schema v1 keeps the field; the arena is the only engine.
            ("engine", format!("{:?}", "arena")),
            // Schema v1 keeps the field; the kernels have one implementation.
            ("kernel", format!("{:?}", "scalar")),
            ("min_support", family.min_support().to_string()),
            ("num_transactions", db.len().to_string()),
            ("itemsets", family.len().to_string()),
            ("wall_ns", started.elapsed().as_nanos().to_string()),
        ];
        write_metrics_json(path, &recorder, &context)?;
    }
    let sorted = family.sorted();
    let shown = limit.unwrap_or(sorted.len()).min(sorted.len());
    writeln!(
        out,
        "{} {label} itemsets (min_sup = {} of {})",
        sorted.len(),
        family.min_support(),
        db.len()
    )
    .map_err(|e| e.to_string())?;
    for (itemset, support) in &sorted[..shown] {
        writeln!(out, "{itemset}  support={support}").map_err(|e| e.to_string())?;
    }
    if shown < sorted.len() {
        writeln!(out, "... ({} more)", sorted.len() - shown).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn rules(
    input: &str,
    min_sup: MinSup,
    min_conf: f64,
    top: Option<usize>,
    out: &mut dyn Write,
) -> CmdResult {
    let db = load(input)?;
    let result = run_miner(&db, min_sup, Algo::Conditional, &mut plt_obs::Obs::none())?;
    let rules = top_rules(
        &result,
        RuleConfig {
            min_confidence: min_conf,
        },
        top.unwrap_or(usize::MAX),
    );
    writeln!(
        out,
        "{} rules at confidence >= {min_conf} (from {} frequent itemsets)",
        rules.len(),
        result.len()
    )
    .map_err(|e| e.to_string())?;
    for rule in &rules {
        writeln!(out, "{rule}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn stats(input: &str, out: &mut dyn Write) -> CmdResult {
    let db = load(input)?;
    writeln!(out, "{}", DbStats::of(&db)).map_err(|e| e.to_string())
}

fn show(input: &str, min_sup: MinSup, out: &mut dyn Write) -> CmdResult {
    let db = load(input)?;
    let abs = min_sup.resolve(db.len());
    let plt = construct(db.transactions(), abs, ConstructOptions::conditional())
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "PLT over {} transactions, {} ranked items, {} distinct vectors",
        plt.num_transactions(),
        plt.ranking().len(),
        plt.num_vectors()
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "\nmatrices view:\n{}", plt.render_matrices()).map_err(|e| e.to_string())?;
    writeln!(out, "tree view:\n{}", LexTree::from_plt(&plt).render()).map_err(|e| e.to_string())?;
    let raw_items: usize = db.transactions().iter().map(Vec::len).sum();
    let report = CompressedPlt::report(&plt, raw_items);
    writeln!(
        out,
        "compressed: {} B payload + {} B index (raw DB {} B, ratio {:.3})",
        report.compressed_data_bytes,
        report.compressed_index_bytes,
        report.raw_db_bytes,
        report.ratio_vs_raw()
    )
    .map_err(|e| e.to_string())
}

fn gen(
    kind: GenKind,
    transactions: usize,
    output: &str,
    seed: u64,
    out: &mut dyn Write,
) -> CmdResult {
    let db = match kind {
        GenKind::Quest => QuestGenerator::new(QuestConfig {
            num_transactions: transactions,
            seed,
            ..QuestConfig::t10i4(transactions)
        })
        .generate(),
        GenKind::Dense => DenseGenerator::new(DenseConfig {
            num_transactions: transactions,
            seed,
            ..Default::default()
        })
        .generate(),
        GenKind::Basket => BasketGenerator::new(BasketConfig {
            num_baskets: transactions,
            seed,
            ..Default::default()
        })
        .generate(),
    };
    fimi::write_file(output, &db).map_err(|e| format!("cannot write {output}: {e}"))?;
    writeln!(out, "wrote {} ({})", output, DbStats::of(&db)).map_err(|e| e.to_string())
}
