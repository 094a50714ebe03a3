//! Hand-rolled argument parsing for `plt-mine`.
//!
//! Deliberately dependency-free: the grammar is small (five subcommands,
//! a dozen flags) and the parser returns structured [`Command`] values so
//! every path is unit-testable.

use std::fmt;

/// Which mining algorithm `mine` should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// PLT conditional (Algorithm 3) — the default.
    #[default]
    Conditional,
    /// PLT top-down (Algorithm 2).
    TopDown,
    /// Parallel PLT (per-item partitions on a thread pool).
    Parallel,
    /// Apriori with hash-tree counting.
    Apriori,
    /// FP-growth.
    FpGrowth,
    /// Eclat (tidsets).
    Eclat,
    /// dEclat (diffsets).
    DEclat,
    /// H-Mine.
    HMine,
    /// AIS.
    Ais,
    /// Partition.
    Partition,
    /// Dynamic Itemset Counting.
    Dic,
    /// Toivonen sampling (exact via negative-border verification).
    Sampling,
}

impl Algo {
    /// Canonical name, as accepted by `--algo` and emitted in metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Conditional => "conditional",
            Algo::TopDown => "topdown",
            Algo::Parallel => "parallel",
            Algo::Apriori => "apriori",
            Algo::FpGrowth => "fp-growth",
            Algo::Eclat => "eclat",
            Algo::DEclat => "declat",
            Algo::HMine => "h-mine",
            Algo::Ais => "ais",
            Algo::Partition => "partition",
            Algo::Dic => "dic",
            Algo::Sampling => "sampling",
        }
    }

    fn from_str(s: &str) -> Option<Algo> {
        Some(match s {
            "conditional" | "plt" => Algo::Conditional,
            "topdown" | "top-down" => Algo::TopDown,
            "parallel" => Algo::Parallel,
            "apriori" => Algo::Apriori,
            "fp-growth" | "fpgrowth" => Algo::FpGrowth,
            "eclat" => Algo::Eclat,
            "declat" | "deciat" => Algo::DEclat,
            "h-mine" | "hmine" => Algo::HMine,
            "ais" => Algo::Ais,
            "partition" => Algo::Partition,
            "dic" => Algo::Dic,
            "sampling" | "toivonen" => Algo::Sampling,
            _ => return None,
        })
    }
}

/// Condensation applied to `mine` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Condense {
    /// All frequent itemsets.
    #[default]
    All,
    /// Closed itemsets only.
    Closed,
    /// Maximal itemsets only.
    Maximal,
}

/// Synthetic dataset families for `gen`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// Sparse Quest (`T10.I4`).
    Quest,
    /// Dense chess-like.
    Dense,
    /// Named market baskets.
    Basket,
}

/// Minimum support as given on the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSup {
    /// Fraction of the database, `(0, 1)`.
    Relative(f64),
    /// Absolute transaction count, `>= 1`.
    Absolute(u64),
}

impl MinSup {
    /// Resolves against a database size.
    pub fn resolve(self, num_transactions: usize) -> u64 {
        match self {
            MinSup::Relative(f) => ((f * num_transactions as f64).ceil() as u64).max(1),
            MinSup::Absolute(n) => n,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mine`: print frequent itemsets.
    Mine {
        /// FIMI input path.
        input: String,
        /// Support threshold.
        min_sup: MinSup,
        /// Algorithm choice.
        algo: Algo,
        /// Condensation filter.
        condense: Condense,
        /// Print at most this many itemsets.
        limit: Option<usize>,
        /// Write per-phase timings and engine counters as JSON here.
        metrics_json: Option<String>,
    },
    /// `rules`: print association rules.
    Rules {
        /// FIMI input path.
        input: String,
        /// Support threshold.
        min_sup: MinSup,
        /// Confidence threshold in `[0, 1]`.
        min_conf: f64,
        /// Keep only the strongest `top` rules.
        top: Option<usize>,
    },
    /// `stats`: print dataset statistics.
    Stats {
        /// FIMI input path.
        input: String,
    },
    /// `show`: render the PLT (matrices, tree, compression report).
    Show {
        /// FIMI input path.
        input: String,
        /// Support threshold.
        min_sup: MinSup,
    },
    /// `index`: build a compressed `.pltc` index file from FIMI input.
    Index {
        /// FIMI input path.
        input: String,
        /// Support threshold baked into the index.
        min_sup: MinSup,
        /// Output `.pltc` path.
        output: String,
    },
    /// `mine-index`: mine a previously built `.pltc` index (PLT miners
    /// only — the index *is* the PLT).
    MineIndex {
        /// `.pltc` input path.
        index: String,
        /// `true` = top-down, `false` = conditional.
        topdown: bool,
        /// Print at most this many itemsets.
        limit: Option<usize>,
    },
    /// `mine-incremental`: mine a base dataset, then apply a delta file
    /// through the sharded incremental pipeline, reporting which shards
    /// were re-mined.
    MineIncremental {
        /// FIMI base dataset path.
        input: String,
        /// FIMI delta path (transactions to add on top of the base).
        delta: String,
        /// Support threshold (resolved against base + delta size).
        min_sup: MinSup,
        /// Number of rank-range shards.
        shards: usize,
        /// Print at most this many itemsets.
        limit: Option<usize>,
        /// Re-mine base + delta from scratch and fail on any mismatch.
        verify_full: bool,
    },
    /// `query`: support of specific itemsets against a `.pltc` index.
    Query {
        /// `.pltc` input path.
        index: String,
        /// Itemsets to look up, each a space-separated item list.
        itemsets: Vec<Vec<u32>>,
    },
    /// `serve`: mine a dataset and expose it as a TCP query service.
    Serve {
        /// FIMI input path (the warmup window).
        input: String,
        /// Support threshold.
        min_sup: MinSup,
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Confidence threshold for recommendation rules.
        min_conf: f64,
        /// Sliding-window capacity; `None` = twice the warmup size.
        window: Option<usize>,
        /// Seed for deterministic fault injection (chaos runs); `None`
        /// disables injection.
        fault_seed: Option<u64>,
        /// Per-connection read/write deadline in milliseconds; `None`
        /// keeps the server defaults.
        deadline_ms: Option<u64>,
        /// Durable-store data directory (WAL + segments + manifest).
        /// `None` serves fully in memory. An existing directory is
        /// recovered and the `--input` warmup is only applied on a fresh
        /// one.
        data_dir: Option<String>,
        /// Indicator-sketch error rate ε; attaches an approximate
        /// `SUPPORT OF` tier to every snapshot. `None` disables it.
        sketch_eps: Option<f64>,
        /// Sketch failure probability δ (used with `--sketch-eps`).
        sketch_delta: f64,
    },
    /// `store inspect`: dump a durable data directory as JSON (manifest,
    /// WAL record counts, per-segment block-index stats).
    StoreInspect {
        /// Data directory written by `serve --data-dir`.
        data_dir: String,
    },
    /// `query --addr`: one-shot client against a running `serve`.
    QueryServer {
        /// Server address (`host:port`).
        addr: String,
        /// Itemsets for `support` lookups.
        itemsets: Vec<Vec<u32>>,
        /// `top_k` request.
        top: Option<usize>,
        /// Basket for a `recommend` request.
        recommend: Option<Vec<u32>>,
        /// Query-language expression for the `query` endpoint.
        expr: Option<String>,
        /// Print plan provenance (plan, cost, cache_hit) with `--expr`.
        explain: bool,
        /// Fetch server metrics.
        stats: bool,
        /// Ask the server to stop.
        shutdown: bool,
    },
    /// `gen`: write a synthetic dataset.
    Gen {
        /// Dataset family.
        kind: GenKind,
        /// Number of transactions.
        transactions: usize,
        /// Output FIMI path.
        output: String,
        /// RNG seed.
        seed: u64,
    },
}

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n{}", self.0, USAGE)
    }
}

impl std::error::Error for ParseError {}

/// The usage banner appended to every parse error.
pub const USAGE: &str = "\
usage:
  plt-mine mine  --input <file.dat> --min-sup <frac|count>
                 [--algo conditional|topdown|parallel|apriori|fp-growth|
                  eclat|declat|h-mine|ais|partition|dic]
                 [--closed | --maximal] [--limit N]
                 [--metrics-json <out.json>]
  plt-mine rules --input <file.dat> --min-sup <frac|count> --min-conf <frac>
                 [--top N]
  plt-mine stats --input <file.dat>
  plt-mine show  --input <file.dat> --min-sup <frac|count>
  plt-mine gen   --kind quest|dense|basket --transactions N
                 --output <file.dat> [--seed S]
  plt-mine index --input <file.dat> --min-sup <frac|count>
                 --output <file.pltc>
  plt-mine mine-index --index <file.pltc> [--topdown] [--limit N]
  plt-mine mine-incremental --input <base.dat> --delta <delta.dat>
                 --min-sup <frac|count> [--shards N] [--limit N]
                 [--verify-full]
  plt-mine query --index <file.pltc> --itemset \"1 2 3\" [--itemset ...]
  plt-mine serve --input <file.dat> --min-sup <frac|count>
                 [--addr 127.0.0.1:7878] [--min-conf <frac>] [--window N]
                 [--fault-seed S] [--deadline-ms MS] [--data-dir <dir>]
                 [--sketch-eps E [--sketch-delta D]]
  plt-mine store inspect --data-dir <dir>
  plt-mine query --addr <host:port> [--itemset \"1 2 3\" ...] [--top N]
                 [--recommend \"1 2\"] [--expr <query>] [--explain]
                 [--stats] [--shutdown]";

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// A tiny flag cursor over `argv`.
struct Cursor<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next_flag(&mut self) -> Option<&'a str> {
        let f = self.args.get(self.pos)?;
        self.pos += 1;
        Some(f)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, ParseError> {
        match self.args.get(self.pos) {
            Some(v) => {
                self.pos += 1;
                Ok(v)
            }
            None => err(format!("flag {flag} requires a value")),
        }
    }
}

fn parse_itemset(raw: &str) -> Result<Vec<u32>, ParseError> {
    let mut items = Vec::new();
    for tok in raw.split_whitespace() {
        items.push(
            tok.parse::<u32>()
                .map_err(|e| ParseError(format!("bad item {tok:?} in itemset: {e}")))?,
        );
    }
    if items.is_empty() {
        return Err(ParseError("itemset must name at least one item".into()));
    }
    Ok(items)
}

fn parse_min_sup(s: &str) -> Result<MinSup, ParseError> {
    if let Ok(v) = s.parse::<f64>() {
        if v > 0.0 && v < 1.0 {
            return Ok(MinSup::Relative(v));
        }
        if v >= 1.0 && v.fract() == 0.0 {
            return Ok(MinSup::Absolute(v as u64));
        }
    }
    err(format!(
        "--min-sup must be a fraction in (0,1) or an integer count >= 1, got {s:?}"
    ))
}

/// Parses a full command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = argv.first() else {
        return err("missing subcommand");
    };
    let mut cur = Cursor { args: argv, pos: 1 };
    match sub.as_str() {
        "mine" => {
            let (mut input, mut min_sup, mut algo) = (None, None, Algo::default());
            let mut condense = Condense::default();
            let mut limit = None;
            let mut metrics_json = None;
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--input" => input = Some(cur.value(flag)?.to_string()),
                    "--min-sup" => min_sup = Some(parse_min_sup(cur.value(flag)?)?),
                    "--algo" => {
                        let v = cur.value(flag)?;
                        algo = Algo::from_str(v)
                            .ok_or_else(|| ParseError(format!("unknown algorithm {v:?}")))?;
                    }
                    "--closed" => condense = Condense::Closed,
                    "--maximal" => condense = Condense::Maximal,
                    "--limit" => {
                        limit =
                            Some(cur.value(flag)?.parse().map_err(|e| {
                                ParseError(format!("--limit must be an integer: {e}"))
                            })?)
                    }
                    "--metrics-json" => metrics_json = Some(cur.value(flag)?.to_string()),
                    other => return err(format!("unknown flag {other:?} for mine")),
                }
            }
            Ok(Command::Mine {
                input: input.ok_or(ParseError("mine requires --input".into()))?,
                min_sup: min_sup.ok_or(ParseError("mine requires --min-sup".into()))?,
                algo,
                condense,
                limit,
                metrics_json,
            })
        }
        "rules" => {
            let (mut input, mut min_sup, mut min_conf, mut top) = (None, None, None, None);
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--input" => input = Some(cur.value(flag)?.to_string()),
                    "--min-sup" => min_sup = Some(parse_min_sup(cur.value(flag)?)?),
                    "--min-conf" => {
                        let v: f64 = cur
                            .value(flag)?
                            .parse()
                            .map_err(|e| ParseError(format!("--min-conf must be a number: {e}")))?;
                        if !(0.0..=1.0).contains(&v) {
                            return err("--min-conf must be in [0,1]");
                        }
                        min_conf = Some(v);
                    }
                    "--top" => {
                        top =
                            Some(cur.value(flag)?.parse().map_err(|e| {
                                ParseError(format!("--top must be an integer: {e}"))
                            })?)
                    }
                    other => return err(format!("unknown flag {other:?} for rules")),
                }
            }
            Ok(Command::Rules {
                input: input.ok_or(ParseError("rules requires --input".into()))?,
                min_sup: min_sup.ok_or(ParseError("rules requires --min-sup".into()))?,
                min_conf: min_conf.ok_or(ParseError("rules requires --min-conf".into()))?,
                top,
            })
        }
        "stats" => {
            let mut input = None;
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--input" => input = Some(cur.value(flag)?.to_string()),
                    other => return err(format!("unknown flag {other:?} for stats")),
                }
            }
            Ok(Command::Stats {
                input: input.ok_or(ParseError("stats requires --input".into()))?,
            })
        }
        "show" => {
            let (mut input, mut min_sup) = (None, None);
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--input" => input = Some(cur.value(flag)?.to_string()),
                    "--min-sup" => min_sup = Some(parse_min_sup(cur.value(flag)?)?),
                    other => return err(format!("unknown flag {other:?} for show")),
                }
            }
            Ok(Command::Show {
                input: input.ok_or(ParseError("show requires --input".into()))?,
                min_sup: min_sup.ok_or(ParseError("show requires --min-sup".into()))?,
            })
        }
        "index" => {
            let (mut input, mut min_sup, mut output) = (None, None, None);
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--input" => input = Some(cur.value(flag)?.to_string()),
                    "--min-sup" => min_sup = Some(parse_min_sup(cur.value(flag)?)?),
                    "--output" => output = Some(cur.value(flag)?.to_string()),
                    other => return err(format!("unknown flag {other:?} for index")),
                }
            }
            Ok(Command::Index {
                input: input.ok_or(ParseError("index requires --input".into()))?,
                min_sup: min_sup.ok_or(ParseError("index requires --min-sup".into()))?,
                output: output.ok_or(ParseError("index requires --output".into()))?,
            })
        }
        "mine-index" => {
            let mut index = None;
            let mut topdown = false;
            let mut limit = None;
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--index" => index = Some(cur.value(flag)?.to_string()),
                    "--topdown" => topdown = true,
                    "--limit" => {
                        limit =
                            Some(cur.value(flag)?.parse().map_err(|e| {
                                ParseError(format!("--limit must be an integer: {e}"))
                            })?)
                    }
                    other => return err(format!("unknown flag {other:?} for mine-index")),
                }
            }
            Ok(Command::MineIndex {
                index: index.ok_or(ParseError("mine-index requires --index".into()))?,
                topdown,
                limit,
            })
        }
        "mine-incremental" => {
            let (mut input, mut delta, mut min_sup) = (None, None, None);
            let mut shards = plt_shard::DEFAULT_SHARD_COUNT;
            let mut limit = None;
            let mut verify_full = false;
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--input" => input = Some(cur.value(flag)?.to_string()),
                    "--delta" => delta = Some(cur.value(flag)?.to_string()),
                    "--min-sup" => min_sup = Some(parse_min_sup(cur.value(flag)?)?),
                    "--shards" => {
                        let v: usize = cur
                            .value(flag)?
                            .parse()
                            .map_err(|e| ParseError(format!("--shards must be an integer: {e}")))?;
                        if v == 0 {
                            return err("--shards must be at least 1");
                        }
                        shards = v;
                    }
                    "--limit" => {
                        limit =
                            Some(cur.value(flag)?.parse().map_err(|e| {
                                ParseError(format!("--limit must be an integer: {e}"))
                            })?)
                    }
                    "--verify-full" => verify_full = true,
                    other => return err(format!("unknown flag {other:?} for mine-incremental")),
                }
            }
            Ok(Command::MineIncremental {
                input: input.ok_or(ParseError("mine-incremental requires --input".into()))?,
                delta: delta.ok_or(ParseError("mine-incremental requires --delta".into()))?,
                min_sup: min_sup.ok_or(ParseError("mine-incremental requires --min-sup".into()))?,
                shards,
                limit,
                verify_full,
            })
        }
        "query" => {
            let (mut index, mut addr) = (None, None);
            let mut itemsets: Vec<Vec<u32>> = Vec::new();
            let (mut top, mut recommend, mut expr) = (None, None, None);
            let (mut explain, mut stats, mut shutdown) = (false, false, false);
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--index" => index = Some(cur.value(flag)?.to_string()),
                    "--addr" => addr = Some(cur.value(flag)?.to_string()),
                    "--itemset" => itemsets.push(parse_itemset(cur.value(flag)?)?),
                    "--top" => {
                        top =
                            Some(cur.value(flag)?.parse().map_err(|e| {
                                ParseError(format!("--top must be an integer: {e}"))
                            })?)
                    }
                    "--recommend" => recommend = Some(parse_itemset(cur.value(flag)?)?),
                    "--expr" => expr = Some(cur.value(flag)?.to_string()),
                    "--explain" => explain = true,
                    "--stats" => stats = true,
                    "--shutdown" => shutdown = true,
                    other => return err(format!("unknown flag {other:?} for query")),
                }
            }
            if explain && expr.is_none() {
                return err("--explain requires --expr");
            }
            match (index, addr) {
                (Some(_), Some(_)) => err("query takes --index or --addr, not both"),
                (Some(index), None) => {
                    if top.is_some() || recommend.is_some() || expr.is_some() || stats || shutdown {
                        return err(
                            "--top/--recommend/--expr/--stats/--shutdown require --addr (server mode)",
                        );
                    }
                    if itemsets.is_empty() {
                        return err("query requires at least one --itemset");
                    }
                    Ok(Command::Query { index, itemsets })
                }
                (None, Some(addr)) => {
                    if itemsets.is_empty()
                        && top.is_none()
                        && recommend.is_none()
                        && expr.is_none()
                        && !stats
                        && !shutdown
                    {
                        return err(
                            "server query needs at least one of --itemset/--top/--recommend/--expr/--stats/--shutdown",
                        );
                    }
                    Ok(Command::QueryServer {
                        addr,
                        itemsets,
                        top,
                        recommend,
                        expr,
                        explain,
                        stats,
                        shutdown,
                    })
                }
                (None, None) => err("query requires --index or --addr"),
            }
        }
        "serve" => {
            let (mut input, mut min_sup, mut window) = (None, None, None);
            let mut addr = "127.0.0.1:7878".to_string();
            let mut min_conf = 0.5;
            let (mut fault_seed, mut deadline_ms) = (None, None);
            let mut data_dir = None;
            let (mut sketch_eps, mut sketch_delta) = (None, 0.01);
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--input" => input = Some(cur.value(flag)?.to_string()),
                    "--min-sup" => min_sup = Some(parse_min_sup(cur.value(flag)?)?),
                    "--addr" => addr = cur.value(flag)?.to_string(),
                    "--min-conf" => {
                        let v: f64 = cur
                            .value(flag)?
                            .parse()
                            .map_err(|e| ParseError(format!("--min-conf must be a number: {e}")))?;
                        if !(0.0..=1.0).contains(&v) {
                            return err("--min-conf must be in [0,1]");
                        }
                        min_conf = v;
                    }
                    "--window" => {
                        window =
                            Some(cur.value(flag)?.parse().map_err(|e| {
                                ParseError(format!("--window must be an integer: {e}"))
                            })?)
                    }
                    "--fault-seed" => {
                        fault_seed = Some(cur.value(flag)?.parse().map_err(|e| {
                            ParseError(format!("--fault-seed must be an integer: {e}"))
                        })?)
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(cur.value(flag)?.parse().map_err(|e| {
                            ParseError(format!("--deadline-ms must be an integer: {e}"))
                        })?)
                    }
                    "--data-dir" => data_dir = Some(cur.value(flag)?.to_string()),
                    "--sketch-eps" => {
                        let v: f64 = cur.value(flag)?.parse().map_err(|e| {
                            ParseError(format!("--sketch-eps must be a number: {e}"))
                        })?;
                        if !(v > 0.0 && v < 1.0) {
                            return err("--sketch-eps must be in (0,1)");
                        }
                        sketch_eps = Some(v);
                    }
                    "--sketch-delta" => {
                        let v: f64 = cur.value(flag)?.parse().map_err(|e| {
                            ParseError(format!("--sketch-delta must be a number: {e}"))
                        })?;
                        if !(v > 0.0 && v < 1.0) {
                            return err("--sketch-delta must be in (0,1)");
                        }
                        sketch_delta = v;
                    }
                    other => return err(format!("unknown flag {other:?} for serve")),
                }
            }
            if sketch_eps.is_none() && sketch_delta != 0.01 {
                return err("--sketch-delta requires --sketch-eps");
            }
            Ok(Command::Serve {
                input: input.ok_or(ParseError("serve requires --input".into()))?,
                min_sup: min_sup.ok_or(ParseError("serve requires --min-sup".into()))?,
                addr,
                min_conf,
                window,
                fault_seed,
                deadline_ms,
                data_dir,
                sketch_eps,
                sketch_delta,
            })
        }
        "store" => {
            let action = cur.next_flag();
            if action != Some("inspect") {
                return err("store supports one action: store inspect --data-dir <dir>");
            }
            let mut data_dir = None;
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--data-dir" => data_dir = Some(cur.value(flag)?.to_string()),
                    other => return err(format!("unknown flag {other:?} for store inspect")),
                }
            }
            Ok(Command::StoreInspect {
                data_dir: data_dir.ok_or(ParseError("store inspect requires --data-dir".into()))?,
            })
        }
        "gen" => {
            let (mut kind, mut transactions, mut output) = (None, None, None);
            let mut seed = 42u64;
            while let Some(flag) = cur.next_flag() {
                match flag {
                    "--kind" => {
                        kind = Some(match cur.value(flag)? {
                            "quest" => GenKind::Quest,
                            "dense" => GenKind::Dense,
                            "basket" => GenKind::Basket,
                            other => return err(format!("unknown dataset kind {other:?}")),
                        })
                    }
                    "--transactions" => {
                        transactions = Some(cur.value(flag)?.parse().map_err(|e| {
                            ParseError(format!("--transactions must be an integer: {e}"))
                        })?)
                    }
                    "--output" => output = Some(cur.value(flag)?.to_string()),
                    "--seed" => {
                        seed = cur
                            .value(flag)?
                            .parse()
                            .map_err(|e| ParseError(format!("--seed must be an integer: {e}")))?
                    }
                    other => return err(format!("unknown flag {other:?} for gen")),
                }
            }
            Ok(Command::Gen {
                kind: kind.ok_or(ParseError("gen requires --kind".into()))?,
                transactions: transactions
                    .ok_or(ParseError("gen requires --transactions".into()))?,
                output: output.ok_or(ParseError("gen requires --output".into()))?,
                seed,
            })
        }
        other => err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_mine_with_defaults() {
        let c = parse(&argv(&["mine", "--input", "x.dat", "--min-sup", "0.01"])).unwrap();
        assert_eq!(
            c,
            Command::Mine {
                input: "x.dat".into(),
                min_sup: MinSup::Relative(0.01),
                algo: Algo::Conditional,
                condense: Condense::All,
                limit: None,
                metrics_json: None,
            }
        );
    }

    #[test]
    fn parses_metrics_json_flag() {
        let c = parse(&argv(&[
            "mine",
            "--input",
            "x.dat",
            "--min-sup",
            "2",
            "--metrics-json",
            "out/metrics.json",
        ]))
        .unwrap();
        match c {
            Command::Mine { metrics_json, .. } => {
                assert_eq!(metrics_json.as_deref(), Some("out/metrics.json"));
            }
            _ => panic!(),
        }
        // The flag requires a value.
        assert!(parse(&argv(&[
            "mine",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--metrics-json",
        ]))
        .is_err());
    }

    #[test]
    fn removed_engine_kernel_and_rebuild_flags_are_unknown() {
        let e = parse(&argv(&[
            "mine",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--engine",
            "map",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown flag \"--engine\""), "{}", e.0);
        let e = parse(&argv(&[
            "mine",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--kernel",
            "scalar",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown flag \"--kernel\""), "{}", e.0);
        let e = parse(&argv(&[
            "serve",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--rebuild-mode",
            "sampled",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown flag \"--rebuild-mode\""), "{}", e.0);
        let e = parse(&argv(&[
            "serve",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--server-model",
            "reactor",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown flag \"--server-model\""), "{}", e.0);
        let e = parse(&argv(&[
            "query",
            "--addr",
            "127.0.0.1:7878",
            "--stats",
            "--protocol-version",
            "2",
        ]))
        .unwrap_err();
        assert!(
            e.0.contains("unknown flag \"--protocol-version\""),
            "{}",
            e.0
        );
    }

    #[test]
    fn parses_absolute_support() {
        let c = parse(&argv(&["mine", "--input", "x", "--min-sup", "25"])).unwrap();
        match c {
            Command::Mine { min_sup, .. } => assert_eq!(min_sup, MinSup::Absolute(25)),
            _ => panic!(),
        }
    }

    #[test]
    fn min_sup_resolution() {
        assert_eq!(MinSup::Relative(0.01).resolve(1000), 10);
        assert_eq!(MinSup::Relative(0.001).resolve(100), 1);
        assert_eq!(MinSup::Absolute(5).resolve(1000), 5);
    }

    #[test]
    fn rejects_bad_min_sup() {
        for bad in ["0", "0.0", "1.5", "-3", "abc"] {
            assert!(
                parse(&argv(&["mine", "--input", "x", "--min-sup", bad])).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn parses_all_algorithms() {
        for (name, algo) in [
            ("conditional", Algo::Conditional),
            ("plt", Algo::Conditional),
            ("topdown", Algo::TopDown),
            ("parallel", Algo::Parallel),
            ("apriori", Algo::Apriori),
            ("fp-growth", Algo::FpGrowth),
            ("eclat", Algo::Eclat),
            ("declat", Algo::DEclat),
            ("h-mine", Algo::HMine),
            ("ais", Algo::Ais),
            ("partition", Algo::Partition),
            ("dic", Algo::Dic),
            ("sampling", Algo::Sampling),
            ("toivonen", Algo::Sampling),
        ] {
            let c = parse(&argv(&[
                "mine",
                "--input",
                "x",
                "--min-sup",
                "2",
                "--algo",
                name,
            ]))
            .unwrap();
            match c {
                Command::Mine { algo: a, .. } => assert_eq!(a, algo, "{name}"),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn parses_rules_and_gen() {
        let c = parse(&argv(&[
            "rules",
            "--input",
            "x",
            "--min-sup",
            "0.02",
            "--min-conf",
            "0.7",
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(matches!(c, Command::Rules { top: Some(5), .. }));

        let c = parse(&argv(&[
            "gen",
            "--kind",
            "dense",
            "--transactions",
            "100",
            "--output",
            "o.dat",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Gen {
                kind: GenKind::Dense,
                transactions: 100,
                output: "o.dat".into(),
                seed: 7,
            }
        );
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse(&argv(&["serve", "--input", "x.dat", "--min-sup", "2"])).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                input: "x.dat".into(),
                min_sup: MinSup::Absolute(2),
                addr: "127.0.0.1:7878".into(),
                min_conf: 0.5,
                window: None,
                fault_seed: None,
                deadline_ms: None,
                data_dir: None,
                sketch_eps: None,
                sketch_delta: 0.01,
            }
        );
        let c = parse(&argv(&[
            "serve",
            "--input",
            "x",
            "--min-sup",
            "0.1",
            "--addr",
            "0.0.0.0:0",
            "--min-conf",
            "0.8",
            "--window",
            "500",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                window: Some(500),
                ..
            }
        ));
    }

    #[test]
    fn parses_serve_fault_flags() {
        let c = parse(&argv(&[
            "serve",
            "--input",
            "x.dat",
            "--min-sup",
            "2",
            "--fault-seed",
            "42",
            "--deadline-ms",
            "250",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                fault_seed: Some(42),
                deadline_ms: Some(250),
                ..
            }
        ));
        assert!(parse(&argv(&[
            "serve",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--fault-seed",
            "nope",
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "serve",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--deadline-ms",
            "-1",
        ]))
        .is_err());
    }

    #[test]
    fn parses_serve_data_dir() {
        let c = parse(&argv(&[
            "serve",
            "--input",
            "x.dat",
            "--min-sup",
            "2",
            "--data-dir",
            "/tmp/plt-data",
        ]))
        .unwrap();
        match c {
            Command::Serve { data_dir, .. } => {
                assert_eq!(data_dir.as_deref(), Some("/tmp/plt-data"));
            }
            _ => panic!(),
        }
        // The flag requires a value.
        assert!(parse(&argv(&[
            "serve",
            "--input",
            "x",
            "--min-sup",
            "2",
            "--data-dir",
        ]))
        .is_err());
    }

    #[test]
    fn parses_serve_approx_flags() {
        let c = parse(&argv(&[
            "serve",
            "--input",
            "x.dat",
            "--min-sup",
            "2",
            "--sketch-eps",
            "0.05",
            "--sketch-delta",
            "0.001",
        ]))
        .unwrap();
        match c {
            Command::Serve {
                sketch_eps,
                sketch_delta,
                ..
            } => {
                assert_eq!(sketch_eps, Some(0.05));
                assert_eq!(sketch_delta, 0.001);
            }
            _ => panic!(),
        }
        // Out-of-range epsilon and a dangling delta fail.
        for bad in [
            vec!["--sketch-eps", "0"],
            vec!["--sketch-eps", "1.5"],
            vec!["--sketch-delta", "0.1"],
        ] {
            let mut args = vec!["serve", "--input", "x", "--min-sup", "2"];
            args.extend(bad.iter().copied());
            assert!(parse(&argv(&args)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_store_inspect() {
        let c = parse(&argv(&["store", "inspect", "--data-dir", "/tmp/d"])).unwrap();
        assert_eq!(
            c,
            Command::StoreInspect {
                data_dir: "/tmp/d".into(),
            }
        );
        // The action and the directory are both required.
        assert!(parse(&argv(&["store"])).is_err());
        assert!(parse(&argv(&["store", "inspect"])).is_err());
        assert!(parse(&argv(&["store", "compact", "--data-dir", "/tmp/d"])).is_err());
        assert!(parse(&argv(&["store", "inspect", "--bogus", "x"])).is_err());
    }

    #[test]
    fn parses_query_server_mode() {
        let c = parse(&argv(&[
            "query",
            "--addr",
            "127.0.0.1:7878",
            "--itemset",
            "1 2",
            "--top",
            "5",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::QueryServer {
                addr: "127.0.0.1:7878".into(),
                itemsets: vec![vec![1, 2]],
                top: Some(5),
                recommend: None,
                expr: None,
                explain: false,
                stats: true,
                shutdown: false,
            }
        );
        // A query-language expression with provenance.
        let c = parse(&argv(&[
            "query",
            "--addr",
            "127.0.0.1:7878",
            "--expr",
            "TOP 5 WHERE support >= 0.2",
            "--explain",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::QueryServer {
                addr: "127.0.0.1:7878".into(),
                itemsets: vec![],
                top: None,
                recommend: None,
                expr: Some("TOP 5 WHERE support >= 0.2".into()),
                explain: true,
                stats: false,
                shutdown: false,
            }
        );
        // --explain without --expr is meaningless.
        assert!(parse(&argv(&["query", "--addr", "y", "--explain"])).is_err());
        // Server-only flags without --addr are rejected.
        assert!(parse(&argv(&["query", "--index", "x.pltc", "--top", "5"])).is_err());
        assert!(parse(&argv(&["query", "--index", "x.pltc", "--expr", "TOP 5"])).is_err());
        // Both sources are rejected.
        assert!(parse(&argv(&[
            "query",
            "--index",
            "x",
            "--addr",
            "y",
            "--itemset",
            "1"
        ]))
        .is_err());
        // Server mode needs at least one action.
        assert!(parse(&argv(&["query", "--addr", "y"])).is_err());
    }

    #[test]
    fn parses_mine_incremental() {
        let c = parse(&argv(&[
            "mine-incremental",
            "--input",
            "base.dat",
            "--delta",
            "delta.dat",
            "--min-sup",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::MineIncremental {
                input: "base.dat".into(),
                delta: "delta.dat".into(),
                min_sup: MinSup::Absolute(2),
                shards: plt_shard::DEFAULT_SHARD_COUNT,
                limit: None,
                verify_full: false,
            }
        );
        let c = parse(&argv(&[
            "mine-incremental",
            "--input",
            "b",
            "--delta",
            "d",
            "--min-sup",
            "0.01",
            "--shards",
            "8",
            "--limit",
            "10",
            "--verify-full",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::MineIncremental {
                shards: 8,
                limit: Some(10),
                verify_full: true,
                ..
            }
        ));
        // Both inputs are required; zero shards are rejected.
        assert!(parse(&argv(&[
            "mine-incremental",
            "--input",
            "b",
            "--min-sup",
            "2"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "mine-incremental",
            "--delta",
            "d",
            "--min-sup",
            "2"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "mine-incremental",
            "--input",
            "b",
            "--delta",
            "d",
            "--min-sup",
            "2",
            "--shards",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&argv(&["mine", "--min-sup", "2"])).is_err());
        assert!(parse(&argv(&["rules", "--input", "x", "--min-sup", "2"])).is_err());
        assert!(parse(&argv(&["gen", "--kind", "quest"])).is_err());
        assert!(parse(&argv(&[])).is_err());
    }

    #[test]
    fn error_display_includes_usage() {
        let e = parse(&argv(&["nope"])).unwrap_err();
        assert!(e.to_string().contains("usage:"));
    }
}
