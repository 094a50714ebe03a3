//! X16 — async serving benchmark: request round-trip and pipelined
//! batch throughput through a live TCP server, reactor vs
//! thread-per-connection.
//!
//! Unlike an in-process engine call, every iteration here crosses the
//! wire: frame encode, socket write, server decode,
//! dispatch, reply frame, client decode. The gap between the two models
//! is scheduling and transport, not mining. The full grid — idle
//! ceiling and 64/512/4096-client load — lives in `experiments --exp
//! x16`, which emits the committed `BENCH_serve.json`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use plt_bench::datasets;
use plt_core::construct::{construct, ConstructOptions};
use plt_core::miner::Miner;
use plt_core::ConditionalMiner;
use plt_rules::RuleConfig;
use plt_serve::{serve, Client, Engine, Request, ServerConfig, ServerModel, Snapshot};

fn start(model: ServerModel) -> plt_serve::ServerHandle {
    let db = datasets::sparse_small(2_000);
    let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
    let result = ConditionalMiner::default().mine(&db, 2);
    let engine = Arc::new(Engine::new(Snapshot::build(
        1,
        plt,
        &result,
        RuleConfig::default(),
    )));
    serve(
        "127.0.0.1:0",
        engine,
        None,
        ServerConfig {
            server_model: model,
            max_connections: 4_096,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn models() -> Vec<ServerModel> {
    if cfg!(target_os = "linux") {
        vec![ServerModel::Threads, ServerModel::Reactor]
    } else {
        vec![ServerModel::Threads]
    }
}

fn bench(c: &mut Criterion) {
    for model in models() {
        let handle = start(model);
        let mut group = c.benchmark_group(format!("x16/{}", model.as_str()));
        group.sample_size(10);

        let mut client = Client::connect(handle.addr()).expect("connect");
        // One request in flight: the wire round-trip floor.
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("rtt", "support"), |b| {
            b.iter(|| criterion::black_box(client.support(&[1, 2]).expect("support")))
        });

        // A pipelined batch: eight frames in flight on one connection.
        let batch: Vec<Request> = (0..64)
            .map(|_| Request::Support { items: vec![1, 2] })
            .collect();
        group.throughput(Throughput::Elements(batch.len() as u64));
        group.bench_function(BenchmarkId::new("pipeline", "64reqs_window8"), |b| {
            b.iter(|| criterion::black_box(client.pipeline(&batch, 8).expect("pipeline")))
        });

        group.finish();
        drop(client);
        handle.shutdown();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
