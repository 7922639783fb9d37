//! The query service end to end: shard a synthetic WSJ corpus, fan a
//! query batch out, watch the caches work, append fresh trees without
//! a full rebuild, and read the stats.
//!
//! ```text
//! cargo run --release --example service_throughput [sentences]
//! ```

use std::time::Instant;

use lpath::prelude::*;

fn main() {
    let sentences: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000);
    let corpus = generate(&GenConfig::wsj(sentences));
    let texts: Vec<&str> = QUERIES.iter().map(|q| q.lpath).collect();

    println!("corpus: {sentences} synthetic WSJ sentences");
    for shards in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let service = Service::with_config(
            &corpus,
            ServiceConfig {
                shards,
                ..ServiceConfig::default()
            },
        );
        let build = t.elapsed();

        // Cold batch: every query compiles and evaluates.
        let t = Instant::now();
        let cold: usize = service
            .eval_multi(&texts)
            .into_iter()
            .map(|r| r.expect("query").len())
            .sum();
        let cold_time = t.elapsed();

        // Warm batch: all result-cache hits.
        let t = Instant::now();
        let warm: usize = service
            .eval_multi(&texts)
            .into_iter()
            .map(|r| r.expect("query").len())
            .sum();
        let warm_time = t.elapsed();
        assert_eq!(cold, warm);

        let stats = service.stats();
        println!(
            "{shards} shard(s): build {:.3}s, cold batch {:.1} q/s, \
             warm batch {:.1} q/s, hit rate {:.2}, pruned {} shard evals",
            build.as_secs_f64(),
            texts.len() as f64 / cold_time.as_secs_f64(),
            texts.len() as f64 / warm_time.as_secs_f64(),
            stats.result_hit_rate(),
            stats.shards_pruned,
        );
    }

    // Live ingest: append without rebuilding the world.
    let service = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    );
    let matches_before = service.count("//_[@lex=rapprochement]").unwrap();
    let t = Instant::now();
    service
        .append_ptb("( (S (NP-SBJ (DT the) (NN rapprochement)) (VP (VBD endured))) )")
        .unwrap();
    let append_time = t.elapsed();
    let matches_after = service.count("//_[@lex=rapprochement]").unwrap();
    println!(
        "append: one tree in {:.4}s (tail shard only), \
         '//_[@lex=rapprochement]' matches {matches_before} -> {matches_after}",
        append_time.as_secs_f64(),
    );
    assert_eq!(matches_after, matches_before + 1);

    let stats = service.stats();
    println!(
        "final stats: gen {}, {} trees, {} rows, plan hits/misses {}/{}, \
         result hits/misses {}/{}",
        stats.generation,
        stats.trees,
        stats.relation_rows,
        stats.plan_hits,
        stats.plan_misses,
        stats.result_hits,
        stats.result_misses,
    );
}
