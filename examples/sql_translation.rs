//! SQL translation: show, for a selection of LPath queries, the SQL
//! statement the paper's engine sends to its relational database
//! (paper §4) and the physical plan this reproduction executes.
//!
//! ```sh
//! cargo run --example sql_translation
//! ```

use lpath::prelude::*;

fn main() {
    let corpus = generate(&GenConfig::wsj(200));
    let engine = Engine::build(&corpus);

    let queries = [
        "//VB->NP",
        "//VP{/NP$}",
        "//S[//_[@lex=saw]]",
        "//NP[not(//JJ)]",
        "//VP[{//^VB->NP->PP$}]",
        "//NP[->PP[//IN[@lex=of]]=>VP]",
    ];

    let sql = |q| engine.sql_ast(&parse(q).expect("parses"));
    for q in queries {
        println!("LPath   {q}");
        println!("SQL     {}", sql(q).expect("translatable"));
        println!("plan    |");
        for line in engine.explain(q).expect("plannable").lines() {
            println!("        | {line}");
        }
        println!();
    }

    // Features only the tree walker evaluates.
    for q in ["//VP/_[last()]", "//NP[//JJ or //DT]", "//VB->*_"] {
        match sql(q) {
            Err(e) => println!("not translatable: {q}\n  → {e}"),
            Ok(_) => unreachable!("{q} should be rejected"),
        }
        let walker = Walker::new(&corpus);
        let n = walker.count(&parse(q).unwrap());
        println!("  …but the walker answers it: {n} matches\n");
    }
}
