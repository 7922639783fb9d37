//! The harness's command line: every paper-reproduction mode runs to
//! completion at a tiny scale, and any other mode name is refused
//! with the usage line and exit code 2.

use std::process::{Command, Output};

const USAGE: &str = "fig6a|fig6b|fig6c|fig7|fig8|fig9|fig10|ablation|extended|sql|all";

fn harness(mode: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([mode, "40"])
        .output()
        .expect("spawn harness")
}

macro_rules! runs {
    ($($name:ident => $mode:literal),* $(,)?) => {$(
        #[test]
        fn $name() {
            let out = harness($mode);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "harness {} failed: {stderr}", $mode);
            assert!(String::from_utf8_lossy(&out.stdout).contains("== "), "no table printed");
        }
    )*};
}

macro_rules! refused {
    ($($name:ident => $mode:literal),* $(,)?) => {$(
        #[test]
        fn $name() {
            let out = harness($mode);
            assert_eq!(out.status.code(), Some(2), "harness {} was accepted", $mode);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("unknown figure '{}'", $mode)), "{stderr}");
            assert!(stderr.contains(USAGE), "usage line missing: {stderr}");
            assert!(out.stdout.is_empty(), "refused mode printed output");
        }
    )*};
}

runs! {
    fig6a_runs => "fig6a",
    fig6b_runs => "fig6b",
    fig6c_runs => "fig6c",
    fig7_runs => "fig7",
    fig8_runs => "fig8",
    fig9_runs => "fig9",
    fig10_runs => "fig10",
    ablation_runs => "ablation",
    extended_runs => "extended",
    sql_runs => "sql",
}

refused! {
    service_is_refused => "service",
    firstmatch_is_refused => "firstmatch",
    sweep_is_refused => "sweep",
    metrics_is_refused => "metrics",
    check_is_refused => "check",
    count_is_refused => "count",
    multiquery_is_refused => "multiquery",
    server_is_refused => "server",
    page_is_refused => "page",
}

#[test]
fn all_runs_every_figure_including_sql() {
    let out = harness("all");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let sections = stdout.lines().filter(|l| l.starts_with("== ")).count();
    // One section per figure, two for the ablation.
    assert_eq!(sections, 11, "{stdout}");
    assert!(
        stdout.contains("== LPath → SQL translations =="),
        "`all` skipped sql"
    );
}
