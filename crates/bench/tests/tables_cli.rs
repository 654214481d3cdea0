//! `tables` must reject a command line it does not understand: a mistyped
//! CI step that printed nothing and exited 0 would pass vacuously.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("the tables binary runs")
}

fn assert_rejected(args: &[&str], offender: &str) {
    let out = tables(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    assert!(stderr.contains(offender), "{args:?}: {stderr}");
    assert!(
        stderr.contains("valid ids: t1 f1") && stderr.contains("e15 a1 ab1 ab2"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn an_unknown_section_id_exits_2_with_the_valid_ids() {
    assert_rejected(&["e99"], "\"e99\"");
    // A bad id next to a good one still runs nothing.
    assert_rejected(&["t1", "e99"], "\"e99\"");
    // E10 and E12 timed the host, not the protocol, and are retired.
    assert_rejected(&["e10"], "\"e10\"");
    assert_rejected(&["e12"], "\"e12\"");
}

#[test]
fn an_unknown_flag_exits_2_instead_of_being_dropped() {
    assert_rejected(&["e13", "--seed", "8"], "\"--seed\"");
    assert_rejected(&["e14", "--shards", "2"], "\"--shards\"");
    // Every run is sequential: there is no worker count to set.
    assert_rejected(&["e8", "--jobs", "2"], "\"--jobs\"");
    // E14 and E15 run fixed workloads: their retired axis flags are
    // unknown flags too.
    assert_rejected(&["e15", "--batch", "8"], "\"--batch\"");
}

#[test]
fn a_known_id_still_prints_its_table() {
    let out = tables(&["t1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("== T1"));
}
