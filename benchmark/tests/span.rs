//! Span bookkeeping: parents, self-time subtraction, per-name totals.

use rcsim_perf::span::{self_times, totals_by_name, Off, Probe, Recorder, Span};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        count: 1,
    }
}

#[test]
fn self_time_subtracts_nested_and_adjacent_children() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)), // adjacent siblings a, b
        span("b", 40, 70, Some(0)),
        span("a.inner", 15, 25, Some(1)), // nested: charged to a, not to root
        span("other_root", 100, 130, None),
    ];
    assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 30]);
}

#[test]
fn children_are_clipped_to_their_parent() {
    let spans = [span("p", 10, 20, None), span("c", 5, 15, Some(0))];
    assert_eq!(self_times(&spans), vec![5, 10]);
    // A child covering more than its parent cannot drive self time negative.
    let spans = [span("p", 10, 20, None), span("c", 0, 50, Some(0))];
    assert_eq!(self_times(&spans)[0], 0);
}

#[test]
fn totals_group_by_name() {
    let mut spans = vec![
        span("window", 0, 100, None),
        span("noc.tick", 0, 30, Some(0)),
        span("noc.tick", 50, 90, Some(0)),
    ];
    spans[2].count = 3;
    let totals = totals_by_name(&spans);
    assert_eq!(totals["noc.tick"].calls, 2);
    assert_eq!(totals["noc.tick"].count, 4);
    assert_eq!(totals["noc.tick"].total_ns, 70);
    assert_eq!(totals["window"].self_ns, 30);
}

#[test]
fn recorder_links_parents_and_counts() {
    let mut rec = Recorder::new();
    let out = rec.span("outer", |rec| {
        rec.span_n("inner", |_| 7);
        rec.span("inner", |_| ());
        42
    });
    assert_eq!(out, 42);
    let spans = rec.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!((spans[1].count, spans[2].count), (7, 1));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    assert!(
        spans[1].end_ns <= spans[2].start_ns,
        "siblings do not overlap"
    );
    rec.truncate(0);
    assert!(rec.spans().is_empty());
}

#[test]
fn the_off_probe_just_calls() {
    let mut calls = 0;
    let out = Off.span("x", |p| {
        p.span_n("y", |_| {
            calls += 1;
            5
        });
        1
    });
    assert_eq!((out, calls), (1, 1));
}
