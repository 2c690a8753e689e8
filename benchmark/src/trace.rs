//! The span file of a traced run: one span per layer boundary per
//! transaction plus per-block spans, all stamped by the harness around
//! its calls into the crates, kept in memory and written at exit.

use std::fmt::Write as _;

use crate::driver::WindowReport;
use crate::report::Outcome;
use crate::stats::STAGES;

/// Span ids: a transaction's root is `10 * (index + 1)`, its stages the
/// next seven ids; a block's root is `BLOCK_BASE + 10 * number`.
const BLOCK_BASE: u64 = 1 << 40;

/// Appends a root span and its children, which get the following ids.
fn family(out: &mut String, root: u64, tx: Option<usize>, spans: &[(&str, u64, u64)]) {
    let tx = tx.map_or("null".to_string(), |t| t.to_string());
    for (i, (name, start, end)) in spans.iter().enumerate() {
        let parent = if i == 0 {
            "null".to_string()
        } else {
            root.to_string()
        };
        let id = root + i as u64;
        let _ = writeln!(out, "[{id},{parent},\"{name}\",{tx},{start},{end}],");
    }
}

/// Renders the spans as JSON. Times are nanoseconds since the run epoch.
pub fn render(
    workload: &str,
    seed: u64,
    window: &WindowReport,
    outcomes: &[Option<Outcome>],
) -> String {
    let mut spans = String::new();
    for (idx, (c, o)) in window.client.txs.iter().zip(&window.order.txs).enumerate() {
        let traced = c.assembled_ns != 0 && o.arrived_ns != 0 && o.committed_ns != 0;
        if !traced || outcomes[idx].is_none() {
            continue;
        }
        let bounds = [
            c.due_ns,
            c.endorsed_ns,
            c.assembled_ns,
            o.received_ns,
            o.dispatched_ns,
            o.ordered_ns,
            o.arrived_ns,
            o.committed_ns,
        ];
        let mut members = vec![("tx", c.due_ns, o.committed_ns)];
        members.extend(
            STAGES
                .iter()
                .zip(bounds.windows(2))
                .map(|(stage, b)| (*stage, b[0], b[1])),
        );
        family(&mut spans, 10 * (idx as u64 + 1), Some(idx), &members);
    }
    for block in window
        .order
        .blocks
        .iter()
        .filter(|b| b.traced && b.committed_ns != 0)
    {
        // `ValidationTiming` gives durations, not instants: the three
        // stages are laid back to back, ending at the commit.
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        let ledger_start = block.committed_ns.saturating_sub(ns(block.timing.ledger));
        let rw_start = ledger_start.saturating_sub(ns(block.timing.rw_check));
        let vscc_start = rw_start.saturating_sub(ns(block.timing.vscc));
        family(
            &mut spans,
            BLOCK_BASE + 10 * block.number,
            None,
            &[
                ("block", block.visible_ns, block.committed_ns),
                ("disseminate", block.visible_ns, block.arrived_ns),
                ("vscc", vscc_start, rw_start),
                ("rwcheck", rw_start, ledger_start),
                ("ledger", ledger_start, block.committed_ns),
            ],
        );
    }
    let spans = spans.trim_end_matches(",\n");
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"wall\",\
         \"time_unit\":\"ns since run epoch\",\
         \"columns\":[\"id\",\"parent\",\"name\",\"tx\",\"start\",\"end\"],\n\"spans\":[\n{spans}\n]}}\n"
    )
}
