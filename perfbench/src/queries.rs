//! The standing queries of the `fanout-queries` workload, stated twice:
//! as logical plans for the program, and as direct row functions for
//! the oracle. The two must agree; nothing else ties them together.

use query::prelude::{AggFunc, Catalog, CmpOp, LogicalPlan, WindowKind};

use crate::gen::SEQ_BITS;

/// Query ids, in sink order. Index 0 carries both payloads and is the
/// one latency is taken from.
pub const IDS: [&str; 5] = ["all_pairs", "qty_gt", "px_gt_proj", "proj", "qty_sum"];

/// Tagged payloads are `value << 24 | seq`; a threshold just below
/// `V << 24` selects inputs whose seeded value is at least `V`, so about
/// 216 of every 256 inputs pass.
const MIN_VALUE: u64 = 40;
pub const QTY_MIN: u64 = (MIN_VALUE << SEQ_BITS) - 1;
pub const PX_MIN: u64 = (MIN_VALUE << SEQ_BITS) - 1;

/// Trades per tumbling SUM window.
pub const SUM_WINDOW: usize = 256;

pub fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .register_spec("trades=sym:32,qty:32")
        .expect("trades schema is valid");
    catalog
        .register_spec("quotes=sym:32,px:32")
        .expect("quotes schema is valid");
    catalog
}

/// The stream an input of tag R (trades) or S (quotes) is pushed to.
pub fn stream(tag: streamcore::StreamTag) -> &'static str {
    match tag {
        streamcore::StreamTag::R => "trades",
        streamcore::StreamTag::S => "quotes",
    }
}

/// The plans, in [`IDS`] order. The four joins share one engine group.
pub fn plans(window: usize) -> Vec<(&'static str, LogicalPlan)> {
    let join = || LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", window);
    vec![
        (IDS[0], join()),
        (IDS[1], join().filter("qty", CmpOp::Gt, QTY_MIN)),
        (
            IDS[2],
            join()
                .filter("px", CmpOp::Gt, PX_MIN)
                .project(["qty", "px"]),
        ),
        (IDS[3], join().project(["sym", "px"])),
        (
            IDS[4],
            LogicalPlan::source("trades").aggregate(
                AggFunc::Sum,
                Some("qty"),
                SUM_WINDOW,
                WindowKind::Tumbling,
            ),
        ),
    ]
}

/// Oracle side of the four joined queries: calls `emit(query, row)`
/// for each row one match `(sym, qty) ⋈ (sym, px)` yields.
pub fn joined_rows(sym: u64, qty: u64, px: u64, mut emit: impl FnMut(usize, &[u64])) {
    emit(0, &[sym, qty, sym, px]);
    if qty > QTY_MIN {
        emit(1, &[sym, qty, sym, px]);
    }
    if px > PX_MIN {
        emit(2, &[qty, px]);
    }
    emit(3, &[sym, px]);
}
