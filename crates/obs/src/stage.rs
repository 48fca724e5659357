//! Stage taxonomies: where a request, or an epoch publish, spends its
//! lifetime.
//!
//! [`StageSet`] is what the span machinery needs to know about a taxonomy;
//! [`Stage`] (the read path) and [`PublishStage`](crate::PublishStage) (the
//! write path) are its two implementations.

use std::fmt::Debug;

/// An ordered set of stages that partition one span's lifetime. The
/// generic [`StageSpan`](crate::StageSpan), [`SpanChain`](crate::SpanChain),
/// [`StageHistograms`](crate::StageHistograms) and
/// [`StageSnapshot`](crate::StageSnapshot) are parameterised by it.
pub trait StageSet: Copy + Eq + Debug + 'static {
    /// One `T` per stage, indexed by [`index`](StageSet::index):
    /// `[T; COUNT]`.
    type PerStage<T>: AsRef<[T]> + AsMut<[T]>;

    /// Number of stages.
    const COUNT: usize;

    /// Every stage, in the order a span passes through them.
    const ALL: Self::PerStage<Self>;

    /// The stage only some spans mark (a steal, a checkpoint encode). A
    /// chain's `branched` flag says whether its span marked it.
    const BRANCH: Self;

    /// The stage a branched span does not pass through (the home queue of a
    /// stolen request), if branching replaces a stage rather than adding
    /// one. When set, histograms record this stage only for unbranched
    /// chains and [`BRANCH`](StageSet::BRANCH) only for branched ones, so the
    /// two counts partition the span count; otherwise every stage of every
    /// chain is recorded.
    const REPLACED_BY_BRANCH: Option<Self>;

    /// Stable metric-label name of this stage.
    fn name(self) -> &'static str;

    /// Dense index of this stage in [`ALL`](StageSet::ALL); also its wire
    /// code.
    fn index(self) -> usize;

    /// Builds a per-stage array from one value per stage.
    fn per_stage<T>(f: impl FnMut(Self) -> T) -> Self::PerStage<T>;

    /// Where an [`ObsSnapshot`](crate::ObsSnapshot) keeps this set's
    /// histograms.
    fn in_snapshot(snapshot: &crate::ObsSnapshot) -> &[crate::StageSnapshot<Self>];

    /// Inverse of [`index`](StageSet::index); `None` for out-of-range
    /// values.
    fn from_index(index: usize) -> Option<Self> {
        Self::ALL.as_ref().get(index).copied()
    }
}

/// One stage of a request's lifetime inside the query service.
///
/// The stages partition the interval from submission to reply, in this order:
///
/// 1. [`Admission`](Stage::Admission) — validation and shard routing, up to
///    the moment the request is enqueued.
/// 2. [`Queue`](Stage::Queue) — waiting in the home shard's bounded queue
///    until a worker begins processing it. Zero when the request was stolen.
/// 3. [`Steal`](Stage::Steal) — the same wait, attributed here instead of
///    [`Queue`](Stage::Queue) when a *thief* worker drained the request from
///    another shard's queue. Exactly one of Queue/Steal is non-zero per
///    request, so the partition property is preserved while the steal
///    histogram's count doubles as "requests served via work stealing".
/// 4. [`Cache`](Stage::Cache) — result-cache lock and lookup.
/// 5. [`Engine`](Stage::Engine) — the KSP-DG filter/refine run (cache miss
///    only), minus the survival sweep.
/// 6. [`TraceSweep`](Stage::TraceSweep) — the survival sweep that widens the
///    result's dependency trace so it can outlive epoch publishes.
/// 7. [`Reply`](Stage::Reply) — cache insert, metrics accounting and response
///    construction, up to the latency stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Validation + routing, submission to enqueue.
    Admission,
    /// Home-queue wait, enqueue to worker pickup.
    Queue,
    /// Queue wait of a stolen request, attributed to the steal path.
    Steal,
    /// Result-cache lock and lookup.
    Cache,
    /// Engine filter/refine run, excluding the survival sweep.
    Engine,
    /// Survival sweep extending the result's dependency trace.
    TraceSweep,
    /// Cache insert, accounting and response construction.
    Reply,
}

impl StageSet for Stage {
    type PerStage<T> = [T; 7];
    const COUNT: usize = 7;
    const ALL: [Stage; 7] = [
        Stage::Admission,
        Stage::Queue,
        Stage::Steal,
        Stage::Cache,
        Stage::Engine,
        Stage::TraceSweep,
        Stage::Reply,
    ];
    const BRANCH: Stage = Stage::Steal;
    const REPLACED_BY_BRANCH: Option<Stage> = Some(Stage::Queue);

    fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Queue => "queue",
            Stage::Steal => "steal",
            Stage::Cache => "cache",
            Stage::Engine => "engine",
            Stage::TraceSweep => "trace_sweep",
            Stage::Reply => "reply",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn per_stage<T>(f: impl FnMut(Stage) -> T) -> [T; 7] {
        Stage::ALL.map(f)
    }

    fn in_snapshot(snapshot: &crate::ObsSnapshot) -> &[crate::StageSnapshot<Stage>] {
        &snapshot.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_round_trip_and_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(Stage::from_index(i), Some(*stage));
            assert!(names.insert(stage.name()));
        }
        assert_eq!(Stage::from_index(Stage::COUNT), None);
    }
}
