//! The span stage taxonomy: where a request can spend its lifetime.

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

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 7;

    /// All stages in lifetime order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Admission,
        Stage::Queue,
        Stage::Steal,
        Stage::Cache,
        Stage::Engine,
        Stage::TraceSweep,
        Stage::Reply,
    ];

    /// Stable metric-label name of this stage.
    pub fn name(self) -> &'static str {
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

    /// Dense index of this stage in [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Stage::index`]; `None` for out-of-range values.
    pub fn from_index(index: usize) -> Option<Stage> {
        Stage::ALL.get(index).copied()
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
