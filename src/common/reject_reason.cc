#include "common/reject_reason.h"

namespace sumtab {

const char* RejectReasonToken(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kBoxKindMismatch:
      return "box_kind_mismatch";
    case RejectReason::kBaseTableMismatch:
      return "base_table_mismatch";
    case RejectReason::kNoChildMatch:
      return "no_child_match";
    case RejectReason::kSecondaryChildNotExact:
      return "secondary_child_not_exact";
    case RejectReason::kDistinctMismatch:
      return "distinct_mismatch";
    case RejectReason::kExtraJoinNotLossless:
      return "extra_join_not_lossless";
    case RejectReason::kMultipleGroupingChildren:
      return "multiple_grouping_children";
    case RejectReason::kSecondaryChildNotScalar:
      return "secondary_child_not_scalar";
    case RejectReason::kJoinPredOnGroupingChild:
      return "join_pred_on_grouping_child";
    case RejectReason::kSubsumerJoinPredOnGroupingChild:
      return "subsumer_join_pred_on_grouping_child";
    case RejectReason::kSubsumerPredUnmatched:
      return "subsumer_pred_unmatched";
    case RejectReason::kDistinctOverGroupingComp:
      return "distinct_over_grouping_comp";
    case RejectReason::kNonExactDistinct:
      return "non_exact_distinct";
    case RejectReason::kChildrenNotMatched:
      return "children_not_matched";
    case RejectReason::kMultiBoxChildComp:
      return "multi_box_child_comp";
    case RejectReason::kGroupingColumnNotDerivable:
      return "grouping_column_not_derivable";
    case RejectReason::kChildPredNotPullable:
      return "child_pred_not_pullable";
    case RejectReason::kAggregateNotDerivable:
      return "aggregate_not_derivable";
    case RejectReason::kMultidimensionalComp:
      return "multidimensional_comp";
    case RejectReason::kDeepCompChain:
      return "deep_comp_chain";
    case RejectReason::kNoCuboidMatch:
      return "no_cuboid_match";
    case RejectReason::kCuboidNotCovered:
      return "cuboid_not_covered";
    case RejectReason::kCuboidUnionNotCovered:
      return "cuboid_union_not_covered";
    case RejectReason::kNullableGroupingSlice:
      return "nullable_grouping_slice";
    case RejectReason::kColumnNotPreserved:
      return "column_not_preserved";
    case RejectReason::kAggregateNotPreserved:
      return "aggregate_not_preserved";
    case RejectReason::kAggArgUsesRejoinColumn:
      return "agg_arg_uses_rejoin_column";
    case RejectReason::kCountDistinctStar:
      return "count_distinct_star";
    case RejectReason::kCountDistinctNoGroupingColumn:
      return "count_distinct_no_grouping_column";
    case RejectReason::kNoCountStarColumn:
      return "no_count_star_column";
    case RejectReason::kNoCountColumn:
      return "no_count_column";
    case RejectReason::kSumDistinctNoGroupingColumn:
      return "sum_distinct_no_grouping_column";
    case RejectReason::kNoSumDerivation:
      return "no_sum_derivation";
    case RejectReason::kNoMinMaxDerivation:
      return "no_min_max_derivation";
    case RejectReason::kAvgNotLowered:
      return "avg_not_lowered";
    case RejectReason::kMaintHavingPredicate:
      return "maint_having_predicate";
    case RejectReason::kMaintComputedOutput:
      return "maint_computed_output";
    case RejectReason::kMaintPartialGroupKey:
      return "maint_partial_group_key";
    case RejectReason::kAdmissionQueueFull:
      return "admission_queue_full";
    case RejectReason::kAdmissionTimeout:
      return "admission_timeout";
    case RejectReason::kSessionInFlightLimit:
      return "session_in_flight_limit";
    case RejectReason::kSessionClosed:
      return "session_closed";
    case RejectReason::kServerShuttingDown:
      return "server_shutting_down";
    case RejectReason::kIoError:
      return "io_error";
    case RejectReason::kWalCorruption:
      return "wal_corruption";
    case RejectReason::kWalTornTail:
      return "wal_torn_tail";
    case RejectReason::kCheckpointCorruption:
      return "checkpoint_corruption";
    case RejectReason::kCheckpointVersionMismatch:
      return "checkpoint_version_mismatch";
    case RejectReason::kAstDroppedOnRecovery:
      return "ast_dropped_on_recovery";
    case RejectReason::kRecoveryFailed:
      return "recovery_failed";
    case RejectReason::kDeltaDroppedOnRecovery:
      return "delta_dropped_on_recovery";
    case RejectReason::kWorkloadDroppedOnRecovery:
      return "workload_dropped_on_recovery";
    case RejectReason::kCompMultiTableStaleness:
      return "comp_multi_table_staleness";
    case RejectReason::kCompDeltaUnavailable:
      return "comp_delta_unavailable";
    case RejectReason::kCompQueryShape:
      return "comp_query_shape";
    case RejectReason::kCompDistinct:
      return "comp_distinct";
    case RejectReason::kCompScalarSubquery:
      return "comp_scalar_subquery";
    case RejectReason::kCompDeltaRefCount:
      return "comp_delta_ref_count";
    case RejectReason::kCompNonDecomposableAggregate:
      return "comp_non_decomposable_aggregate";
    case RejectReason::kCompDistinctAggregate:
      return "comp_distinct_aggregate";
    case RejectReason::kCompNullableGroupingSet:
      return "comp_nullable_grouping_set";
    case RejectReason::kCompAstMismatch:
      return "comp_ast_mismatch";
    case RejectReason::kAdvisorNamespaceExhausted:
      return "advisor_namespace_exhausted";
  }
  return "unknown";
}

namespace {

bool IsKnownSubcode(uint16_t subcode) {
  // Round-trip through the token table: anything unknown renders as
  // "unknown" and maps back to kNone.
  RejectReason r = static_cast<RejectReason>(subcode);
  return std::string(RejectReasonToken(r)) != "unknown";
}

std::string Compose(RejectReason reason, const std::string& detail) {
  std::string msg = "[";
  msg += RejectReasonToken(reason);
  msg += "]";
  if (!detail.empty()) {
    msg += " ";
    msg += detail;
  }
  return msg;
}

}  // namespace

RejectReason RejectReasonFromStatus(const Status& status) {
  uint16_t subcode = status.subcode();
  if (subcode == 0 || !IsKnownSubcode(subcode)) return RejectReason::kNone;
  return static_cast<RejectReason>(subcode);
}

Status RejectMatch(RejectReason reason, const std::string& detail) {
  return Status::NotFound(Compose(reason, detail))
      .WithSubcode(static_cast<uint16_t>(reason));
}

Status RejectUnsupported(RejectReason reason, const std::string& detail) {
  return Status::NotSupported(Compose(reason, detail))
      .WithSubcode(static_cast<uint16_t>(reason));
}

Status RejectIo(RejectReason reason, const std::string& detail) {
  return Status::IoError(Compose(reason, detail))
      .WithSubcode(static_cast<uint16_t>(reason));
}

}  // namespace sumtab
