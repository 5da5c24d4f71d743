// Machine-readable reject reasons for match attempts and incremental-refresh
// analysis. Every "this pattern does not apply" site in src/matching/ and
// src/sumtab/maintenance.cc stamps one of these onto the Status it returns
// (via Status::subcode), so the navigator trace, EXPLAIN REWRITE, and the
// metrics registry can report *why* a rewrite or merge was rejected without
// parsing human-readable message strings.
#ifndef SUMTAB_COMMON_REJECT_REASON_H_
#define SUMTAB_COMMON_REJECT_REASON_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace sumtab {

enum class RejectReason : uint16_t {
  kNone = 0,

  // ---- navigator / box pairing ----
  kBoxKindMismatch = 1,
  kBaseTableMismatch = 2,

  // ---- SELECT/SELECT patterns (paper 4.1.1, 4.2.3, 4.2.4) ----
  kNoChildMatch = 10,
  kSecondaryChildNotExact = 11,
  kDistinctMismatch = 12,
  kExtraJoinNotLossless = 13,
  kMultipleGroupingChildren = 14,
  kSecondaryChildNotScalar = 15,
  kJoinPredOnGroupingChild = 16,
  kSubsumerJoinPredOnGroupingChild = 17,
  kSubsumerPredUnmatched = 18,
  kDistinctOverGroupingComp = 19,
  kNonExactDistinct = 20,

  // ---- GROUP-BY/GROUP-BY patterns (paper 4.1.2, 4.2.1, 4.2.2) ----
  kChildrenNotMatched = 30,
  kMultiBoxChildComp = 31,
  kGroupingColumnNotDerivable = 32,
  kChildPredNotPullable = 33,
  kAggregateNotDerivable = 34,
  kMultidimensionalComp = 35,
  kDeepCompChain = 36,

  // ---- CUBE patterns (paper 5.1, 5.2) ----
  kNoCuboidMatch = 50,
  kCuboidNotCovered = 51,
  kCuboidUnionNotCovered = 52,
  kNullableGroupingSlice = 53,  // IS NULL slice over a nullable grouping source

  // ---- compensation column derivation (paper Sec. 4 derivation rules) ----
  kColumnNotPreserved = 70,
  kAggregateNotPreserved = 71,
  kAggArgUsesRejoinColumn = 72,
  kCountDistinctStar = 73,
  kCountDistinctNoGroupingColumn = 74,
  kNoCountStarColumn = 75,
  kNoCountColumn = 76,
  kSumDistinctNoGroupingColumn = 77,
  kNoSumDerivation = 78,
  kNoMinMaxDerivation = 79,
  kAvgNotLowered = 80,

  // ---- incremental maintenance: the stored-layout rules AnalyzeMergePlan
  // adds to the shared delta analysis (comp_* 152-158 below). 100-105,
  // 107-109, 111-113 and 115 are retired and stay reserved. ----
  kMaintHavingPredicate = 106,
  kMaintComputedOutput = 110,
  kMaintPartialGroupKey = 114,

  // ---- serving: admission control + sessions (src/serving/) ----
  kAdmissionQueueFull = 130,
  kAdmissionTimeout = 131,
  kSessionInFlightLimit = 132,
  kSessionClosed = 133,
  kServerShuttingDown = 134,

  // ---- durability: WAL / checkpoint / recovery (src/wal/) ----
  kIoError = 140,
  kWalCorruption = 141,
  kWalTornTail = 142,
  kCheckpointCorruption = 143,
  kCheckpointVersionMismatch = 144,
  kAstDroppedOnRecovery = 145,
  kRecoveryFailed = 146,
  kDeltaDroppedOnRecovery = 147,
  kWorkloadDroppedOnRecovery = 148,

  // ---- delta compensation and the shared delta analysis: the lag check
  // (150-151), delta decomposability for compensation and maintenance
  // alike (152-158), and the AST leg (159) ----
  kCompMultiTableStaleness = 150,  // more than one base table lags the AST
  kCompDeltaUnavailable = 151,     // no contiguous retained-slice coverage
  kCompQueryShape = 152,           // not an SPJ / single-aggregate-block query
  kCompDistinct = 153,             // DISTINCT block (dedup is not unionable)
  kCompScalarSubquery = 154,
  kCompDeltaRefCount = 155,        // stale table referenced != 1 time
  kCompNonDecomposableAggregate = 156,  // only COUNT/SUM/MIN/MAX decompose
  kCompDistinctAggregate = 157,
  kCompNullableGroupingSet = 158,  // data-NULL vs padding-NULL key collision
  kCompAstMismatch = 159,          // the AST does not cover the stale scan

  // ---- workload advisor (src/advisor/) ----
  kAdvisorNamespaceExhausted = 160,  // no free placeholder/AST name found
};

/// Stable snake_case token for a reason, e.g. "distinct_mismatch".
/// These tokens are the public vocabulary of EXPLAIN REWRITE and the
/// metrics registry; treat them as an API.
const char* RejectReasonToken(RejectReason reason);

/// Inverse of Status::subcode(): 0 / unknown subcodes map to kNone.
RejectReason RejectReasonFromStatus(const Status& status);

/// kNotFound status carrying `reason` as subcode; message is
/// "[token] detail". Used by match patterns ("the pattern does not apply").
Status RejectMatch(RejectReason reason, const std::string& detail);

/// kNotSupported status carrying `reason` as subcode; message is
/// "[token] detail". Used by derivation rules and maintenance analysis
/// ("the construct is recognized but cannot be handled").
Status RejectUnsupported(RejectReason reason, const std::string& detail);

/// kIoError status carrying `reason` as subcode; message is "[token] detail".
/// Used by the WAL / checkpoint / recovery paths (src/wal/) so shed
/// durability failures are distinguishable in Stats() the same way the
/// admission subcodes are.
Status RejectIo(RejectReason reason, const std::string& detail);

}  // namespace sumtab

#endif  // SUMTAB_COMMON_REJECT_REASON_H_
