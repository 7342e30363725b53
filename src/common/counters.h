// Instrumentation counters.
//
// The paper's cost model is stated in terms of *column value comparisons*
// (bounded by N x K, with no log N factor) and *code comparisons* (folded
// into other work, effectively free). Every comparator and operator in this
// library counts its work through a QueryCounters instance so that tests can
// assert the paper's bounds and benchmarks can report comparison counts next
// to wall-clock time.

#ifndef OVC_COMMON_COUNTERS_H_
#define OVC_COMMON_COUNTERS_H_

#include <cstdint>

namespace ovc {

/// The counter schema: one X(field, help) entry per QueryCounters field.
/// `field` is the member, the profile JSON key, and (as `query.<field>`) the
/// process-wide metric SqlSession records; `help` is that metric's help
/// text. Every counter surface -- Merge/Delta/==, the wire RESULT_DONE
/// block, the profile JSON, ovcsql `.counters`, the query.* metrics -- is
/// generated from this list in this order, so adding a counter is one entry
/// here plus its docs/OBSERVABILITY.md registry row (ovclint OVC-L008/L009).
///
///   column_comparisons  the expensive kind the paper bounds by N x K
///   code_comparisons    whole-code integer compares ("practically free")
///   row_comparisons     full row compares requested (each may cost several
///                       column comparisons)
///   hash_computations   key hashes (hash-based baselines)
///   rows/bytes_spilled  temporary-storage volume (Figure 6 discussion)
///   merge_bypass_rows   rows whose code marked them as duplicates of the
///                       previous winner, skipping merge logic (Section 5)
///   *_fallbacks         hash operators that overflowed their budget and
///                       degraded to sort-based processing mid-query
///   io_retries          transient temp-file failures recovered by retry
#define OVC_QUERY_COUNTERS(X)                                                \
  X(column_comparisons, "Column value comparisons across all statements")   \
  X(code_comparisons,                                                        \
    "Offset-value code comparisons across all statements")                  \
  X(row_comparisons, "Row comparisons across all statements")               \
  X(hash_computations, "Key hash computations across all statements")       \
  X(rows_spilled, "Rows written to temporary storage")                      \
  X(bytes_spilled, "Bytes written to temporary storage")                    \
  X(merge_bypass_rows, "Rows that bypassed merge logic as coded duplicates") \
  X(hash_join_fallbacks, "Grace hash joins degraded to sort+merge mid-query") \
  X(hash_agg_fallbacks, "Hash aggregations degraded to in-sort mid-query")  \
  X(io_retries, "Transient temp-file I/O failures recovered by retry")

/// Work counters threaded through comparators, operators, and storage.
/// Not thread-safe; each execution thread owns its own instance and parallel
/// operators (exchange) aggregate at the end.
struct QueryCounters {
#define OVC_COUNTER_MEMBER(field, help) uint64_t field = 0;
  OVC_QUERY_COUNTERS(OVC_COUNTER_MEMBER)
#undef OVC_COUNTER_MEMBER

  /// Adds all counts from `other` into this instance.
  void Merge(const QueryCounters& other) {
#define OVC_COUNTER_MERGE(field, help) field += other.field;
    OVC_QUERY_COUNTERS(OVC_COUNTER_MERGE)
#undef OVC_COUNTER_MERGE
  }

  /// Resets all counts to zero.
  void Reset() { *this = QueryCounters(); }

  /// Per-field difference `after - before`. Counters are monotone within a
  /// session, so snapshotting before a run and diffing after yields that
  /// run's exact resource slice (QueryResult::counters_delta).
  static QueryCounters Delta(const QueryCounters& before,
                             const QueryCounters& after) {
    QueryCounters d;
#define OVC_COUNTER_DELTA(field, help) d.field = after.field - before.field;
    OVC_QUERY_COUNTERS(OVC_COUNTER_DELTA)
#undef OVC_COUNTER_DELTA
    return d;
  }

  friend bool operator==(const QueryCounters& a, const QueryCounters& b) {
#define OVC_COUNTER_EQ(field, help) && a.field == b.field
    return true OVC_QUERY_COUNTERS(OVC_COUNTER_EQ);
#undef OVC_COUNTER_EQ
  }
  friend bool operator!=(const QueryCounters& a, const QueryCounters& b) {
    return !(a == b);
  }
};

/// One schema entry as data, for the surfaces that walk every field (wire
/// codec, profile JSON, ovcsql, metric snapshots): read a field of `c` as
/// `c.*field.member`.
struct QueryCounterField {
  const char* name;
  const char* help;
  uint64_t QueryCounters::*member;
};

inline constexpr QueryCounterField kQueryCounterFields[] = {
#define OVC_COUNTER_FIELD(field, help) {#field, help, &QueryCounters::field},
    OVC_QUERY_COUNTERS(OVC_COUNTER_FIELD)
#undef OVC_COUNTER_FIELD
};

}  // namespace ovc

#endif  // OVC_COMMON_COUNTERS_H_
