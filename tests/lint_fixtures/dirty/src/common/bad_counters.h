// Dirty fixture: OVC-L008 twice -- a counter-schema entry whose
// query.<field> metric is missing from the docs/OBSERVABILITY.md registry
// tables, and a documented schema metric declared a second time through
// OVC_METRIC_COUNTER (a schema entry is its metric's only site). The
// documented entry draws no OVC-L009: the schema entry counts as its
// declaration site.

#ifndef OVC_COMMON_BAD_COUNTERS_H_
#define OVC_COMMON_BAD_COUNTERS_H_

#define OVC_QUERY_COUNTERS(X)                                   \
  X(demo_comparisons, "documented in the fixture registry")     \
  X(undocumented_field,                                         \
    "not in the registry")

inline void RecordDemo() {
  OVC_METRIC_COUNTER("query.demo_comparisons", "second site").Increment();
}

#endif  // OVC_COMMON_BAD_COUNTERS_H_
