// The benchmark's workloads: how ovcd is started, which tables it
// generates, which statements the clients send, and the exact answer of
// every statement.
//
// Answers come from a reference evaluator in workloads.cc that regenerates
// each table with GenerateRows from the same seed and computes the result
// with std::sort and std::map. It never calls the planner or an operator,
// so a wrong plan or a broken operator shows up as a mismatch.
//
// Every statement orders its output by all of its columns (or by a unique
// prefix of them) before any LIMIT, so each has one correct answer, and the
// reference can produce it by sorting whole rows.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "row/schema.h"

namespace perfbench {

using Row = std::vector<uint64_t>;
using Rows = std::vector<Row>;

/// One generated table, in the `--gen` spec syntax of sql/gen_spec.h.
struct TableSpec {
  std::string name;
  std::vector<std::string> columns;
  uint32_t keys = 1;
  uint64_t rows = 0;
  uint64_t distinct = 16;
  uint64_t seed = 42;
  bool sorted = false;

  std::string GenSpec() const;
  ovc::Schema schema() const;
  /// The rows the server's catalog registers for this spec, in the same
  /// order (GenerateRows with the same config).
  Rows Generate() const;
};

/// A statement shape. `literal` is the seed- or Zipf-drawn constant the
/// statement text carries.
struct Template {
  /// Short label used in traces and per-statement reports.
  std::string label;
  std::function<std::string(uint64_t literal)> sql;
  std::function<Rows(uint64_t literal)> reference;
  /// Base-table rows the statement reads (the denominator of the
  /// per-row work counters).
  uint64_t input_rows = 0;
};

/// What a client sends next.
struct Request {
  uint32_t tmpl = 0;
  uint64_t literal = 0;
  /// True: EXECUTE the handle prepared at connect time for `prepared`.
  bool execute = false;
  size_t prepared = 0;
};

struct Workload {
  std::string name;
  uint32_t clients = 1;
  /// ovcd --max-queries (admission slots).
  uint32_t max_queries = 1;
  /// ovcd --workers-per-query (exchange workers per admitted statement).
  uint32_t workers = 1;
  /// ovcd --sort-memory-rows / --hash-memory-rows, machine totals that
  /// ovcd divides by max_queries; 0 keeps ovcd's default.
  uint64_t sort_memory_rows = 0;
  uint64_t hash_memory_rows = 0;
  /// Percentile reported as latency_tail_ms, chosen so a run of the
  /// configured length has at least ten samples beyond it.
  double tail_percentile = 0.9;
  std::vector<TableSpec> tables;
  std::vector<Template> templates;

  /// Statement stream. With zipf_domain == 0 each client cycles through the
  /// templates in order (starting at its own offset) with literal 0; the
  /// run then ends on a cycle boundary so the statement mix is exact.
  /// Otherwise the template is uniform and the literal Zipf-distributed over
  /// [0, zipf_domain), and `execute_share` of the requests EXECUTE one of
  /// the statements prepared at connect time.
  uint64_t zipf_domain = 0;
  double execute_share = 0;
  /// Statements each client PREPAREs once at connect time.
  uint32_t prepared_per_client = 0;

  /// Draws the next request of a client; `prepared` is what the client
  /// prepared at connect time.
  Request Next(uint32_t client, uint64_t index,
               const std::vector<Request>& prepared, ovc::Rng* rng) const;
  /// The (template, literal) pairs a client prepares at connect time.
  std::vector<Request> Prepared(ovc::Rng* rng) const;
  std::string Sql(const Request& r) const {
    return templates[r.tmpl].sql(r.literal);
  }
  bool cycles() const { return zipf_domain == 0; }
  /// ovcd flags for the settings above (without --gen and --temp-dir).
  std::vector<std::string> ServerFlags() const;

  /// Computes the answer of every statement the stream can produce (all
  /// templates, and for Zipf streams every literal of the domain). Call
  /// once, before clients start; Expected is then read-only.
  void ComputeAnswers();
  /// The exact answer of `r`.
  const Rows& Expected(const Request& r) const {
    return answers.at({r.tmpl, r.literal});
  }

  /// Zipf CDF over ranks and the seeded permutation from ranks to literals.
  std::vector<double> zipf_cdf;
  std::vector<uint64_t> zipf_values;
  std::map<std::pair<uint32_t, uint64_t>, Rows> answers;
};

/// Builds point_mix, analytic_sort or spill_stream for `seed`; nullptr for
/// any other name. Generates the
/// reference copies of the tables.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
